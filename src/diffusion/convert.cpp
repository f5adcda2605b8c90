#include "diffusion/convert.hpp"

#include "common/error.hpp"

namespace pp {

namespace {

/// Stacks same-shape rasters into {N,1,H,W}: set pixels -> `on`, clear
/// pixels -> `off`.
nn::Tensor stack_rasters(const std::vector<Raster>& batch, float on,
                         float off) {
  PP_REQUIRE_MSG(!batch.empty(), "stack_rasters: empty batch");
  int h = batch.front().height(), w = batch.front().width();
  nn::Tensor out({static_cast<int>(batch.size()), 1, h, w});
  for (std::size_t n = 0; n < batch.size(); ++n) {
    const Raster& r = batch[n];
    PP_REQUIRE_MSG(r.width() == w && r.height() == h,
                   "stack_rasters: inconsistent shapes");
    float* p = out.data() + n * static_cast<std::size_t>(h) * w;
    for (std::size_t i = 0; i < static_cast<std::size_t>(h) * w; ++i)
      p[i] = r.data()[i] ? on : off;
  }
  return out;
}

}  // namespace

nn::Tensor rasters_to_tensor(const std::vector<Raster>& batch) {
  return stack_rasters(batch, 1.0f, -1.0f);
}

nn::Tensor raster_to_tensor(const Raster& r) { return rasters_to_tensor({r}); }

std::vector<Raster> tensor_to_rasters(const nn::Tensor& t) {
  PP_REQUIRE_MSG(t.ndim() == 4 && t.dim(1) == 1,
                 "tensor_to_rasters: expected {N,1,H,W}");
  int n = t.dim(0), h = t.dim(2), w = t.dim(3);
  std::vector<Raster> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Raster r(w, h);
    const float* p = t.data() + static_cast<std::size_t>(i) * h * w;
    for (std::size_t k = 0; k < static_cast<std::size_t>(h) * w; ++k)
      r.data()[k] = p[k] > 0.0f ? 1 : 0;
    out.push_back(std::move(r));
  }
  return out;
}

nn::Tensor mask_to_tensor(const Raster& mask) {
  return masks_to_tensor({mask});
}

nn::Tensor masks_to_tensor(const std::vector<Raster>& masks) {
  return stack_rasters(masks, 1.0f, 0.0f);
}

nn::Tensor repeat_batch(const nn::Tensor& t, int n) {
  PP_REQUIRE_MSG(t.ndim() == 4 && t.dim(0) == 1, "repeat_batch: expected {1,C,H,W}");
  PP_REQUIRE(n >= 1);
  nn::Tensor out({n, t.dim(1), t.dim(2), t.dim(3)});
  std::size_t sz = t.numel();
  for (int i = 0; i < n; ++i)
    std::copy_n(t.data(), sz, out.data() + static_cast<std::size_t>(i) * sz);
  return out;
}

}  // namespace pp
