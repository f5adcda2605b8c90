// Conversions between binary layout rasters and diffusion-space tensors.
//
// Diffusion operates on floats in [-1, 1]: metal = +1, empty = -1. The
// threshold back to binary is 0.
#pragma once

#include <vector>

#include "geometry/raster.hpp"
#include "nn/tensor.hpp"

namespace pp {

/// Stacks rasters (all the same shape) into an {N,1,H,W} tensor in [-1,1].
nn::Tensor rasters_to_tensor(const std::vector<Raster>& batch);

/// Single raster to {1,1,H,W}.
nn::Tensor raster_to_tensor(const Raster& r);

/// Thresholds each {*,1,H,W} slice at 0 back to binary rasters.
std::vector<Raster> tensor_to_rasters(const nn::Tensor& t);

/// Mask raster (1 = region to regenerate) to {1,1,H,W} float {0,1} tensor.
nn::Tensor mask_to_tensor(const Raster& mask);

/// Stacks mask rasters (all the same shape) into an {N,1,H,W} {0,1} tensor.
nn::Tensor masks_to_tensor(const std::vector<Raster>& masks);

/// Repeats a {1,1,H,W} tensor n times along the batch axis.
nn::Tensor repeat_batch(const nn::Tensor& t, int n);

}  // namespace pp
