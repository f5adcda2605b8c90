#include "serve/batch.hpp"

#include <algorithm>
#include <exception>

#include "common/rng.hpp"
#include "diffusion/convert.hpp"
#include "nn/quant.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pp::serve {

namespace {

using Clock = std::chrono::steady_clock;

struct BatchMetrics {
  obs::Counter& batches = obs::metrics().counter("serve.batches");
  obs::Counter& coalesced = obs::metrics().counter("serve.coalesced");
  obs::Counter& samples = obs::metrics().counter("serve.samples");
  obs::Counter& joins = obs::metrics().counter("serve.joins");
  obs::Counter& leaves = obs::metrics().counter("serve.leaves");
  obs::Counter& repacks = obs::metrics().counter("serve.repacks");
  obs::Histogram& wait_ms = obs::metrics().histogram("serve.wait_ms");
  obs::Histogram& batch_samples = obs::metrics().histogram("serve.batch_samples");
};

BatchMetrics& batch_metrics() {
  static BatchMetrics* m = new BatchMetrics;
  return *m;
}

/// Resolves a request's precision string (validated at admission) to the
/// kernel-layer tier; fp32 is the defensive fallback.
nn::Precision precision_of(const std::string& name) {
  nn::Precision p = nn::Precision::kFp32;
  nn::parse_precision(name, &p);
  return p;
}

SamplerParams sampler_of(const GenRequest& req) {
  return SamplerParams{req.steps, static_cast<float>(req.eta)};
}

Completion fail(const PendingPtr& p, ErrorCode code, const std::string& msg) {
  return {p, GenResponse::fail(p->req.id, code, msg)};
}

}  // namespace

bool expired(const Pending& p, Clock::time_point now) {
  return p.has_deadline && now >= p.deadline;
}

ContinuousBatch::ContinuousBatch(int max_samples, BatchCounters& counters)
    : max_samples_(max_samples), counters_(counters) {}

void ContinuousBatch::open(const Pending& first) {
  if (!members_.empty()) return;
  entry_ = first.entry;
  precision_ = first.req.precision;
}

bool ContinuousBatch::accepts(const Pending& p, int planned) const {
  const bool fits = planned == 0 || planned + p.req.count <= max_samples_;
  return p.entry.get() == entry_.get() && p.req.precision == precision_ &&
         fits;
}

bool ContinuousBatch::blocked_by(const Pending& head) const {
  return !members_.empty() && (head.entry.get() != entry_.get() ||
                               head.req.precision != precision_);
}

void ContinuousBatch::count_samples(int n, bool joined_running) {
  BatchMetrics& m = batch_metrics();
  if (!counted_) {
    counted_ = true;
    counters_.batches.fetch_add(1);
    m.batches.add(1);
  }
  counters_.samples.fetch_add(static_cast<std::uint64_t>(n));
  m.samples.add(static_cast<std::uint64_t>(n));
  if (joined_running) {
    counters_.joins.fetch_add(static_cast<std::uint64_t>(n));
    m.joins.add(static_cast<std::uint64_t>(n));
  }
}

void ContinuousBatch::count_repack() {
  if (st_.empty()) return;  // nobody was re-packed
  counters_.repacks.fetch_add(1);
  batch_metrics().repacks.add(1);
}

std::vector<Completion> ContinuousBatch::join(
    const std::vector<PendingPtr>& joined, Clock::time_point now) {
  BatchMetrics& m = batch_metrics();
  std::vector<Completion> failed;
  const nn::ScopedPrecision prec_guard(precision_of(precision_));
  bool grew = false;
  // Stream bases follow the sequential reference (Rng(seed) -> count gen
  // bases, then count finish bases; serve/protocol.hpp). Per-sample noise
  // is a pure function of (base, step index), so joining late cannot shift
  // anyone's bits.
  for (const PendingPtr& p : joined) {
    p->wait_ms_snapshot =
        std::chrono::duration<double, std::milli>(now - p->enqueue).count();
    m.wait_ms.observe(p->wait_ms_snapshot);
    p->exec_start = now;
    p->started = true;
    p->joined_running = !members_.empty();
    Member mem;
    mem.p = p;
    mem.mid = next_mid_++;
    if (p->req.op == GenRequest::Op::kExpand) {
      // An expansion holds a member slot but brings no samples yet: its
      // wavefront windows stream in through feed_expansions(), interleaved
      // with ordinary traffic, so a long expansion never freezes the batch.
      expand::ExpandConfig ecfg;
      ecfg.sampler = sampler_of(p->req);
      ecfg.denoise_windows = p->req.finish;
      mem.xp = std::make_unique<ExpandRun>();
      try {
        mem.xp->ex = std::make_unique<expand::WavefrontExpander>(
            *entry_->pp, p->req.tmpl, p->req.target_w, p->req.target_h,
            p->req.seed, ecfg);
      } catch (const std::exception& e) {
        failed.push_back(fail(p, ErrorCode::kInternal, e.what()));
        continue;
      }
      members_.push_back(std::move(mem));
      continue;
    }
    const int count = p->req.count;
    mem.remaining = count;
    mem.raws.resize(static_cast<std::size_t>(count));
    mem.finish_bases.resize(static_cast<std::size_t>(count));
    Rng rng(p->req.seed);
    std::vector<std::uint64_t> gen_bases(static_cast<std::size_t>(count));
    for (auto& b : gen_bases) b = rng.draw_seed();
    for (auto& b : mem.finish_bases) b = rng.draw_seed();
    std::vector<std::uint64_t> tags(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k)
      tags[static_cast<std::size_t>(k)] =
          mem.mid * kTagStride + static_cast<std::uint64_t>(k);
    // A sample request inpaints an empty layout everywhere.
    const int clip = entry_->cfg.clip_size;
    const bool inpaint = p->req.op == GenRequest::Op::kInpaint;
    const nn::Tensor known = repeat_batch(
        raster_to_tensor(inpaint ? p->req.tmpl : Raster(clip, clip, 0)),
        count);
    const nn::Tensor mask = repeat_batch(
        mask_to_tensor(inpaint ? p->req.mask : Raster(clip, clip, 1)), count);
    try {
      entry_->pp->model().join(st_, known, mask, gen_bases, tags,
                               sampler_of(p->req));
    } catch (const std::exception& e) {
      failed.push_back(fail(p, ErrorCode::kInternal, e.what()));
      continue;
    }
    count_samples(count, !members_.empty());
    grew = true;
    members_.push_back(std::move(mem));
  }
  if (grew) {
    m.batch_samples.observe(static_cast<double>(st_.active()));
    if (members_.size() > 1)
      m.coalesced.add(static_cast<std::uint64_t>(joined.size()));
  }
  forget_if_drained();
  return failed;
}

std::vector<Completion> ContinuousBatch::leave_dead(Clock::time_point now) {
  BatchMetrics& m = batch_metrics();
  std::vector<Completion> out;
  std::vector<std::uint64_t> leave_tags;
  for (auto it = members_.begin(); it != members_.end();) {
    Member& mem = *it;
    const bool cancel = mem.p->cancelled.load();
    if (!cancel && !expired(*mem.p, now)) {
      ++it;
      continue;
    }
    if (mem.xp) {
      // Expand tags are the in-flight window sequence numbers; the un-fed
      // rest of the plan never runs and the partial canvas is dropped.
      for (const auto& kv : mem.xp->inflight)
        leave_tags.push_back(mem.mid * kTagStride + kv.first);
    } else {
      for (int k = 0; k < mem.p->req.count; ++k)
        leave_tags.push_back(mem.mid * kTagStride +
                             static_cast<std::uint64_t>(k));
    }
    counters_.leaves.fetch_add(static_cast<std::uint64_t>(mem.remaining));
    m.leaves.add(static_cast<std::uint64_t>(mem.remaining));
    out.push_back(cancel ? fail(mem.p, ErrorCode::kCancelled,
                                "cancelled while executing")
                         : fail(mem.p, ErrorCode::kTimeout,
                                "deadline expired mid-batch"));
    it = members_.erase(it);
  }
  if (!leave_tags.empty()) {
    entry_->pp->model().leave(st_, leave_tags);
    count_repack();
  }
  forget_if_drained();
  return out;
}

void ContinuousBatch::feed_expansions() {
  BatchMetrics& m = batch_metrics();
  for (Member& mem : members_) {
    if (!mem.xp || mem.xp->failed) continue;
    ExpandRun& xp = *mem.xp;
    int budget = max_samples_ - st_.active();
    if (st_.active() == 0) budget = std::max(budget, 1);
    if (budget <= 0) continue;
    std::vector<expand::WindowWork> works;
    try {
      works = xp.ex->acquire(budget);
      if (works.empty()) continue;
      const expand::WindowBatch in = expand::stack_windows(works);
      std::vector<std::uint64_t> tags(works.size());
      for (std::size_t k = 0; k < works.size(); ++k)
        tags[k] = mem.mid * kTagStride + xp.next_seq + k;
      const nn::ScopedPrecision guard(precision_of(precision_));
      entry_->pp->model().join(st_, in.known, in.mask, in.bases, tags,
                               sampler_of(mem.p->req));
    } catch (const std::exception& e) {
      // join validates before touching the state, so nothing entered; the
      // expansion drains its earlier windows and then fails.
      xp.failed = true;
      xp.fail_msg = e.what();
      continue;
    }
    for (expand::WindowWork& w : works)
      xp.inflight.emplace(xp.next_seq++, std::move(w));
    const int n = static_cast<int>(works.size());
    mem.remaining += n;
    count_samples(n, members_.size() > 1);
    m.batch_samples.observe(static_cast<double>(st_.active()));
  }
}

std::vector<Completion> ContinuousBatch::step() {
  // A zero-active state (expansions that just finished feeding or failed)
  // skips straight to completion.
  const int cur = st_.active();
  std::vector<FinishedSample> done;
  if (cur > 0) {
    for (Member& mem : members_) mem.peak_batch = std::max(mem.peak_batch, cur);
    try {
      PP_TRACE_SPAN("serve.step_batch");
      // Flow points emitted INSIDE the open step-batch span bind each
      // request's flow chain to this slice in the chrome export.
      for (Member& mem : members_) {
        ++mem.p->step_batches;
        if (mem.p->trace_start_ns != 0)
          obs::record_flow_point("serve.step", mem.p->req.id);
      }
      const nn::ScopedPrecision prec_guard(precision_of(precision_));
      done = entry_->pp->model().step(st_);
    } catch (const std::exception& e) {
      return abandon(ErrorCode::kInternal, e.what());
    }
  }
  if (!done.empty()) count_repack();

  // Route finished samples home.
  for (const FinishedSample& f : done) {
    const std::uint64_t mid = f.tag / kTagStride;
    const std::uint64_t k = f.tag % kTagStride;
    auto mem = std::find_if(members_.begin(), members_.end(),
                            [mid](const Member& x) { return x.mid == mid; });
    if (mem == members_.end()) continue;
    if (!mem->xp) {
      mem->raws[static_cast<std::size_t>(k)] = tensor_to_rasters(f.x)[0];
      --mem->remaining;
      continue;
    }
    auto w = mem->xp->inflight.find(k);
    if (w == mem->xp->inflight.end()) continue;
    try {
      // The commit's window denoise runs under the batch precision, same
      // as the generation that produced it.
      const nn::ScopedPrecision guard(precision_of(precision_));
      mem->xp->ex->commit(w->second, tensor_to_rasters(f.x)[0]);
    } catch (const std::exception& e) {
      mem->xp->failed = true;
      mem->xp->fail_msg = e.what();
    }
    mem->xp->inflight.erase(w);
    --mem->remaining;
  }

  // A member whose last sample just landed completes now; it does not wait
  // for the batch to drain. An expansion completes when nothing is in
  // flight AND its wavefront is exhausted (or it failed and has drained).
  std::vector<Completion> out;
  for (auto it = members_.begin(); it != members_.end();) {
    const bool finished =
        it->remaining == 0 &&
        (!it->xp || it->xp->failed || it->xp->ex->done());
    if (!finished) {
      ++it;
      continue;
    }
    out.emplace_back(it->p, complete(*it));
    it = members_.erase(it);
  }
  forget_if_drained();
  return out;
}

GenResponse ContinuousBatch::complete(Member& mem) const {
  const PendingPtr& p = mem.p;
  if (p->cancelled.load())
    return GenResponse::fail(p->req.id, ErrorCode::kCancelled,
                             "cancelled while executing");
  if (mem.xp && mem.xp->failed)
    return GenResponse::fail(p->req.id, ErrorCode::kInternal,
                             mem.xp->fail_msg);
  GenResponse resp;
  resp.id = p->req.id;
  resp.wait_ms = p->wait_ms_snapshot;
  resp.batch_samples = mem.peak_batch;
  try {
    if (mem.xp) {
      const expand::ExpandStats stats = mem.xp->ex->stats();
      resp.is_expand = true;
      resp.target_w = p->req.target_w;
      resp.target_h = p->req.target_h;
      resp.expand_windows = stats.windows_total;
      resp.expand_waves = stats.waves;
      resp.expand_seam_violations = stats.seam_violations;
      resp.expand_drc_pass_rate = stats.drc_pass_rate();
      resp.patterns.push_back(mem.xp->ex->take_canvas());
      resp.legal.push_back(stats.drc_checked == stats.drc_clean);
      p->expand_windows = stats.windows_total;
      p->expand_waves = stats.waves;
    } else if (p->req.finish) {
      const int clip = entry_->cfg.clip_size;
      const Raster tmpl = p->req.op == GenRequest::Op::kInpaint
                              ? p->req.tmpl
                              : Raster(clip, clip, 0);
      const std::vector<Raster> tmpls(mem.raws.size(), tmpl);
      const nn::ScopedPrecision guard(precision_of(precision_));
      for (const GenerationRecord& rec :
           entry_->pp->finish_samples(mem.raws, tmpls, mem.finish_bases)) {
        resp.patterns.push_back(rec.denoised);
        resp.legal.push_back(rec.legal);
      }
    } else {
      resp.patterns = std::move(mem.raws);
    }
  } catch (const std::exception& e) {
    return GenResponse::fail(p->req.id, ErrorCode::kInternal, e.what());
  }
  return resp;
}

std::vector<Completion> ContinuousBatch::abandon(ErrorCode code,
                                                 const std::string& msg) {
  std::vector<Completion> out;
  const Clock::time_point now = Clock::now();
  for (const Member& mem : members_) {
    ErrorCode c = code;
    if (mem.p->cancelled.load())
      c = ErrorCode::kCancelled;
    else if (expired(*mem.p, now))
      c = ErrorCode::kTimeout;
    out.push_back(fail(mem.p, c, msg));
  }
  members_.clear();
  forget_if_drained();
  return out;
}

void ContinuousBatch::forget_if_drained() {
  if (!members_.empty()) return;
  // A drained InpaintState still remembers its clip shape; dropping it lets
  // the next batch serve a model with a different clip size.
  st_ = InpaintState();
  entry_.reset();
  precision_.clear();
  counted_ = false;
}

}  // namespace pp::serve
