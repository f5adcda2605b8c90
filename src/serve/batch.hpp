// ContinuousBatch: one executor shard's running batch for step-level
// continuous batching (LLM-serving style).
//
// The batch holds per-sample denoising state (Ddpm::InpaintState) for ONE
// registry entry — same preset + checkpoint + clip + weight generation, by
// pointer identity, so weights never mix across hot-swap generations — and
// ONE precision tier (the step's forward pass runs one weight table).
// steps/eta are per-sample schedule state, not a batch key, so members with
// different sampler knobs share every step. The owner drives it one step
// boundary at a time: join(), leave_dead(), feed_expansions(), step().
//
// Contract: the class takes no locks, starts no threads and delivers
// nothing. Every operation that can finish a request returns the
// (request, response) pairs it completed; the caller delivers them. A
// drained batch (no members left) forgets its entry, precision and clip
// shape, so the next join may open it for any model.
//
// Determinism: a sample's noise is a pure function of its own stream base
// and step index, so any interleaving of joins, leaves and feeds yields
// output bitwise identical to sequential one-request-at-a-time execution
// (serve/protocol.hpp, "Determinism contract").
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "diffusion/ddpm.hpp"
#include "expand/expander.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace pp::serve {

/// One accepted request as it travels from admission through a shard queue
/// and the running batch to delivery.
struct Pending {
  GenRequest req;
  std::function<void(GenResponse)> done;
  ModelRegistry::EntryPtr entry;
  std::string cache_key;  ///< non-empty = insert the response on success
  std::chrono::steady_clock::time_point enqueue;
  std::chrono::steady_clock::time_point deadline;  ///< valid iff has_deadline
  bool has_deadline = false;
  double wait_ms_snapshot = 0.0;  ///< enqueue -> batch join
  std::atomic<bool> cancelled{false};
  // Request-scoped telemetry (written by admission / the executor, read at
  // completion on the same thread that last wrote them).
  std::uint64_t trace_start_ns = 0;  ///< trace-epoch submit time (0 = off)
  std::chrono::steady_clock::time_point exec_start;  ///< batch join time
  bool started = false;         ///< exec_start is valid
  int step_batches = 0;         ///< denoising step-batches participated in
  bool joined_running = false;  ///< joined a batch that was already going
  int expand_windows = 0;       ///< expand only: windows committed
  int expand_waves = 0;         ///< expand only: waves completed
};
using PendingPtr = std::shared_ptr<Pending>;

/// True when `p` carries a deadline that has passed at `now`.
bool expired(const Pending& p, std::chrono::steady_clock::time_point now);

/// A request the batch is done with, and the response to deliver for it.
using Completion = std::pair<PendingPtr, GenResponse>;

/// Lifetime batching counters, shared by every shard of one server (the
/// process-wide serve.* metrics are bumped alongside).
struct BatchCounters {
  std::atomic<std::uint64_t> batches{0};  ///< batches opened
  std::atomic<std::uint64_t> samples{0};  ///< samples (windows) that entered
  std::atomic<std::uint64_t> joins{0};    ///< samples that joined a running batch
  std::atomic<std::uint64_t> leaves{0};   ///< samples that left early
  std::atomic<std::uint64_t> repacks{0};  ///< re-packs that kept survivors
};

class ContinuousBatch {
 public:
  /// `max_samples` caps the samples resident in the state; `counters` must
  /// outlive the batch.
  ContinuousBatch(int max_samples, BatchCounters& counters);

  /// No members: the batch is idle and holds no entry or state.
  bool empty() const { return members_.empty(); }
  /// Samples currently inside the denoising state.
  int active() const { return st_.active(); }

  /// Fixes an idle batch's entry and precision to `first`'s; the join pass
  /// calls it with the queue head before asking accepts(). No-op while the
  /// batch has members.
  void open(const Pending& first);
  /// Join-pass predicate: whether `p` may join at this boundary, given that
  /// `planned` samples are already resident or admitted in this pass.
  bool accepts(const Pending& p, int planned) const;
  /// Fairness: true when a queue head for a different entry or precision
  /// waits on the running batch. The owner then admits no joins, so the
  /// batch drains and the head gets served.
  bool blocked_by(const Pending& head) const;

  /// Adds requests accepted by accepts() (in that order) to the batch at
  /// `now`. Sample and inpaint requests enter the state at once; expansions
  /// become members whose windows arrive through feed_expansions(). Returns
  /// the requests that failed to join.
  std::vector<Completion> join(const std::vector<PendingPtr>& joined,
                               std::chrono::steady_clock::time_point now);

  /// Cancelled or deadline-expired members leave now; the survivors
  /// re-pack with their bits untouched.
  std::vector<Completion> leave_dead(std::chrono::steady_clock::time_point now);

  /// Every expansion member moves the ready windows of its current wave
  /// into the state, up to the spare sample budget (at least one window
  /// when the state is otherwise idle, so an expansion always progresses).
  /// A failed acquire or join marks that expansion failed; it completes
  /// once its in-flight windows drain.
  void feed_expansions();

  /// One denoising step for every active sample, then routes finished
  /// samples home and completes every member whose work is done. A model
  /// error abandons the whole batch with kInternal.
  std::vector<Completion> step();

  /// Ends every member with `code` (cancelled or expired members keep their
  /// own verdict) and empties the batch.
  std::vector<Completion> abandon(ErrorCode code, const std::string& msg);

 private:
  /// Expansion state of one expand member: the wavefront engine plus the
  /// windows inside the state, keyed by the per-window sequence number that
  /// namespaces their tags (tag = mid * kTagStride + seq).
  struct ExpandRun {
    std::unique_ptr<expand::WavefrontExpander> ex;
    std::unordered_map<std::uint64_t, expand::WindowWork> inflight;
    std::uint64_t next_seq = 0;
    bool failed = false;  ///< feed/commit raised; drain then fail
    std::string fail_msg;
  };
  /// One request inside the batch. `mid` namespaces its sample tags (tag =
  /// mid * kTagStride + sample index); `raws` collects finished samples at
  /// their request-order position the moment each one's schedule ends.
  struct Member {
    PendingPtr p;
    std::uint64_t mid = 0;
    int remaining = 0;   ///< samples (expand: windows) still in the state
    int peak_batch = 0;  ///< max co-resident samples while this request ran
    std::vector<Raster> raws;
    std::vector<std::uint64_t> finish_bases;
    std::unique_ptr<ExpandRun> xp;  ///< non-null = expand member
  };
  static constexpr std::uint64_t kTagStride = 1ull << 32;

  /// Counts `n` samples entering the state; the first samples of a batch
  /// also count the batch.
  void count_samples(int n, bool joined_running);
  /// Counts a re-pack when samples left and others are still running.
  void count_repack();
  /// Finish tail and response for a member whose work is done.
  GenResponse complete(Member& mem) const;
  /// Forgets the entry, precision and clip shape once no member is left.
  void forget_if_drained();

  int max_samples_;
  BatchCounters& counters_;
  ModelRegistry::EntryPtr entry_;  ///< the running batch's registry entry
  std::string precision_;          ///< the running batch's precision tier
  InpaintState st_;
  std::vector<Member> members_;
  std::uint64_t next_mid_ = 0;
  bool counted_ = false;  ///< this batch is already in counters_.batches
};

}  // namespace pp::serve
