// GenerationServer: the request-driven layer over the PatternPaint
// pipeline.
//
// Requests enter a bounded, deadline-aware queue (admission control:
// reject-with-reason when full or draining) that is SHARDED across N
// executor threads. Each registry entry has a stable shard affinity
// (Entry::route, assigned round-robin at load), so all traffic for one
// model lands on one executor and batching stays effective; the admission
// bound (max_queue) is GLOBAL across shards, so capacity behaves
// identically at any shard count. Each executor serves its shard with
// STEP-LEVEL CONTINUOUS BATCHING through one ContinuousBatch
// (serve/batch.hpp): at every denoising-step boundary queued requests for
// the running entry JOIN (up to max_batch_samples), cancelled or expired
// samples LEAVE, finished requests are delivered at once and the latents
// RE-PACK, so a late request waits one step, not one whole generation. The
// executor loop itself owns only the shard queue, the deadline pass,
// in-flight bookkeeping and delivery.
//
// Batching never changes a sample's bits (serve/protocol.hpp,
// "Determinism contract"), which also powers the GENERATION CACHE
// (serve/cache.hpp): with cache_entries > 0, admission consults a
// content-addressed LRU keyed by (model generation, op, seed, count,
// finish, steps, eta, template hash, mask hash) and serves hits inline —
// bitwise identical to cold execution, bypassing the executor entirely.
//
// Deadlines are enforced both in the queue and mid-flight (expired samples
// complete with "timeout"); cancellation takes effect at the next step
// boundary. shutdown() drains gracefully — admission closes, queued work
// completes, then the executors exit. Destruction without shutdown()
// abandons in-flight work at the next step boundary and fails queued
// requests with "draining".
//
// ServerConfig::continuous = false is the "join when idle" policy: queued
// requests join only a batch that has drained, so bench_serve can A/B the
// tail-latency win of step-boundary joins on identical workloads.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/rolling.hpp"
#include "serve/batch.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/reqlog.hpp"

namespace pp::obs {
class Gauge;
}

namespace pp::serve {

struct ServerConfig {
  std::size_t max_queue = 64;  ///< GLOBAL pending bound (admission control)
  int max_batch_samples = 16;  ///< running-batch cap per shard, in samples
  /// Executor shard count. Each shard owns a slice of the request queue
  /// and its own executor thread; a registry entry's traffic always lands
  /// on shard (route % shards). 1 = the single-executor behaviour.
  std::size_t shards = 1;
  /// Generation-cache capacity in responses; 0 disables the cache. Hits
  /// are served at admission, bitwise identical to cold execution.
  std::size_t cache_entries = 0;
  /// Join policy of the running batch. true (the default): new same-entry
  /// requests join at the next denoising-step boundary. false: "join when
  /// idle" — requests join only while the batch is empty, the A/B baseline
  /// bench_serve measures step-boundary joins against. Leaves, re-packs and
  /// per-request completion work the same under both; outputs are bitwise
  /// identical either way.
  bool continuous = true;
  /// Wide-event request log (one NDJSON line per finished/rejected
  /// request). Defaults honor PP_REQLOG / PP_REQLOG_ROTATE_BYTES; an empty
  /// path disables logging.
  RequestLogConfig request_log = RequestLogConfig::from_env();
  /// Rolling-window sizing for live SLO stats (PP_ROLL_WINDOW_S).
  obs::RollingConfig rolling = obs::RollingConfig::from_env();
};

class GenerationServer {
 public:
  GenerationServer(std::shared_ptr<ModelRegistry> registry,
                   ServerConfig cfg = {});
  ~GenerationServer();

  GenerationServer(const GenerationServer&) = delete;
  GenerationServer& operator=(const GenerationServer&) = delete;

  /// Launches the executor threads (idempotent). Requests submitted before
  /// start() queue up and are served once they run — tests use this window
  /// to force coalescing deterministically.
  void start();

  /// Graceful drain: closes admission, starts the executors if they never
  /// ran, waits until every queued and in-flight request has completed,
  /// then stops the executors. Idempotent.
  void shutdown();

  /// Asynchronous submit. `done` runs exactly once: inline (on the calling
  /// thread) when admission rejects the request OR the generation cache
  /// hits, on an executor thread otherwise. Admission resolves the model
  /// handle, validates shapes and applies the global queue bound; every
  /// failure is a structured GenResponse, never an exception.
  void submit(GenRequest req, std::function<void(GenResponse)> done);

  /// Future-returning convenience wrapper over the callback form.
  std::future<GenResponse> submit(GenRequest req);

  /// Cancels a request by id. Queued: removed and completed with
  /// "cancelled" immediately. In-flight: flagged; the request leaves the
  /// running batch at the next denoising-step boundary and the response
  /// carries "cancelled". Returns false when the id is not pending.
  bool cancel(std::uint64_t id);

  bool accepting() const { return !draining_.load(); }
  std::size_t queue_depth() const { return pending_total_.load(); }
  std::size_t shard_count() const { return shards_.size(); }
  /// Pending requests queued on one shard (tests/fairness probes).
  std::size_t shard_depth(std::size_t shard) const;
  const GenerationCache& cache() const { return cache_; }

  /// Lifetime serve statistics: queue/admission counters, latency
  /// histograms, shard + cache state, rolling-window stats and the model
  /// registry ("serve stats dump").
  obs::Json stats_json() const;

  /// stats_json() to disk via the atomic tmp+rename discipline.
  bool write_stats(const std::string& path) const;

  /// Live scrape payload for the `metrics` wire op: the registry snapshot
  /// (expo.hpp) plus this server's rolling windows. Reads without stopping
  /// writers.
  obs::Json metrics_json() const;

  /// Health verdict for the `health` wire op: "ok" / "overloaded" /
  /// "draining", rolling error rate, queue depth and trace loss. The
  /// overload flag has hysteresis — it trips at queue >= 80% of max_queue
  /// or a short-window error rate >= 0.5, and only clears below 50% /
  /// 0.25 — so a scraper polling at any cadence sees a stable signal, not
  /// a strobe.
  obs::Json health_json() const;

  /// The wide-event request log (ServerConfig::request_log / PP_REQLOG).
  const RequestLog& request_log() const { return reqlog_; }

 private:
  /// One executor shard: its queue slice, in-flight set, worker thread and
  /// depth gauge. Guarded by its own mutex so shards never contend.
  struct Shard {
    mutable std::mutex m;
    std::condition_variable cv;
    std::deque<PendingPtr> queue;
    std::vector<PendingPtr> inflight;
    std::thread worker;
    obs::Gauge* depth = nullptr;  ///< serve.shard.<i>.depth
    std::atomic<std::uint64_t> served{0};  ///< requests its executor delivered
  };

  Shard& shard_for(const ModelRegistry::Entry* entry);
  /// The executor: queue, deadline pass and join pass under the shard
  /// lock, then one step of the shard's ContinuousBatch (see class comment).
  void worker_loop(Shard& sh);
  /// Drops completed requests from the shard's in-flight set, then
  /// responds to each.
  void deliver(Shard& sh, std::vector<Completion> done);
  void finish_response(const PendingPtr& p, GenResponse resp);
  /// One wide-event line for an admission reject (accepted requests log
  /// from finish_response).
  void log_reject(const GenRequest& req, ErrorCode code);
  /// Removes one request from a shard queue under its lock; pairs every
  /// erase with the global pending-count decrement and gauge updates.
  /// Returns the iterator after the erased element.
  std::deque<PendingPtr>::iterator pop_locked(
      Shard& sh, std::deque<PendingPtr>::iterator it);

  std::shared_ptr<ModelRegistry> registry_;
  ServerConfig cfg_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Queued-request count across all shards; the admission bound is
  /// enforced against this, so max_queue means the same thing at any
  /// shard count.
  std::atomic<std::size_t> pending_total_{0};
  GenerationCache cache_;

  std::mutex lifecycle_m_;  ///< guards worker start/stop transitions
  bool workers_started_ = false;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_hard_{false};

  // Instance-lifetime stats (also mirrored into the process metrics
  // registry as serve.* counters/histograms and the "serve" report
  // section).
  std::atomic<std::uint64_t> accepted_{0}, rejected_{0}, timeouts_{0},
      cancelled_{0}, completed_{0}, cache_hits_{0}, cache_misses_{0};
  BatchCounters batch_counters_;  ///< shared by every shard's batch

  // Live telemetry plane: rolling windows baseline at THIS instance's
  // construction (the underlying serve.* metrics are process-global), the
  // wide-event log, and the hysteretic overload latch (health_json).
  obs::RollingCollector rolling_;
  RequestLog reqlog_;
  mutable std::atomic<bool> overloaded_{false};
};

}  // namespace pp::serve
