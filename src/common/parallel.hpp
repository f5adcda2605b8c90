// Minimal data-parallel helper used by the NN layers and batch generation.
//
// parallel_for splits [begin, end) into contiguous chunks across a shared
// thread pool. The body must be safe to run concurrently on disjoint indices.
// A parallel_for issued from inside a pool job's body runs inline on the
// thread that issued it, so the outer call owns the parallelism (e.g. one
// job per conv over the batch, with each sample's GEMM running serially).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace pp {

/// Number of worker threads the pool uses: the PP_THREADS environment
/// variable if set (>= 1; 1 means fully serial), else
/// hardware_concurrency capped at 16. Read once at pool creation.
std::size_t parallel_thread_count();

/// Pool instrumentation snapshot (also published as the "pool" section of
/// the obs run report, and as pool.* counters/histograms in the metrics
/// registry).
struct PoolStats {
  std::size_t threads = 0;      ///< pool width incl. the calling thread
  std::uint64_t jobs = 0;       ///< parallel jobs dispatched to workers
  std::uint64_t inline_jobs = 0;///< jobs run serially (small range,
                                ///< 1 thread, or nested in a pool job)
  std::uint64_t chunks = 0;     ///< work chunks claimed across all threads
  /// Time each slot spent executing job bodies since pool creation, and
  /// that time as a fraction of the pool's lifetime. Slot 0 aggregates
  /// every calling thread; slots 1.. are the pool workers. A body is
  /// credited to the thread that ran it, once: a job nested inside another
  /// job's body adds nothing beyond the enclosing body's time.
  std::vector<std::uint64_t> busy_ns;
  std::vector<double> busy_fraction;
};
PoolStats pool_stats();

/// Runs fn(i) for every i in [begin, end), potentially in parallel.
/// Falls back to a serial loop for small ranges. Exceptions thrown by fn are
/// rethrown (first one wins) on the calling thread.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

/// Chunked variant: fn(chunk_begin, chunk_end) per worker, lower overhead.
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace pp
