#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace pp {
namespace {

/// The pool slot busy time is credited to: 0 for every calling thread,
/// 1.. for the pool workers (set once when a worker starts).
thread_local std::size_t t_slot = 0;
/// True while this thread runs a chunk of a multi-thread job. A
/// parallel_for issued from such a chunk runs inline: the job slot is
/// taken (by this very job), so dispatching would deadlock.
thread_local bool t_in_job = false;
/// Nesting depth of busy-timed regions on this thread. Only the outermost
/// one credits busy time, so work nested inside a chunk is counted once.
thread_local int t_busy_depth = 0;

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One parallel_for dispatch. Shared (via shared_ptr) between the caller
/// and every worker that observes it, so a worker waking late — even after
/// run() returned — only ever touches this struct, finds the chunk counter
/// exhausted, and never dereferences the (by then dangling) callback.
struct Job {
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::size_t begin = 0, end = 0, chunk = 1;
  std::atomic<std::size_t> next_chunk{0};
  /// Threads currently between claiming their first chunk and finishing
  /// their last. run() completes when the caller has drained the chunk
  /// counter and this returns to zero.
  std::atomic<int> active{0};
  std::uint64_t publish_ns = 0;
  std::mutex err_m;
  std::exception_ptr first_error;
};

/// A tiny persistent thread pool. Workers wait for a job, execute chunk
/// callbacks, and signal completion. Created lazily on first use.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  std::size_t size() const { return workers_.size() + 1; }

  void run(std::size_t begin, std::size_t end,
           const std::function<void(std::size_t, std::size_t)>& fn) {
    static obs::Counter& inline_jobs =
        obs::metrics().counter("pool.inline_jobs");
    static obs::Counter& jobs = obs::metrics().counter("pool.jobs");
    static obs::Histogram& job_ns = obs::metrics().histogram("pool.job_ns");

    std::size_t n = end - begin;
    std::size_t nthreads = std::min(size(), n);
    if (nthreads <= 1 || t_in_job) {
      inline_jobs.add(1);
      BusyTimer busy(*this);
      fn(begin, end);
      return;
    }
    std::unique_lock<std::mutex> guard(job_mutex_);  // one job at a time
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->begin = begin;
    job->end = end;
    job->chunk = (n + nthreads - 1) / nthreads;
    job->publish_ns = mono_ns();
    {
      std::lock_guard<std::mutex> lk(m_);
      current_job_ = job;
      ++generation_;
    }
    cv_.notify_all();
    // The calling thread participates (busy slot 0) and, by only returning
    // once the chunk counter is exhausted, guarantees every chunk is
    // claimed before the completion wait below.
    work_chunks(*job);
    {
      std::unique_lock<std::mutex> lk(m_);
      done_cv_.wait(lk, [&] {
        return job->active.load(std::memory_order_acquire) == 0;
      });
      current_job_.reset();
    }
    jobs.add(1);
    job_ns.observe(static_cast<double>(mono_ns() - job->publish_ns));
    if (job->first_error) std::rethrow_exception(job->first_error);
  }

  PoolStats stats() const {
    PoolStats s;
    s.threads = size();
    s.jobs = obs::metrics().counter("pool.jobs").value();
    s.inline_jobs = obs::metrics().counter("pool.inline_jobs").value();
    s.chunks = obs::metrics().counter("pool.chunks").value();
    double wall = static_cast<double>(mono_ns() - start_ns_);
    s.busy_ns.resize(size());
    s.busy_fraction.resize(size());
    for (std::size_t i = 0; i < size(); ++i) {
      s.busy_ns[i] = busy_ns_[i].load(std::memory_order_relaxed);
      s.busy_fraction[i] =
          wall > 0 ? static_cast<double>(s.busy_ns[i]) / wall : 0.0;
    }
    return s;
  }

 private:
  /// Credits the enclosed wall time to the running thread's slot, unless
  /// an enclosing region on this thread already does.
  class BusyTimer {
   public:
    explicit BusyTimer(Pool& pool)
        : pool_(pool), outer_(t_busy_depth++ == 0),
          t0_(outer_ ? mono_ns() : 0) {}
    ~BusyTimer() {
      --t_busy_depth;
      if (outer_)
        pool_.busy_ns_[t_slot].fetch_add(mono_ns() - t0_,
                                         std::memory_order_relaxed);
    }
    BusyTimer(const BusyTimer&) = delete;
    BusyTimer& operator=(const BusyTimer&) = delete;

   private:
    Pool& pool_;
    bool outer_;
    std::uint64_t t0_;
  };

  Pool() {
    std::size_t n = 0;
    // PP_THREADS overrides the pool width (1 = fully serial), for perf
    // comparisons and deterministic sanitizer runs.
    if (const char* env = std::getenv("PP_THREADS")) {
      char* end = nullptr;
      long v = std::strtol(env, &end, 10);
      if (end != env && v >= 1) n = static_cast<std::size_t>(v);
    }
    if (n == 0) {
      unsigned hw = std::thread::hardware_concurrency();
      n = hw == 0 ? 4 : std::min<std::size_t>(hw, 16);
    }
    start_ns_ = mono_ns();
    busy_ns_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
    for (std::size_t i = 0; i < n; ++i) busy_ns_[i].store(0);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      workers_.emplace_back([this, i] {
        t_slot = i + 1;
        worker_loop();
      });
    }
    obs::register_report_section("pool", [] {
      PoolStats s = pool_stats();
      obs::Json busy = obs::Json::array();
      for (double f : s.busy_fraction) busy.push_back(obs::Json(f));
      obs::Json o = obs::Json::object();
      o.set("threads", obs::Json(s.threads));
      o.set("jobs", obs::Json(s.jobs));
      o.set("inline_jobs", obs::Json(s.inline_jobs));
      o.set("chunks", obs::Json(s.chunks));
      o.set("busy_fraction", std::move(busy));
      return o;
    });
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  void worker_loop() {
    static obs::Histogram& wait_ns =
        obs::metrics().histogram("pool.job_wait_ns");
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lk(m_);
        cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = current_job_;
      }
      if (!job) continue;
      wait_ns.observe(static_cast<double>(mono_ns() - job->publish_ns));
      work_chunks(*job);
    }
  }

  /// Claims and executes chunks. Registers in job.active around the whole
  /// claim/execute phase, so `active == 0` while the counter is exhausted
  /// means no callback invocation is in flight anywhere.
  void work_chunks(Job& job) {
    static obs::Counter& chunk_counter = obs::metrics().counter("pool.chunks");
    job.active.fetch_add(1, std::memory_order_acquire);
    std::size_t executed = 0;
    {
      BusyTimer busy(*this);
      t_in_job = true;
      for (;;) {
        std::size_t c = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
        std::size_t lo = job.begin + c * job.chunk;
        if (lo >= job.end || c * job.chunk >= job.end - job.begin) break;
        std::size_t hi = std::min(job.end, lo + job.chunk);
        ++executed;
        try {
          (*job.fn)(lo, hi);
        } catch (...) {
          std::lock_guard<std::mutex> lk(job.err_m);
          if (!job.first_error) job.first_error = std::current_exception();
        }
      }
      t_in_job = false;
    }
    if (executed) chunk_counter.add(executed);
    if (job.active.fetch_sub(1, std::memory_order_release) == 1) {
      std::lock_guard<std::mutex> lk(m_);
      done_cv_.notify_all();
    }
  }

  std::vector<std::thread> workers_;
  std::mutex m_;
  std::mutex job_mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> current_job_;
  std::uint64_t generation_ = 0;
  std::uint64_t start_ns_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> busy_ns_;
  bool stop_ = false;
};

}  // namespace

std::size_t parallel_thread_count() { return Pool::instance().size(); }

PoolStats pool_stats() { return Pool::instance().stats(); }

void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  Pool::instance().run(begin, end, fn);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  if (end - begin < 4) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  parallel_for_chunks(begin, end, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace pp
