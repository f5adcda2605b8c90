// ppbench: the measuring half of the repo benchmark. perfbench/run.py
// generates a workload plan from the seed, runs this binary on it and turns
// the raw measurements it writes into the benchmark's metrics.
//
//   ppbench train                   train (or load) the finetuned sd1/sd2
//                                   checkpoints under PP_CACHE_DIR
//   ppbench run <plan.json> <out.json>
//
// Everything here calls the program's public API from outside: the
// benchmark times its own calls, and in a traced run it reads the spans and
// counters src/ already records. It adds no span inside src/.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "benchutil.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "diffusion/convert.hpp"
#include "drc/checker.hpp"
#include "expand/expander.hpp"
#include "metrics/entropy.hpp"
#include "nn/simd.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/net.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace {

using pp::Raster;
using pp::obs::Json;
using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

const Json& need(const Json& j, const char* key) {
  const Json* v = j.find(key);
  if (!v) throw std::runtime_error(std::string("plan: missing key ") + key);
  return *v;
}
double num(const Json& j, const char* key) { return need(j, key).as_number(); }
int inum(const Json& j, const char* key) {
  return static_cast<int>(num(j, key));
}
std::uint64_t unum(const Json& j, const char* key) {
  return static_cast<std::uint64_t>(num(j, key));
}

Json num_array(const std::vector<double>& v) {
  Json a = Json::array();
  for (double x : v) a.push_back(Json(x));
  return a;
}

/// Per-sample latencies grouped by segment (a loop, a canvas, the open
/// phase), plus the number of samples requested; run.py derives p50, p95
/// and the SLO share from them.
void write_latency(Json& out, const std::vector<std::vector<double>>& segs,
                   double requested) {
  Json a = Json::array();
  for (const auto& s : segs) a.push_back(num_array(s));
  out.set("latency_segments", std::move(a));
  out.set("latency_requested", Json(requested));
}

std::string cache_path(const std::string& name) {
  return pp::bench::cache_dir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Host fingerprint and process-level measurements.

Json fingerprint() {
  Json f = Json::object();
  f.set("nproc", Json(static_cast<int>(std::thread::hardware_concurrency())));
  f.set("pool_threads", Json(pp::pool_stats().threads));
  f.set("isa", Json(pp::nn::isa_name(pp::nn::active_isa())));
  __builtin_cpu_init();
  f.set("vnni", Json(__builtin_cpu_supports("avx512vnni") != 0));
  f.set("compiler", Json(PPBENCH_COMPILER));
  f.set("build_type", Json(PPBENCH_BUILD_TYPE));
  f.set("cxx_flags", Json(PPBENCH_CXX_FLAGS));
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  f.set("sanitized", Json(true));
#else
  f.set("sanitized", Json(false));
#endif
  return f;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Layer accounting for traced runs: counter deltas, pool utilization and
// span self times.

/// Pool busy time is published as a fraction of the pool's lifetime; the
/// pool is created at the top of main(), so lifetime = now - g_pool_start.
Clock::time_point g_pool_start;

const char* const kCounters[] = {
    "pool.jobs",      "pool.inline_jobs", "ddpm.inpaint.calls",
    "denoise.pixels_repaired", "drc.checks", "drc.clean",
    "serve.joins",    "serve.repacks",    "serve.net.lines",
    "expand.windows", "expand.waves",     "expand.seam_violations"};
const char* const kHistograms[] = {"pool.job_wait_ns", "serve.batch_samples"};

struct Snapshot {
  Clock::time_point t;
  std::map<std::string, double> values;  // counters; histograms as .count/.sum
  double pool_busy_ns = 0.0;
};

Snapshot snapshot() {
  Snapshot s;
  s.t = Clock::now();
  auto& reg = pp::obs::metrics();
  for (const char* c : kCounters)
    s.values[c] = static_cast<double>(reg.counter(c).value());
  for (const char* h : kHistograms) {
    auto& hist = reg.histogram(h);
    s.values[std::string(h) + ".count"] = static_cast<double>(hist.count());
    s.values[std::string(h) + ".sum"] = hist.sum();
  }
  pp::PoolStats ps = pp::pool_stats();
  double life_ns = secs(g_pool_start, s.t) * 1e9;
  for (double f : ps.busy_fraction) s.pool_busy_ns += f * life_ns;
  return s;
}

/// Per span name: count, inclusive ms and self ms (duration minus the part
/// its same-thread child spans cover).
Json span_table(const std::vector<pp::obs::TraceEventView>& events) {
  struct Agg {
    double count = 0, total_ns = 0, self_ns = 0;
  };
  std::map<std::string, Agg> agg;
  std::map<std::uint32_t, std::vector<const pp::obs::TraceEventView*>> by_tid;
  for (const auto& e : events)
    if (!e.flow_point) by_tid[e.tid].push_back(&e);
  for (auto& kv : by_tid) {
    auto& v = kv.second;
    std::sort(v.begin(), v.end(), [](auto* a, auto* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                        : a->dur_ns > b->dur_ns;
    });
    struct Open {
      const pp::obs::TraceEventView* e;
      double child_ns;
    };
    std::vector<Open> stack;
    auto close = [&](const Open& o) {
      Agg& a = agg[o.e->name];
      a.count += 1;
      a.total_ns += static_cast<double>(o.e->dur_ns);
      a.self_ns += std::max(0.0, static_cast<double>(o.e->dur_ns) - o.child_ns);
    };
    for (const auto* e : v) {
      while (!stack.empty() &&
             stack.back().e->start_ns + stack.back().e->dur_ns <= e->start_ns) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) {
        std::uint64_t pend = stack.back().e->start_ns + stack.back().e->dur_ns;
        stack.back().child_ns += static_cast<double>(
            std::min(pend, e->start_ns + e->dur_ns) - e->start_ns);
      }
      stack.push_back({e, 0.0});
    }
    for (const Open& o : stack) close(o);
  }
  Json t = Json::object();
  for (const auto& kv : agg) {
    Json row = Json::object();
    row.set("count", Json(kv.second.count));
    row.set("total_ms", Json(kv.second.total_ns / 1e6));
    row.set("self_ms", Json(kv.second.self_ns / 1e6));
    t.set(kv.first, std::move(row));
  }
  return t;
}

/// Wall time inside the benchmark-timed core calls `calls` (trace-epoch ns)
/// that spans of the diffusion, nn, denoise, drc and select layers cover on
/// any thread — the attributed share of the core calls.
double covered_ms(const std::vector<pp::obs::TraceEventView>& events,
                  const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                      calls) {
  static const char* const kPrefixes[] = {"ddpm.", "unet.", "nn.", "denoise.",
                                          "drc.", "select."};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (const auto& e : events) {
    if (e.flow_point) continue;
    for (const char* p : kPrefixes)
      if (e.name.rfind(p, 0) == 0) {
        iv.emplace_back(e.start_ns, e.start_ns + e.dur_ns);
        break;
      }
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  for (const auto& call : calls) {
    std::uint64_t cursor = call.first;
    for (const auto& x : iv) {
      if (x.first >= call.second) break;
      std::uint64_t lo = std::max(x.first, cursor);
      std::uint64_t hi = std::min(x.second, call.second);
      if (hi > lo) {
        covered += static_cast<double>(hi - lo);
        cursor = hi;
      }
    }
  }
  return covered / 1e6;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Layer data of a traced run whose tracing is switched on and off around
/// parts of the workload: spans from the traced parts only, counter deltas
/// and pool busy time summed over them.
class TraceWindow {
 public:
  TraceWindow() { pp::obs::reset_trace(); }

  void resume() {
    pp::obs::set_trace_enabled(true);
    open_ = snapshot();
  }

  void pause() {
    Snapshot end = snapshot();
    pp::obs::set_trace_enabled(false);
    for (const auto& kv : end.values)
      sum_[kv.first] += kv.second - open_.values.at(kv.first);
    busy_ns_ += end.pool_busy_ns - open_.pool_busy_ns;
    wall_ns_ += secs(open_.t, end.t) * 1e9;
  }

  /// The raw layer data; `core_calls` are the benchmark-timed core calls
  /// (trace-epoch ns) whose span coverage is measured.
  Json layers(const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                  core_calls) const {
    auto events = pp::obs::trace_events();
    Json counters = Json::object();
    for (const auto& kv : sum_) counters.set(kv.first, Json(kv.second));
    const double threads = static_cast<double>(pp::pool_stats().threads);
    counters.set("pool.busy_frac",
                 Json(wall_ns_ > 0 ? busy_ns_ / (threads * wall_ns_) : 0.0));
    Json l = Json::object();
    l.set("counters", std::move(counters));
    l.set("spans", span_table(events));
    double core_ms = 0.0;
    for (const auto& c : core_calls)
      core_ms += static_cast<double>(c.second - c.first) / 1e6;
    l.set("core_ms", Json(core_ms));
    l.set("covered_ms",
          Json(core_calls.empty() ? 0.0 : covered_ms(events, core_calls)));
    l.set("dropped_spans", Json(pp::obs::trace_dropped()));
    return l;
  }

 private:
  Snapshot open_;
  std::map<std::string, double> sum_;
  double busy_ns_ = 0.0, wall_ns_ = 0.0;
};

// ---------------------------------------------------------------------------
// Shared model helpers.

const std::vector<Raster>& starters() {
  static const std::vector<Raster> s = pp::bench::starter_patterns(10);
  return s;
}

/// A finetuned sd1 PatternPaint loaded from the weight cache (never trains:
/// `ppbench train` must have run).
std::unique_ptr<pp::PatternPaint> load_sd1(std::uint64_t seed,
                                           const std::vector<Raster>& st) {
  auto p = std::make_unique<pp::PatternPaint>(
      pp::bench::experiment_config("sd1"), pp::bench::experiment_rules(),
      seed);
  if (!p->model().try_load(cache_path("ft_sd1.bin")))
    throw std::runtime_error("ft_sd1.bin missing: run `ppbench train` first");
  p->set_starters(st);
  return p;
}

/// Output quality over a seed-determined set of outputs.
struct Quality {
  long long samples = 0, legal = 0, violations = 0, pixels = 0;
  std::vector<double> h2;  ///< H2 diversity of each output set; mean reported
  void add(const Raster& r, bool is_legal, const pp::DrcChecker& drc) {
    ++samples;
    legal += is_legal ? 1 : 0;
    violations += static_cast<long long>(drc.check(r).violations.size());
    pixels += r.size();
  }
  void write(Json& out) const {
    out.set("samples_checked", Json(samples));
    out.set("legal", Json(legal));
    out.set("violations", Json(violations));
    out.set("pixels", Json(pixels));
    double sum = 0.0;
    for (double h : h2) sum += h;
    out.set("h2", Json(h2.empty() ? 0.0 : sum / static_cast<double>(h2.size())));
  }
};

/// Raw output of one run. Every attempted operation leaves one outcome:
/// "ok" or the reason it failed (run.py tallies them).
struct Result {
  Json out = Json::object();
  Json checks = Json::object();
  Json outcomes = Json::array();
  void outcome(const std::string& o) { outcomes.push_back(Json(o)); }
  /// Records a check; one that fails on any call stays failed.
  void check(const std::string& name, bool ok) {
    const Json* prev = checks.find(name);
    ok = ok && (!prev || prev->as_bool());
    checks.set(name, Json(ok));
    if (!ok) std::fprintf(stderr, "ppbench: check failed: %s\n", name.c_str());
  }
};

std::vector<Raster> subset(const Json& idx) {
  std::vector<Raster> v;
  for (std::size_t i = 0; i < idx.size(); ++i)
    v.push_back(starters().at(static_cast<std::size_t>(idx.at(i).as_number())));
  return v;
}

// ---------------------------------------------------------------------------
// Workload `library`: the paper's loop, in-process, one caller.

struct LoopOut {
  int samples = 0;
  double timed_s = 0.0;
  std::vector<double> sample_latency_ms;  ///< each sample: its call's wall
  std::vector<std::pair<std::uint64_t, std::uint64_t>> calls;  ///< trace ns
  std::vector<double> init_ms, round_ms;
};

LoopOut library_loop(const Json& spec, const Json& loop, Quality* q,
                     Result* res) {
  const int variations = inum(spec, "variations");
  const int rounds = inum(spec, "rounds");
  const int per_round = inum(spec, "samples");
  std::vector<Raster> st = subset(need(loop, "starters"));
  auto p = load_sd1(unum(loop, "seed"), st);
  pp::DrcChecker drc(p->rules());
  LoopOut lo;
  // Each call is one operation; its sample budget must be exact.
  auto timed = [&](auto&& call, std::size_t budget, std::vector<double>* ms) {
    std::uint64_t t0 = pp::obs::trace_now_ns();
    auto c0 = Clock::now();
    std::vector<pp::GenerationRecord> recs = call();
    double s = secs(c0, Clock::now());
    lo.calls.emplace_back(t0, pp::obs::trace_now_ns());
    lo.timed_s += s;
    ms->push_back(s * 1e3);
    for (std::size_t i = 0; i < recs.size(); ++i)
      lo.sample_latency_ms.push_back(s * 1e3);
    lo.samples += static_cast<int>(recs.size());
    res->outcome(recs.size() == budget ? "ok" : "sample_budget_mismatch");
    if (q)
      for (const auto& r : recs) q->add(r.denoised, r.legal, drc);
    return recs.size() == budget;
  };
  bool budget = timed([&] { return p->initial_generation(variations); },
                      st.size() * 10 * static_cast<std::size_t>(variations),
                      &lo.init_ms);
  for (int r = 0; r < rounds; ++r)
    budget &= timed([&] { return p->iteration_round(per_round); },
                    static_cast<std::size_t>(per_round), &lo.round_ms);
  res->check("library.sample_budget_exact", budget);

  // Library contents: DRC-clean and pairwise distinct.
  const auto& clips = p->library().clips();
  bool clean = true;
  std::set<std::string> seen;
  for (const Raster& c : clips) {
    clean &= drc.is_clean(c);
    seen.insert(std::string(c.data().begin(), c.data().end()));
  }
  res->check("library.entries_drc_clean", clean);
  res->check("library.entries_distinct", seen.size() == clips.size());
  if (q) q->h2.push_back(p->library().stats().h2);
  return lo;
}

void run_library(const Json& plan, Result& res) {
  const Json& spec = need(plan, "library");
  const Json& loops = need(spec, "loops");
  const double budget_s = num(plan, "seconds");
  const bool trace = need(plan, "trace").as_bool();
  const int min_loops = inum(spec, "min_loops");

  // Set-up: checkpoint load and one warm-up generation call, repeated.
  std::vector<double> setup;
  for (int i = 0; i < inum(plan, "setup_repeats"); ++i) {
    auto t0 = Clock::now();
    auto p = load_sd1(0xBE1C + i, subset(need(loops.at(0), "starters")));
    const int clip = pp::bench::clip_size();
    p->inpaint_variations(starters()[0], pp::all_masks(clip, clip)[0], 1);
    setup.push_back(secs(t0, Clock::now()));
  }
  res.out.set("setup_s", num_array(setup));

  Quality q;
  std::vector<double> rate_items, rate_secs;
  std::vector<std::vector<double>> latency;
  double requested = 0;
  if (!trace) {
    double spent = 0.0;
    for (std::size_t i = 0; i < loops.size(); ++i) {
      if (static_cast<int>(i) >= min_loops && spent >= budget_s) break;
      // Quality over the first min_loops loops only, which between them
      // use every starter equally often, so it depends on the seed and not
      // on how many loops fit in the budget.
      LoopOut lo = library_loop(
          spec, loops.at(i), static_cast<int>(i) < min_loops ? &q : nullptr,
          &res);
      spent += lo.timed_s;
      rate_items.push_back(lo.samples);
      rate_secs.push_back(lo.timed_s);
      latency.push_back(lo.sample_latency_ms);
      requested += static_cast<double>(lo.sample_latency_ms.size());
    }
    res.out.set("rate_items", num_array(rate_items));
    res.out.set("rate_secs", num_array(rate_secs));
    write_latency(res.out, latency, requested);
    q.write(res.out);
    return;
  }

  // Traced run: each loop twice, untraced and traced in alternating order,
  // until the budget is spent. The layers come from the traced copies; the
  // ratio of the median traced to the median untraced loop time is the
  // tracing overhead.
  TraceWindow tw;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> calls;
  std::vector<double> plain_s, traced_s, init_ms, round_ms;
  double spent = 0.0;
  int samples = 0;
  for (std::size_t i = 0; i < loops.size(); ++i) {
    if (i >= 2 && spent >= budget_s) break;
    LoopOut lo;
    for (int traced : {static_cast<int>(i % 2), static_cast<int>(1 - i % 2)}) {
      if (traced) tw.resume();
      LoopOut x = library_loop(spec, loops.at(i), nullptr, &res);
      if (traced) tw.pause();
      (traced ? traced_s : plain_s).push_back(x.timed_s);
      spent += x.timed_s;
      if (traced) lo = std::move(x);
    }
    samples += lo.samples;
    calls.insert(calls.end(), lo.calls.begin(), lo.calls.end());
    init_ms.insert(init_ms.end(), lo.init_ms.begin(), lo.init_ms.end());
    round_ms.insert(round_ms.end(), lo.round_ms.begin(), lo.round_ms.end());
  }
  Json layers = tw.layers(calls);
  layers.set("trace_overhead_frac",
             Json(median(traced_s) / median(plain_s) - 1.0));
  layers.set("work_items", Json(samples));
  layers.set("sample_steps",
             Json(samples * pp::bench::experiment_config("sd1").ddpm.sample_steps));
  layers.set("init_ms", num_array(init_ms));
  layers.set("round_ms", num_array(round_ms));
  res.out.set("layers", std::move(layers));
}

// ---------------------------------------------------------------------------
// Workload `expand`: in-process wavefront expansion, whole-wave batching.

void run_expand(const Json& plan, Result& res) {
  const Json& spec = need(plan, "expand");
  const Json& canvases = need(spec, "canvases");
  const int size = inum(spec, "size");
  const double budget_s = num(plan, "seconds");
  const bool trace = need(plan, "trace").as_bool();
  const int min_canvases = inum(spec, "min_canvases");

  std::unique_ptr<pp::PatternPaint> painter;
  std::vector<double> setup;
  for (int i = 0; i < inum(plan, "setup_repeats"); ++i) {
    auto t0 = Clock::now();
    painter = load_sd1(0xE4A0 + i, starters());
    pp::expand::expand_layout(*painter, starters()[0], 48, 48, 1);  // warm-up
    setup.push_back(secs(t0, Clock::now()));
  }
  res.out.set("setup_s", num_array(setup));
  pp::DrcChecker drc(painter->rules());
  const int clip = painter->config().clip_size;

  struct CanvasOut {
    double s = 0.0;
    pp::expand::ExpandResult r;
    std::vector<double> row_ms;  ///< when each canvas row was streamed out
  };
  auto grow = [&](const Json& c) {
    CanvasOut o;
    auto t0 = Clock::now();
    // Rows leave expand_layout as finalized row bands (the streaming-export
    // hook); a row's latency is the time until its band is delivered.
    pp::expand::ExpandConfig cfg;
    cfg.band_sink = [&](int, const Raster& band) {
      double ms = secs(t0, Clock::now()) * 1e3;
      o.row_ms.insert(o.row_ms.end(), static_cast<std::size_t>(band.height()), ms);
    };
    o.r = pp::expand::expand_layout(
        *painter, starters().at(static_cast<std::size_t>(inum(c, "starter"))),
        size, size, unum(c, "seed"), cfg);
    o.s = secs(t0, Clock::now());
    res.outcome(o.r.aborted || o.r.canvas.empty() ? "no_canvas" : "ok");
    return o;
  };

  if (!trace) {
    Quality q;
    std::vector<double> rate_items, rate_secs;
    std::vector<std::vector<double>> latency;
    double requested = 0;
    double spent = 0.0;
    for (std::size_t i = 0; i < canvases.size(); ++i) {
      if (static_cast<int>(i) >= min_canvases && spent >= budget_s) break;
      CanvasOut o = grow(canvases.at(i));
      spent += o.s;
      const auto& st = o.r.stats;
      rate_items.push_back(st.windows_generated);
      rate_secs.push_back(o.s);
      latency.push_back(o.row_ms);
      requested += size;
      if (static_cast<int>(i) >= min_canvases) continue;
      // Quality over the first min_canvases canvases only, so it depends on
      // the seed and not on how many canvases fit in the budget.
      // A canvas is one output, so its clean share is by area: pixels
      // outside every violation's region.
      pp::DrcResult full = drc.check(o.r.canvas);
      q.samples += o.r.canvas.size();
      q.legal += o.r.canvas.size() -
                 pp::violation_mask(full, size, size).count_ones();
      q.violations += static_cast<long long>(full.violations.size());
      q.pixels += o.r.canvas.size();
      // Clip-sized crops of a canvas are all distinct, so their H2 is just
      // log2(count); half-clip tiles still repeat and so measure diversity.
      const int tile = clip / 2;
      std::vector<Raster> tiles;
      for (int y = 0; y + tile <= size; y += tile)
        for (int x = 0; x + tile <= size; x += tile)
          tiles.push_back(o.r.canvas.crop(pp::Rect{x, y, x + tile, y + tile}));
      q.h2.push_back(pp::library_stats(tiles).h2);
    }
    res.out.set("rate_items", num_array(rate_items));
    res.out.set("rate_secs", num_array(rate_secs));
    write_latency(res.out, latency, requested);
    q.write(res.out);
  } else {
    // Each canvas twice, untraced and traced in alternating order, as in
    // the library workload's traced run.
    TraceWindow tw;
    std::vector<double> plain_s, traced_s;
    double spent = 0.0;
    long long windows = 0;
    for (std::size_t i = 0; i < canvases.size(); ++i) {
      if (i >= 2 && spent >= budget_s) break;
      for (int traced : {static_cast<int>(i % 2), static_cast<int>(1 - i % 2)}) {
        if (traced) tw.resume();
        CanvasOut o = grow(canvases.at(i));
        if (traced) tw.pause();
        (traced ? traced_s : plain_s).push_back(o.s);
        spent += o.s;
        if (traced) windows += o.r.stats.windows_generated;
      }
    }
    Json layers = tw.layers({});
    layers.set("trace_overhead_frac",
               Json(median(traced_s) / median(plain_s) - 1.0));
    layers.set("work_items", Json(windows));
    layers.set("sample_steps",
               Json(windows * painter->config().ddpm.sample_steps));
    res.out.set("layers", std::move(layers));
  }

  // Wave batching must not change the canvas: a small plan grown with whole
  // waves per model call equals the one grown window by window.
  const Json& small = need(spec, "check");
  const Raster& seed_clip =
      starters().at(static_cast<std::size_t>(inum(small, "starter")));
  auto wide = pp::expand::expand_layout(*painter, seed_clip, inum(small, "size"),
                                        inum(small, "size"), unum(small, "seed"),
                                        {}, 0);
  auto serial = pp::expand::expand_layout(*painter, seed_clip,
                                          inum(small, "size"),
                                          inum(small, "size"),
                                          unum(small, "seed"), {}, 1);
  res.check("expand.wave_equals_sequential",
            !wide.canvas.empty() && wide.canvas == serial.canvas);
}

// ---------------------------------------------------------------------------
// Workload `serve`: NetServer + sharded GenerationServer in-process, driven
// over loopback TCP by one client thread.

struct WireReq {
  std::string model, op;
  std::uint64_t seed = 0;
  int count = 1, steps = 0, tmpl = -1, mask_id = -1, repeat_of = -1;
  double due_s = 0.0;  ///< open phase: scheduled send time
};

WireReq parse_req(const Json& j) {
  WireReq r;
  r.model = need(j, "model").as_string();
  r.op = need(j, "op").as_string();
  r.seed = unum(j, "seed");
  r.count = inum(j, "count");
  r.steps = inum(j, "steps");
  r.tmpl = inum(j, "tmpl");
  r.mask_id = inum(j, "mask_id");
  r.repeat_of = inum(j, "repeat_of");
  if (const Json* t = j.find("t")) r.due_s = t->as_number();
  return r;
}

std::string wire_line(std::uint64_t id, const WireReq& r) {
  Json o = Json::object();
  o.set("id", Json(static_cast<double>(id)));
  o.set("op", Json(r.op));
  o.set("model", Json(r.model));
  o.set("seed", Json(static_cast<double>(r.seed)));
  o.set("count", Json(r.count));
  o.set("finish", Json(true));
  if (r.steps > 0) o.set("steps", Json(r.steps));
  if (r.op == "inpaint") {
    o.set("template", Json(starters().at(static_cast<std::size_t>(r.tmpl)).to_ascii()));
    o.set("mask_id", Json(r.mask_id));
  }
  return o.dump() + "\n";
}

/// One response as the client saw it.
struct Reply {
  bool ok = false, cached = false;
  std::string error;
  std::vector<Raster> patterns;
  std::vector<bool> legal;
  double sent_s = 0.0, recv_s = 0.0, e2e_ms = 0.0, wait_ms = 0.0;
};

/// Single-threaded NDJSON client over a few nonblocking TCP connections.
class Client {
 public:
  Client(int port, int conns) {
    for (int i = 0; i < conns; ++i) {
      int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) {
        for (auto& c : conns_) ::close(c.fd);
        throw std::runtime_error("client: socket failed");
      }
      sockaddr_in a{};
      a.sin_family = AF_INET;
      a.sin_port = htons(static_cast<std::uint16_t>(port));
      a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0) {
        ::close(fd);
        for (auto& c : conns_) ::close(c.fd);
        throw std::runtime_error("client: connect failed");
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      conns_.push_back(Conn{fd, {}, {}, false});
    }
    t0_ = Clock::now();
  }
  ~Client() {
    for (auto& c : conns_) ::close(c.fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  double now() const { return secs(t0_, Clock::now()); }
  std::size_t conns() const { return conns_.size(); }

  /// Queues one request line on connection `conn`, or on the next live one
  /// if that has dropped; `*slot` is filled when the reply arrives. With no
  /// live connection left the request fails at once as dropped.
  void send(std::uint64_t id, const std::string& line, std::size_t conn,
            Reply* slot) {
    slot->sent_s = now();
    for (std::size_t k = 0; k < conns_.size(); ++k) {
      Conn& c = conns_[(conn + k) % conns_.size()];
      if (c.dead) continue;
      pending_[id] = Pending{slot, (conn + k) % conns_.size()};
      c.out += line;
      flush(c);
      return;
    }
    slot->error = "dropped_connection";
    slot->recv_s = now();
    completed_.push_back(slot);
  }

  std::size_t outstanding() const { return pending_.size(); }
  bool alive() const {
    return std::any_of(conns_.begin(), conns_.end(),
                       [](const Conn& c) { return !c.dead; });
  }

  /// Replies completed since the last call, in arrival order.
  std::vector<const Reply*> take_completed() {
    std::vector<const Reply*> v;
    v.swap(completed_);
    return v;
  }

  /// Polls up to `timeout_ms` and handles whatever arrives. Returns the
  /// number of replies completed.
  int pump(int timeout_ms) {
    std::vector<pollfd> fds;
    for (auto& c : conns_)
      fds.push_back(pollfd{c.fd, static_cast<short>(c.dead ? 0 : POLLIN |
                                                    (c.out.empty() ? 0 : POLLOUT)),
                           0});
    ::poll(fds.data(), fds.size(), timeout_ms);
    int done = 0;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (c.dead) continue;
      if (fds[i].revents & POLLOUT) flush(c);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        char buf[65536];
        ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
        if (n <= 0) {
          if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
          done += drop(i);
          continue;
        }
        c.in.append(buf, static_cast<std::size_t>(n));
        std::size_t pos;
        while ((pos = c.in.find('\n')) != std::string::npos) {
          done += handle(c.in.substr(0, pos));
          c.in.erase(0, pos + 1);
        }
      }
    }
    return done;
  }

  /// Gives up on every outstanding request (counted as failed by callers).
  void abandon() {
    for (auto& kv : pending_) {
      kv.second.slot->error = "no_response";
    }
    pending_.clear();
  }

 private:
  struct Conn {
    int fd;
    std::string out, in;
    bool dead;
  };
  struct Pending {
    Reply* slot;
    std::size_t conn;
  };

  /// Marks connection `i` dropped and fails its outstanding requests at
  /// once; later sends skip it. Returns the number of requests failed.
  int drop(std::size_t i) {
    conns_[i].dead = true;
    int n = 0;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.conn != i) {
        ++it;
        continue;
      }
      it->second.slot->error = "dropped_connection";
      it->second.slot->recv_s = now();
      completed_.push_back(it->second.slot);
      it = pending_.erase(it);
      ++n;
    }
    return n;
  }

  void flush(Conn& c) {
    while (!c.out.empty()) {
      ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n <= 0) return;
      c.out.erase(0, static_cast<std::size_t>(n));
    }
  }

  int handle(const std::string& line) {
    Json j = Json::parse(line);
    const Json* id = j.find("id");
    if (!id) return 0;
    auto it = pending_.find(static_cast<std::uint64_t>(id->as_number()));
    if (it == pending_.end()) return 0;
    Reply* r = it->second.slot;
    pending_.erase(it);
    completed_.push_back(r);
    r->recv_s = now();
    const Json* ok = j.find("ok");
    r->ok = ok && ok->as_bool();
    if (!r->ok) {
      const Json* e = j.find("error");
      const Json* code = e ? e->find("code") : nullptr;
      r->error = code ? code->as_string() : "unknown";
      return 1;
    }
    const Json& pats = need(j, "patterns");
    for (std::size_t i = 0; i < pats.size(); ++i)
      r->patterns.push_back(Raster::from_ascii(pats.at(i).as_string()));
    if (const Json* lg = j.find("legal"))
      for (std::size_t i = 0; i < lg->size(); ++i)
        r->legal.push_back(lg->at(i).as_bool());
    r->e2e_ms = num(j, "e2e_ms");
    r->wait_ms = num(j, "wait_ms");
    r->cached = need(j, "cached").as_bool();
    return 1;
  }

  std::vector<Conn> conns_;
  std::map<std::uint64_t, Pending> pending_;
  std::vector<const Reply*> completed_;
  Clock::time_point t0_;
};

/// The protocol's sequential reference for one request (serve/protocol.hpp,
/// "Determinism contract"): what any batched response must equal bitwise.
std::vector<Raster> sequential_reference(const pp::serve::ModelRegistry::Entry& e,
                                         const WireReq& r) {
  const int clip = e.cfg.clip_size;
  const std::size_t plane = static_cast<std::size_t>(clip) * clip;
  pp::nn::Tensor known({r.count, 1, clip, clip}), mask({r.count, 1, clip, clip});
  const bool inpaint = r.op == "inpaint";
  const Raster tmpl = inpaint ? starters().at(static_cast<std::size_t>(r.tmpl))
                              : Raster(clip, clip, 0);
  pp::nn::Tensor kt = inpaint ? pp::raster_to_tensor(tmpl)
                              : pp::nn::Tensor::full({1, 1, clip, clip}, -1.0f);
  pp::nn::Tensor mt =
      inpaint ? pp::mask_to_tensor(e.masks.at(static_cast<std::size_t>(r.mask_id)))
              : pp::nn::Tensor::full({1, 1, clip, clip}, 1.0f);
  for (int k = 0; k < r.count; ++k) {
    std::copy_n(kt.data(), plane, known.data() + k * plane);
    std::copy_n(mt.data(), plane, mask.data() + k * plane);
  }
  pp::Rng rng(r.seed);
  std::vector<std::uint64_t> gen(static_cast<std::size_t>(r.count)),
      fin(static_cast<std::size_t>(r.count));
  for (auto& b : gen) b = rng.draw_seed();
  pp::nn::Tensor out =
      e.pp->model().inpaint(known, mask, gen, pp::SamplerParams{r.steps, -1.0f});
  for (auto& b : fin) b = rng.draw_seed();
  std::vector<Raster> raws = pp::tensor_to_rasters(out);
  std::vector<Raster> tmpls(raws.size(), tmpl);
  std::vector<Raster> result;
  for (const auto& rec : e.pp->finish_samples(raws, tmpls, fin))
    result.push_back(rec.denoised);
  return result;
}

/// One running service: registry, sharded server, epoll listener thread.
struct Service {
  std::shared_ptr<pp::serve::ModelRegistry> registry;
  std::unique_ptr<pp::serve::GenerationServer> server;
  std::unique_ptr<pp::serve::NetServer> net;
  std::thread loop;
  std::atomic<bool> stop{false};
  int port = 0;

  explicit Service(const Json& spec) {
    registry = std::make_shared<pp::serve::ModelRegistry>();
    const Json& models = need(spec, "models");
    for (std::size_t i = 0; i < models.size(); ++i) {
      pp::serve::ModelSpec ms;
      ms.key = need(models.at(i), "key").as_string();
      ms.preset = need(models.at(i), "preset").as_string();
      ms.clip_size = pp::bench::clip_size();
      ms.rules = "advance/2";
      ms.checkpoint = cache_path("ft_" + ms.preset + ".bin");
      if (!registry->load(ms)->trained)
        throw std::runtime_error("serve: checkpoint missing for " + ms.key);
    }
    pp::serve::ServerConfig cfg;
    cfg.shards = models.size();
    cfg.cache_entries = static_cast<std::size_t>(inum(spec, "cache_entries"));
    cfg.request_log.path.clear();
    server = std::make_unique<pp::serve::GenerationServer>(registry, cfg);
    server->start();
    net = std::make_unique<pp::serve::NetServer>(*server, *registry);
    std::string err;
    if (!net->add_tcp_listener("127.0.0.1", 0, &err, &port))
      throw std::runtime_error("serve: listen failed: " + err);
    loop = std::thread([this] { net->run([this] { return stop.load(); }); });
  }
  ~Service() {
    stop = true;
    loop.join();
    server->shutdown();
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  std::vector<double> shard_served() const {
    std::vector<double> v;
    const Json s = server->stats_json();
    const Json* arr = s.find("shard_state");
    for (std::size_t i = 0; arr && i < arr->size(); ++i)
      v.push_back(num(arr->at(i), "served"));
    return v;
  }
};

void run_serve(const Json& plan, Result& res) {
  const Json& spec = need(plan, "serve");
  const bool trace = need(plan, "trace").as_bool();
  std::vector<WireReq> open, bulk;
  for (std::size_t i = 0; i < need(spec, "open").size(); ++i)
    open.push_back(parse_req(need(spec, "open").at(i)));
  for (std::size_t i = 0; i < need(spec, "bulk").size(); ++i)
    bulk.push_back(parse_req(need(spec, "bulk").at(i)));
  const int conns = std::max(
      1, std::min<int>(inum(spec, "max_conns"),
                       static_cast<int>(std::thread::hardware_concurrency())));
  const double reply_timeout_s = num(spec, "reply_timeout_s");

  // Set-up: registry load of every key, server + listener start, client
  // connect and one warm-up request per key; repeated, the last one kept.
  std::unique_ptr<Service> svc;
  std::unique_ptr<Client> client;
  std::vector<double> setup;
  const Json& models = need(spec, "models");
  std::uint64_t next_id = 1;
  for (int i = 0; i < inum(plan, "setup_repeats"); ++i) {
    client.reset();
    svc.reset();
    auto t0 = Clock::now();
    svc = std::make_unique<Service>(spec);
    client = std::make_unique<Client>(svc->port, conns);
    std::vector<Reply> warm(models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
      WireReq w;
      w.model = need(models.at(m), "key").as_string();
      w.op = "sample";
      w.seed = 1000 + m;
      client->send(next_id, wire_line(next_id, w), m % client->conns(), &warm[m]);
      ++next_id;
    }
    while (client->outstanding() > 0) client->pump(50);
    for (const Reply& w : warm)
      if (!w.ok) throw std::runtime_error("serve: warm-up request failed");
    setup.push_back(secs(t0, Clock::now()));
  }
  res.out.set("setup_s", num_array(setup));

  // A traced run traces the open phase and every other bulk slice.
  auto shard0 = svc->shard_served();
  std::unique_ptr<TraceWindow> tw;
  if (trace) {
    tw = std::make_unique<TraceWindow>();
    tw->resume();
  }

  // Phase open: precomputed Poisson schedule, latency from each due time.
  std::vector<Reply> open_r(open.size());
  {
    double t0 = client->now();
    std::size_t next = 0;
    double last_activity = t0;
    while (next < open.size() || client->outstanding() > 0) {
      double now = client->now();
      while (next < open.size() && open[next].due_s <= now - t0) {
        client->send(next_id, wire_line(next_id, open[next]),
                     next % client->conns(), &open_r[next]);
        ++next_id;
        ++next;
      }
      int wait_ms = 20;
      if (next < open.size())
        wait_ms = std::max(0, static_cast<int>((open[next].due_s -
                                                (client->now() - t0)) * 1e3));
      wait_ms = std::min(wait_ms, 20);
      if (client->pump(wait_ms) > 0) last_activity = client->now();
      if (next == open.size() && client->now() - last_activity > reply_timeout_s)
        client->abandon();
    }
    // Due times relative to the client clock.
    for (std::size_t i = 0; i < open.size(); ++i) open[i].due_s += t0;
  }
  if (tw) tw->pause();

  // Phase bulk: closed loop, a fixed number of requests outstanding for
  // `seconds`. After the first `warmup` seconds, while the loop fills, the
  // time each successive `group` of samples takes to complete gives one
  // throughput reading, so a stall spoils a few readings, not the phase.
  // The time after the warm-up is cut into `slices` equal slices;
  // `on_slice(k)` runs as slice k starts and `on_slice(slices)` as the
  // last one ends.
  struct BulkOut {
    std::size_t end = 0;  ///< bulk requests issued
    std::vector<double> samples, secs;  ///< per group
    std::vector<double> slice_samples;  ///< samples completed per slice
    double t0 = 0, warmup = 0, slice_s = 0;
    /// The slice a reply arrived in; negative during the warm-up.
    int slice_of(double recv_s) const {
      return static_cast<int>(std::floor((recv_s - t0 - warmup) / slice_s));
    }
  };
  const double group = num(spec, "bulk_group_samples");
  const double warmup = num(spec, "bulk_warmup_s");
  const auto outstanding =
      static_cast<std::size_t>(inum(spec, "bulk_outstanding"));
  std::vector<Reply> bulk_r(bulk.size());
  auto run_bulk = [&](double seconds, int slices,
                      const std::function<void(int)>& on_slice) {
    BulkOut b;
    b.slice_samples.assign(static_cast<std::size_t>(slices), 0.0);
    b.warmup = warmup;
    b.slice_s = (seconds - warmup) / slices;
    client->take_completed();
    b.t0 = client->now();
    double last_activity = b.t0, group_start = b.t0 + warmup, in_group = 0;
    int slice = -1;
    do {
      while (slice < slices &&
             client->now() - b.t0 >= warmup + (slice + 1) * b.slice_s)
        on_slice(++slice);
      while (client->alive() && client->now() - b.t0 < seconds &&
             client->outstanding() < outstanding) {
        if (b.end >= bulk.size())
          throw std::runtime_error("serve: bulk request list exhausted");
        client->send(next_id, wire_line(next_id, bulk[b.end]),
                     b.end % client->conns(), &bulk_r[b.end]);
        ++next_id;
        ++b.end;
      }
      if (client->pump(20) > 0) last_activity = client->now();
      for (const Reply* x : client->take_completed()) {
        if (!x->ok || x->recv_s - b.t0 > seconds) continue;
        const auto n = static_cast<double>(x->patterns.size());
        if (x->recv_s < group_start) continue;
        b.slice_samples[static_cast<std::size_t>(
            std::min(slices - 1, b.slice_of(x->recv_s)))] += n;
        in_group += n;
        if (in_group >= group) {
          b.samples.push_back(in_group);
          b.secs.push_back(x->recv_s - group_start);
          group_start = x->recv_s;
          in_group = 0;
        }
      }
      if (client->now() - last_activity > reply_timeout_s) client->abandon();
    } while (client->outstanding() > 0);
    while (slice < slices) on_slice(++slice);
    return b;
  };
  const double bulk_s = num(spec, "bulk_seconds");
  BulkOut bulk_out;
  double overhead = 0.0;
  Json layers;
  if (!trace) {
    bulk_out = run_bulk(bulk_s, 1, [](int) {});
  } else {
    // Even slices traced, odd ones and the warm-up not; the samples the
    // untraced slices completed over those the traced ones did, minus one,
    // is the tracing overhead.
    constexpr int kSlices = 10;
    bulk_out = run_bulk(bulk_s, kSlices, [&](int k) {
      if (k % 2 == 0 && k < kSlices) tw->resume();
      if (k % 2 == 1) tw->pause();
    });
    double traced = 0, plain = 0;
    for (int k = 0; k < kSlices; ++k)
      (k % 2 ? plain : traced) +=
          bulk_out.slice_samples[static_cast<std::size_t>(k)];
    overhead = traced > 0 ? plain / traced - 1.0 : 0.0;
    layers = tw->layers({});
    auto shard1 = svc->shard_served();
    Json served = Json::array();
    for (std::size_t i = 0; i < shard1.size(); ++i)
      served.push_back(Json(shard1[i] - shard0[i]));
    layers.set("shard_served", std::move(served));
  }
  // Accounting and correctness.
  auto account = [&](const std::vector<Reply>& rs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
      res.outcome(rs[i].ok ? "ok" : rs[i].error);
  };
  account(open_r, open_r.size());
  const std::size_t bulk_end = bulk_out.end;
  account(bulk_r, bulk_end);

  pp::DrcChecker drc(pp::bench::experiment_rules());
  // Quality over the open phase's originals (a repeat would count one
  // output twice) and the first bulk requests in plan order, which every
  // run issues and completes, so the set depends only on the seed.
  Quality q;
  std::vector<Raster> legal_patterns;
  auto add_quality = [&](const Reply& r) {
    for (std::size_t k = 0; k < r.patterns.size(); ++k) {
      bool legal = k < r.legal.size() && r.legal[k];
      q.add(r.patterns[k], legal, drc);
      if (legal) legal_patterns.push_back(r.patterns[k]);
    }
  };
  std::vector<double> latency, lag, queue_wait, e2e, wire;
  double requested = 0, hits = 0, ok_open = 0;
  bool repeats_equal = true;
  for (std::size_t i = 0; i < open.size(); ++i) {
    const Reply& r = open_r[i];
    requested += 1;  // the SLO share is over sent requests
    lag.push_back((r.sent_s - open[i].due_s) * 1e3);
    if (!r.ok) continue;
    ok_open += 1;
    hits += r.cached ? 1 : 0;
    latency.push_back((r.recv_s - open[i].due_s) * 1e3);
    if (open[i].repeat_of < 0) add_quality(r);
    if (!r.cached) {
      queue_wait.push_back(r.wait_ms);
      e2e.push_back(r.e2e_ms);
    }
    wire.push_back((r.recv_s - r.sent_s) * 1e3 - r.e2e_ms);
    if (open[i].repeat_of >= 0) {
      const Reply& orig = open_r[static_cast<std::size_t>(open[i].repeat_of)];
      repeats_equal &= orig.ok && orig.patterns == r.patterns;
    }
  }
  int bulk_quality = inum(spec, "bulk_quality_requests");
  for (std::size_t i = 0; i < bulk_end && bulk_quality > 0; ++i)
    if (bulk_r[i].ok) {
      add_quality(bulk_r[i]);
      --bulk_quality;
    }
  q.h2.push_back(pp::library_stats(legal_patterns).h2);
  res.check("serve.cache_hits_equal_cold", repeats_equal);

  bool ref_ok = true;
  const Json& verify = need(spec, "verify");
  int verified = 0;
  for (std::size_t v = 0; v < verify.size(); ++v) {
    std::size_t i = static_cast<std::size_t>(verify.at(v).as_number());
    if (i >= open.size() || !open_r[i].ok) continue;
    auto entry = svc->registry->get(open[i].model);
    ref_ok &= sequential_reference(*entry, open[i]) == open_r[i].patterns;
    ++verified;
  }
  res.check("serve.matches_sequential_reference", ref_ok && verified > 0);

  write_latency(res.out, {latency}, requested);
  res.out.set("send_lag_ms", num_array(lag));
  res.out.set("rate_items", num_array(bulk_out.samples));
  res.out.set("rate_secs", num_array(bulk_out.secs));
  q.write(res.out);
  if (trace) {
    layers.set("trace_overhead_frac", Json(overhead));
    layers.set("queue_wait_ms", num_array(queue_wait));
    layers.set("server_e2e_ms", num_array(e2e));
    layers.set("wire_overhead_ms", num_array(wire));
    layers.set("cache_hits", Json(hits));
    layers.set("ok_requests", Json(ok_open));
    // Samples and sample-steps the executors ran while tracing was on: the
    // open phase and the bulk requests answered in a traced slice, cache
    // hits excluded.
    double items = 0, steps = 0;
    auto add_work = [&](const WireReq& w, const Reply& r) {
      if (!r.ok || r.cached) return;
      items += w.count;
      int s = w.steps > 0
                  ? w.steps
                  : svc->registry->get(w.model)->cfg.ddpm.sample_steps;
      steps += static_cast<double>(w.count) * s;
    };
    for (std::size_t i = 0; i < open.size(); ++i) add_work(open[i], open_r[i]);
    for (std::size_t i = 0; i < bulk_out.end; ++i) {
      const int k = bulk_out.slice_of(bulk_r[i].recv_s);
      if (k >= 0 && k % 2 == 0 && bulk_r[i].recv_s - bulk_out.t0 <= bulk_s)
        add_work(bulk[i], bulk_r[i]);
    }
    layers.set("work_items", Json(items));
    layers.set("sample_steps", Json(steps));
    res.out.set("layers", std::move(layers));
  }
  client.reset();
  svc.reset();
}

// ---------------------------------------------------------------------------

int train() {
  // make_model trains pretrain + finetune once and caches both; later calls
  // load the cache.
  for (const char* preset : {"sd1", "sd2"})
    pp::bench::make_model(preset, /*finetuned=*/true, starters());
  return 0;
}

int run(const std::string& plan_path, const std::string& out_path) {
  std::ifstream in(plan_path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string err;
  Json plan = Json::parse(ss.str(), &err);
  if (plan.is_null()) throw std::runtime_error("plan: " + err);
  pp::obs::set_trace_enabled(false);

  Result res;
  const std::string workload = need(plan, "workload").as_string();
  if (workload == "library") {
    run_library(plan, res);
  } else if (workload == "serve") {
    run_serve(plan, res);
  } else if (workload == "expand") {
    run_expand(plan, res);
  } else {
    throw std::runtime_error("unknown workload " + workload);
  }
  res.out.set("fingerprint", fingerprint());
  res.out.set("peak_rss_mb", Json(peak_rss_mb()));
  res.out.set("outcomes", res.outcomes);
  res.out.set("checks", res.checks);
  std::ofstream out(out_path);
  out << res.out.dump() << "\n";
  return out.good() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  g_pool_start = Clock::now();
  pp::pool_stats();  // creates the pool now, so its lifetime starts here
  try {
    std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "train" && argc == 2) return train();
    if (mode == "run" && argc == 4) return run(argv[2], argv[3]);
    std::fprintf(stderr, "usage: ppbench train | ppbench run <plan> <out>\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppbench: %s\n", e.what());
    return 1;
  }
}
