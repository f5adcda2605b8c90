// Tests for the shared utilities: RNG determinism, parallel_for, errors.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

namespace pp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    same += (a.uniform_int(0, 1 << 20) == b.uniform_int(0, 1 << 20));
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntRespectsRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int v = rng.uniform_int(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_int(5, 4), Error);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, NormalHasApproximateMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  // Child stream differs from the parent continuation.
  int same = 0;
  for (int i = 0; i < 100; ++i)
    same += (a.uniform_int(0, 1 << 20) == child.uniform_int(0, 1 << 20));
  EXPECT_LT(same, 5);
}

TEST(Rng, StreamIsPureFunctionOfSeedAndId) {
  // Same (base, id) -> identical sequence, regardless of construction order
  // or any other streams constructed in between.
  Rng a = Rng::stream(123, 7);
  Rng noise1 = Rng::stream(999, 0);
  (void)noise1.normal();
  Rng b = Rng::stream(123, 7);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));
}

TEST(Rng, StreamsWithDifferentIdsAreIndependent) {
  Rng a = Rng::stream(123, 0);
  Rng b = Rng::stream(123, 1);
  Rng c = Rng::stream(124, 0);  // adjacent base must not alias id+1
  int same_ab = 0, same_ac = 0;
  for (int i = 0; i < 100; ++i) {
    int va = a.uniform_int(0, 1 << 20);
    same_ab += (va == b.uniform_int(0, 1 << 20));
    same_ac += (va == c.uniform_int(0, 1 << 20));
  }
  EXPECT_LT(same_ab, 5);
  EXPECT_LT(same_ac, 5);
}

TEST(Rng, DrawSeedConsumesExactlyOneStep) {
  // Drawing k seeds one call at a time equals drawing them in one burst:
  // the property that makes per-sample stream assignment batch-split
  // invariant.
  Rng a(42), b(42);
  std::vector<std::uint64_t> one_by_one, burst;
  for (int i = 0; i < 8; ++i) one_by_one.push_back(a.draw_seed());
  for (int i = 0; i < 8; ++i) burst.push_back(b.engine()());
  EXPECT_EQ(one_by_one, burst);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(17);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
  EXPECT_NE(v, orig);  // 50! permutations; identity is essentially impossible
}

TEST(Rng, IndexRejectsZero) {
  Rng rng(3);
  EXPECT_THROW(rng.index(0), Error);
}

TEST(Parallel, CoversAllIndicesExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, ChunksPartitionRange) {
  std::atomic<long long> total{0};
  parallel_for_chunks(0, 777, [&](std::size_t lo, std::size_t hi) {
    long long s = 0;
    for (std::size_t i = lo; i < hi; ++i) s += static_cast<long long>(i);
    total.fetch_add(s);
  });
  EXPECT_EQ(total.load(), 777LL * 776 / 2);
}

TEST(Parallel, PropagatesExceptions) {
  EXPECT_THROW(parallel_for(0, 100,
                            [](std::size_t i) {
                              if (i == 57) throw Error("boom");
                            }),
               Error);
}

TEST(Parallel, ReentrantSequentialJobs) {
  // Two consecutive jobs must not interfere.
  std::atomic<int> a{0}, b{0};
  parallel_for(0, 500, [&](std::size_t) { a.fetch_add(1); });
  parallel_for(0, 300, [&](std::size_t) { b.fetch_add(1); });
  EXPECT_EQ(a.load(), 500);
  EXPECT_EQ(b.load(), 300);
}

// A pool-job body that issues its own parallel_for (a conv fanned out over
// samples whose per-sample GEMM splits rows) must run the inner call inline
// on the thread that issued it. Dispatching it would re-take the one job
// slot the outer call holds and hang; ctest's TIMEOUT turns that into a
// failure.
TEST(Parallel, NestedCallsRunInline) {
  const std::size_t outer = 2 * parallel_thread_count() + 1;
  std::vector<std::atomic<int>> hits(outer * 16);
  const std::uint64_t inline_before = pool_stats().inline_jobs;
  parallel_for_chunks(0, outer, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t o = lo; o < hi; ++o)
      parallel_for(0, 16, [&](std::size_t i) { hits[o * 16 + i].fetch_add(1); });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  if (parallel_thread_count() > 1) {
    EXPECT_GE(pool_stats().inline_jobs - inline_before, outer);
  }
}

void spin_for(std::chrono::milliseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// Busy time goes to the slot of the thread that ran the body, once. Every
// pool thread takes one item (a barrier keeps each item on its own thread)
// and spins inside a nested, inline parallel_for. No slot may then be
// credited more time than the call took: nested runs must neither pile
// onto slot 0 nor be counted on top of their enclosing chunk.
TEST(Parallel, BusyTimeCreditsRunningThreadOnce) {
  const std::size_t n = parallel_thread_count();
  if (n < 2) GTEST_SKIP() << "needs a pool of at least 2 threads";
  const auto spin = std::chrono::milliseconds(60);
  std::atomic<std::size_t> arrived{0};
  std::atomic<bool> barrier_timed_out{false};
  const PoolStats before = pool_stats();
  const auto t0 = std::chrono::steady_clock::now();
  parallel_for_chunks(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (arrived.load() < n) {
        if (std::chrono::steady_clock::now() > deadline) {
          barrier_timed_out = true;
          break;
        }
      }
      parallel_for_chunks(0, 2, [&](std::size_t, std::size_t) { spin_for(spin); });
    }
  });
  const auto wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  ASSERT_FALSE(barrier_timed_out) << "pool threads never ran concurrently";
  const PoolStats after = pool_stats();
  ASSERT_EQ(after.busy_ns.size(), n);
  const auto spin_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(spin).count());
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint64_t busy = after.busy_ns[s] - before.busy_ns[s];
    EXPECT_GE(busy, spin_ns) << "slot " << s << " not credited";
    EXPECT_LE(busy, wall_ns) << "slot " << s << " credited twice";
  }
}

TEST(Error, RequireMacroThrowsWithContext) {
  try {
    PP_REQUIRE_MSG(1 == 2, "math is broken");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("math is broken"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Timer, MeasuresNonNegativeTime) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 10000; ++i) x = x + i;
  EXPECT_GE(t.seconds(), 0.0);
  double first = t.seconds();
  t.reset();
  EXPECT_LE(t.seconds(), first + 1.0);
}

}  // namespace
}  // namespace pp
