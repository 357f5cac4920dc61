#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/registry.h"

namespace xr::runtime {
namespace {

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, MapReturnsResultsInIndexOrder) {
  ThreadPool pool(4);
  const auto out =
      pool.map(1000, [](std::size_t i) { return double(i) * double(i); });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_DOUBLE_EQ(out[i], double(i) * double(i));
}

TEST(ThreadPool, OneThreadAndManyThreadsProduceIdenticalResults) {
  // The determinism contract: thread count is a throughput knob only.
  const auto work = [](std::size_t i) {
    double x = 1.0 + double(i) * 1e-3;
    for (int k = 0; k < 50; ++k) x = std::sqrt(x * x + 1e-6);
    return x;
  };
  ThreadPool serial(1);
  ThreadPool parallel(8);
  const auto a = serial.map(4096, work);
  const auto b = parallel.map(4096, work);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << i;  // bitwise, not approximate
}

TEST(ThreadPool, ExplicitGrainCoversEveryIndexWithIdenticalResults) {
  ThreadPool pool(4);
  constexpr std::size_t n = 5000;
  const auto f = [](std::size_t i) { return std::sqrt(double(i) + 1.0); };
  const auto auto_grain = pool.map(n, f);
  // Grain is pure scheduling: any forced chunk size (including one larger
  // than the whole range) yields the identical index-aligned vector.
  for (const std::size_t grain : {std::size_t{1}, std::size_t{7},
                                  std::size_t{512}, n + 1}) {
    const auto forced = pool.map(n, f, grain);
    ASSERT_EQ(forced.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(forced[i], auto_grain[i]) << "grain " << grain << " i " << i;
  }
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(500,
                          [](std::size_t i) {
                            if (i == 137)
                              throw std::runtime_error("boom at 137");
                          }),
        std::runtime_error)
        << "threads=" << threads;
    // The pool survives a failed loop and keeps working.
    std::atomic<std::size_t> count{0};
    pool.parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 100u);
  }
}

TEST(ThreadPool, SubmitReturnsFutureValue) {
  ThreadPool pool(2);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("done"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "done");
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::logic_error("bad"); });
  EXPECT_THROW(f.get(), std::logic_error);
}

TEST(ThreadPool, ReusableAcrossManyLoops) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<long> sum{0};
    pool.parallel_for(257, [&](std::size_t i) { sum.fetch_add(long(i)); });
    EXPECT_EQ(sum.load(), 257L * 256L / 2L);
  }
}

TEST(ThreadPool, ZeroAndOneIndexLoops) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(1, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // A parallel_for issued from inside a pool job must run inline on that
  // worker instead of enqueueing helpers behind itself.
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  pool.parallel_for(8, [&](std::size_t i) {
    pool.parallel_for(100, [&, i](std::size_t k) {
      sum.fetch_add(long(i * 100 + k) % 7);
    });
  });
  long expected = 0;
  for (long i = 0; i < 8; ++i)
    for (long k = 0; k < 100; ++k) expected += (i * 100 + k) % 7;
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPool, SharedPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  EXPECT_GE(ThreadPool::shared().size(), 1u);
}

// A function-local static pool (shared() is one) is joined during static
// destruction, so a job still running at exit finishes after every static
// constructed later than the pool is gone. Here the latency bucket ladder
// is first built after the pool; the worker's post-job telemetry must not
// be built from it once it is destroyed. Threadsafe style: the child
// re-executes the binary, so the statics start unconstructed, and the
// pool's threads exist in the child (fork would not copy them).
TEST(ThreadPoolDeathTest, StaticPoolDrainsAJobCleanlyAtExit) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        static ThreadPool pool(4);
        (void)obs::Histogram::latency_bounds_ms();
        pool.submit([] {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
        });
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace xr::runtime
