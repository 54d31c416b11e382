#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace hgp {
namespace {

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ZeroThreadsRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  auto f = pool.submit([] { return std::string("inline"); });
  EXPECT_EQ(f.get(), "inline");
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllExecute) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

class ParallelForSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelForSizes, CoversRangeExactlyOnce) {
  ThreadPool pool(3);
  const std::size_t n = GetParam();
  std::vector<std::atomic<int>> hits(n);
  parallel_for(pool, 0, n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

INSTANTIATE_TEST_SUITE_P(Sizes, ParallelForSizes,
                         ::testing::Values(0, 1, 2, 3, 7, 64, 1000));

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for(pool, 5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, ExceptionIsRethrownOnce) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [](std::size_t i) {
                     if (i == 50) throw std::runtime_error("dead");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, SumMatchesSerial) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<std::int64_t> part(n);
  parallel_for(pool, 0, n, [&](std::size_t i) {
    part[i] = static_cast<std::int64_t>(i);
  });
  const auto sum = std::accumulate(part.begin(), part.end(), std::int64_t{0});
  EXPECT_EQ(sum, static_cast<std::int64_t>(n * (n - 1) / 2));
}

}  // namespace
}  // namespace hgp
