#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace speedkit {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count]() { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitReturnsImmediatelyWhenIdle) {
  ThreadPool pool(2);
  pool.Wait();  // nothing submitted: must not hang
  std::atomic<int> count{0};
  pool.Submit([&count]() { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Wait();  // drained: must not hang either
}

TEST(ThreadPoolTest, PoolIsReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count]() { count.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(count.load(), 30);
}

TEST(ThreadPoolTest, DestructorJoinsOutstandingWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count]() { count.fetch_add(1); });
    }
    // No Wait(): the destructor must drain the queue before joining.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, AtLeastOneWorkerEvenWhenAskedForZero) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
  std::atomic<int> count{0};
  pool.Submit([&count]() { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  ParallelFor(&pool, hits.size(),
              [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsSerially) {
  std::vector<int> order;
  ParallelFor(nullptr, 10, [&order](size_t i) {
    order.push_back(static_cast<int>(i));
  });
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);  // in order
}

TEST(ParallelForTest, ZeroIterationsIsANoOp) {
  ThreadPool pool(2);
  ParallelFor(&pool, 0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(AvailableCpusTest, PositiveAndNeverAboveHardwareConcurrency) {
  size_t n = ThreadPool::AvailableCpus();
  EXPECT_GE(n, 1u);
  unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) {
    EXPECT_LE(n, static_cast<size_t>(hw));
  }
  // DefaultThreads is the affinity-clamped count — in a container that
  // grants 2 CPUs of a 64-core host, sizing pools by hardware_concurrency
  // oversubscribes 32x; this is the knob every harness sizes by.
  EXPECT_EQ(ThreadPool::DefaultThreads(), n);
}

}  // namespace
}  // namespace speedkit
