// Work-stealing thread pool used by the socket server.
#include "base/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

namespace mintc::base {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 1000);
  EXPECT_EQ(pool.executed_count(), 1000);
}

TEST(ThreadPool, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran.store(true); });
  pool.wait();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, WaitCoversNestedSubmissions) {
  // A task submitting follow-up work transitively: wait() must not return
  // until the whole tree ran. Three levels, fanout 4 -> 1 + 4 + 16 + 64.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::function<void(int)> spawn = [&](int depth) {
    count.fetch_add(1, std::memory_order_relaxed);
    if (depth == 0) return;
    for (int i = 0; i < 4; ++i) {
      pool.submit([&spawn, depth] { spawn(depth - 1); });
    }
  };
  pool.submit([&spawn] { spawn(3); });
  pool.wait();
  EXPECT_EQ(count.load(), 1 + 4 + 16 + 64);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait();
    EXPECT_EQ(count.load(), (batch + 1) * 50);
  }
}

TEST(ThreadPool, WorkerIndexIsStableAndExternalThreadGetsMinusOne) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_index(), -1);  // the test thread is not a worker
  std::mutex mu;
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) {
    pool.submit([&] {
      const int idx = pool.worker_index();
      const std::lock_guard<std::mutex> lk(mu);
      seen.insert(idx);
    });
  }
  pool.wait();
  for (const int idx : seen) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, 3);
  }
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // No wait(): ~ThreadPool must finish the backlog before joining.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, StealCounterOnlyMovesForward) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.steal_count(), 0);
  std::atomic<int> count{0};
  for (int i = 0; i < 500; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  const std::int64_t after = pool.steal_count();
  EXPECT_GE(after, 0);
  EXPECT_LE(after, pool.executed_count());
}

TEST(ThreadPool, TaskGroupWaitCoversOnlyItsOwnTasks) {
  ThreadPool pool(2);
  TaskGroup group;
  std::atomic<int> grouped{0};
  std::atomic<int> loose{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit(group, [&grouped] { grouped.fetch_add(1, std::memory_order_relaxed); });
    pool.submit([&loose] { loose.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(grouped.load(), 100);
  EXPECT_EQ(group.pending(), 0);
  pool.wait();
  EXPECT_EQ(loose.load(), 100);
}

TEST(ThreadPool, TaskGroupWaitReturnsUnderContinuousForeignLoad) {
  // The serve listener's exact situation: drain OUR in-flight requests while
  // other threads keep the pool busy indefinitely. A global pool.wait()
  // could starve forever here; the group wait must not.
  ThreadPool pool(3);
  TaskGroup group;
  std::atomic<bool> keep_flooding{true};
  std::thread flooder([&] {
    while (keep_flooding.load(std::memory_order_relaxed)) {
      pool.submit([] { std::this_thread::sleep_for(std::chrono::microseconds(50)); });
      std::this_thread::sleep_for(std::chrono::microseconds(10));
    }
  });
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit(group, [&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(done.load(), 50);
  EXPECT_EQ(group.pending(), 0);
  keep_flooding.store(false);
  flooder.join();
  pool.wait();
}

TEST(ThreadPool, TaskGroupIsReusableAndWaitableWhenEmpty) {
  ThreadPool pool(2);
  TaskGroup group;
  group.wait();  // no pending tasks: returns immediately
  for (int batch = 0; batch < 3; ++batch) {
    std::atomic<int> count{0};
    for (int i = 0; i < 20; ++i) {
      pool.submit(group, [&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    group.wait();
    EXPECT_EQ(count.load(), 20);
  }
}

TEST(ThreadPool, TaskGroupSupportsNestedSubmission) {
  ThreadPool pool(2);
  TaskGroup group;
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit(group, [&] {
      count.fetch_add(1, std::memory_order_relaxed);
      // Follow-up work joins the same group; wait() must cover it too.
      pool.submit(group, [&count] { count.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  group.wait();
  EXPECT_EQ(count.load(), 20);
}

}  // namespace
}  // namespace mintc::base
