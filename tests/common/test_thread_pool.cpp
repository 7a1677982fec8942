#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace kertbn {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&hits](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    for (const std::size_t n : {0u, 1u, 2u, 5u, 64u}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, n=" +
                   std::to_string(n));
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&hits](std::size_t i) { ++hits[i]; });
      for (auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(ThreadPool, ParallelForCompletesOnTheCallerWhileWorkersAreBlocked) {
  ThreadPool pool(2);
  std::latch started(2);
  std::latch release(1);
  std::vector<std::future<void>> blockers;
  for (int w = 0; w < 2; ++w) {
    blockers.push_back(pool.submit([&started, &release] {
      started.count_down();
      release.wait();
    }));
  }
  started.wait();

  // Both workers are wedged: the caller must run every index itself.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(16);
  pool.parallel_for(16, [&ran_on](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);

  release.count_down();
  for (auto& b : blockers) b.get();
}

TEST(ThreadPool, NestedParallelForOnOneThreadCompletes) {
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(4 * 8);
  pool.parallel_for(4, [&](std::size_t i) {
    pool.parallel_for(8, [&hits, i](std::size_t j) { ++hits[i * 8 + j]; });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsAfterEveryIndexRan) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 64;
  // Owned by this scope: a task still running after parallel_for threw
  // would touch them after they are gone (ASAN reports it).
  auto hits = std::make_unique<std::vector<std::atomic<int>>>(kN);
  try {
    pool.parallel_for(kN, [&hits](std::size_t i) {
      // Indices past the first failure are slow, so a join that returned
      // at the first exception would leave them unrun.
      if (i > 5) std::this_thread::sleep_for(std::chrono::microseconds(300));
      ++(*hits)[i];
      if (i == 40 || i == 5 || i == 63) {
        throw std::runtime_error("index " + std::to_string(i));
      }
    });
    ADD_FAILURE() << "parallel_for swallowed the exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "index 5");
  }
  for (auto& h : *hits) EXPECT_EQ(h.load(), 1);
  hits.reset();
  // The pool still serves work afterwards.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // destructor joins after running everything queued
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

// --- Stress tests (run clean under -DKERTBN_SANITIZE=thread) ---

TEST(ThreadPoolStress, ConcurrentSubmittersFromManyThreads) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kProducers = 8;
  constexpr int kTasksPerProducer = 100;
  std::vector<std::thread> producers;
  std::mutex futures_mutex;
  std::vector<std::future<void>> futures;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        auto f = pool.submit([&counter] { ++counter; });
        std::lock_guard lock(futures_mutex);
        futures.push_back(std::move(f));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), kProducers * kTasksPerProducer);
}

TEST(ThreadPoolStress, ExceptionsUnderLoadDoNotPoisonThePool) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([i]() -> int {
      if (i % 3 == 0) throw std::runtime_error("boom");
      return i;
    }));
  }
  int ok = 0, thrown = 0;
  for (int i = 0; i < 200; ++i) {
    try {
      EXPECT_EQ(futures[i].get(), i);
      ++ok;
    } catch (const std::runtime_error&) {
      ++thrown;
    }
  }
  EXPECT_EQ(thrown, 67);  // i = 0, 3, ..., 198
  EXPECT_EQ(ok, 133);
  // The pool still works after a batch of failures.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolStress, RepeatedConstructDestroyShutsDownCleanly) {
  std::atomic<int> counter{0};
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // destructor drains + joins every round
  EXPECT_EQ(counter.load(), 50 * 8);
}

TEST(ThreadPool, TrySubmitRejectsWhenQueueFull) {
  ThreadPool pool(1);
  pool.set_queue_limit(2);

  // Wedge the single worker so submitted tasks pile up in the queue.
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::atomic<bool> started{false};
  auto blocker = pool.try_submit([&started, open] {
    started.store(true);
    open.wait();
  });
  ASSERT_TRUE(blocker.has_value());
  while (!started.load()) std::this_thread::yield();

  // The worker is busy, the queue holds 2: the third enqueue is refused.
  auto a = pool.try_submit([] { return 1; });
  auto b = pool.try_submit([] { return 2; });
  auto rejected = pool.try_submit([] { return 3; });
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(rejected.has_value());
  EXPECT_EQ(pool.queue_depth(), 2u);

  // Plain submit stays unbounded — the limit only governs try_submit.
  auto forced = pool.submit([] { return 4; });

  gate.set_value();
  EXPECT_EQ(a->get(), 1);
  EXPECT_EQ(b->get(), 2);
  EXPECT_EQ(forced.get(), 4);
  blocker->get();

  // With the queue drained, try_submit admits again.
  auto later = pool.try_submit([] { return 5; });
  ASSERT_TRUE(later.has_value());
  EXPECT_EQ(later->get(), 5);
}

TEST(ThreadPool, ZeroQueueLimitMeansUnbounded) {
  ThreadPool pool(2);
  pool.set_queue_limit(0);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    auto f = pool.try_submit([i] { return i; });
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[i].get(), i);
}

TEST(ThreadPoolStress, ConcurrentParallelForCallsShareOnePool) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(128);
  std::thread other(
      [&] { pool.parallel_for(64, [&hits](std::size_t i) { ++hits[i]; }); });
  pool.parallel_for(64,
                    [&hits](std::size_t i) { ++hits[64 + i]; });
  other.join();
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace kertbn
