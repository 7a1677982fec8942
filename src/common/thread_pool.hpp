#pragma once
/// \file thread_pool.hpp
/// Minimal task-based thread pool (C++ Core Guidelines CP.4: think in tasks).
///
/// Two ways in. `submit` / `try_submit` queue one task and hand back its
/// future: the query engine's striped batches (kert/query_engine), the
/// KERT builder's staged CPD fits (kert/kert_builder) and the decentralized
/// learning fabric's per-agent fits (decentral/) use them. `parallel_for`
/// is a fork-join in which the calling thread runs indices too: the
/// fleet's per-tick shard fan-out (fleet/fleet), per-node parameter fits
/// (bn/learning) and K2 restarts (bn/structure_learning) use it.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/span.hpp"

namespace kertbn {

/// Telemetry hooks around task scheduling (pool.queue_depth gauge,
/// pool.tasks counter, pool.task_wait_ns / pool.task_run_ns histograms).
/// Split out of the template so the metric handles are resolved once.
namespace pool_obs {
/// Queue-depth up, task counted; returns the enqueue timestamp (0 when
/// obs is runtime-disabled, telling the dequeue side to skip the clock).
std::uint64_t on_enqueue();
/// Queue-depth down, wait-time recorded; returns the run-start timestamp.
std::uint64_t on_dequeue(std::uint64_t enqueue_ns);
/// Run-time recorded (no-op when \p run_start_ns is 0).
void on_complete(std::uint64_t run_start_ns);
/// Bounded-queue rejection counted (kert.pool.rejected_tasks).
void on_reject();
}  // namespace pool_obs

/// Fixed-size pool executing submitted tasks FIFO. Destruction joins all
/// workers after draining the queue.
class ThreadPool {
 public:
  /// Spawns \p threads workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Schedules \p fn and returns a future for its result. The submitting
  /// thread's span context travels with the task, so spans opened inside
  /// pooled work nest under the submitting span (see obs/span.hpp).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.push(wrap([task] { (*task)(); }));
    }
    cv_.notify_one();
    return result;
  }

  /// Bounded-admission variant of submit: refuses (returning nullopt and
  /// bumping kert.pool.rejected_tasks) when the queue already holds
  /// `queue_limit` tasks. With no limit set it never refuses. `submit`
  /// stays unbounded — existing callers rely on it always accepting.
  template <typename F>
  auto try_submit(F&& fn)
      -> std::optional<std::future<std::invoke_result_t<F>>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (queue_limit_ != 0 && queue_.size() >= queue_limit_) {
        pool_obs::on_reject();
        return std::nullopt;
      }
      queue_.push(wrap([task] { (*task)(); }));
    }
    cv_.notify_one();
    return result;
  }

  /// Caps the pending-task queue consulted by try_submit (0 = unbounded,
  /// the default). Safe to call while workers run.
  void set_queue_limit(std::size_t limit) {
    std::lock_guard lock(mutex_);
    queue_limit_ = limit;
  }
  std::size_t queue_depth() const {
    std::lock_guard lock(mutex_);
    return queue_.size();
  }

  /// Runs fn(i) for every i in [0, n) and returns once all have finished.
  /// The calling thread takes part: it queues min(n - 1, size()) helper
  /// tasks, and it and the helpers claim indices from one shared counter,
  /// so the call completes even when every worker is busy (or is the
  /// caller itself: nesting is safe). Every index runs even when some
  /// throw; the exception of the lowest throwing index is then rethrown.
  /// A helper that wakes after the indices ran out returns without
  /// touching \p fn, so \p fn need only outlive the call.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  /// Queue entry for \p task. The enqueuing thread's span context travels
  /// with it, and the pool_obs hooks bracket it. Call with mutex_ held.
  template <typename F>
  std::function<void()> wrap(F&& task) {
#ifdef KERTBN_OBS_DISABLED
    return std::function<void()>(std::forward<F>(task));
#else
    return [task = std::forward<F>(task), ctx = obs::current_context(),
            enqueue_ns = pool_obs::on_enqueue()]() mutable {
      const std::uint64_t run_start = pool_obs::on_dequeue(enqueue_ns);
      obs::ContextGuard guard(ctx);
      task();
      pool_obs::on_complete(run_start);
    };
#endif
  }

  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::size_t queue_limit_ = 0;
};

}  // namespace kertbn
