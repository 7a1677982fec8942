#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <memory>

#include "obs/metrics.hpp"

namespace kertbn {

namespace pool_obs {
namespace {
obs::Gauge& queue_depth() {
  static obs::Gauge& g =
      obs::MetricsRegistry::instance().gauge("pool.queue_depth");
  return g;
}
obs::Counter& tasks() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("pool.tasks");
  return c;
}
obs::Histogram& wait_ns() {
  static obs::Histogram& h =
      obs::MetricsRegistry::instance().histogram("pool.task_wait_ns");
  return h;
}
obs::Histogram& run_ns() {
  static obs::Histogram& h =
      obs::MetricsRegistry::instance().histogram("pool.task_run_ns");
  return h;
}
}  // namespace

std::uint64_t on_enqueue() {
  if (!obs::enabled()) return 0;
  queue_depth().add(1.0);
  tasks().add(1);
  return obs::now_ns();
}

std::uint64_t on_dequeue(std::uint64_t enqueue_ns) {
  if (enqueue_ns == 0) return 0;
  queue_depth().add(-1.0);
  const std::uint64_t now = obs::now_ns();
  wait_ns().record(now - enqueue_ns);
  return now;
}

void on_complete(std::uint64_t run_start_ns) {
  if (run_start_ns == 0) return;
  run_ns().record(obs::now_ns() - run_start_ns);
}

void on_reject() {
  if (!obs::enabled()) return;
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("kert.pool.rejected_tasks");
  c.add(1);
}

}  // namespace pool_obs

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

namespace {

/// One parallel_for call's shared state. The caller and its queued helper
/// tasks each hold a reference, so a helper that dequeues after the call
/// returned still finds a live (exhausted) counter.
class ForkJoin {
 public:
  ForkJoin(std::size_t n, const std::function<void(std::size_t)>& fn)
      : n_(n), fn_(&fn) {}

  /// Claims and runs indices until none is left. \p fn is touched only
  /// for a claimed index, and the caller returns only after every claimed
  /// index finished, so a late helper never dereferences a dead \p fn.
  void drain() {
    std::size_t ran = 0;
    for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
         i < n_; i = next_.fetch_add(1, std::memory_order_relaxed)) {
      try {
        (*fn_)(i);
      } catch (...) {
        std::lock_guard lock(mutex_);
        if (i < error_index_) {
          error_index_ = i;
          error_ = std::current_exception();
        }
      }
      ++ran;
    }
    if (ran > 0 &&
        done_.fetch_add(ran, std::memory_order_acq_rel) + ran == n_) {
      std::lock_guard lock(mutex_);
      finished_.notify_all();
    }
  }

  /// Blocks until every index ran, then rethrows the lowest-index error.
  void join() {
    std::unique_lock lock(mutex_);
    finished_.wait(lock, [this] {
      return done_.load(std::memory_order_acquire) == n_;
    });
    if (error_) std::rethrow_exception(error_);
  }

 private:
  const std::size_t n_;
  const std::function<void(std::size_t)>* fn_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> done_{0};
  std::mutex mutex_;
  std::condition_variable finished_;
  std::size_t error_index_ = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error_;
};

}  // namespace

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const auto job = std::make_shared<ForkJoin>(n, fn);
  const std::size_t helpers = std::min(n - 1, workers_.size());
  if (helpers > 0) {
    {
      std::lock_guard lock(mutex_);
      for (std::size_t h = 0; h < helpers; ++h) {
        queue_.push(wrap([job] { job->drain(); }));
      }
    }
    if (helpers == workers_.size()) {
      cv_.notify_all();
    } else {
      for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();
    }
  }
  job->drain();
  job->join();
}

}  // namespace kertbn
