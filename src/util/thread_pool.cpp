#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <thread>

#ifndef SIMGEN_NO_TELEMETRY
#include <atomic>
#include <bit>
#include <chrono>
#endif

#include "util/logging.hpp"
#include "util/mutex.hpp"

namespace simgen::util {

unsigned resolve_num_threads(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

#ifndef SIMGEN_NO_TELEMETRY
namespace {

std::uint64_t profile_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Same bucketing as obs::Histogram::bucket_of, restated here because
/// util sits below obs in the layering.
constexpr std::size_t latency_bucket_of(std::uint64_t value) noexcept {
  return static_cast<std::size_t>(std::bit_width(value));
}

/// Lock guard that counts contention: try_lock first, and only when that
/// fails (someone else holds the queue) fall back to a blocking lock.
/// The two counters are the *calling* worker's accumulators — a block
/// means "this worker stalled", wherever the queue belongs.
class SIMGEN_SCOPED_CAPABILITY ProfiledLockGuard {
 public:
  ProfiledLockGuard(Mutex& mutex, std::atomic<std::uint64_t>& acquires,
                    std::atomic<std::uint64_t>& blocks) SIMGEN_ACQUIRE(mutex)
      : mutex_(mutex) {
    if (!mutex.try_lock()) {
      blocks.fetch_add(1, std::memory_order_relaxed);
      mutex.lock();
    }
    acquires.fetch_add(1, std::memory_order_relaxed);
  }
  ~ProfiledLockGuard() SIMGEN_RELEASE() { mutex_.unlock(); }
  ProfiledLockGuard(const ProfiledLockGuard&) = delete;
  ProfiledLockGuard& operator=(const ProfiledLockGuard&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace

WorkerProfile PoolProfile::totals() const {
  WorkerProfile sum;
  for (const WorkerProfile& worker : workers) {
    sum.tasks += worker.tasks;
    sum.steal_attempts += worker.steal_attempts;
    sum.steal_successes += worker.steal_successes;
    sum.lock_acquires += worker.lock_acquires;
    sum.lock_blocks += worker.lock_blocks;
    sum.busy_ns += worker.busy_ns;
    sum.idle_ns += worker.idle_ns;
    sum.queue_depth_samples += worker.queue_depth_samples;
    sum.queue_depth_sum += worker.queue_depth_sum;
    sum.max_queue_depth = std::max(sum.max_queue_depth, worker.max_queue_depth);
    sum.task_us_sum += worker.task_us_sum;
    for (std::size_t i = 0; i < WorkerProfile::kNumLatencyBuckets; ++i)
      sum.task_us_buckets[i] += worker.task_us_buckets[i];
  }
  return sum;
}
#endif  // SIMGEN_NO_TELEMETRY

struct ThreadPool::Impl {
  /// One mutex-guarded deque per worker. The owner pops from the back
  /// (LIFO, cache-warm), thieves steal from the front (FIFO, so the
  /// oldest work travels). Each entry carries the epoch of the batch it
  /// was seeded for: a worker that went to sleep during batch N can wake
  /// and pop a batch-N+1 task before noticing the epoch bump, and the
  /// tag is what tells it to re-read batch_fn instead of invoking the
  /// (destroyed) previous batch's function.
  struct Item {
    std::uint64_t epoch;
    std::size_t task;
  };
  struct Queue {
    Mutex mutex;
    std::deque<Item> tasks SIMGEN_GUARDED_BY(mutex);
  };

#ifndef SIMGEN_NO_TELEMETRY
  /// Live per-worker accumulators. Each non-bucket field is written only
  /// by its owning worker; everything is a relaxed atomic so profile()
  /// and the watchdog can read mid-batch without a data race. One cache
  /// line per worker keeps the hot-path increments free of false
  /// sharing.
  struct alignas(64) WorkerCounters {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> steal_attempts{0};
    std::atomic<std::uint64_t> steal_successes{0};
    std::atomic<std::uint64_t> lock_acquires{0};
    std::atomic<std::uint64_t> lock_blocks{0};
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> idle_ns{0};
    std::atomic<std::uint64_t> queue_depth_samples{0};
    std::atomic<std::uint64_t> queue_depth_sum{0};
    std::atomic<std::uint64_t> max_queue_depth{0};
    std::atomic<std::uint64_t> task_us_sum{0};
    /// Timestamp (profile_now_ns) when this worker last became idle, or 0
    /// while it is inside a task body. Lives here — not as a worker_loop
    /// local — so settle_idle() can close the open idle interval after
    /// the last task of a run (the §13 trailing-idle tail).
    std::atomic<std::uint64_t> idle_since{0};
    std::array<std::atomic<std::uint64_t>, WorkerProfile::kNumLatencyBuckets>
        task_us_buckets{};
  };
#endif

  explicit Impl(unsigned num_threads)
      : queues(num_threads)
#ifndef SIMGEN_NO_TELEMETRY
        ,
        counters(num_threads)
#endif
  {
    workers.reserve(num_threads);
    for (unsigned w = 0; w < num_threads; ++w)
      workers.emplace_back([this, w] { worker_loop(w); });
  }

  ~Impl() {
    {
      LockGuard lock(mutex);
      shutting_down = true;
    }
    work_available.notify_all();
    for (std::thread& worker : workers) worker.join();
  }

  void run_tasks(std::size_t num_tasks,
                 const std::function<void(std::size_t, unsigned)>& fn) {
    if (num_tasks == 0) return;
    const unsigned n = static_cast<unsigned>(workers.size());
    {
      LockGuard lock(mutex);
      batch_fn = &fn;
      pending = num_tasks;
      failed_task = num_tasks;  // sentinel: no failure yet
      failure = nullptr;
      ++epoch;  // wakes every worker exactly once per batch
#ifndef SIMGEN_NO_TELEMETRY
      batches.fetch_add(1, std::memory_order_relaxed);
      pending_live.store(num_tasks, std::memory_order_relaxed);
#endif
      // Seed the deques block-cyclically so neighbouring (same-class,
      // similar-cone) tasks start on the same worker and stealing only
      // happens at the tail of the batch. The previous batch drained
      // completely (pending hit 0 implies every index was popped), so the
      // deques are empty here; clear() is belt and braces.
      const std::size_t block = (num_tasks + n - 1) / n;
      for (unsigned w = 0; w < n; ++w) {
        LockGuard queue_lock(queues[w].mutex);
        queues[w].tasks.clear();
        const std::size_t begin = static_cast<std::size_t>(w) * block;
        const std::size_t end = std::min(begin + block, num_tasks);
        for (std::size_t task = begin; task < end; ++task)
          queues[w].tasks.push_back(Item{epoch, task});
      }
    }
    work_available.notify_all();
    LockGuard lock(mutex);
    while (pending != 0) batch_done.wait(mutex);
    if (failure) {
      std::exception_ptr error = failure;
      failure = nullptr;
      std::rethrow_exception(error);
    }
  }

  /// Pops a task for worker \p self: own deque first, then steals.
  bool try_pop(unsigned self, Item& item) {
#ifndef SIMGEN_NO_TELEMETRY
    WorkerCounters& mine = counters[self];
    {
      ProfiledLockGuard lock(queues[self].mutex, mine.lock_acquires,
                             mine.lock_blocks);
      if (!queues[self].tasks.empty()) {
        // Depth sampled at pop time (popped task included): the seeding
        // block shows up on the first pop, drain shows the tail.
        const std::uint64_t depth = queues[self].tasks.size();
        mine.queue_depth_samples.fetch_add(1, std::memory_order_relaxed);
        mine.queue_depth_sum.fetch_add(depth, std::memory_order_relaxed);
        if (depth > mine.max_queue_depth.load(std::memory_order_relaxed))
          mine.max_queue_depth.store(depth, std::memory_order_relaxed);
        item = queues[self].tasks.back();
        queues[self].tasks.pop_back();
        return true;
      }
    }
    const unsigned n = static_cast<unsigned>(queues.size());
    for (unsigned offset = 1; offset < n; ++offset) {
      const unsigned victim = (self + offset) % n;
      mine.steal_attempts.fetch_add(1, std::memory_order_relaxed);
      ProfiledLockGuard lock(queues[victim].mutex, mine.lock_acquires,
                             mine.lock_blocks);
      if (!queues[victim].tasks.empty()) {
        mine.steal_successes.fetch_add(1, std::memory_order_relaxed);
        item = queues[victim].tasks.front();
        queues[victim].tasks.pop_front();
        return true;
      }
    }
    return false;
#else
    {
      LockGuard lock(queues[self].mutex);
      if (!queues[self].tasks.empty()) {
        item = queues[self].tasks.back();
        queues[self].tasks.pop_back();
        return true;
      }
    }
    const unsigned n = static_cast<unsigned>(queues.size());
    for (unsigned offset = 1; offset < n; ++offset) {
      const unsigned victim = (self + offset) % n;
      LockGuard lock(queues[victim].mutex);
      if (!queues[victim].tasks.empty()) {
        item = queues[victim].tasks.front();
        queues[victim].tasks.pop_front();
        return true;
      }
    }
    return false;
#endif
  }

  void worker_loop(unsigned self) {
    // Log attribution (util::logf prefixes): this OS thread *is* worker
    // `self` for the pool's whole lifetime.
    set_thread_worker_index(static_cast<int>(self));
    std::uint64_t seen_epoch = 0;
#ifndef SIMGEN_NO_TELEMETRY
    counters[self].idle_since.store(profile_now_ns(),
                                    std::memory_order_relaxed);
#endif
    while (true) {
      const std::function<void(std::size_t, unsigned)>* fn = nullptr;
      {
        LockGuard lock(mutex);
        while (!shutting_down && epoch == seen_epoch) work_available.wait(mutex);
        if (shutting_down) return;
        seen_epoch = epoch;
        fn = batch_fn;
      }
      Item item{0, 0};
      while (try_pop(self, item)) {
        if (item.epoch != seen_epoch) {
          // Stale wake: we captured fn for an earlier batch, that batch
          // completed while we were descheduled, and this task belongs to
          // a batch issued since. The popped task holds its own batch
          // pending (run_tasks cannot return until it is executed and
          // decremented), so the current batch_fn is alive and is this
          // task's function — re-read it under the lock.
          LockGuard lock(mutex);
          seen_epoch = item.epoch;
          fn = batch_fn;
        }
        // No pool or queue lock is held across the task invocation: a
        // task is free to block (a bench cell runs for seconds) or to submit
        // telemetry that takes unrelated locks, without stalling stealing
        // or the other workers. -Wthread-safety verifies this: fn is a
        // local copy, and every guarded access below reacquires `mutex`.
        const std::size_t task = item.task;
#ifndef SIMGEN_NO_TELEMETRY
        const std::uint64_t task_begin = profile_now_ns();
        {
          // exchange(0) marks the worker busy; settle_idle() may have
          // already closed part of this interval, in which case the
          // stamp it left behind is where our accounting resumes.
          const std::uint64_t idle_since = counters[self].idle_since.exchange(
              0, std::memory_order_relaxed);
          if (idle_since != 0 && task_begin > idle_since)
            counters[self].idle_ns.fetch_add(task_begin - idle_since,
                                             std::memory_order_relaxed);
        }
#endif
        try {
          (*fn)(task, self);
        } catch (...) {
          LockGuard lock(mutex);
          // Keep the lowest-index failure so rethrowing is deterministic
          // regardless of which worker hit its exception first.
          if (task < failed_task) {
            failed_task = task;
            failure = std::current_exception();
          }
        }
#ifndef SIMGEN_NO_TELEMETRY
        {
          const std::uint64_t task_end = profile_now_ns();
          const std::uint64_t dur_ns = task_end - task_begin;
          const std::uint64_t dur_us = dur_ns / 1000;
          WorkerCounters& mine = counters[self];
          mine.tasks.fetch_add(1, std::memory_order_relaxed);
          mine.busy_ns.fetch_add(dur_ns, std::memory_order_relaxed);
          mine.task_us_sum.fetch_add(dur_us, std::memory_order_relaxed);
          mine.task_us_buckets[latency_bucket_of(dur_us)].fetch_add(
              1, std::memory_order_relaxed);
          mine.idle_since.store(task_end, std::memory_order_relaxed);
        }
#endif
        LockGuard lock(mutex);
        --pending;
#ifndef SIMGEN_NO_TELEMETRY
        pending_live.store(pending, std::memory_order_relaxed);
#endif
        if (pending == 0) {
          batch_done.notify_all();
          break;
        }
      }
      // Deques drained (remaining tasks, if any, are in flight on other
      // workers and cannot be stolen): sleep until the next batch.
    }
  }

  /// Pool-wide batch state. `mutex` orders batch handoff (epoch bump +
  /// batch_fn publication) against worker wakes and completion counting;
  /// the per-queue mutexes above only guard their own deque.
  Mutex mutex;
  CondVar work_available;
  CondVar batch_done;
  std::vector<Queue> queues;    ///< Sized in the ctor, const thereafter.
  std::vector<std::thread> workers;  ///< Written only in ctor/dtor.
#ifndef SIMGEN_NO_TELEMETRY
  std::vector<WorkerCounters> counters;  ///< Sized in the ctor, see above.
  std::atomic<std::uint64_t> batches{0};
  /// Relaxed mirror of `pending` so heartbeats and the watchdog can read
  /// the live queue depth without touching the pool mutex.
  std::atomic<std::size_t> pending_live{0};
#endif
  /// Borrowed pointer to the caller's batch function. Valid from batch
  /// publication until `pending` hits 0 (run_tasks keeps the referent
  /// alive exactly that long); workers re-read it under `mutex` whenever
  /// a popped task's epoch tag disagrees with their wake epoch.
  const std::function<void(std::size_t, unsigned)>* batch_fn
      SIMGEN_GUARDED_BY(mutex) = nullptr;
  std::uint64_t epoch SIMGEN_GUARDED_BY(mutex) = 0;
  std::size_t pending SIMGEN_GUARDED_BY(mutex) = 0;
  std::size_t failed_task SIMGEN_GUARDED_BY(mutex) = 0;
  std::exception_ptr failure SIMGEN_GUARDED_BY(mutex) = nullptr;
  bool shutting_down SIMGEN_GUARDED_BY(mutex) = false;
};

ThreadPool::ThreadPool(unsigned num_threads)
    : impl_(new Impl(resolve_num_threads(num_threads))) {}

ThreadPool::~ThreadPool() { delete impl_; }

unsigned ThreadPool::num_threads() const noexcept {
  return static_cast<unsigned>(impl_->workers.size());
}

void ThreadPool::run_tasks(
    std::size_t num_tasks,
    const std::function<void(std::size_t, unsigned)>& fn) {
  impl_->run_tasks(num_tasks, fn);
}

#ifndef SIMGEN_NO_TELEMETRY
PoolProfile ThreadPool::profile() const {
  PoolProfile snapshot;
  snapshot.batches = impl_->batches.load(std::memory_order_relaxed);
  snapshot.workers.resize(impl_->counters.size());
  for (std::size_t w = 0; w < impl_->counters.size(); ++w) {
    const Impl::WorkerCounters& live = impl_->counters[w];
    WorkerProfile& out = snapshot.workers[w];
    out.tasks = live.tasks.load(std::memory_order_relaxed);
    out.steal_attempts = live.steal_attempts.load(std::memory_order_relaxed);
    out.steal_successes = live.steal_successes.load(std::memory_order_relaxed);
    out.lock_acquires = live.lock_acquires.load(std::memory_order_relaxed);
    out.lock_blocks = live.lock_blocks.load(std::memory_order_relaxed);
    out.busy_ns = live.busy_ns.load(std::memory_order_relaxed);
    out.idle_ns = live.idle_ns.load(std::memory_order_relaxed);
    out.queue_depth_samples =
        live.queue_depth_samples.load(std::memory_order_relaxed);
    out.queue_depth_sum = live.queue_depth_sum.load(std::memory_order_relaxed);
    out.max_queue_depth = live.max_queue_depth.load(std::memory_order_relaxed);
    out.task_us_sum = live.task_us_sum.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < WorkerProfile::kNumLatencyBuckets; ++i)
      out.task_us_buckets[i] =
          live.task_us_buckets[i].load(std::memory_order_relaxed);
  }
  return snapshot;
}

std::size_t ThreadPool::pending_tasks() const noexcept {
  return impl_->pending_live.load(std::memory_order_relaxed);
}

void ThreadPool::settle_idle() const noexcept {
  const std::uint64_t now = profile_now_ns();
  for (Impl::WorkerCounters& worker : impl_->counters) {
    const std::uint64_t since =
        worker.idle_since.exchange(now, std::memory_order_relaxed);
    if (since != 0) {
      if (now > since)
        worker.idle_ns.fetch_add(now - since, std::memory_order_relaxed);
    } else {
      // The worker is inside a task body: it owes no idle time, so undo
      // the stamp we just planted — unless the task finished in between,
      // in which case the worker's own end-stamp already replaced it and
      // must win.
      std::uint64_t expected = now;
      worker.idle_since.compare_exchange_strong(expected, 0,
                                                std::memory_order_relaxed);
    }
  }
}
#endif  // SIMGEN_NO_TELEMETRY

}  // namespace simgen::util
