#include "core/parallel.h"

#include <algorithm>
#include <exception>
#include <stdexcept>

namespace psc::core {

std::size_t shard_size(std::size_t total, std::size_t shards,
                       std::size_t s) noexcept {
  if (shards == 0 || s >= shards) {
    return 0;
  }
  return total / shards + (s < total % shards ? 1 : 0);
}

std::size_t shard_begin(std::size_t total, std::size_t shards,
                        std::size_t s) noexcept {
  if (shards == 0) {
    return 0;
  }
  // Clamp every out-of-range index (s >= shards) the same way, so
  // shard_begin(total, shards, shards) == total without relying on the
  // arithmetic below happening to cancel.
  s = std::min(s, shards);
  return s * (total / shards) + std::min(s, total % shards);
}

std::size_t resolve_shards(std::size_t shards, const ShardBudget& budget,
                           std::size_t total_traces) {
  if (shards != 0) {
    return shards;
  }
  if (budget.live()) {
    throw std::invalid_argument(
        "resolve_shards: a live shard budget needs an explicit shard count");
  }
  const std::size_t by_size = total_traces / min_traces_per_shard;
  return std::max<std::size_t>(1, std::min(budget.read(), by_size));
}

void run_shard_units(std::size_t shards, const ShardBudget& budget,
                     const std::function<void(std::size_t)>& unit,
                     const std::function<void(std::size_t)>& merge) {
  const ShardActivityFn& observe = budget.on_activity;
  if (observe) {
    observe(shards, 0);
  }
  std::vector<std::exception_ptr> errors(shards);
  // Fan-out state, guarded by mu. Units are claimed in shard order, so
  // [0, claimed) have started; the caller waits on cv for them to finish.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<char> finished(shards, 0);
  std::size_t claimed = 0;
  std::size_t running = 0;
  std::size_t merged = 0;
  std::size_t workers = 0;  // pool jobs posted and not yet returned

  // Runs claimed unit s; called and returns with `lock` held.
  const auto run = [&](std::size_t s, std::unique_lock<std::mutex>& lock) {
    std::size_t now = ++running;
    lock.unlock();
    if (observe) {
      observe(shards, now);
    }
    try {
      unit(s);
    } catch (...) {
      errors[s] = std::current_exception();
    }
    lock.lock();
    finished[s] = 1;
    now = --running;
    cv.notify_all();
    lock.unlock();
    if (observe) {
      observe(shards, now);
    }
    lock.lock();
  };
  // Whether a unit may be claimed under a budget read of `width`: at most
  // width units running, and at most 2 * width claimed but not merged, so
  // a slow unit keeps no thread idle while the parts alive stay bounded.
  const auto room = [&](std::size_t width) {
    return claimed < shards && running < width &&
           claimed - merged < 2 * width;
  };
  // Reads the budget outside the lock; called and returns with it held.
  const auto read_budget = [&](std::unique_lock<std::mutex>& lock) {
    lock.unlock();
    const std::size_t width = budget.read();
    lock.lock();
    return width;
  };
  // A pool job: claims and runs units while the budget, read before each
  // claim, has room.
  const auto work = [&] {
    std::unique_lock<std::mutex> lock(mu);
    while (room(read_budget(lock))) {
      run(claimed++, lock);
    }
    --workers;
  };

  // Posted jobs capture this frame, so every one is finished however the
  // frame exits.
  struct Jobs {
    WorkerPool& pool = WorkerPool::instance();
    std::vector<WorkerPool::AsyncTicket> tickets;
    ~Jobs() {
      for (WorkerPool::AsyncTicket& ticket : tickets) {
        pool.finish(ticket);
      }
    }
  } jobs;
  std::unique_lock<std::mutex> lock(mu);
  for (std::size_t next = 0; next < shards; ++next) {
    while (finished[next] == 0) {
      const std::size_t width = read_budget(lock);
      // Keep up to `width` pool jobs claiming units. A budget of 1, or a
      // single shard, posts none: every unit runs here.
      while (width > 1 && shards > 1 && workers < width && room(width)) {
        ++workers;
        lock.unlock();
        jobs.pool.reserve(width);
        jobs.tickets.push_back(jobs.pool.post(work));
        lock.lock();
      }
      if (claimed == next && room(width)) {
        // No pool job has started unit `next`: run it here, so the
        // fan-out never waits on a queue no thread drains.
        run(claimed++, lock);
      } else if (finished[next] == 0) {
        cv.wait(lock);
      }
    }
    lock.unlock();
    if (errors[next] == nullptr) {
      merge(next);
    }
    lock.lock();
    ++merged;
  }
  lock.unlock();
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }
}

// One post()ed job. state transitions under mu_: queued -> running
// (claimed by a worker, or erased from the deque by a stealing finish())
// -> done. fn itself runs outside the lock.
struct WorkerPool::AsyncJob {
  enum State { queued, running, done };
  std::function<void()> fn;
  State state = queued;
};

WorkerPool& WorkerPool::instance() {
  static WorkerPool pool;
  return pool;
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

std::size_t WorkerPool::thread_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threads_.size();
}

void WorkerPool::reserve(std::size_t threads) {
  std::lock_guard<std::mutex> lock(mu_);
  ensure_threads(threads);
}

void WorkerPool::ensure_threads(std::size_t helpers) {
  while (threads_.size() < helpers) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

void WorkerPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
    if (shutdown_) {
      return;
    }
    std::shared_ptr<AsyncJob> job = std::move(queue_.front());
    queue_.pop_front();
    job->state = AsyncJob::running;
    lock.unlock();
    job->fn();
    lock.lock();
    job->state = AsyncJob::done;
    done_cv_.notify_all();
  }
}

WorkerPool::AsyncTicket WorkerPool::post(std::function<void()> fn) {
  AsyncTicket ticket;
  ticket.job_ = std::make_shared<AsyncJob>();
  ticket.job_->fn = std::move(fn);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ensure_threads(1);
    queue_.push_back(ticket.job_);
  }
  work_cv_.notify_one();
  return ticket;
}

bool WorkerPool::finish(AsyncTicket& ticket) {
  std::shared_ptr<AsyncJob> job = std::move(ticket.job_);
  if (job == nullptr) {
    return false;
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (job->state == AsyncJob::queued) {
    // No worker has claimed it: steal it back and run inline. This is
    // what makes finish() deadlock-free — a caller that is itself a pool
    // job (a nested map, sharded replay) never blocks on a queue no
    // thread can drain.
    queue_.erase(std::find(queue_.begin(), queue_.end(), job));
    job->state = AsyncJob::running;
    lock.unlock();
    job->fn();
    lock.lock();
    job->state = AsyncJob::done;
    return false;
  }
  done_cv_.wait(lock, [&] { return job->state == AsyncJob::done; });
  return true;
}

}  // namespace psc::core
