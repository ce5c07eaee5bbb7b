#include "core/parallel.h"

#include <algorithm>

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
