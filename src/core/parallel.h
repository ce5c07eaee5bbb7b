// Sharded campaign orchestration.
//
// A campaign's trace budget is divided into independent *shards*, each
// owning a deterministic RNG stream (util::Xoshiro256::split) and its own
// trace source; shard sinks accumulate partial state that is merged in
// shard order. Shards move trace data as columnar TraceBatches leased
// from a shared TraceBatchPool (core/trace_batch.h): with more shards
// than workers, the same few slabs cycle through successive shard jobs,
// so steady-state acquisition allocates nothing. Two knobs with distinct
// roles:
//
//   shards  determine the RESULT: campaign output is a pure function of
//           (seed, shard count). shards == 1 reproduces the sequential
//           pipeline bit-for-bit.
//   workers determine the EXECUTION: how many threads run the shards. Any
//           worker count yields bit-identical results for a fixed shard
//           count, because per-shard work is self-contained and merges
//           happen in shard order on the calling thread.
//
// Worker-pool scheduling
// ----------------------
// Shard jobs execute on a process-wide persistent WorkerPool rather than
// threads spawned per map() call. The pool has one scheduling protocol:
// a FIFO of posted jobs, each redeemed with finish(). It starts empty,
// grows on demand, and keeps its threads until process exit, so later
// campaigns reuse the threads earlier ones spawned. map() keeps a shard
// counter local to the call, posts workers-1 helper loops that claim
// shard indices from it, runs the same loop on the calling thread, and
// then finishes every helper. finish() steals back a helper no pool
// thread has started yet; it returns at once because the counter is
// exhausted. So a map() never waits on a queue no thread can drain — a
// map() from inside a pool job cannot deadlock — and maps issued from
// different threads share the queue and run side by side. Exceptions
// never cross the pool boundary: map() captures per-shard exceptions and
// rethrows the lowest-indexed one on the calling thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace psc::core {

// Traces below which an extra shard stops paying for itself: each shard
// job owns a batch lease and a full set of accumulator merges, so auto
// shard sizing never cuts jobs smaller than this.
inline constexpr std::size_t min_traces_per_shard = 8192;

struct ShardPlan {
  std::size_t workers = 1;
  // 0 = one shard per worker.
  std::size_t shards = 0;

  std::size_t resolved_workers() const noexcept {
    return workers == 0 ? 1 : workers;
  }
  std::size_t resolved_shards() const noexcept {
    return shards == 0 ? resolved_workers() : shards;
  }

  // Shard count sized to the workload: an explicit shard count always
  // wins (shards determine the result), but with shards == 0 the
  // campaign picks one shard per worker *capped so every shard job gets
  // at least min_traces_per_shard traces* — tiny runs stay on fewer
  // shards instead of paying per-shard lease/merge overhead that dwarfs
  // the work.
  std::size_t resolved_shards_for(std::size_t total_traces) const noexcept {
    if (shards != 0) {
      return shards;
    }
    const std::size_t w = resolved_workers();
    const std::size_t by_size = total_traces / min_traces_per_shard;
    return std::max<std::size_t>(1, std::min(w, by_size));
  }
};

// Process-wide persistent worker pool (see "Worker-pool scheduling"
// above). ParallelRunner::map is the intended interface for shard
// fan-out; post()/finish() also serve side jobs (the store prefetcher)
// and bus shard units (JobGroup).
class WorkerPool {
  struct AsyncJob;  // private; defined in parallel.cpp

 public:
  static WorkerPool& instance();

  // Handle to one post()ed side job; redeem with finish(). Default
  // tickets and already-finished tickets are empty (finish() is a no-op
  // on them). Dropping a ticket without finish() leaves the job to run
  // whenever a pool thread gets to it, so its fn must own everything it
  // touches.
  class AsyncTicket {
   public:
    AsyncTicket() = default;
    explicit operator bool() const noexcept { return job_ != nullptr; }

   private:
    friend class WorkerPool;
    std::shared_ptr<AsyncJob> job_;
  };

  // Enqueues one job for any idle pool thread: a map() helper loop, or
  // the async leg of a double-buffered producer/consumer (the store
  // prefetcher decodes chunk N+1 here while the caller ingests chunk N).
  // fn must not throw; it runs exactly once, on a pool thread or inline
  // in finish().
  AsyncTicket post(std::function<void()> fn);

  // Waits until the ticket's job has run and empties the ticket. If no
  // pool thread has claimed the job yet it is stolen back and run inline
  // on the caller — so finish() never deadlocks, even when every pool
  // thread is busy with jobs that are themselves waiting on this one.
  // Returns true iff the job ran on a pool thread (the prefetcher's
  // async-hit statistic); false for inline execution or an empty ticket.
  bool finish(AsyncTicket& ticket);

  // Bounded fan-out of post()ed jobs, drained strictly in post order —
  // the shape a shard-parallel bus job needs: keep a capped window of
  // shard units in flight while merging finished units deterministically
  // (unit s is always finished before unit s+1, whatever order the pool
  // ran them in). finish_next() inherits finish()'s steal-back guarantee,
  // so draining a group can never deadlock even with every pool thread
  // busy. Not thread-safe: one owner thread posts and drains.
  class JobGroup {
   public:
    explicit JobGroup(WorkerPool& pool = WorkerPool::instance())
        : pool_(pool) {}
    ~JobGroup() { finish_all(); }

    JobGroup(const JobGroup&) = delete;
    JobGroup& operator=(const JobGroup&) = delete;

    void post(std::function<void()> fn) {
      tickets_.push_back(pool_.post(std::move(fn)));
    }
    // Waits for (or steals back and runs) the oldest outstanding job;
    // false when none are outstanding.
    bool finish_next() {
      if (tickets_.empty()) {
        return false;
      }
      AsyncTicket ticket = std::move(tickets_.front());
      tickets_.pop_front();
      pool_.finish(ticket);
      return true;
    }
    void finish_all() {
      while (finish_next()) {
      }
    }
    std::size_t in_flight() const noexcept { return tickets_.size(); }

   private:
    WorkerPool& pool_;
    std::deque<AsyncTicket> tickets_;
  };

  // Grows the pool to at least `threads` pool threads. post() alone only
  // guarantees one pool thread, so every fan-out sizes the pool from its
  // own width: ParallelRunner::map reserves its plan's workers - 1
  // helpers on every call, and a budgeted bus job reserves its shard
  // budget each time it reads it. Never shrinks; safe to call
  // concurrently.
  void reserve(std::size_t threads);

  // Pool threads spawned so far (grow-only); exposed so tests can assert
  // the pool persists across campaigns.
  std::size_t thread_count() const;

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

 private:
  WorkerPool() = default;
  ~WorkerPool();

  void worker_loop();
  void ensure_threads(std::size_t helpers);  // caller holds mu_

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // a job was posted, or shutdown
  std::condition_variable done_cv_;  // a job completed
  std::vector<std::thread> threads_;
  std::deque<std::shared_ptr<AsyncJob>> queue_;  // posted, unclaimed
  bool shutdown_ = false;
};

// Near-equal contiguous partition of `total` items into `shards` pieces:
// piece s gets total/shards items plus one of the first total%shards
// remainders. Sizes sum to exactly `total` — the property the checkpoint
// scheduler relies on: a global checkpoint at c traces partitions into
// per-shard targets shard_size(c, shards, s) that sum to exactly c.
std::size_t shard_size(std::size_t total, std::size_t shards,
                       std::size_t s) noexcept;
std::size_t shard_begin(std::size_t total, std::size_t shards,
                        std::size_t s) noexcept;

class ParallelRunner {
 public:
  explicit ParallelRunner(ShardPlan plan) noexcept : plan_(plan) {}

  std::size_t shards() const noexcept { return plan_.resolved_shards(); }
  std::size_t workers() const noexcept { return plan_.resolved_workers(); }

  // Invokes fn(shard_index) once per shard across the persistent
  // WorkerPool and returns the results ordered by shard index, so
  // downstream merges are deterministic regardless of which worker
  // finished first. If shard jobs throw, the exception of the
  // lowest-indexed failing shard is rethrown once every helper has
  // finished.
  template <typename Fn>
  auto map(Fn&& fn) {
    using Partial = std::invoke_result_t<Fn&, std::size_t>;
    const std::size_t n = shards();
    std::vector<std::optional<Partial>> slots(n);
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    // Claims shard indices until none are left; the caller and every
    // helper run this same loop.
    const auto drain = [&] {
      for (std::size_t s = next.fetch_add(1, std::memory_order_relaxed);
           s < n; s = next.fetch_add(1, std::memory_order_relaxed)) {
        try {
          slots[s].emplace(fn(s));
        } catch (...) {
          errors[s] = std::current_exception();
        }
      }
    };
    // With one worker nothing is posted and every shard runs inline.
    const std::size_t helpers = std::min(workers(), n) - 1;
    WorkerPool& pool = WorkerPool::instance();
    pool.reserve(helpers);
    WorkerPool::JobGroup group(pool);
    for (std::size_t h = 0; h < helpers; ++h) {
      group.post(drain);
    }
    drain();
    group.finish_all();
    for (const auto& error : errors) {
      if (error) {
        std::rethrow_exception(error);
      }
    }
    std::vector<Partial> out;
    out.reserve(n);
    for (auto& slot : slots) {
      out.push_back(std::move(*slot));
    }
    return out;
  }

  // map() for shard jobs that mutate external per-shard state instead of
  // returning a value (e.g. advancing persistent shard engines between
  // checkpoint barriers).
  template <typename Fn>
  void for_each(Fn&& fn) {
    map([&fn](std::size_t s) {
      fn(s);
      return 0;
    });
  }

 private:
  ShardPlan plan_;
};

}  // namespace psc::core
