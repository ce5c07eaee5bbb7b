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
//   workers determine the EXECUTION: how many shard units run at once
//           (a ShardBudget). Any worker count yields bit-identical results
//           for a fixed shard count, because per-shard work is
//           self-contained and merges happen in shard order on the
//           calling thread.
//
// Worker-pool scheduling
// ----------------------
// Shard units run on a process-wide persistent WorkerPool with one
// scheduling protocol: a FIFO of posted jobs, each redeemed with
// finish(). It starts empty, grows to the widest budget read so far, and
// keeps its threads until process exit, so later campaigns reuse the
// threads earlier ones spawned. A fan-out's calling thread runs any unit
// no pool job has started, and finish() steals back a job no pool thread
// has started, so a fan-out never waits on a queue no thread can drain —
// a fan-out from inside a pool job cannot deadlock — and fan-outs issued
// from different threads share the queue and run side by side.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace psc::core {

// Traces below which an extra shard stops paying for itself: each shard
// job owns a batch lease and a full set of accumulator merges, so auto
// shard sizing never cuts jobs smaller than this.
inline constexpr std::size_t min_traces_per_shard = 8192;

// Observer of shard-unit activity: (shard count, units running now).
using ShardActivityFn =
    std::function<void(std::size_t shards, std::size_t running)>;

// How wide a shard fan-out runs: an execution knob that never shows in a
// result. It converts implicitly from a fixed worker count (a constant
// budget) and from a callable read before each unit is issued (a live
// budget, e.g. the bus daemon's fair share; it is read from pool threads
// too, so it must be thread-safe and must not throw), so
// `config.workers = 4` and `exec.shard_budget = [] { return 4u; }` both
// work. The default budget is 1: every unit runs inline on the calling
// thread.
class ShardBudget {
 public:
  ShardBudget(std::size_t width = 1) noexcept : width_(width) {}
  template <typename Fn>
    requires std::is_invocable_r_v<std::size_t, Fn&>
  ShardBudget(Fn read) : read_(std::move(read)) {}

  // Units allowed in flight right now; never below 1.
  std::size_t read() const {
    const std::size_t width = read_ ? read_() : width_;
    return width == 0 ? 1 : width;
  }
  bool live() const noexcept { return static_cast<bool>(read_); }

  // Optional observer: told (shards, 0) when a fan-out starts, then
  // (shards, running) as each unit starts and finishes — from pool
  // threads, concurrently, so it must be thread-safe.
  ShardActivityFn on_activity;

 private:
  std::size_t width_ = 1;
  std::function<std::size_t()> read_;
};

// Shard count for `total_traces` traces under `budget`: an explicit
// `shards` always wins (shards determine the result). With shards == 0
// the count is one shard per worker of a fixed budget, capped so every
// shard gets at least min_traces_per_shard traces: tiny runs stay on
// fewer shards instead of paying per-shard lease/merge overhead that
// dwarfs the work. A live budget has no fixed width, and the result must
// not depend on it, so it needs an explicit count: throws
// std::invalid_argument on (shards == 0, live budget).
std::size_t resolve_shards(std::size_t shards, const ShardBudget& budget,
                           std::size_t total_traces);

// Process-wide persistent worker pool (see "Worker-pool scheduling"
// above). run_shard_units is the interface for shard fan-out;
// post()/finish() also serve side jobs (the store prefetcher).
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

  // Enqueues one job for any idle pool thread: a fan-out job claiming
  // shard units, or the async leg of a double-buffered producer/consumer
  // (the store prefetcher decodes chunk N+1 here while the caller ingests
  // chunk N).
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

  // Grows the pool to at least `threads` pool threads. post() alone only
  // guarantees one pool thread, so run_shard_units grows the pool to its
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

// The one shard fan-out: campaigns, bus jobs and CPA analysis all run on
// it. Runs unit(s) for every shard s in [0, shards) and merge(s) strictly
// in ascending shard order on the calling thread — the deterministic
// merge hook. Units start in shard order, each after a budget read: up
// to that many run at once on pool jobs (the pool grows to the budget),
// and at most twice that many are started but not yet merged, so alive
// at once are the merge target and at most two budgets of shard parts.
// A pool job that finishes a unit claims the next one itself, so no
// thread waits on a slower earlier unit or on a merge. A budget of 1, or
// a single shard, runs every unit inline on the calling thread and
// touches no pool state. If units threw, the exception of the
// lowest-indexed failing shard is rethrown after every unit finished; a
// failed shard is never merged. Units may themselves fan out.
void run_shard_units(std::size_t shards, const ShardBudget& budget,
                     const std::function<void(std::size_t)>& unit,
                     const std::function<void(std::size_t)>& merge);

}  // namespace psc::core
