#include "core/parallel.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/campaigns.h"
#include "core/guessing_entropy.h"

namespace psc::core {
namespace {

TEST(ShardPartition, SizesSumToTotalAndDifferByAtMostOne) {
  for (const std::size_t total : {0u, 1u, 7u, 100u, 1001u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 8u, 13u}) {
      std::size_t sum = 0;
      std::size_t lo = total;
      std::size_t hi = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const std::size_t size = shard_size(total, shards, s);
        EXPECT_EQ(shard_begin(total, shards, s), sum);
        sum += size;
        lo = std::min(lo, size);
        hi = std::max(hi, size);
      }
      EXPECT_EQ(sum, total) << total << "/" << shards;
      EXPECT_LE(hi - lo, 1u) << total << "/" << shards;
      EXPECT_EQ(shard_begin(total, shards, shards), total);
    }
  }
}

TEST(ShardPartition, CheckpointPartitionsAreMonotone) {
  // A shard's target for checkpoint c never decreases with c — the
  // invariant the segment scheduler needs to advance shard engines.
  constexpr std::size_t shards = 5;
  for (std::size_t s = 0; s < shards; ++s) {
    std::size_t prev = 0;
    for (std::size_t c = 0; c <= 100; ++c) {
      const std::size_t target = shard_size(c, shards, s);
      EXPECT_GE(target, prev);
      prev = target;
    }
  }
}

// Satellite: boundary behaviour — fewer items than shards, and the
// degenerate shards == 0 plan.
TEST(ShardPartition, TotalSmallerThanShardCount) {
  constexpr std::size_t total = 3;
  constexpr std::size_t shards = 8;
  std::size_t sum = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t size = shard_size(total, shards, s);
    EXPECT_EQ(size, s < total ? 1u : 0u) << "shard " << s;
    EXPECT_EQ(shard_begin(total, shards, s), sum) << "shard " << s;
    sum += size;
  }
  EXPECT_EQ(sum, total);
  EXPECT_EQ(shard_begin(total, shards, shards), total);
}

TEST(ShardPartition, ZeroShardsIsEmpty) {
  EXPECT_EQ(shard_size(100, 0, 0), 0u);
  EXPECT_EQ(shard_size(100, 0, 5), 0u);
  EXPECT_EQ(shard_begin(100, 0, 0), 0u);
  EXPECT_EQ(shard_begin(100, 0, 5), 0u);
}

// shard_begin clamps every out-of-range index the same way: s == shards
// and s > shards both land on total, matching shard_size returning 0
// there.
TEST(ShardPartition, BeginClampsPastTheEnd) {
  for (const std::size_t total : {0u, 3u, 100u, 1001u}) {
    for (const std::size_t shards : {1u, 3u, 8u}) {
      EXPECT_EQ(shard_begin(total, shards, shards), total);
      EXPECT_EQ(shard_begin(total, shards, shards + 1), total);
      EXPECT_EQ(shard_begin(total, shards, shards + 1000), total);
      EXPECT_EQ(shard_size(total, shards, shards), 0u);
      EXPECT_EQ(shard_size(total, shards, shards + 1000), 0u);
    }
  }
}

TEST(ShardBudget, Resolution) {
  EXPECT_EQ(ShardBudget{}.read(), 1u);
  EXPECT_EQ(ShardBudget(0).read(), 1u);
  EXPECT_EQ(ShardBudget(4).read(), 4u);
  EXPECT_FALSE(ShardBudget(4).live());
  EXPECT_EQ(resolve_shards(0, {}, 1'000'000), 1u);
  EXPECT_EQ(resolve_shards(0, 4, 1'000'000), 4u);
  EXPECT_EQ(resolve_shards(9, 4, 1'000'000), 9u);
  EXPECT_EQ(resolve_shards(0, 0, 1'000'000), 1u);
}

// A live budget is read afresh on every read() (values below 1 read as
// 1). It has no fixed width, so it cannot size a shard count: an
// explicit count passes through, shards == 0 is rejected.
TEST(ShardBudget, LiveBudgetNeedsAnExplicitShardCount) {
  std::size_t next = 0;
  const ShardBudget live = [&next] { return next++; };
  EXPECT_TRUE(live.live());
  EXPECT_EQ(live.read(), 1u);  // read 0
  EXPECT_EQ(live.read(), 1u);
  EXPECT_EQ(live.read(), 2u);
  EXPECT_EQ(resolve_shards(5, live, 1'000'000), 5u);
  EXPECT_THROW(resolve_shards(0, live, 1'000'000), std::invalid_argument);
}

TEST(ShardBudget, AutoShardsSizeToWorkload) {
  // An explicit shard count always wins — shards determine the result.
  EXPECT_EQ(resolve_shards(9, 4, 10), 9u);
  // Large workloads: one shard per worker.
  EXPECT_EQ(resolve_shards(0, 4, 4 * min_traces_per_shard), 4u);
  EXPECT_EQ(resolve_shards(0, 4, 1'000'000), 4u);
  // Small workloads: capped so every shard job still amortizes its
  // lease/merge overhead; never below one shard.
  EXPECT_EQ(resolve_shards(0, 4, 2 * min_traces_per_shard), 2u);
  EXPECT_EQ(resolve_shards(0, 4, 100), 1u);
  EXPECT_EQ(resolve_shards(0, 4, 0), 1u);
  EXPECT_EQ(resolve_shards(0, 1, 1'000'000), 1u);
}

// Runs fn(s) for every shard under `budget` and returns the results
// gathered by the merge hook, which must see the shards in order.
template <typename Fn>
auto gather(std::size_t shards, const ShardBudget& budget, Fn fn) {
  using Result = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<std::optional<Result>> slots(shards);
  std::vector<Result> out;
  run_shard_units(
      shards, budget, [&](std::size_t s) { slots[s].emplace(fn(s)); },
      [&](std::size_t s) {
        EXPECT_EQ(s, out.size()) << "merged out of shard order";
        out.push_back(std::move(*slots[s]));
        slots[s].reset();
      });
  return out;
}

TEST(ShardUnits, MergesResultsInShardOrder) {
  const auto out = gather(13, 4, [](std::size_t s) { return 3 * s + 1; });
  ASSERT_EQ(out.size(), 13u);
  for (std::size_t s = 0; s < out.size(); ++s) {
    EXPECT_EQ(out[s], 3 * s + 1);
  }
}

TEST(ShardUnits, SequentialAndParallelAgree) {
  auto job = [](std::size_t s) {
    // Deterministic per-shard computation with its own split stream.
    util::Xoshiro256 rng = util::Xoshiro256(77).split(s);
    double acc = 0.0;
    for (int i = 0; i < 1000; ++i) {
      acc += rng.uniform01();
    }
    return acc;
  };
  const auto a = gather(8, 1, job);
  const auto b = gather(8, 8, job);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_DOUBLE_EQ(a[s], b[s]);
  }
}

// Failed shards are never merged; the lowest-indexed failure is rethrown
// once every unit finished.
TEST(ShardUnits, PropagatesLowestShardException) {
  std::vector<std::size_t> merged;
  try {
    run_shard_units(
        8, 4,
        [](std::size_t s) {
          if (s == 3 || s == 6) {
            throw std::runtime_error("shard " + std::to_string(s));
          }
        },
        [&](std::size_t s) { merged.push_back(s); });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 3");
  }
  EXPECT_EQ(merged, (std::vector<std::size_t>{0, 1, 2, 4, 5, 7}));
}

// Two campaigns fanning out from different threads share the pool's job
// queue instead of queueing behind each other: every shard of each
// fan-out waits (bounded) until a shard of the other has started, which
// can only happen when both fan-outs are in flight at once.
TEST(ShardUnits, ConcurrentFanOutsRunSideBySide) {
  std::mutex mu;
  std::condition_variable cv;
  std::array<int, 2> started{};
  int timeouts = 0;
  const auto campaign = [&](int self) {
    run_shard_units(
        2, 2,
        [&](std::size_t) {
          std::unique_lock<std::mutex> lock(mu);
          ++started[self];
          cv.notify_all();
          if (!cv.wait_for(lock, std::chrono::seconds(2),
                           [&] { return started[1 - self] > 0; })) {
            ++timeouts;
          }
        },
        [](std::size_t) {});
  };
  std::thread a(campaign, 0);
  std::thread b(campaign, 1);
  a.join();
  b.join();
  EXPECT_EQ(timeouts, 0);
  EXPECT_EQ(started[0], 2);
  EXPECT_EQ(started[1], 2);
}

// Every shard runs exactly once per fan-out, across many back-to-back
// fan-outs (the reuse path a campaign sweep exercises).
TEST(ShardUnits, EachShardRunsExactlyOncePerFanOut) {
  for (int round = 0; round < 20; ++round) {
    constexpr std::size_t jobs = 16;
    std::array<std::atomic<int>, jobs> hits{};
    run_shard_units(
        jobs, 4,
        [&](std::size_t s) { hits[s].fetch_add(1, std::memory_order_relaxed); },
        [](std::size_t) {});
    for (std::size_t s = 0; s < jobs; ++s) {
      ASSERT_EQ(hits[s].load(), 1) << "round " << round << " job " << s;
    }
  }
}

// A fan-out from inside a shard unit — which may itself run on a pool
// thread — completes every inner shard without disturbing the outer one.
TEST(ShardUnits, NestedFanOutRunsEveryShardOnce) {
  std::array<std::atomic<int>, 4> outer_hits{};
  std::atomic<int> inner_total{0};
  run_shard_units(
      4, 4,
      [&](std::size_t s) {
        outer_hits[s].fetch_add(1, std::memory_order_relaxed);
        run_shard_units(
            3, 4,
            [&](std::size_t) {
              inner_total.fetch_add(1, std::memory_order_relaxed);
            },
            [](std::size_t) {});
      },
      [](std::size_t) {});
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(outer_hits[s].load(), 1);
  }
  EXPECT_EQ(inner_total.load(), 12);
}

// A budget of 1 runs every unit inline on the calling thread, one at a
// time, each merged before the next starts.
TEST(ShardUnits, BudgetOfOneRunsInlineOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::string> events;
  run_shard_units(
      3, 1,
      [&](std::size_t s) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        events.push_back("run " + std::to_string(s));
      },
      [&](std::size_t s) { events.push_back("merge " + std::to_string(s)); });
  EXPECT_EQ(events, (std::vector<std::string>{"run 0", "merge 0", "run 1",
                                              "merge 1", "run 2",
                                              "merge 2"}));
}

// A live budget is read before each unit is issued, and the window never
// holds more running units than the last read allowed; the activity
// observer sees the shard count, every start and every finish.
TEST(ShardUnits, LiveBudgetBoundsTheWindowAndIsReadPerUnit) {
  constexpr std::size_t shards = 12;
  std::atomic<std::size_t> reads{0};
  std::atomic<std::size_t> running{0};
  std::atomic<std::size_t> peak{0};
  ShardBudget budget = [&reads] {
    reads.fetch_add(1, std::memory_order_relaxed);
    return std::size_t{3};
  };
  std::mutex mu;
  std::size_t reported_shards = 0;
  std::size_t reports = 0;
  std::size_t last_running = 99;
  budget.on_activity = [&](std::size_t n, std::size_t now) {
    std::lock_guard<std::mutex> lock(mu);
    reported_shards = n;
    ++reports;
    last_running = now;
  };
  run_shard_units(
      shards, budget,
      [&](std::size_t) {
        const std::size_t now = running.fetch_add(1) + 1;
        std::size_t seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        running.fetch_sub(1);
      },
      [](std::size_t) {});
  EXPECT_GE(reads.load(), shards);
  EXPECT_GE(peak.load(), 1u);
  EXPECT_LE(peak.load(), 3u);
  EXPECT_EQ(reported_shards, shards);
  EXPECT_EQ(reports, 1 + 2 * shards);  // resolve, then start + finish each
}

// No pool thread waits on a merge: while shard 0 merges, shard 2 (beyond
// the budget-2 window that held shards 0 and 1) starts.
TEST(ShardUnits, WindowRefillsBeforeMerging) {
  std::mutex mu;
  std::condition_variable cv;
  bool third_started = false;
  bool seen_during_merge = false;
  run_shard_units(
      3, 2,
      [&](std::size_t s) {
        if (s == 2) {
          std::lock_guard<std::mutex> lock(mu);
          third_started = true;
          cv.notify_all();
        }
      },
      [&](std::size_t s) {
        if (s == 0) {
          std::unique_lock<std::mutex> lock(mu);
          seen_during_merge = cv.wait_for(lock, std::chrono::seconds(2),
                                          [&] { return third_started; });
        }
      });
  EXPECT_TRUE(seen_during_merge);
}

// No thread waits on a slower earlier unit either: while shard 0 still
// runs, the thread that finished shard 1 goes on to shard 2.
TEST(ShardUnits, SlowUnitKeepsNoThreadIdle) {
  std::mutex mu;
  std::condition_variable cv;
  bool third_started = false;
  bool seen_while_first_ran = false;
  run_shard_units(
      3, 2,
      [&](std::size_t s) {
        std::unique_lock<std::mutex> lock(mu);
        if (s == 0) {
          seen_while_first_ran = cv.wait_for(
              lock, std::chrono::seconds(2), [&] { return third_started; });
        } else if (s == 2) {
          third_started = true;
          cv.notify_all();
        }
      },
      [](std::size_t) {});
  EXPECT_TRUE(seen_while_first_ran);
}

// ---------- persistent worker pool ----------

// The pool persists across fan-outs: threads spawned by the first
// budget-4 fan-out are reused, not respawned, by later ones.
TEST(WorkerPool, ThreadsPersistAcrossFanOuts) {
  run_shard_units(8, 4, [](std::size_t) {}, [](std::size_t) {});
  const std::size_t after_first = WorkerPool::instance().thread_count();
  EXPECT_GE(after_first, 4u);  // the budget's width; grow-only
  for (int round = 0; round < 5; ++round) {
    const auto out = gather(8, 4, [](std::size_t s) { return s * s; });
    for (std::size_t s = 0; s < out.size(); ++s) {
      EXPECT_EQ(out[s], s * s);
    }
    EXPECT_EQ(WorkerPool::instance().thread_count(), after_first);
  }
}

// reserve() pre-spawns pool threads so N posted jobs can run truly
// concurrently (post() alone only guarantees one thread) — the bus
// daemon's startup contract.
TEST(WorkerPool, ReserveGrowsThePoolUpFront) {
  WorkerPool::instance().reserve(3);
  EXPECT_GE(WorkerPool::instance().thread_count(), 3u);
  const std::size_t after = WorkerPool::instance().thread_count();
  // Never shrinks, and re-reserving a smaller count is a no-op.
  WorkerPool::instance().reserve(1);
  EXPECT_EQ(WorkerPool::instance().thread_count(), after);

  // Reserved threads actually serve posted jobs.
  std::atomic<int> hits{0};
  std::vector<WorkerPool::AsyncTicket> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(WorkerPool::instance().post(
        [&] { hits.fetch_add(1, std::memory_order_relaxed); }));
  }
  for (auto& ticket : tickets) {
    WorkerPool::instance().finish(ticket);
  }
  EXPECT_EQ(hits.load(), 8);
}

// The campaign progress hook reports every consumed trace exactly once,
// cumulatively across shards, and observing progress does not change the
// campaign's result.
TEST(CampaignProgress, CountsEveryTraceAndLeavesResultsUntouched) {
  CpaCampaignConfig config{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .victim = victim::VictimModel::user_space(),
      .trace_count = 4000,
      .models = {power::PowerModel::rd0_hw},
      .keys = {smc::FourCc("PHPC")},
      .checkpoints = {},
      .seed = 17,
      .workers = 2,
      .shards = 2,
  };
  const auto plain = run_cpa_campaign(config);

  std::atomic<std::size_t> high_water{0};
  std::atomic<std::size_t> calls{0};
  std::atomic<std::size_t> reported_total{0};
  config.progress = [&](std::size_t consumed, std::size_t total) {
    // Cross-shard calls may arrive out of order: track the max.
    std::size_t seen = high_water.load(std::memory_order_relaxed);
    while (consumed > seen &&
           !high_water.compare_exchange_weak(seen, consumed,
                                             std::memory_order_relaxed)) {
    }
    calls.fetch_add(1, std::memory_order_relaxed);
    reported_total.store(total, std::memory_order_relaxed);
  };
  const auto observed = run_cpa_campaign(config);

  EXPECT_EQ(high_water.load(), config.trace_count);
  EXPECT_EQ(reported_total.load(), config.trace_count);
  EXPECT_GE(calls.load(), 2u);  // at least one call per shard
  ASSERT_EQ(observed.keys.size(), plain.keys.size());
  EXPECT_EQ(observed.keys[0].final_results[0].true_ranks,
            plain.keys[0].final_results[0].true_ranks);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t g = 0; g < 256; ++g) {
      ASSERT_EQ(observed.keys[0].final_results[0].bytes[i].correlation[g],
                plain.keys[0].final_results[0].bytes[i].correlation[g]);
    }
  }
}

// ---------- async side jobs (post/finish) ----------

TEST(WorkerPoolAsync, PostedJobRunsExactlyOnce) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> hits{0};
    auto ticket = WorkerPool::instance().post(
        [&] { hits.fetch_add(1, std::memory_order_relaxed); });
    WorkerPool::instance().finish(ticket);
    EXPECT_EQ(hits.load(), 1) << "round " << round;
    EXPECT_FALSE(static_cast<bool>(ticket));  // redeemed tickets empty
    // finish() on an empty ticket is a harmless no-op.
    EXPECT_FALSE(WorkerPool::instance().finish(ticket));
  }
}

TEST(WorkerPoolAsync, ManyOutstandingJobsAllComplete) {
  constexpr std::size_t jobs = 64;
  std::array<std::atomic<int>, jobs> hits{};
  std::vector<WorkerPool::AsyncTicket> tickets;
  tickets.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    tickets.push_back(WorkerPool::instance().post(
        [&hits, i] { hits[i].fetch_add(1, std::memory_order_relaxed); }));
  }
  for (auto& ticket : tickets) {
    WorkerPool::instance().finish(ticket);
  }
  for (std::size_t i = 0; i < jobs; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "job " << i;
  }
}

// finish() from inside a pool job steals unclaimed work back and runs it
// inline — the property that makes prefetch-inside-sharded-replay
// deadlock-free even when every pool thread is busy with shard jobs.
TEST(WorkerPoolAsync, FinishInsidePoolJobNeverDeadlocks) {
  constexpr std::size_t shards = 8;
  std::array<std::atomic<int>, shards> hits{};
  run_shard_units(
      shards, 4,
      [&](std::size_t s) {
        auto ticket = WorkerPool::instance().post(
            [&hits, s] { hits[s].fetch_add(1, std::memory_order_relaxed); });
        WorkerPool::instance().finish(ticket);
      },
      [](std::size_t) {});
  for (std::size_t s = 0; s < shards; ++s) {
    ASSERT_EQ(hits[s].load(), 1) << "shard " << s;
  }
}

// Async jobs posted while a fan-out is in flight complete, and the
// fan-out still runs every shard exactly once.
TEST(WorkerPoolAsync, InterleavesWithFanOuts) {
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> async_hits{0};
    auto ticket = WorkerPool::instance().post(
        [&] { async_hits.fetch_add(1, std::memory_order_relaxed); });
    constexpr std::size_t jobs = 8;
    std::array<std::atomic<int>, jobs> hits{};
    run_shard_units(
        jobs, 4,
        [&](std::size_t s) { hits[s].fetch_add(1, std::memory_order_relaxed); },
        [](std::size_t) {});
    WorkerPool::instance().finish(ticket);
    EXPECT_EQ(async_hits.load(), 1) << "round " << round;
    for (std::size_t s = 0; s < jobs; ++s) {
      ASSERT_EQ(hits[s].load(), 1) << "round " << round << " job " << s;
    }
  }
}

// ---------- campaign-level invariance ----------

// The headline guarantee of the sharded pipeline: for a fixed shard count,
// the worker count is pure execution detail — recovered key bytes,
// true-rank vectors, correlations and GE curves are bit-identical.
TEST(ParallelCpaCampaign, WorkerCountDoesNotChangeResults) {
  CpaCampaignConfig config{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .victim = victim::VictimModel::user_space(),
      .trace_count = 24000,
      .models = {power::PowerModel::rd0_hw},
      .keys = {smc::FourCc("PHPC")},
      .checkpoints = {8000},
      .seed = 91,
      .workers = 1,
      .shards = 4,
  };
  const auto serial = run_cpa_campaign(config);
  config.workers = 4;
  const auto parallel = run_cpa_campaign(config);

  EXPECT_EQ(serial.victim_key, parallel.victim_key);
  ASSERT_EQ(serial.keys.size(), parallel.keys.size());
  const auto& a = serial.keys[0];
  const auto& b = parallel.keys[0];
  ASSERT_EQ(a.curves[0].size(), b.curves[0].size());
  for (std::size_t p = 0; p < a.curves[0].size(); ++p) {
    EXPECT_EQ(a.curves[0][p].traces, b.curves[0][p].traces);
    EXPECT_DOUBLE_EQ(a.curves[0][p].ge_bits, b.curves[0][p].ge_bits);
    EXPECT_DOUBLE_EQ(a.curves[0][p].mean_rank, b.curves[0][p].mean_rank);
    EXPECT_EQ(a.curves[0][p].recovered_bytes, b.curves[0][p].recovered_bytes);
  }
  EXPECT_EQ(a.final_results[0].true_ranks, b.final_results[0].true_ranks);
  EXPECT_EQ(a.final_results[0].best_round_key,
            b.final_results[0].best_round_key);
  for (std::size_t i = 0; i < 16; ++i) {
    for (int g = 0; g < 256; ++g) {
      ASSERT_DOUBLE_EQ(
          a.final_results[0].bytes[i].correlation[static_cast<std::size_t>(g)],
          b.final_results[0].bytes[i].correlation[static_cast<std::size_t>(g)])
          << "byte " << i << " guess " << g;
    }
  }
}

TEST(ParallelTvlaCampaign, WorkerCountDoesNotChangeResults) {
  TvlaCampaignConfig config{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .victim = victim::VictimModel::user_space(),
      .traces_per_set = 1500,
      .include_pcpu = true,
      .seed = 92,
      .workers = 1,
      .shards = 3,
  };
  const auto serial = run_tvla_campaign(config);
  config.workers = 3;
  const auto parallel = run_tvla_campaign(config);

  ASSERT_EQ(serial.channels.size(), parallel.channels.size());
  for (std::size_t c = 0; c < serial.channels.size(); ++c) {
    EXPECT_EQ(serial.channels[c].channel, parallel.channels[c].channel);
    for (const PlaintextClass row : all_plaintext_classes) {
      for (const PlaintextClass col : all_plaintext_classes) {
        ASSERT_DOUBLE_EQ(serial.channels[c].matrix.score(row, col),
                         parallel.channels[c].matrix.score(row, col))
            << serial.channels[c].channel;
      }
    }
  }
}

// Sharding changes the exact trace streams but must not change the
// statistical outcome: a sharded campaign still extracts the key material
// a sequential campaign does.
TEST(ParallelCpaCampaign, ShardedCampaignStillConverges) {
  CpaCampaignConfig config{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .victim = victim::VictimModel::user_space(),
      .trace_count = 40000,
      .models = {power::PowerModel::rd0_hw},
      .keys = {smc::FourCc("PHPC")},
      .checkpoints = {10000},
      .seed = 13,
      .workers = 2,
      .shards = 8,
  };
  const auto result = run_cpa_campaign(config);
  const auto& curve = result.keys[0].curves[0];
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_GT(curve[0].ge_bits, curve[1].ge_bits);
  EXPECT_LT(curve[1].ge_bits, random_guess_ge_bits() - 5.0);
}

TEST(ParallelTvlaCampaign, ShardedCampaignStillDetectsLeakage) {
  TvlaCampaignConfig config{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .victim = victim::VictimModel::user_space(),
      .traces_per_set = 2000,
      .include_pcpu = true,
      .seed = 11,
      .workers = 2,
      .shards = 4,
  };
  const auto result = run_tvla_campaign(config);
  const auto* phpc = result.find("PHPC");
  const auto* phps = result.find("PHPS");
  const auto* pcpu = result.find("PCPU");
  ASSERT_NE(phpc, nullptr);
  ASSERT_NE(phps, nullptr);
  ASSERT_NE(pcpu, nullptr);
  EXPECT_GE(std::abs(phpc->matrix.score(PlaintextClass::all_zeros,
                                        PlaintextClass::all_ones)),
            util::tvla_threshold);
  EXPECT_TRUE(phps->matrix.no_data_dependence());
  EXPECT_TRUE(pcpu->matrix.no_data_dependence());
}

// Default plan (workers = 1, shards = 0) must resolve to the sequential
// single-shard pipeline, i.e. exactly the pre-sharding campaign behaviour
// covered by campaigns_test.
TEST(ParallelCpaCampaign, DefaultPlanIsSingleShard) {
  CpaCampaignConfig explicit_config{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .victim = victim::VictimModel::user_space(),
      .trace_count = 6000,
      .models = {power::PowerModel::rd0_hw},
      .keys = {smc::FourCc("PHPC")},
      .checkpoints = {},
      .seed = 93,
      .workers = 1,
      .shards = 1,
  };
  CpaCampaignConfig default_config = explicit_config;
  default_config.shards = 0;
  const auto a = run_cpa_campaign(explicit_config);
  const auto b = run_cpa_campaign(default_config);
  EXPECT_EQ(a.keys[0].final_results[0].true_ranks,
            b.keys[0].final_results[0].true_ranks);
  for (std::size_t i = 0; i < 16; ++i) {
    for (int g = 0; g < 256; ++g) {
      ASSERT_DOUBLE_EQ(
          a.keys[0].final_results[0].bytes[i]
              .correlation[static_cast<std::size_t>(g)],
          b.keys[0].final_results[0].bytes[i]
              .correlation[static_cast<std::size_t>(g)]);
    }
  }
}

}  // namespace
}  // namespace psc::core
