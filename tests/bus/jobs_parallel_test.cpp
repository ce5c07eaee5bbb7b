// Shard-parallel job execution: the result of run_cpa_job/run_tvla_job
// must be a pure function of (dataset, spec) — running shard units on
// the worker pool under any budget yields doubles bit-identical to the
// sequential in-process run. Also covers the shards=0 auto-sizing
// policy, monotone aggregated progress, shard-activity telemetry, and a
// hammer of concurrent jobs sharing one mapping + one chunk cache (the
// TSan suite runs this file).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bus/jobs.h"
#include "core/campaigns.h"
#include "core/parallel.h"
#include "store/chunk_cache.h"
#include "store/pstr_format.h"
#include "store/shared_mapping.h"
#include "store/trace_file_writer.h"
#include "util/rng.h"

namespace psc::bus {
namespace {

constexpr std::size_t rows = 1920;  // divisible by 6 for TVLA sets
constexpr std::size_t chunk_rows = 256;
constexpr std::size_t n_channels = 2;

aes::Block test_key() {
  aes::Block key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 29 + 5);
  }
  return key;
}

// Quantized channels so delta_bitpack engages: shard readers hit the
// decode path, which is what the shared chunk cache intercepts.
std::shared_ptr<const store::SharedMapping> write_dataset(
    const std::string& name, std::size_t n_rows = rows) {
  const std::string path = ::testing::TempDir() + name;
  util::Xoshiro256 rng(1234);
  core::TraceBatch batch(n_channels);
  batch.resize(n_rows);
  for (auto& pt : batch.plaintexts()) {
    rng.fill_bytes(pt);
  }
  for (auto& ct : batch.ciphertexts()) {
    rng.fill_bytes(ct);
  }
  for (std::size_t c = 0; c < n_channels; ++c) {
    double level = 2.0;
    for (auto& v : batch.column(c)) {
      level += rng.gaussian(0.0, 1e-4);
      v = static_cast<double>(
          static_cast<float>(std::round(level * 1e6) / 1e6));
    }
  }
  store::TraceFileWriter writer(
      path, {.channels = {util::FourCc("PHPC"), util::FourCc("PMVC")},
             .chunk_capacity = chunk_rows,
             .channel_codecs = store::uniform_channel_codecs(
                 n_channels, store::ColumnCodec::delta_bitpack)});
  writer.append(batch);
  writer.finalize();
  return store::SharedMapping::open(path);
}

void expect_cpa_bit_identical(const CpaJobResult& a, const CpaJobResult& b) {
  ASSERT_EQ(a.traces, b.traces);
  ASSERT_EQ(a.models.size(), b.models.size());
  for (std::size_t m = 0; m < a.models.size(); ++m) {
    const core::ModelResult& x = a.models[m];
    const core::ModelResult& y = b.models[m];
    EXPECT_EQ(x.true_ranks, y.true_ranks);
    EXPECT_EQ(x.scored_key, y.scored_key);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.ge_bits),
              std::bit_cast<std::uint64_t>(y.ge_bits));
    for (std::size_t i = 0; i < 16; ++i) {
      for (std::size_t g = 0; g < 256; ++g) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(x.bytes[i].correlation[g]),
                  std::bit_cast<std::uint64_t>(y.bytes[i].correlation[g]))
            << "model " << m << " byte " << i << " guess " << g;
      }
    }
  }
}

void expect_tvla_bit_identical(const TvlaJobResult& a, const TvlaJobResult& b) {
  ASSERT_EQ(a.traces_per_set, b.traces_per_set);
  ASSERT_EQ(a.channels.size(), b.channels.size());
  for (std::size_t c = 0; c < a.channels.size(); ++c) {
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a.channels[c].matrix.t[i][j]),
                  std::bit_cast<std::uint64_t>(b.channels[c].matrix.t[i][j]))
            << "channel " << c << " cell " << i << "," << j;
      }
    }
  }
}

JobExecOptions budget(std::uint32_t n) {
  JobExecOptions exec;
  exec.shard_budget = [n] { return n; };
  return exec;
}

TEST(ResolvedJobShards, ExplicitCountWinsVerbatim) {
  EXPECT_EQ(resolved_job_shards(1, 100), 1u);
  EXPECT_EQ(resolved_job_shards(5, 100), 5u);
  EXPECT_EQ(resolved_job_shards(64, 1u << 30), 64u);  // above the auto cap
}

TEST(ResolvedJobShards, ZeroAutoSizesByTraceCount) {
  const std::uint64_t per = core::min_traces_per_shard;
  EXPECT_EQ(resolved_job_shards(0, 0), 1u);
  EXPECT_EQ(resolved_job_shards(0, 100), 1u);
  EXPECT_EQ(resolved_job_shards(0, per - 1), 1u);
  EXPECT_EQ(resolved_job_shards(0, per), 1u);
  EXPECT_EQ(resolved_job_shards(0, 2 * per), 2u);
  EXPECT_EQ(resolved_job_shards(0, 3 * per + per / 2), 3u);
  EXPECT_EQ(resolved_job_shards(0, 1000 * per), auto_shard_cap);
}

TEST(JobsParallel, CpaParallelMatchesSequentialAcrossShardsAndBudgets) {
  const auto dataset = write_dataset("jobs_par_cpa.pstr");
  CpaJobSpec spec;
  spec.channel = util::FourCc("PHPC").code();
  spec.known_key = test_key();
  spec.models = {power::PowerModel::rd0_hw};

  for (const std::uint32_t shards : {1u, 2u, 3u, 8u}) {
    spec.shards = shards;
    const CpaJobResult reference = run_cpa_job(dataset, spec);
    for (const std::uint32_t b : {2u, 4u}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + " budget " +
                   std::to_string(b));
      expect_cpa_bit_identical(reference,
                               run_cpa_job(dataset, spec, {}, budget(b)));
    }
  }
}

TEST(JobsParallel, TvlaParallelMatchesSequentialAcrossShardsAndBudgets) {
  const auto dataset = write_dataset("jobs_par_tvla.pstr");
  TvlaJobSpec spec;
  for (const std::uint32_t shards : {1u, 2u, 3u}) {
    spec.shards = shards;
    const TvlaJobResult reference = run_tvla_job(dataset, spec);
    for (const std::uint32_t b : {2u, 4u}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + " budget " +
                   std::to_string(b));
      expect_tvla_bit_identical(reference,
                                run_tvla_job(dataset, spec, {}, budget(b)));
    }
  }
}

TEST(JobsParallel, AutoShardsResolveIdenticallyEverywhere) {
  const auto dataset = write_dataset("jobs_par_auto.pstr");
  // shards = 0 must behave exactly like the resolved explicit count,
  // sequential or parallel — the policy is a pure function of the trace
  // count, so daemon and verification runs can never disagree.
  TvlaJobSpec auto_spec;  // shards = 0
  TvlaJobSpec explicit_spec;
  explicit_spec.shards = resolved_job_shards(0, rows);
  const TvlaJobResult reference = run_tvla_job(dataset, explicit_spec);
  expect_tvla_bit_identical(reference, run_tvla_job(dataset, auto_spec));
  expect_tvla_bit_identical(reference,
                            run_tvla_job(dataset, auto_spec, {}, budget(4)));
}

TEST(JobsParallel, ProgressAggregatesMonotonicallyToTotal) {
  const auto dataset = write_dataset("jobs_par_prog.pstr");
  CpaJobSpec spec;
  spec.channel = util::FourCc("PHPC").code();
  spec.known_key = test_key();
  spec.shards = 4;

  std::mutex mu;
  std::uint64_t watermark = 0;
  std::uint64_t reported_total = 0;
  JobExecOptions exec = budget(4);
  const CpaJobResult result = run_cpa_job(
      dataset, spec,
      [&](std::uint64_t consumed, std::uint64_t total) {
        // Out-of-order delivery is allowed; values must stay in range and
        // the high-water mark must reach the dataset size.
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_LE(consumed, total);
        watermark = std::max(watermark, consumed);
        reported_total = total;
      },
      exec);
  EXPECT_EQ(result.traces, rows);
  EXPECT_EQ(watermark, rows);
  EXPECT_EQ(reported_total, rows);
}

TEST(JobsParallel, ShardActivityReportsResolveStartsAndFinishes) {
  const auto dataset = write_dataset("jobs_par_act.pstr");
  TvlaJobSpec spec;
  spec.shards = 6;

  std::mutex mu;
  std::uint32_t resolved = 0;
  std::uint32_t peak = 0;
  std::uint32_t last_running = 99;
  JobExecOptions exec = budget(3);
  exec.on_shard_activity = [&](std::uint32_t shards, std::uint32_t running) {
    std::lock_guard<std::mutex> lock(mu);
    resolved = shards;
    peak = std::max(peak, running);
    last_running = running;
  };
  run_tvla_job(dataset, spec, {}, exec);
  EXPECT_EQ(resolved, 6u);
  EXPECT_GE(peak, 1u);
  EXPECT_LE(peak, 3u);  // never exceeds the budget window
  EXPECT_EQ(last_running, 0u);
}

// A budgeted job sizes the pool itself: its window is as wide as its
// budget whatever ran in the process before. The pool is grow-only and
// no other test in this binary uses a budget of 6.
TEST(JobsParallel, BudgetedJobGrowsPoolToItsBudget) {
  const auto dataset = write_dataset("jobs_par_width.pstr");
  CpaJobSpec spec;
  spec.channel = util::FourCc("PHPC").code();
  spec.known_key = test_key();
  spec.shards = 8;
  core::WorkerPool& pool = core::WorkerPool::instance();
  ASSERT_LT(pool.thread_count(), 6u);
  expect_cpa_bit_identical(run_cpa_job(dataset, spec),
                           run_cpa_job(dataset, spec, {}, budget(6)));
  EXPECT_GE(pool.thread_count(), 6u);
}

TEST(JobsParallel, OversubscribedShardsStillThrow) {
  const auto dataset = write_dataset("jobs_par_throw.pstr");
  CpaJobSpec cpa;
  cpa.channel = util::FourCc("PHPC").code();
  cpa.shards = static_cast<std::uint32_t>(rows + 1);
  EXPECT_THROW(run_cpa_job(dataset, cpa, {}, budget(4)),
               std::invalid_argument);
  TvlaJobSpec tvla;
  tvla.shards = static_cast<std::uint32_t>(rows);  // > per_set
  EXPECT_THROW(run_tvla_job(dataset, tvla, {}, budget(4)),
               std::invalid_argument);
}

TEST(JobsParallel, FailedShardPropagatesWithoutMerging) {
  const auto dataset = write_dataset("jobs_par_fail.pstr");
  CpaJobSpec spec;
  spec.channel = util::FourCc("XXXX").code();  // no such channel
  spec.shards = 4;
  EXPECT_THROW(run_cpa_job(dataset, spec, {}, budget(4)),
               std::invalid_argument);
}

TEST(JobsParallel, CorruptChunkFailsLoudlyFromAShardUnit) {
  // Flip a byte in the middle of the file — inside some chunk's payload —
  // so one shard unit trips the CRC check on a pool thread. The error
  // must surface to the caller as the usual StoreError, not vanish or
  // deadlock the drain.
  const std::string path = ::testing::TempDir() + "jobs_par_corrupt.pstr";
  {
    const auto pristine = write_dataset("jobs_par_corrupt.pstr");
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const std::streamoff mid = f.tellg() / 2;
    f.seekg(mid);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x55);
    f.seekp(mid);
    f.write(&byte, 1);
  }
  const auto corrupt = store::SharedMapping::open(path);
  CpaJobSpec spec;
  spec.channel = util::FourCc("PHPC").code();
  spec.known_key = test_key();
  spec.shards = 8;
  EXPECT_THROW(run_cpa_job(corrupt, spec, {}, budget(4)), store::StoreError);
}

// The TSan target: many jobs over one mapping and one shared cache, all
// shard-parallel, each result bit-identical to its sequential reference.
TEST(JobsParallel, ConcurrentJobsShareOneMappingAndCache) {
  const auto dataset = write_dataset("jobs_par_hammer.pstr");
  const auto cache =
      std::make_shared<store::ChunkCache>(std::size_t{64} << 20);

  CpaJobSpec cpa;
  cpa.channel = util::FourCc("PHPC").code();
  cpa.known_key = test_key();
  cpa.shards = 4;
  TvlaJobSpec tvla;
  tvla.shards = 3;

  const CpaJobResult cpa_ref = run_cpa_job(dataset, cpa);
  const TvlaJobResult tvla_ref = run_tvla_job(dataset, tvla);

  constexpr int n_jobs = 6;
  std::vector<CpaJobResult> cpa_got(n_jobs);
  std::vector<TvlaJobResult> tvla_got(n_jobs);
  std::vector<std::thread> drivers;
  for (int j = 0; j < n_jobs; ++j) {
    drivers.emplace_back([&, j] {
      JobExecOptions exec = budget(2);
      exec.chunk_cache = cache;
      if (j % 2 == 0) {
        cpa_got[j] = run_cpa_job(dataset, cpa, {}, exec);
      } else {
        tvla_got[j] = run_tvla_job(dataset, tvla, {}, exec);
      }
    });
  }
  for (std::thread& d : drivers) {
    d.join();
  }
  for (int j = 0; j < n_jobs; ++j) {
    SCOPED_TRACE("job " + std::to_string(j));
    if (j % 2 == 0) {
      expect_cpa_bit_identical(cpa_ref, cpa_got[j]);
    } else {
      expect_tvla_bit_identical(tvla_ref, tvla_got[j]);
    }
  }
  // Decode-once across the whole hammer: every chunk decoded exactly
  // once, everything else was served shared.
  constexpr std::uint64_t chunks = (rows + chunk_rows - 1) / chunk_rows;
  const store::ChunkCache::Stats stats = cache->stats();
  EXPECT_EQ(stats.misses, chunks);
  EXPECT_GT(stats.hits, 0u);
}

}  // namespace
}  // namespace psc::bus
