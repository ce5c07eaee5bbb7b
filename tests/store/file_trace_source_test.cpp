// FileTraceSource replay tests — the store subsystem's acceptance
// criterion: a CPA campaign replayed from a file recorded by
// RecordingSink is bit-identical to the live campaign that recorded it,
// sequentially and when shard units replay disjoint chunk ranges of the
// same file.
#include "store/file_trace_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis_sink.h"
#include "core/parallel.h"
#include "core/trace_source.h"
#include "store/trace_file_writer.h"

namespace psc::store {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void expect_results_identical(const core::ModelResult& a,
                              const core::ModelResult& b) {
  EXPECT_EQ(a.true_ranks, b.true_ranks);
  EXPECT_EQ(a.best_round_key, b.best_round_key);
  ASSERT_EQ(a.ge_bits, b.ge_bits);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t g = 0; g < 256; ++g) {
      ASSERT_EQ(a.bytes[i].correlation[g], b.bytes[i].correlation[g])
          << "byte " << i << " guess " << g;
    }
  }
}

// The acceptance test: one live acquisition pass feeds a CpaSink and a
// RecordingSink through the same MultiSink (exactly how a campaign tees
// its stream to disk), then the recorded file replays through
// FileTraceSource into a fresh engine. Key ranks, GE and every guess
// correlation must match bit-for-bit.
TEST(FileTraceSource, ReplayedCpaCampaignBitIdenticalToLiveRecording) {
  const std::string path = temp_path("recorded_campaign.pstr");
  const std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw};
  const core::LiveSourceConfig live_config{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .victim = victim::VictimModel::user_space(),
  };

  util::Xoshiro256 rng(41);
  aes::Block victim_key;
  rng.fill_bytes(victim_key);
  const auto round_keys = aes::Aes128::expand_key(victim_key);

  core::LiveTraceSource source(live_config, victim_key, 7);
  const auto& channels = source.keys();
  const std::size_t column = static_cast<std::size_t>(
      std::find(channels.begin(), channels.end(), util::FourCc("PHPC")) -
      channels.begin());
  ASSERT_LT(column, channels.size());

  constexpr std::size_t total = 2000;
  core::ModelResult live_result;
  {
    TraceFileWriter writer(
        path, {.channels = channels,
               .chunk_capacity = 256,
               .metadata = device_metadata(live_config.profile.name,
                                           live_config.profile.os_version)});
    core::CpaSink cpa(models, {column});
    RecordingSink recorder(writer);
    core::MultiSink multi({&cpa, &recorder});

    core::TraceBatch batch(channels.size());
    std::size_t produced = 0;
    while (produced < total) {
      const std::size_t chunk = std::min<std::size_t>(170, total - produced);
      core::collect_random_batch(source, chunk, rng, batch);
      multi.consume(batch, core::BatchLabel::unlabeled());
      produced += chunk;
    }
    writer.finalize();
    live_result = cpa.engine(0).analyze(models[0], round_keys);
  }

  for (const ReaderMode mode : {ReaderMode::automatic, ReaderMode::stream}) {
    FileTraceSource replay(path, mode);
    ASSERT_EQ(replay.remaining(), total);
    util::Xoshiro256 unused_rng(0);  // replay returns recorded plaintexts
    const core::CpaEngine engine = core::accumulate_cpa(
        replay, util::FourCc("PHPC"), models, /*count=*/0, unused_rng);
    expect_results_identical(engine.analyze(models[0], round_keys),
                             live_result);
  }
}

// Sharded out-of-core replay: shard units (core::run_shard_units) each
// replay a disjoint chunk-aligned row range of one file; merging shard
// engines in shard order equals sequential replay (same contract as live
// shards).
TEST(FileTraceSource, ShardedReplayMatchesSequentialReplay) {
  const std::string path = temp_path("sharded_replay.pstr");
  const std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw};

  util::Xoshiro256 rng(42);
  aes::Block victim_key;
  rng.fill_bytes(victim_key);
  const auto round_keys = aes::Aes128::expand_key(victim_key);

  // Record a synthetic capture: 1 channel, 23 chunks of 64 (+ partial).
  core::SyntheticTraceSource synth({.noise_sigma = 0.3}, victim_key, 9);
  {
    TraceFileWriter writer(path, {.channels = synth.keys(),
                                  .chunk_capacity = 64});
    core::TraceBatch batch(1);
    std::size_t produced = 0;
    while (produced < 1500) {
      const std::size_t chunk = std::min<std::size_t>(200, 1500 - produced);
      core::collect_random_batch(synth, chunk, rng, batch);
      writer.append(batch);
      produced += chunk;
    }
    writer.finalize();
  }

  // Sequential replay reference.
  core::CpaEngine sequential(models);
  {
    FileTraceSource replay(path);
    util::Xoshiro256 unused_rng(0);
    sequential = core::accumulate_cpa(replay, synth.keys()[0], models, 0,
                                      unused_rng);
  }

  // Shard-range properties: disjoint, covering, chunk-aligned.
  const std::size_t shards = 4;
  {
    TraceFileReader probe(path);
    std::size_t next = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const auto [begin, count] = shard_row_range(probe, shards, s);
      EXPECT_EQ(begin, next);
      if (count > 0) {
        EXPECT_EQ(begin % 64, 0u);  // whole chunks per shard
      }
      next = begin + count;
    }
    EXPECT_EQ(next, probe.trace_count());
  }

  // Parallel replay: each shard unit owns its own reader over its range,
  // and drained units merge in shard order.
  std::vector<std::optional<core::CpaEngine>> parts(shards);
  std::optional<core::CpaEngine> merged_part;
  core::run_shard_units(
      shards, 4,
      [&](std::size_t s) {
        auto reader = std::make_unique<TraceFileReader>(path);
        const auto [begin, count] = shard_row_range(*reader, shards, s);
        FileTraceSource replay(std::move(reader), begin, count);
        util::Xoshiro256 unused_rng(0);
        parts[s] = core::accumulate_cpa(replay, synth.keys()[0], models, 0,
                                        unused_rng);
      },
      [&](std::size_t s) {
        if (s == 0) {
          merged_part = std::move(parts[s]);
        } else {
          merged_part->merge(*parts[s]);
        }
        parts[s].reset();
      });
  const core::CpaEngine& merged = *merged_part;
  EXPECT_EQ(merged.trace_count(), sequential.trace_count());

  const core::ModelResult a = merged.analyze(models[0], round_keys);
  const core::ModelResult b = sequential.analyze(models[0], round_keys);
  // Merge folds shard aggregates, so correlations agree to accumulator
  // precision (same contract as CpaEngine::merge); ranks must agree.
  EXPECT_EQ(a.true_ranks, b.true_ranks);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t g = 0; g < 256; ++g) {
      ASSERT_NEAR(a.bytes[i].correlation[g], b.bytes[i].correlation[g],
                  1e-12);
    }
  }
}

TEST(FileTraceSource, RecordingSinkFilterKeepsOnlyCpaConsumableBatches) {
  const std::string path = temp_path("filtered.pstr");
  util::Xoshiro256 rng(43);
  aes::Block key;
  rng.fill_bytes(key);
  core::SyntheticTraceSource synth({}, key, 1);

  {
    TraceFileWriter writer(path, {.channels = synth.keys()});
    RecordingSink recorder(writer,
                           RecordingSink::Filter::random_plaintexts_only);
    core::TraceBatch batch(1);
    core::collect_random_batch(synth, 40, rng, batch);
    recorder.consume(batch, core::BatchLabel::unlabeled());
    recorder.consume(
        batch, core::BatchLabel::tvla(core::PlaintextClass::all_zeros, false));
    recorder.consume(
        batch, core::BatchLabel::tvla(core::PlaintextClass::random_pt, true));
    writer.finalize();
  }
  TraceFileReader reader(path);
  // The fixed-class TVLA set was skipped; the two CPA-consumable batches
  // were recorded.
  EXPECT_EQ(reader.trace_count(), 80u);
}

TEST(FileTraceSource, CollectWalksRowsInOrderAndExhausts) {
  const std::string path = temp_path("collect.pstr");
  util::Xoshiro256 rng(44);
  aes::Block key;
  rng.fill_bytes(key);
  core::SyntheticTraceSource synth({}, key, 2);
  core::TraceSet recorded(synth.keys());
  {
    TraceFileWriter writer(path, {.channels = synth.keys(),
                                  .chunk_capacity = 8});
    core::TraceBatch batch(1);
    core::collect_random_batch(synth, 20, rng, batch);
    recorded.append(batch);
    writer.append(batch);
    writer.finalize();
  }

  FileTraceSource replay(path);
  aes::Block ignored{};
  for (std::size_t i = 0; i < 20; ++i) {
    ASSERT_EQ(replay.remaining(), 20 - i);
    const core::TraceRecord record = replay.collect(ignored);
    ASSERT_EQ(record.plaintext, recorded[i].plaintext);
    ASSERT_EQ(record.ciphertext, recorded[i].ciphertext);
    ASSERT_EQ(record.values[0], recorded[i].values[0]);
  }
  EXPECT_THROW(replay.collect(ignored), std::out_of_range);
}

}  // namespace
}  // namespace psc::store
