// AnalysisSink layer tests: sink filtering and fan-out, checkpoint
// snapshot semantics, and — the refactor's acceptance criterion — the
// campaigns on the batch/sink path staying bit-identical to a hand-rolled
// per-record loop implementing the original sequential pipeline.
#include "core/analysis_sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/campaigns.h"
#include "core/trace_source.h"

namespace psc::core {
namespace {

TraceBatch random_batch(util::Xoshiro256& rng, std::size_t n,
                        std::size_t channels) {
  TraceBatch batch(channels);
  batch.resize(n);
  for (auto& pt : batch.plaintexts()) {
    rng.fill_bytes(pt);
  }
  for (auto& ct : batch.ciphertexts()) {
    rng.fill_bytes(ct);
  }
  for (std::size_t c = 0; c < channels; ++c) {
    for (auto& v : batch.column(c)) {
      v = rng.uniform(-1.0, 1.0);
    }
  }
  return batch;
}

TEST(BatchLabel, RandomPlaintextsClassification) {
  EXPECT_TRUE(BatchLabel::unlabeled().random_plaintexts());
  EXPECT_TRUE(
      BatchLabel::tvla(PlaintextClass::random_pt, true).random_plaintexts());
  EXPECT_FALSE(
      BatchLabel::tvla(PlaintextClass::all_zeros, false).random_plaintexts());
}

TEST(CpaSink, ConsumesOnlyRandomPlaintextBatches) {
  util::Xoshiro256 rng(1);
  const TraceBatch batch = random_batch(rng, 100, 2);

  CpaSink sink({power::PowerModel::rd0_hw}, {1});
  sink.consume(batch, BatchLabel::unlabeled());
  EXPECT_EQ(sink.trace_count(), 100u);
  sink.consume(batch, BatchLabel::tvla(PlaintextClass::all_zeros, false));
  EXPECT_EQ(sink.trace_count(), 100u);  // fixed-class set skipped
  sink.consume(batch, BatchLabel::tvla(PlaintextClass::random_pt, true));
  EXPECT_EQ(sink.trace_count(), 200u);
}

TEST(CpaSink, MergeMatchesSequentialFeed) {
  util::Xoshiro256 rng(2);
  const TraceBatch first = random_batch(rng, 80, 1);
  const TraceBatch second = random_batch(rng, 120, 1);

  CpaSink a({power::PowerModel::rd0_hw}, {0});
  CpaSink b({power::PowerModel::rd0_hw}, {0});
  a.consume(first, BatchLabel::unlabeled());
  b.consume(second, BatchLabel::unlabeled());
  a.merge(b);

  CpaSink sequential({power::PowerModel::rd0_hw}, {0});
  sequential.consume(first, BatchLabel::unlabeled());
  sequential.consume(second, BatchLabel::unlabeled());

  EXPECT_EQ(a.trace_count(), sequential.trace_count());
  for (std::size_t i = 0; i < 16; ++i) {
    const ByteRanking ra = a.engine(0).analyze_byte(power::PowerModel::rd0_hw, i);
    const ByteRanking rb =
        sequential.engine(0).analyze_byte(power::PowerModel::rd0_hw, i);
    for (int g = 0; g < 256; ++g) {
      // Merge folds shard aggregates, so it matches sequential feeding to
      // accumulator precision, not bit-for-bit (same contract as
      // CpaEngine::merge, see cpa_test's merge equivalence).
      ASSERT_NEAR(ra.correlation[static_cast<std::size_t>(g)],
                  rb.correlation[static_cast<std::size_t>(g)], 1e-12);
    }
  }
}

TEST(TvlaSink, ConsumesOnlyLabeledBatches) {
  util::Xoshiro256 rng(3);
  const TraceBatch batch = random_batch(rng, 50, 2);
  TvlaSink sink(2);
  sink.consume(batch, BatchLabel::unlabeled());
  EXPECT_EQ(sink.accumulator(0).count(PlaintextClass::random_pt, false), 0u);
  sink.consume(batch, BatchLabel::tvla(PlaintextClass::all_ones, true));
  EXPECT_EQ(sink.accumulator(0).count(PlaintextClass::all_ones, true), 50u);
  EXPECT_EQ(sink.accumulator(1).count(PlaintextClass::all_ones, true), 50u);
}

TEST(MultiSink, FansOutToEverySink) {
  util::Xoshiro256 rng(4);
  const TraceBatch batch = random_batch(rng, 40, 1);
  CpaSink cpa({power::PowerModel::rd0_hw}, {0});
  TvlaSink tvla(1);
  MultiSink multi({&cpa, &tvla});
  multi.consume(batch, BatchLabel::tvla(PlaintextClass::random_pt, false));
  EXPECT_EQ(cpa.trace_count(), 40u);
  EXPECT_EQ(tvla.accumulator(0).count(PlaintextClass::random_pt, false), 40u);
}

// Snapshots land exactly on the targets even when batch boundaries
// straddle them, and each snapshot equals an engine fed only the prefix.
TEST(GeCheckpointSink, SnapshotsAtExactTargets) {
  util::Xoshiro256 rng(5);
  const TraceBatch batch = random_batch(rng, 300, 1);

  GeCheckpointSink sink({power::PowerModel::rd0_hw}, 0, {0, 50, 170, 300});
  // Feed in chunks of 80: boundaries at 80/160/240 straddle every target.
  TraceBatch piece(1);
  for (std::size_t begin = 0; begin < 300; begin += 80) {
    const std::size_t count = std::min<std::size_t>(80, 300 - begin);
    piece.clear();
    piece.append(batch, begin, count);
    sink.consume(piece, BatchLabel::unlabeled());
  }
  ASSERT_EQ(sink.snapshots().size(), 4u);
  EXPECT_EQ(sink.snapshots()[0].trace_count(), 0u);
  EXPECT_EQ(sink.snapshots()[1].trace_count(), 50u);
  EXPECT_EQ(sink.snapshots()[2].trace_count(), 170u);
  EXPECT_EQ(sink.snapshots()[3].trace_count(), 300u);
  EXPECT_EQ(sink.engine().trace_count(), 300u);

  // The 170-trace snapshot must equal an engine fed exactly that prefix.
  CpaEngine prefix({power::PowerModel::rd0_hw});
  TraceBatch head(1);
  head.append(batch, 0, 170);
  prefix.add_batch(head, 0);
  for (std::size_t i = 0; i < 16; ++i) {
    const ByteRanking a =
        sink.snapshots()[2].analyze_byte(power::PowerModel::rd0_hw, i);
    const ByteRanking b = prefix.analyze_byte(power::PowerModel::rd0_hw, i);
    for (int g = 0; g < 256; ++g) {
      ASSERT_EQ(a.correlation[static_cast<std::size_t>(g)],
                b.correlation[static_cast<std::size_t>(g)]);
    }
  }
}

// ---------- campaign bit-identity against the per-record pipeline ----------

// Hand-rolled sequential TVLA campaign exactly as the pre-batch pipeline
// ran it: one collect() per trace, one add() per channel value.
TEST(CampaignEquivalence, TvlaMatchesPerRecordLoop) {
  TvlaCampaignConfig config{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .victim = victim::VictimModel::user_space(),
      .traces_per_set = 700,
      .include_pcpu = true,
      .seed = 21,
  };
  const auto campaign = run_tvla_campaign(config);

  util::Xoshiro256 rng(config.seed);
  aes::Block victim_key;
  rng.fill_bytes(victim_key);
  ASSERT_EQ(victim_key, campaign.victim_key);
  const LiveSourceConfig source_config{
      .profile = config.profile,
      .victim = config.victim,
      .mitigation = config.mitigation,
      .include_pcpu = config.include_pcpu,
  };
  LiveTraceSource source(source_config, victim_key, rng());
  const auto& channels = source.keys();
  std::vector<TvlaAccumulator> accumulators(channels.size());
  for (const bool primed : {false, true}) {
    for (const PlaintextClass cls : all_plaintext_classes) {
      for (std::size_t t = 0; t < config.traces_per_set; ++t) {
        const aes::Block pt = class_plaintext(cls, rng);
        const TraceRecord record = source.collect(pt);
        for (std::size_t c = 0; c < channels.size(); ++c) {
          accumulators[c].add(cls, primed, record.values[c]);
        }
      }
    }
  }

  ASSERT_EQ(campaign.channels.size(), channels.size());
  for (std::size_t c = 0; c < channels.size(); ++c) {
    const TvlaMatrix expected = accumulators[c].matrix();
    const TvlaMatrix& got = campaign.channels[c].matrix;
    for (const PlaintextClass row : all_plaintext_classes) {
      for (const PlaintextClass col : all_plaintext_classes) {
        ASSERT_EQ(got.score(row, col), expected.score(row, col))
            << campaign.channels[c].channel;
      }
    }
  }
}

// Hand-rolled sequential CPA campaign (single shard) with per-trace
// feeding and checkpoint snapshots — the original pipeline's semantics.
TEST(CampaignEquivalence, CpaMatchesPerRecordLoop) {
  CpaCampaignConfig config{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .victim = victim::VictimModel::user_space(),
      .trace_count = 3000,
      .models = {power::PowerModel::rd0_hw},
      .keys = {smc::FourCc("PHPC")},
      .checkpoints = {1000},
      .seed = 22,
  };
  const auto campaign = run_cpa_campaign(config);

  util::Xoshiro256 rng(config.seed);
  aes::Block victim_key;
  rng.fill_bytes(victim_key);
  LiveTraceSource source({.profile = config.profile,
                          .victim = config.victim,
                          .mitigation = config.mitigation,
                          .include_pcpu = false},
                         victim_key, rng());
  const std::size_t column = static_cast<std::size_t>(
      std::find(source.keys().begin(), source.keys().end(),
                util::FourCc("PHPC")) -
      source.keys().begin());
  ASSERT_LT(column, source.keys().size());

  const auto round_keys = aes::Aes128::expand_key(victim_key);
  CpaEngine engine(config.models);
  std::vector<GeCurvePoint> curve;
  aes::Block pt;
  for (std::size_t t = 0; t < config.trace_count; ++t) {
    rng.fill_bytes(pt);
    const TraceRecord record = source.collect(pt);
    engine.add_trace_batch({&record.plaintext, 1}, {&record.ciphertext, 1},
                           {&record.values[column], 1});
    if (engine.trace_count() == 1000 ||
        engine.trace_count() == config.trace_count) {
      const ModelResult res =
          engine.analyze(power::PowerModel::rd0_hw, round_keys);
      curve.push_back(
          {engine.trace_count(), res.ge_bits, res.mean_rank,
           res.recovered_bytes});
    }
  }

  const auto& got = campaign.keys[0].curves[0];
  ASSERT_EQ(got.size(), curve.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    EXPECT_EQ(got[i].traces, curve[i].traces);
    ASSERT_EQ(got[i].ge_bits, curve[i].ge_bits);
    ASSERT_EQ(got[i].mean_rank, curve[i].mean_rank);
    EXPECT_EQ(got[i].recovered_bytes, curve[i].recovered_bytes);
  }
}

// Sharded CPA equals per-shard per-record loops merged in shard order.
TEST(CampaignEquivalence, ShardedCpaMatchesMergedPerRecordShards) {
  CpaCampaignConfig config{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .victim = victim::VictimModel::user_space(),
      .trace_count = 3000,
      .models = {power::PowerModel::rd0_hw},
      .keys = {smc::FourCc("PHPC")},
      .checkpoints = {},
      .seed = 23,
      .workers = 3,
      .shards = 3,
  };
  const auto campaign = run_cpa_campaign(config);

  util::Xoshiro256 rng(config.seed);
  aes::Block victim_key;
  rng.fill_bytes(victim_key);
  const auto round_keys = aes::Aes128::expand_key(victim_key);

  CpaEngine merged(config.models);
  bool first = true;
  for (std::size_t s = 0; s < 3; ++s) {
    util::Xoshiro256 shard_rng = rng.split(s);
    LiveTraceSource source({.profile = config.profile,
                            .victim = config.victim,
                            .mitigation = config.mitigation,
                            .include_pcpu = false},
                           victim_key, shard_rng());
    const std::size_t column = static_cast<std::size_t>(
        std::find(source.keys().begin(), source.keys().end(),
                  util::FourCc("PHPC")) -
        source.keys().begin());
    CpaEngine shard_engine(config.models);
    aes::Block pt;
    for (std::size_t t = 0; t < shard_size(config.trace_count, 3, s); ++t) {
      shard_rng.fill_bytes(pt);
      const TraceRecord record = source.collect(pt);
      shard_engine.add_trace_batch({&record.plaintext, 1},
                                   {&record.ciphertext, 1},
                                   {&record.values[column], 1});
    }
    if (first) {
      merged = shard_engine.snapshot();
      first = false;
    } else {
      merged.merge(shard_engine);
    }
  }

  const ModelResult expected =
      merged.analyze(power::PowerModel::rd0_hw, round_keys);
  const ModelResult& got = campaign.keys[0].final_results[0];
  EXPECT_EQ(got.true_ranks, expected.true_ranks);
  ASSERT_EQ(got.ge_bits, expected.ge_bits);
  for (std::size_t i = 0; i < 16; ++i) {
    for (int g = 0; g < 256; ++g) {
      ASSERT_EQ(got.bytes[i].correlation[static_cast<std::size_t>(g)],
                expected.bytes[i].correlation[static_cast<std::size_t>(g)]);
    }
  }
}

// ---------- combined campaign ----------

class CombinedCampaignTest : public ::testing::Test {
 protected:
  CombinedCampaignConfig config_{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .victim = victim::VictimModel::user_space(),
      .traces_per_set = 900,
      .include_pcpu = true,
      .models = {power::PowerModel::rd0_hw},
      .keys = {smc::FourCc("PHPC")},
      .checkpoints = {600},
      .seed = 31,
  };
};

TEST_F(CombinedCampaignTest, OneAcquisitionFeedsAllSinks) {
  const auto result = run_combined_campaign(config_);
  EXPECT_EQ(result.traces_per_set, 900u);
  EXPECT_EQ(result.cpa_trace_count, 1800u);
  // TVLA half: all channels reported, PHPC leaks, PCPU does not.
  EXPECT_EQ(result.tvla.size(), 6u);
  const auto* phpc = result.find_tvla("PHPC");
  const auto* pcpu = result.find_tvla("PCPU");
  ASSERT_NE(phpc, nullptr);
  ASSERT_NE(pcpu, nullptr);
  EXPECT_GE(std::abs(phpc->matrix.score(PlaintextClass::all_zeros,
                                        PlaintextClass::all_ones)),
            util::tvla_threshold);
  EXPECT_TRUE(pcpu->matrix.no_data_dependence());
  // CPA half: curve at 600 and 1800 random-plaintext traces.
  ASSERT_EQ(result.cpa.size(), 1u);
  const auto* cpa = result.find_cpa(smc::FourCc("PHPC"));
  ASSERT_NE(cpa, nullptr);
  ASSERT_EQ(cpa->curves.size(), 1u);
  ASSERT_EQ(cpa->curves[0].size(), 2u);
  EXPECT_EQ(cpa->curves[0][0].traces, 600u);
  EXPECT_EQ(cpa->curves[0][1].traces, 1800u);
  ASSERT_EQ(cpa->final_results.size(), 1u);
}

// The combined campaign's TVLA half is bit-identical to the dedicated
// TVLA campaign at equal (seed, shards): same acquisition schedule, same
// accumulator arithmetic — the CPA sinks ride along for free.
TEST_F(CombinedCampaignTest, TvlaHalfBitIdenticalToTvlaCampaign) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    CombinedCampaignConfig combined_config = config_;
    combined_config.shards = shards;
    combined_config.workers = 2;
    const auto combined = run_combined_campaign(combined_config);

    const TvlaCampaignConfig tvla_config{
        .profile = config_.profile,
        .victim = config_.victim,
        .traces_per_set = config_.traces_per_set,
        .include_pcpu = config_.include_pcpu,
        .mitigation = config_.mitigation,
        .seed = config_.seed,
        .workers = 2,
        .shards = shards,
    };
    const auto dedicated = run_tvla_campaign(tvla_config);

    ASSERT_EQ(combined.tvla.size(), dedicated.channels.size());
    for (std::size_t c = 0; c < combined.tvla.size(); ++c) {
      for (const PlaintextClass row : all_plaintext_classes) {
        for (const PlaintextClass col : all_plaintext_classes) {
          ASSERT_EQ(combined.tvla[c].matrix.score(row, col),
                    dedicated.channels[c].matrix.score(row, col))
              << combined.tvla[c].channel << " shards=" << shards;
        }
      }
    }
  }
}

TEST_F(CombinedCampaignTest, WorkerCountInvariant) {
  config_.shards = 4;
  config_.workers = 1;
  const auto a = run_combined_campaign(config_);
  config_.workers = 4;
  const auto b = run_combined_campaign(config_);
  ASSERT_EQ(a.cpa[0].final_results[0].ge_bits,
            b.cpa[0].final_results[0].ge_bits);
  EXPECT_EQ(a.cpa[0].final_results[0].true_ranks,
            b.cpa[0].final_results[0].true_ranks);
  for (std::size_t c = 0; c < a.tvla.size(); ++c) {
    ASSERT_EQ(a.tvla[c].matrix.score(PlaintextClass::all_zeros,
                                     PlaintextClass::all_ones),
              b.tvla[c].matrix.score(PlaintextClass::all_zeros,
                                     PlaintextClass::all_ones));
  }
}

TEST_F(CombinedCampaignTest, GeCurveUsesOnlyRandomPlaintextTraces) {
  const auto result = run_combined_campaign(config_);
  // The final CPA engine saw exactly the two random collections.
  EXPECT_EQ(result.cpa[0].curves[0].back().traces, 2 * config_.traces_per_set);
}

}  // namespace
}  // namespace psc::core
