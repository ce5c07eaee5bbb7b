#include "core/cpa.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "core/parallel.h"
#include "util/rng.h"
#include "util/stats.h"

namespace psc::core {
namespace {

aes::Block random_block(util::Xoshiro256& rng) {
  aes::Block b;
  rng.fill_bytes(b);
  return b;
}

// Feeds one trace as a one-trace batch.
void add_one(CpaEngine& engine, const aes::Block& pt, const aes::Block& ct,
             double value) {
  engine.add_trace_batch({&pt, 1}, {&ct, 1}, {&value, 1});
}

TEST(CpaEngine, RejectsEmptyModelList) {
  EXPECT_THROW(CpaEngine({}), std::invalid_argument);
}

TEST(CpaEngine, RejectsUnconfiguredModel) {
  CpaEngine engine({power::PowerModel::rd0_hw});
  EXPECT_THROW(engine.analyze_byte(power::PowerModel::rd10_hw, 0),
               std::invalid_argument);
}

TEST(CpaEngine, TraceCountTracked) {
  CpaEngine engine({power::PowerModel::rd0_hw});
  util::Xoshiro256 rng(1);
  for (int i = 0; i < 5; ++i) {
    add_one(engine, random_block(rng), random_block(rng), 1.0);
  }
  EXPECT_EQ(engine.trace_count(), 5u);
}

TEST(ByteRanking, RankAndBestGuess) {
  ByteRanking ranking;
  for (int g = 0; g < 256; ++g) {
    ranking.correlation[static_cast<std::size_t>(g)] = -g / 1000.0;
  }
  EXPECT_EQ(ranking.best_guess(), 0);
  EXPECT_EQ(ranking.rank_of(0), 1);
  EXPECT_EQ(ranking.rank_of(5), 6);
  EXPECT_EQ(ranking.rank_of(255), 256);
}

// Each model recovers the key byte it targets when the chip leaks exactly
// its hypothesized intermediate.
class CpaModelRecovery : public ::testing::TestWithParam<power::PowerModel> {
};

TEST_P(CpaModelRecovery, RecoversAllBytesNoiseless) {
  const power::PowerModel model = GetParam();
  util::Xoshiro256 rng(2);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);

  CpaEngine engine({model});
  aes::RoundTrace trace;
  for (int t = 0; t < 6000; ++t) {
    const aes::Block pt = random_block(rng);
    const aes::Block ct = cipher.encrypt_trace(pt, trace);
    double leak = 0.0;
    switch (model) {
      case power::PowerModel::rd0_hw:
        leak = aes::hamming_weight(trace.post_add_round_key[0]);
        break;
      case power::PowerModel::rd10_hw:
        leak = aes::hamming_weight(trace.post_add_round_key[9]);
        break;
      case power::PowerModel::rd10_hd:
        leak = aes::hamming_distance(trace.post_add_round_key[9],
                                     trace.post_add_round_key[10]);
        break;
      case power::PowerModel::rd1_sbox_hw:
        leak = aes::hamming_weight(trace.post_sub_bytes[0]);
        break;
    }
    add_one(engine, pt, ct, leak);
  }

  const ModelResult result = engine.analyze(model, cipher.round_keys());
  EXPECT_EQ(result.recovered_bytes, 16) << power::power_model_name(model);
  EXPECT_DOUBLE_EQ(result.ge_bits, 0.0);
  EXPECT_DOUBLE_EQ(result.mean_rank, 1.0);
  EXPECT_EQ(result.implied_master_key, key);
}

INSTANTIATE_TEST_SUITE_P(AllModels, CpaModelRecovery,
                         ::testing::ValuesIn(power::all_power_models));

TEST(CpaEngine, RecoversUnderModerateNoise) {
  util::Xoshiro256 rng(3);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);
  CpaEngine engine({power::PowerModel::rd0_hw});
  aes::RoundTrace trace;
  for (int t = 0; t < 40000; ++t) {
    const aes::Block pt = random_block(rng);
    const aes::Block ct = cipher.encrypt_trace(pt, trace);
    const double leak = aes::hamming_weight(trace.post_add_round_key[0]) +
                        rng.gaussian(0.0, 40.0);
    add_one(engine, pt, ct, leak);
  }
  const ModelResult result =
      engine.analyze(power::PowerModel::rd0_hw, cipher.round_keys());
  EXPECT_GE(result.recovered_bytes, 12);
  EXPECT_LT(result.ge_bits, 12.0);
}

// The histogram decomposition must agree exactly with brute-force
// per-trace correlation.
class CpaHistogramEquivalence
    : public ::testing::TestWithParam<power::PowerModel> {};

TEST_P(CpaHistogramEquivalence, MatchesDirectCorrelation) {
  const power::PowerModel model = GetParam();
  util::Xoshiro256 rng(4);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);

  constexpr int n_traces = 1500;
  std::vector<aes::Block> pts(n_traces);
  std::vector<aes::Block> cts(n_traces);
  std::vector<double> values(n_traces);

  CpaEngine engine({model});
  aes::RoundTrace trace;
  for (int t = 0; t < n_traces; ++t) {
    pts[static_cast<std::size_t>(t)] = random_block(rng);
    cts[static_cast<std::size_t>(t)] =
        cipher.encrypt_trace(pts[static_cast<std::size_t>(t)], trace);
    values[static_cast<std::size_t>(t)] =
        aes::hamming_weight(trace.post_add_round_key[0]) +
        rng.gaussian(0.0, 5.0);
    add_one(engine, pts[static_cast<std::size_t>(t)],
            cts[static_cast<std::size_t>(t)],
            values[static_cast<std::size_t>(t)]);
  }

  for (const std::size_t byte_index : {std::size_t{0}, std::size_t{7}}) {
    const ByteRanking fast = engine.analyze_byte(model, byte_index);
    for (int g = 0; g < 256; g += 13) {
      util::OnlineCorrelation direct;
      for (int t = 0; t < n_traces; ++t) {
        direct.add(
            static_cast<double>(power::predict(
                model, pts[static_cast<std::size_t>(t)],
                cts[static_cast<std::size_t>(t)], byte_index,
                static_cast<std::uint8_t>(g))),
            values[static_cast<std::size_t>(t)]);
      }
      EXPECT_NEAR(fast.correlation[static_cast<std::size_t>(g)],
                  direct.correlation(), 1e-9)
          << power::power_model_name(model) << " byte " << byte_index
          << " guess " << g;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, CpaHistogramEquivalence,
                         ::testing::ValuesIn(power::all_power_models));

TEST(CpaEngine, Round10KeyInversion) {
  // A perfect rd10 recovery must hand back the victim's master key.
  util::Xoshiro256 rng(5);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);
  CpaEngine engine({power::PowerModel::rd10_hw});
  aes::RoundTrace trace;
  for (int t = 0; t < 8000; ++t) {
    const aes::Block pt = random_block(rng);
    const aes::Block ct = cipher.encrypt_trace(pt, trace);
    add_one(engine, pt, ct, aes::hamming_weight(trace.post_add_round_key[9]));
  }
  const ModelResult result =
      engine.analyze(power::PowerModel::rd10_hw, cipher.round_keys());
  EXPECT_EQ(result.best_round_key, cipher.round_keys()[10]);
  EXPECT_EQ(result.implied_master_key, key);
}

TEST(CpaEngine, NoSignalMeansNoRecovery) {
  util::Xoshiro256 rng(6);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);
  CpaEngine engine({power::PowerModel::rd0_hw});
  for (int t = 0; t < 20000; ++t) {
    const aes::Block pt = random_block(rng);
    add_one(engine, pt, cipher.encrypt(pt), rng.gaussian(0.0, 1.0));
  }
  const ModelResult result =
      engine.analyze(power::PowerModel::rd0_hw, cipher.round_keys());
  // Pure noise: GE stays near the random-guessing reference.
  EXPECT_GT(result.ge_bits, 80.0);
  EXPECT_LE(result.recovered_bytes, 2);
}

// Sharded-pipeline property: one engine fed N traces must equal K shard
// engines fed N/K traces each and merged, for every model and byte.
class CpaMergeEquivalence
    : public ::testing::TestWithParam<power::PowerModel> {};

TEST_P(CpaMergeEquivalence, ShardsMergeToMonolithicResult) {
  const power::PowerModel model = GetParam();
  util::Xoshiro256 rng(41);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);

  constexpr std::size_t n_traces = 4096;
  constexpr std::size_t n_shards = 4;
  CpaEngine monolithic({model});
  std::vector<CpaEngine> shards;
  for (std::size_t s = 0; s < n_shards; ++s) {
    shards.emplace_back(std::vector<power::PowerModel>{model});
  }

  aes::RoundTrace trace;
  for (std::size_t t = 0; t < n_traces; ++t) {
    const aes::Block pt = random_block(rng);
    const aes::Block ct = cipher.encrypt_trace(pt, trace);
    const double leak = aes::hamming_weight(trace.post_add_round_key[0]) +
                        rng.gaussian(0.0, 3.0);
    add_one(monolithic, pt, ct, leak);
    add_one(shards[t % n_shards], pt, ct, leak);
  }

  CpaEngine merged = shards[0].snapshot();
  for (std::size_t s = 1; s < n_shards; ++s) {
    merged.merge(shards[s]);
  }
  EXPECT_EQ(merged.trace_count(), monolithic.trace_count());

  for (std::size_t byte_index = 0; byte_index < 16; ++byte_index) {
    const ByteRanking mono = monolithic.analyze_byte(model, byte_index);
    const ByteRanking shard = merged.analyze_byte(model, byte_index);
    for (int g = 0; g < 256; ++g) {
      ASSERT_NEAR(shard.correlation[static_cast<std::size_t>(g)],
                  mono.correlation[static_cast<std::size_t>(g)], 1e-12)
          << power::power_model_name(model) << " byte " << byte_index
          << " guess " << g;
    }
  }

  const ModelResult mono_result = monolithic.analyze(model,
                                                     cipher.round_keys());
  const ModelResult merged_result = merged.analyze(model,
                                                   cipher.round_keys());
  EXPECT_EQ(merged_result.true_ranks, mono_result.true_ranks);
  EXPECT_EQ(merged_result.best_round_key, mono_result.best_round_key);
  EXPECT_NEAR(merged_result.ge_bits, mono_result.ge_bits, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllModels, CpaMergeEquivalence,
                         ::testing::ValuesIn(power::all_power_models));

TEST(CpaEngine, BatchFeedEqualsLoopFeedBitForBit) {
  util::Xoshiro256 rng(42);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);

  constexpr std::size_t n_traces = 1000;
  std::vector<aes::Block> pts(n_traces);
  std::vector<aes::Block> cts(n_traces);
  std::vector<double> values(n_traces);
  for (std::size_t t = 0; t < n_traces; ++t) {
    pts[t] = random_block(rng);
    cts[t] = cipher.encrypt(pts[t]);
    values[t] = rng.gaussian(2.0, 1.0);
  }

  CpaEngine looped({power::PowerModel::rd0_hw});
  for (std::size_t t = 0; t < n_traces; ++t) {
    add_one(looped, pts[t], cts[t], values[t]);
  }
  CpaEngine batched({power::PowerModel::rd0_hw});
  batched.add_trace_batch(pts, cts, values);

  EXPECT_EQ(batched.trace_count(), looped.trace_count());
  const ByteRanking a = looped.analyze_byte(power::PowerModel::rd0_hw, 3);
  const ByteRanking b = batched.analyze_byte(power::PowerModel::rd0_hw, 3);
  for (int g = 0; g < 256; ++g) {
    ASSERT_DOUBLE_EQ(a.correlation[static_cast<std::size_t>(g)],
                     b.correlation[static_cast<std::size_t>(g)]);
  }
}

// Satellite: CPA correlations and ranks from every supported SIMD backend
// match the scalar fallback bit-for-bit on the same trace stream, across
// all configured models.
TEST(CpaEngine, AllSimdBackendsMatchScalarBitForBit) {
  namespace simd = util::simd;
  util::Xoshiro256 rng(77);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);

  constexpr std::size_t n_traces = 2000;
  std::vector<aes::Block> pts(n_traces);
  std::vector<aes::Block> cts(n_traces);
  std::vector<double> values(n_traces);
  for (std::size_t t = 0; t < n_traces; ++t) {
    pts[t] = random_block(rng);
    cts[t] = cipher.encrypt(pts[t]);
    values[t] = rng.gaussian(2.0, 1.0);
  }
  const std::vector<power::PowerModel> models = {
      power::PowerModel::rd0_hw, power::PowerModel::rd10_hw,
      power::PowerModel::rd10_hd};
  const auto feed = [&] {
    CpaEngine engine(models);
    // Uneven batch sizes to exercise the kernels' head/body/tail.
    std::size_t i = 0;
    for (const std::size_t len :
         {std::size_t{701}, std::size_t{3}, n_traces - 704}) {
      engine.add_trace_batch(std::span(pts).subspan(i, len),
                             std::span(cts).subspan(i, len),
                             std::span(values).subspan(i, len));
      i += len;
    }
    return engine;
  };
  simd::force_backend(simd::Backend::scalar);
  const CpaEngine reference = feed();
  for (const simd::Backend backend : simd::supported_backends()) {
    simd::force_backend(backend);
    const CpaEngine engine = feed();
    for (const power::PowerModel model : models) {
      for (std::size_t byte = 0; byte < 16; byte += 5) {
        const ByteRanking want = reference.analyze_byte(model, byte);
        const ByteRanking got = engine.analyze_byte(model, byte);
        for (int g = 0; g < 256; ++g) {
          ASSERT_EQ(got.correlation[static_cast<std::size_t>(g)],
                    want.correlation[static_cast<std::size_t>(g)])
              << simd::backend_name(backend) << " byte " << byte
              << " guess " << g;
        }
        ASSERT_EQ(got.rank_of(0x42), want.rank_of(0x42));
      }
    }
  }
  simd::reset_backend();
}

// Oracle for analyze_byte: straightforward guess-major loops (one pass
// over every bin per guess, predictor called per bin) over histograms
// and moments the test rebuilds from the raw traces in trace order (the
// engine's own binning). The engine's bin-major analysis must match it
// bit-for-bit on every backend.
struct ReferenceHistograms {
  std::size_t n = 0;
  util::simd::MomentStripes moments;
  double sum_t = 0.0;
  double sum_tt = 0.0;
  std::vector<std::uint32_t> pt_count = std::vector<std::uint32_t>(16 * 256);
  std::vector<double> pt_sum = std::vector<double>(16 * 256);
  std::vector<std::uint32_t> ct_count = std::vector<std::uint32_t>(16 * 256);
  std::vector<double> ct_sum = std::vector<double>(16 * 256);
  std::vector<std::uint32_t> pair_count =
      std::vector<std::uint32_t>(16 * 65536);
  std::vector<double> pair_sum = std::vector<double>(16 * 65536);

  ReferenceHistograms(std::span<const aes::Block> pts,
                      std::span<const aes::Block> cts,
                      std::span<const double> values)
      : n(values.size()) {
    util::simd::accumulate_moments(values.data(), values.size(), 0, moments);
    sum_t = util::simd::reduce_stripes(moments.sum);
    sum_tt = util::simd::reduce_stripes(moments.sumsq);
    for (std::size_t t = 0; t < values.size(); ++t) {
      for (std::size_t i = 0; i < 16; ++i) {
        const std::size_t pt_bin = i * 256 + pts[t][i];
        ++pt_count[pt_bin];
        pt_sum[pt_bin] += values[t];
        const std::size_t ct_bin = i * 256 + cts[t][i];
        ++ct_count[ct_bin];
        ct_sum[ct_bin] += values[t];
        const std::size_t pair_bin =
            i * 65536 + static_cast<std::size_t>(cts[t][i]) * 256 +
            cts[t][aes::shift_rows_source(i)];
        ++pair_count[pair_bin];
        pair_sum[pair_bin] += values[t];
      }
    }
  }

  // The dense merge: `other`'s traces follow this one's; every bin,
  // occupied or not, adds other's bin.
  void merge(const ReferenceHistograms& other) {
    util::simd::merge_moments(moments, n, other.moments);
    n += other.n;
    sum_t = util::simd::reduce_stripes(moments.sum);
    sum_tt = util::simd::reduce_stripes(moments.sumsq);
    for (std::size_t b = 0; b < pt_count.size(); ++b) {
      pt_count[b] += other.pt_count[b];
      pt_sum[b] += other.pt_sum[b];
      ct_count[b] += other.ct_count[b];
      ct_sum[b] += other.ct_sum[b];
    }
    for (std::size_t b = 0; b < pair_count.size(); ++b) {
      pair_count[b] += other.pair_count[b];
      pair_sum[b] += other.pair_sum[b];
    }
  }
};

double reference_correlation_from_sums(double n, double sum_m, double sum_mm,
                                       double sum_mt, double sum_t,
                                       double sum_tt) noexcept {
  const double cov = n * sum_mt - sum_m * sum_t;
  const double var_m = n * sum_mm - sum_m * sum_m;
  const double var_t = n * sum_tt - sum_t * sum_t;
  if (var_m <= 0.0 || var_t <= 0.0) {
    return 0.0;
  }
  return cov / std::sqrt(var_m * var_t);
}

ByteRanking reference_analyze_byte(const ReferenceHistograms& h,
                                   power::PowerModel model,
                                   std::size_t byte_index) {
  ByteRanking out;
  if (h.n < 2) {
    return out;
  }
  const double n = static_cast<double>(h.n);
  const double sum_t = h.sum_t;
  const double sum_tt = h.sum_tt;

  const auto inputs = power::power_model_inputs(model);
  if (inputs.uses_ciphertext_pair) {
    const std::uint32_t* counts = &h.pair_count[byte_index * 65536];
    const double* sums = &h.pair_sum[byte_index * 65536];
    for (int g = 0; g < 256; ++g) {
      double sum_m = 0.0;
      double sum_mm = 0.0;
      double sum_mt = 0.0;
      for (int ct_i = 0; ct_i < 256; ++ct_i) {
        const std::size_t row = static_cast<std::size_t>(ct_i) * 256;
        for (int ct_src = 0; ct_src < 256; ++ct_src) {
          const std::uint32_t c = counts[row + static_cast<std::size_t>(
                                                   ct_src)];
          if (c == 0) {
            continue;
          }
          const double m = power::predict_rd10_hd(
              static_cast<std::uint8_t>(ct_i),
              static_cast<std::uint8_t>(ct_src),
              static_cast<std::uint8_t>(g));
          sum_m += m * c;
          sum_mm += m * m * c;
          sum_mt += m * sums[row + static_cast<std::size_t>(ct_src)];
        }
      }
      out.correlation[static_cast<std::size_t>(g)] =
          reference_correlation_from_sums(n, sum_m, sum_mm, sum_mt, sum_t,
                                          sum_tt);
    }
    return out;
  }

  const std::uint32_t* hist_count =
      inputs.uses_plaintext ? &h.pt_count[byte_index * 256]
                            : &h.ct_count[byte_index * 256];
  const double* hist_sum = inputs.uses_plaintext
                               ? &h.pt_sum[byte_index * 256]
                               : &h.ct_sum[byte_index * 256];
  int (*predictor)(std::uint8_t, std::uint8_t) = nullptr;
  switch (model) {
    case power::PowerModel::rd0_hw:
      predictor = power::predict_rd0_hw;
      break;
    case power::PowerModel::rd1_sbox_hw:
      predictor = power::predict_rd1_sbox_hw;
      break;
    case power::PowerModel::rd10_hw:
      predictor = power::predict_rd10_hw;
      break;
    case power::PowerModel::rd10_hd:
      break;  // handled above
  }
  for (int g = 0; g < 256; ++g) {
    double sum_m = 0.0;
    double sum_mm = 0.0;
    double sum_mt = 0.0;
    for (int v = 0; v < 256; ++v) {
      const std::uint32_t c = hist_count[static_cast<std::size_t>(v)];
      if (c == 0) {
        continue;
      }
      const double m = predictor(static_cast<std::uint8_t>(v),
                                 static_cast<std::uint8_t>(g));
      sum_m += m * c;
      sum_mm += m * m * c;
      sum_mt += m * hist_sum[static_cast<std::size_t>(v)];
    }
    out.correlation[static_cast<std::size_t>(g)] =
        reference_correlation_from_sums(n, sum_m, sum_mm, sum_mt, sum_t,
                                        sum_tt);
  }
  return out;
}

// Traces of one oracle input: AES-128 under a fixed key, values built by
// `value(rng, trace)` from the encryption's round states.
struct OracleInput {
  aes::Block key{};
  std::vector<aes::Block> pts;
  std::vector<aes::Block> cts;
  std::vector<double> values;
};

template <typename ValueFn>
OracleInput make_oracle_input(std::uint64_t seed, std::size_t n_traces,
                              ValueFn value) {
  util::Xoshiro256 rng(seed);
  OracleInput in;
  in.key = random_block(rng);
  aes::Aes128 cipher(in.key);
  aes::RoundTrace trace;
  for (std::size_t t = 0; t < n_traces; ++t) {
    in.pts.push_back(random_block(rng));
    in.cts.push_back(cipher.encrypt_trace(in.pts.back(), trace));
    in.values.push_back(value(rng, trace, t));
  }
  return in;
}

const std::vector<power::PowerModel> every_model(
    power::all_power_models.begin(), power::all_power_models.end());

// Every model and byte position of each engine (built with every_model)
// against the guess-major oracle over `hist`, bit for bit, on every SIMD
// backend.
void expect_engines_match_reference(
    std::initializer_list<const CpaEngine*> engines,
    const ReferenceHistograms& hist, const aes::Block& key) {
  namespace simd = util::simd;
  const std::vector<power::PowerModel>& models = every_model;
  const auto round_keys = aes::Aes128(key).round_keys();

  std::vector<ByteRanking> want;
  for (const power::PowerModel model : models) {
    for (std::size_t byte = 0; byte < 16; ++byte) {
      want.push_back(reference_analyze_byte(hist, model, byte));
    }
  }
  for (const simd::Backend backend : simd::supported_backends()) {
    simd::force_backend(backend);
    for (const CpaEngine* engine : engines) {
      ASSERT_EQ(engine->trace_count(), hist.n);
      std::size_t k = 0;
      for (const power::PowerModel model : models) {
        for (std::size_t byte = 0; byte < 16; ++byte, ++k) {
          const ByteRanking got = engine->analyze_byte(model, byte);
          for (std::size_t g = 0; g < 256; ++g) {
            // Bit patterns, so a signed-zero or NaN difference fails too.
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got.correlation[g]),
                      std::bit_cast<std::uint64_t>(want[k].correlation[g]))
                << simd::backend_name(backend) << " "
                << power::power_model_name(model) << " byte " << byte
                << " guess " << g << ": " << got.correlation[g] << " vs "
                << want[k].correlation[g];
          }
          const std::uint8_t truth =
              power::true_key_byte(model, round_keys, byte);
          for (const std::uint8_t candidate :
               {truth, want[k].best_guess(), std::uint8_t{0x00},
                std::uint8_t{0xff}}) {
            ASSERT_EQ(got.rank_of(candidate), want[k].rank_of(candidate))
                << simd::backend_name(backend) << " "
                << power::power_model_name(model) << " byte " << byte;
          }
        }
      }
    }
  }
  simd::reset_backend();
}

void expect_matches_reference(const OracleInput& in) {
  CpaEngine engine(every_model);
  engine.add_trace_batch(in.pts, in.cts, in.values);
  expect_engines_match_reference(
      {&engine}, ReferenceHistograms(in.pts, in.cts, in.values), in.key);
}

double hd_leak(util::Xoshiro256& rng, const aes::RoundTrace& trace,
               std::size_t) {
  return aes::hamming_distance(trace.post_add_round_key[9],
                               trace.post_add_round_key[10]) +
         rng.gaussian(0.0, 8.0);
}

TEST(CpaAnalyzeOracle, SparseEngine) {
  // ~300 traces: most of the 65536 pair bins per position stay empty.
  expect_matches_reference(make_oracle_input(91, 300, hd_leak));
}

TEST(CpaAnalyzeOracle, DenseEngine) {
  // 98,304 traces fill ~78% of the pair bins, like the replay workload.
  expect_matches_reference(make_oracle_input(92, 98304, hd_leak));
}

// Signed zeros and negative values: many bin sums end exactly 0.0.
double zero_or_negative_leak(util::Xoshiro256& rng,
                             const aes::RoundTrace& trace, std::size_t t) {
  switch (t % 4) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return -static_cast<double>(
          aes::hamming_weight(trace.post_add_round_key[0]));
    default:
      return -std::abs(rng.gaussian(0.0, 2.0));
  }
}

TEST(CpaAnalyzeOracle, NegativeValuesAndExactZeros) {
  // Skipping an empty bin must leave the per-guess sums exactly as the
  // guess-major loop left them.
  expect_matches_reference(make_oracle_input(93, 2000, zero_or_negative_leak));
}

TEST(CpaAnalyzeOracle, FewerThanTwoTraces) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}}) {
    expect_matches_reference(make_oracle_input(94, n, hd_leak));
  }
}

// Rd10-HD pair log (see CpaEngine's constructor): shard parts keep their
// pair data as a log, a merge target turns dense, and neither state may
// change a bit of any result.

// Shard engines over contiguous slices of `in`, each fed in one batch.
std::vector<CpaEngine> shard_parts(const OracleInput& in,
                                   std::size_t shards) {
  std::vector<CpaEngine> parts;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t begin = shard_begin(in.values.size(), shards, s);
    const std::size_t len = shard_size(in.values.size(), shards, s);
    parts.emplace_back(every_model);
    parts.back().add_trace_batch(std::span(in.pts).subspan(begin, len),
                                 std::span(in.cts).subspan(begin, len),
                                 std::span(in.values).subspan(begin, len));
  }
  return parts;
}

// The same slices as dense reference histograms folded bin-wise in shard
// order.
ReferenceHistograms merged_reference(const OracleInput& in,
                                     std::size_t shards) {
  std::optional<ReferenceHistograms> merged;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t begin = shard_begin(in.values.size(), shards, s);
    const std::size_t len = shard_size(in.values.size(), shards, s);
    const ReferenceHistograms part(std::span(in.pts).subspan(begin, len),
                                   std::span(in.cts).subspan(begin, len),
                                   std::span(in.values).subspan(begin, len));
    if (merged) {
      merged->merge(part);
    } else {
      merged.emplace(part);
    }
  }
  return *merged;
}

void expect_log_parts_merge_like_dense_histograms(const OracleInput& in) {
  constexpr std::size_t shards = 5;
  const ReferenceHistograms want = merged_reference(in, shards);
  const std::vector<CpaEngine> parts = shard_parts(in, shards);
  for (const CpaEngine& part : parts) {
    ASSERT_FALSE(part.pair_histogram_dense());
  }
  // Into an empty target (run_cpa_job) and into shard 0 (the GE
  // checkpoint reduction).
  CpaEngine into_empty(every_model);
  for (const CpaEngine& part : parts) {
    into_empty.merge(part);
  }
  CpaEngine into_first = parts[0].snapshot();
  for (std::size_t s = 1; s < shards; ++s) {
    into_first.merge(parts[s]);
  }
  EXPECT_TRUE(into_empty.pair_histogram_dense());
  EXPECT_TRUE(into_first.pair_histogram_dense());
  expect_engines_match_reference({&into_empty, &into_first}, want, in.key);
}

TEST(CpaPairLog, ShardPartsMergeLikeDenseHistogramsInShardOrder) {
  expect_log_parts_merge_like_dense_histograms(
      make_oracle_input(95, 20000, hd_leak));
}

TEST(CpaPairLog, ShardPartsMergeWithExactZeroPartialSums) {
  expect_log_parts_merge_like_dense_histograms(
      make_oracle_input(93, 2000, zero_or_negative_leak));
}

TEST(CpaPairLog, DenseIntoDenseMergeMatchesReference) {
  const OracleInput in = make_oracle_input(96, 4000, hd_leak);
  const std::vector<CpaEngine> parts = shard_parts(in, 2);
  CpaEngine first(every_model);
  first.merge(parts[0]);
  CpaEngine second(every_model);
  second.merge(parts[1]);
  ASSERT_TRUE(second.pair_histogram_dense());
  first.merge(second);
  expect_engines_match_reference({&first}, merged_reference(in, 2), in.key);
}

TEST(CpaPairLog, EngineFedPastTheLogLimitMatchesSequentialReference) {
  constexpr std::size_t limit = CpaEngine::pair_log_limit;
  const OracleInput in = make_oracle_input(97, limit + 5000, hd_leak);
  CpaEngine engine(every_model);
  const auto feed = [&](std::size_t begin, std::size_t len) {
    engine.add_trace_batch(std::span(in.pts).subspan(begin, len),
                           std::span(in.cts).subspan(begin, len),
                           std::span(in.values).subspan(begin, len));
  };
  feed(0, limit - 1000);
  feed(limit - 1000, 1000);
  EXPECT_FALSE(engine.pair_histogram_dense());  // exactly at the limit
  feed(limit, 3);
  EXPECT_TRUE(engine.pair_histogram_dense());
  feed(limit + 3, 4997);
  expect_engines_match_reference(
      {&engine}, ReferenceHistograms(in.pts, in.cts, in.values), in.key);
}

TEST(CpaPairLog, LogStateAnalysisEqualsDenseStateAnalysis) {
  for (const OracleInput& in :
       {make_oracle_input(98, 6000, hd_leak),
        make_oracle_input(93, 2000, zero_or_negative_leak)}) {
    CpaEngine log(every_model);
    log.add_trace_batch(in.pts, in.cts, in.values);
    CpaEngine dense(every_model);
    dense.merge(log);
    ASSERT_FALSE(log.pair_histogram_dense());
    ASSERT_TRUE(dense.pair_histogram_dense());
    for (const power::PowerModel model : every_model) {
      for (std::size_t byte = 0; byte < 16; ++byte) {
        const ByteRanking a = log.analyze_byte(model, byte);
        const ByteRanking b = dense.analyze_byte(model, byte);
        for (std::size_t g = 0; g < 256; ++g) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(a.correlation[g]),
                    std::bit_cast<std::uint64_t>(b.correlation[g]))
              << power::power_model_name(model) << " byte " << byte
              << " guess " << g;
        }
      }
    }
  }
}

void expect_same_model_result(const ModelResult& a, const ModelResult& b) {
  EXPECT_EQ(a.model, b.model);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t g = 0; g < 256; ++g) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.bytes[i].correlation[g]),
                std::bit_cast<std::uint64_t>(b.bytes[i].correlation[g]))
          << "byte " << i << " guess " << g;
    }
  }
  EXPECT_EQ(a.true_ranks, b.true_ranks);
  EXPECT_EQ(a.scored_key, b.scored_key);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.ge_bits),
            std::bit_cast<std::uint64_t>(b.ge_bits));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean_rank),
            std::bit_cast<std::uint64_t>(b.mean_rank));
  EXPECT_EQ(a.best_round_key, b.best_round_key);
  EXPECT_EQ(a.implied_master_key, b.implied_master_key);
  EXPECT_EQ(a.recovered_bytes, b.recovered_bytes);
  EXPECT_EQ(a.near_recovered_bytes, b.near_recovered_bytes);
}

TEST(CpaEngine, AnalyzeWidthDoesNotChangeTheResult) {
  const OracleInput in = make_oracle_input(99, 8000, hd_leak);
  CpaEngine log(every_model);
  log.add_trace_batch(in.pts, in.cts, in.values);
  CpaEngine dense(every_model);
  dense.merge(log);
  const auto round_keys = aes::Aes128(in.key).round_keys();
  for (const CpaEngine* engine : {&log, &dense}) {
    for (const power::PowerModel model : every_model) {
      SCOPED_TRACE(power::power_model_name(model));
      expect_same_model_result(engine->analyze(model, round_keys, 1),
                               engine->analyze(model, round_keys, 4));
    }
  }
}

TEST(CpaEngine, MergeRejectsMismatchedModelLists) {
  CpaEngine a({power::PowerModel::rd0_hw});
  CpaEngine b({power::PowerModel::rd10_hw});
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(CpaEngine, MergeIntoEmptyEngineEqualsCopy) {
  util::Xoshiro256 rng(43);
  const aes::Block key = random_block(rng);
  aes::Aes128 cipher(key);
  CpaEngine fed({power::PowerModel::rd0_hw});
  for (int t = 0; t < 500; ++t) {
    const aes::Block pt = random_block(rng);
    add_one(fed, pt, cipher.encrypt(pt), rng.gaussian(0.0, 1.0));
  }
  CpaEngine empty({power::PowerModel::rd0_hw});
  empty.merge(fed);
  const ByteRanking a = fed.analyze_byte(power::PowerModel::rd0_hw, 0);
  const ByteRanking b = empty.analyze_byte(power::PowerModel::rd0_hw, 0);
  for (int g = 0; g < 256; ++g) {
    ASSERT_DOUBLE_EQ(a.correlation[static_cast<std::size_t>(g)],
                     b.correlation[static_cast<std::size_t>(g)]);
  }
}

TEST(CpaEngine, EmptyEngineReturnsZeroCorrelations) {
  CpaEngine engine({power::PowerModel::rd0_hw});
  const ByteRanking ranking =
      engine.analyze_byte(power::PowerModel::rd0_hw, 0);
  for (const double c : ranking.correlation) {
    EXPECT_DOUBLE_EQ(c, 0.0);
  }
}

}  // namespace
}  // namespace psc::core
