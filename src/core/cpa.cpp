#include "core/cpa.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "aes/sbox.h"
#include "core/guessing_entropy.h"
#include "core/parallel.h"

namespace psc::core {

namespace {

// Pearson correlation from accumulated sums.
double correlation_from_sums(double n, double sum_m, double sum_mm,
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

// Prediction rows of every model, 256 weights per bin byte, built once
// from the power::predict_* functions so the model definitions keep one
// source of truth. Single-byte models: row b, lane g = predict(b, g).
// Rd10-HD: row ct_src, lane x = HW(x ^ ct_src), the prediction of the
// guess whose last-round input is x; predict_rd10_hd(0, ct_src, sbox[x])
// evaluates exactly that, since inv_sbox[0 ^ sbox[x]] == x.
const std::uint8_t* prediction_rows(power::PowerModel model) {
  static const std::vector<std::uint8_t> rows = [] {
    std::vector<std::uint8_t> out(power::all_power_models.size() * 65536);
    for (const power::PowerModel m : power::all_power_models) {
      std::uint8_t* table = &out[static_cast<std::size_t>(m) * 65536];
      for (std::size_t b = 0; b < 256; ++b) {
        for (std::size_t lane = 0; lane < 256; ++lane) {
          const auto byte = static_cast<std::uint8_t>(b);
          const auto l = static_cast<std::uint8_t>(lane);
          int w = 0;
          switch (m) {
            case power::PowerModel::rd0_hw:
              w = power::predict_rd0_hw(byte, l);
              break;
            case power::PowerModel::rd10_hw:
              w = power::predict_rd10_hw(byte, l);
              break;
            case power::PowerModel::rd1_sbox_hw:
              w = power::predict_rd1_sbox_hw(byte, l);
              break;
            case power::PowerModel::rd10_hd:
              w = power::predict_rd10_hd(0, byte, aes::sbox[lane]);
              break;
          }
          table[b * 256 + lane] = static_cast<std::uint8_t>(w);
        }
      }
    }
    return out;
  }();
  return &rows[static_cast<std::size_t>(model) * 65536];
}

// Bins of one position of the Rd10-HD pair histogram.
constexpr std::size_t pair_bins = 65536;

std::size_t pair_bin(const aes::Block& ct, std::size_t i,
                     std::size_t src) noexcept {
  return static_cast<std::size_t>(ct[i]) * 256 + ct[src];
}

// Folds n traces into position i's pair histogram, values in trace order
// — the one accumulation every pair bin receives, whether from a batch
// in the dense state, from a log being densified or merged, or into an
// analysis-local histogram.
void accumulate_pair_position(std::size_t i, const aes::Block* cts,
                              const double* values, std::size_t n,
                              std::uint32_t* counts, double* sums) noexcept {
  const std::size_t src = aes::shift_rows_source(i);
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t bin = pair_bin(cts[t], i, src);
    ++counts[bin];
    sums[bin] += values[t];
  }
}

// Bin-major analysis of one Rd10-HD position's histogram. Within row
// ct_i, guess g predicts HW(inv_sbox[ct_i ^ g] ^ ct_src): in lane order
// x = inv_sbox[ct_i ^ g] that is the fixed row HW(x ^ ct_src). Permute
// the accumulators into x order for the row and back at its end.
void accumulate_pair_guesses(const std::uint32_t* counts, const double* sums,
                             const std::uint8_t* rows,
                             util::simd::GuessSums& acc) {
  util::simd::GuessSums lanes;
  for (std::size_t ct_i = 0; ct_i < 256; ++ct_i) {
    for (std::size_t x = 0; x < 256; ++x) {
      const std::size_t g = aes::sbox[x] ^ ct_i;
      lanes.m[x] = acc.m[g];
      lanes.mm[x] = acc.mm[g];
      lanes.mt[x] = acc.mt[g];
    }
    for (std::size_t ct_src = 0; ct_src < 256; ++ct_src) {
      const std::size_t bin = ct_i * 256 + ct_src;
      if (counts[bin] != 0) {
        util::simd::accumulate_guess_row(&rows[ct_src * 256], counts[bin],
                                         sums[bin], lanes);
      }
    }
    for (std::size_t x = 0; x < 256; ++x) {
      const std::size_t g = aes::sbox[x] ^ ct_i;
      acc.m[g] = lanes.m[x];
      acc.mm[g] = lanes.mm[x];
      acc.mt[g] = lanes.mt[x];
    }
  }
}

}  // namespace

int ByteRanking::rank_of(std::uint8_t candidate) const noexcept {
  const double own = correlation[candidate];
  int rank = 1;
  for (int g = 0; g < 256; ++g) {
    if (g != candidate && correlation[static_cast<std::size_t>(g)] > own) {
      ++rank;
    }
  }
  return rank;
}

std::uint8_t ByteRanking::best_guess() const noexcept {
  return static_cast<std::uint8_t>(
      std::max_element(correlation.begin(), correlation.end()) -
      correlation.begin());
}

CpaEngine::CpaEngine(std::vector<power::PowerModel> models)
    : models_(std::move(models)) {
  if (models_.empty()) {
    throw std::invalid_argument("CpaEngine: need at least one model");
  }
  for (const power::PowerModel model : models_) {
    const auto inputs = power::power_model_inputs(model);
    if (inputs.uses_plaintext) {
      need_pt_hist_ = true;
    } else if (inputs.uses_ciphertext_pair) {
      need_pair_hist_ = true;
    } else {
      need_ct_hist_ = true;
    }
  }
  if (need_pt_hist_) {
    pt_count_.assign(16 * 256, 0);
    pt_sum_.assign(16 * 256, 0.0);
  }
  if (need_ct_hist_) {
    ct_count_.assign(16 * 256, 0);
    ct_sum_.assign(16 * 256, 0.0);
  }
}

bool CpaEngine::has_model(power::PowerModel model) const noexcept {
  return std::find(models_.begin(), models_.end(), model) != models_.end();
}

void CpaEngine::densify_pairs() {
  pair_count_.assign(16 * pair_bins, 0);
  pair_sum_.assign(16 * pair_bins, 0.0);
  for (std::size_t i = 0; i < 16; ++i) {
    accumulate_pair_position(i, pair_log_ct_.data(), pair_log_value_.data(),
                             pair_log_ct_.size(), &pair_count_[i * pair_bins],
                             &pair_sum_[i * pair_bins]);
  }
  pair_log_ct_ = std::vector<aes::Block>();
  pair_log_value_ = std::vector<double>();
}

void CpaEngine::add_trace_batch(std::span<const aes::Block> plaintexts,
                                std::span<const aes::Block> ciphertexts,
                                std::span<const double> values) {
  if (plaintexts.size() != ciphertexts.size() ||
      plaintexts.size() != values.size()) {
    throw std::invalid_argument("CpaEngine::add_trace_batch: span length "
                                "mismatch");
  }
  const std::size_t n = values.size();
  if (n == 0) {
    return;
  }
  util::simd::accumulate_moments(values.data(), n, n_, moments_);
  n_ += n;
  // Histogram updates go through the dispatched kernel. aes::Block is a
  // packed std::array<uint8_t, 16>, so a Block span is exactly the
  // 16-bytes-per-trace layout accumulate_histogram16 consumes. Per bin,
  // values arrive in trace order on every backend, so the sums are
  // bit-identical to the per-trace path.
  if (need_pt_hist_) {
    util::simd::accumulate_histogram16(plaintexts.data()->data(),
                                       values.data(), n, pt_count_.data(),
                                       pt_sum_.data());
  }
  if (need_ct_hist_) {
    util::simd::accumulate_histogram16(ciphertexts.data()->data(),
                                       values.data(), n, ct_count_.data(),
                                       ct_sum_.data());
  }
  if (!need_pair_hist_) {
    return;
  }
  const std::size_t logged = pair_log_ct_.size() + n;
  if (!pair_histogram_dense() && logged > pair_log_limit) {
    densify_pairs();
  }
  if (pair_histogram_dense()) {
    for (std::size_t i = 0; i < 16; ++i) {
      accumulate_pair_position(i, ciphertexts.data(), values.data(), n,
                               &pair_count_[i * pair_bins],
                               &pair_sum_[i * pair_bins]);
    }
    return;
  }
  if (logged > pair_log_ct_.capacity()) {
    // Grow geometrically, but never past the limit the log can reach.
    const std::size_t capacity = std::min(
        std::max(logged, 2 * pair_log_ct_.capacity()), pair_log_limit);
    pair_log_ct_.reserve(capacity);
    pair_log_value_.reserve(capacity);
  }
  pair_log_ct_.insert(pair_log_ct_.end(), ciphertexts.begin(),
                      ciphertexts.end());
  pair_log_value_.insert(pair_log_value_.end(), values.begin(), values.end());
}

void CpaEngine::merge(const CpaEngine& other) {
  if (models_ != other.models_) {
    throw std::invalid_argument("CpaEngine::merge: model lists differ");
  }
  // Rotate other's stripes to where its values would have landed in the
  // concatenated stream (uses n_ before the count update).
  util::simd::merge_moments(moments_, n_, other.moments_);
  n_ += other.n_;
  for (std::size_t b = 0; b < pt_count_.size(); ++b) {
    pt_count_[b] += other.pt_count_[b];
    pt_sum_[b] += other.pt_sum_[b];
  }
  for (std::size_t b = 0; b < ct_count_.size(); ++b) {
    ct_count_[b] += other.ct_count_[b];
    ct_sum_[b] += other.ct_sum_[b];
  }
  if (!need_pair_hist_) {
    return;
  }
  if (!pair_histogram_dense()) {
    densify_pairs();
  }
  if (other.pair_histogram_dense()) {
    for (std::size_t b = 0; b < pair_count_.size(); ++b) {
      pair_count_[b] += other.pair_count_[b];
      pair_sum_[b] += other.pair_sum_[b];
    }
    return;
  }
  // Fold each position of other's log through scratch bins in trace
  // order — exactly other's dense bins — then add the touched bins and
  // clear them for the next position. An untouched bin would add +0.0,
  // which changes nothing: a bin sum starts at +0.0, so it is never -0.0.
  const std::size_t n = other.pair_log_ct_.size();
  const aes::Block* cts = other.pair_log_ct_.data();
  std::vector<std::uint32_t> counts(pair_bins, 0);
  std::vector<double> sums(pair_bins, 0.0);
  for (std::size_t i = 0; i < 16; ++i) {
    accumulate_pair_position(i, cts, other.pair_log_value_.data(), n,
                             counts.data(), sums.data());
    const std::size_t src = aes::shift_rows_source(i);
    std::uint32_t* target_counts = &pair_count_[i * pair_bins];
    double* target_sums = &pair_sum_[i * pair_bins];
    for (std::size_t t = 0; t < n; ++t) {
      const std::size_t bin = pair_bin(cts[t], i, src);
      if (counts[bin] != 0) {
        target_counts[bin] += counts[bin];
        target_sums[bin] += sums[bin];
        counts[bin] = 0;
        sums[bin] = 0.0;
      }
    }
  }
}

ByteRanking CpaEngine::analyze_byte(power::PowerModel model,
                                    std::size_t byte_index) const {
  if (!has_model(model)) {
    throw std::invalid_argument("CpaEngine: model not configured");
  }
  ByteRanking out;
  if (n_ < 2) {
    return out;
  }
  const double n = static_cast<double>(n_);
  const double sum_t = util::simd::reduce_stripes(moments_.sum);
  const double sum_tt = util::simd::reduce_stripes(moments_.sumsq);
  const std::uint8_t* rows = prediction_rows(model);

  // Bin-major, guess-minor: each occupied bin is folded into all 256
  // guess lanes at once. Every guess still receives the bins in the same
  // (byte, or ct_i then ct_src) order, skipping the same empty bins, so
  // each per-guess sum_mt sees the same additions in the same order as a
  // guess-at-a-time loop would. sum_m and sum_mm add exact integers
  // (predictions <= 8, counts < 2^32), so the kernel's w * (w * c) equals
  // the (m * m) * c of that loop.
  util::simd::GuessSums acc;
  const auto inputs = power::power_model_inputs(model);
  if (inputs.uses_ciphertext_pair && pair_histogram_dense()) {
    accumulate_pair_guesses(&pair_count_[byte_index * pair_bins],
                            &pair_sum_[byte_index * pair_bins], rows, acc);
  } else if (inputs.uses_ciphertext_pair) {
    // Log state: this position's histogram, built here in trace order.
    std::vector<std::uint32_t> counts(pair_bins, 0);
    std::vector<double> sums(pair_bins, 0.0);
    accumulate_pair_position(byte_index, pair_log_ct_.data(),
                             pair_log_value_.data(), pair_log_ct_.size(),
                             counts.data(), sums.data());
    accumulate_pair_guesses(counts.data(), sums.data(), rows, acc);
  } else {
    const std::uint32_t* counts = inputs.uses_plaintext
                                      ? &pt_count_[byte_index * 256]
                                      : &ct_count_[byte_index * 256];
    const double* sums = inputs.uses_plaintext ? &pt_sum_[byte_index * 256]
                                               : &ct_sum_[byte_index * 256];
    for (std::size_t v = 0; v < 256; ++v) {
      if (counts[v] != 0) {
        util::simd::accumulate_guess_row(&rows[v * 256], counts[v], sums[v],
                                         acc);
      }
    }
  }
  for (std::size_t g = 0; g < 256; ++g) {
    out.correlation[g] = correlation_from_sums(n, acc.m[g], acc.mm[g],
                                               acc.mt[g], sum_t, sum_tt);
  }
  return out;
}

ModelResult CpaEngine::analyze(
    power::PowerModel model,
    const std::array<aes::Block, aes::num_rounds + 1>& true_round_keys,
    std::size_t width) const {
  ModelResult result;
  result.model = model;
  // Byte positions are independent reads of this engine, one shard unit
  // each, written to their own slot whatever thread ran them.
  run_shard_units(
      16, width,
      [&](std::size_t i) { result.bytes[i] = analyze_byte(model, i); },
      [](std::size_t) {});
  for (std::size_t i = 0; i < 16; ++i) {
    const std::uint8_t truth =
        power::true_key_byte(model, true_round_keys, i);
    result.scored_key[i] = truth;
    result.true_ranks[i] = result.bytes[i].rank_of(truth);
    result.best_round_key[i] = result.bytes[i].best_guess();
    if (result.true_ranks[i] == 1) {
      ++result.recovered_bytes;
    }
    if (result.true_ranks[i] <= 10) {
      ++result.near_recovered_bytes;
    }
  }
  result.ge_bits = guessing_entropy_bits(result.true_ranks);
  result.mean_rank = mean_rank(result.true_ranks);
  result.implied_master_key =
      power::recovered_round(model) == 0
          ? result.best_round_key
          : aes::Aes128::master_key_from_round10(result.best_round_key);
  return result;
}

}  // namespace psc::core
