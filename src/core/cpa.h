// Correlation Power Analysis engine (paper section 3.4).
//
// For each of the 16 key-byte positions and each of the 256 guesses, CPA
// correlates a hypothetical leakage (Rd0-HW / Rd10-HW / Rd10-HD) with the
// measured SMC values and ranks guesses by correlation. The engine is
// streaming and histogram-based: because every model prediction depends
// only on one known byte (or, for Rd10-HD, one known byte pair), traces
// are binned by those byte values and the per-guess correlation sums are
// reconstructed from 256 (or 65536) bins — O(1) trace updates and
// analysis cost independent of the trace count. That is what makes the
// paper-scale 1M-trace experiments run in seconds.
//
// Analysis runs bin-major: each occupied bin costs one 256-lane
// guess-row update (util/simd.h accumulate_guess_row), folding the bin
// into all guesses at once; empty bins cost nothing. Every guess still
// receives its bins in ascending bin order, skipping the same empty
// bins, so each per-guess sum sees the same floating-point additions in
// the same order as a guess-at-a-time loop: that ordering is what keeps
// the correlations bit-identical across SIMD backends and to the
// guess-major reference the tests carry.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "aes/aes128.h"
#include "core/trace_batch.h"
#include "power/hypothetical.h"
#include "util/aligned.h"
#include "util/simd.h"

namespace psc::core {

// Correlations of all guesses for one (model, byte position).
struct ByteRanking {
  std::array<double, 256> correlation{};

  // 1-based rank of `candidate` by descending correlation (the paper's
  // metric: rank 1 = recovered).
  int rank_of(std::uint8_t candidate) const noexcept;

  std::uint8_t best_guess() const noexcept;
};

// Result of analyzing one model over all 16 byte positions.
struct ModelResult {
  power::PowerModel model{};
  std::array<ByteRanking, 16> bytes{};
  std::array<int, 16> true_ranks{};  // rank of the correct key byte
  aes::Block scored_key{};  // the true round-key bytes ranked above
  double ge_bits = 0.0;              // sum of log2(rank): the paper's GE
  double mean_rank = 0.0;
  aes::Block best_round_key{};  // best guess per byte (round 0 or 10 key)
  // For round-10 models: the master key implied by best_round_key.
  aes::Block implied_master_key{};
  // Number of correct key bytes at rank 1.
  int recovered_bytes = 0;
  // Number with rank <= 10 ("nearly recovered" in Table 4).
  int near_recovered_bytes = 0;
};

class CpaEngine {
 public:
  // Traces the Rd10-HD pair log holds at most: past this count its 24 B
  // per trace would outgrow the dense 16x65536 count+sum histogram
  // (12 MiB), so the engine switches to the dense state instead.
  static constexpr std::size_t pair_log_limit =
      16 * 65536 * (sizeof(std::uint32_t) + sizeof(double)) /
      (sizeof(aes::Block) + sizeof(double));

  // `models` determines which histograms are maintained. Single-byte
  // models keep 16x256 histograms. Rd10-HD pair data has two states:
  //   - log: the fed (ciphertext, value) stream, 24 B per trace. A
  //     position's 65536-bin histogram is built only while analyzing it.
  //   - dense: the 16x65536 count+sum pair histogram (~12 MB).
  // An engine starts in the log state and switches to dense when it
  // receives a merge() or when the log would pass pair_log_limit. Both
  // states analyze bit-identically: either way every bin sums its values
  // in trace order, starting from +0.0.
  explicit CpaEngine(std::vector<power::PowerModel> models);

  const std::vector<power::PowerModel>& models() const noexcept {
    return models_;
  }

  // Feeds a batch of traces in column form: known plaintexts and
  // ciphertexts and the measured channel values. Throws
  // std::invalid_argument unless the spans have equal length. The inner
  // loops run on the runtime-dispatched kernels of util/simd.h, but every
  // accumulator word receives its values in trace order on every backend,
  // so feeding one trace at a time and feeding whole batches produce
  // bit-identical state (see simd.h for the striping/disjoint-bin
  // construction that guarantees it).
  void add_trace_batch(std::span<const aes::Block> plaintexts,
                       std::span<const aes::Block> ciphertexts,
                       std::span<const double> values);

  // Feeds every trace of a columnar batch, taking measured values from
  // channel `column`. The native ingest path of the acquisition pipeline.
  void add_batch(const TraceBatch& batch, std::size_t column) {
    add_trace_batch(batch.plaintexts(), batch.ciphertexts(),
                    batch.column(column));
  }

  // Absorbs another engine's accumulator state, as if its traces had been
  // fed here after this engine's own. Both engines must have been built
  // with the same model list. This is the merge step of the sharded
  // pipeline: K shard engines merged in shard order equal one engine fed
  // the concatenated trace stream. This engine's pair data turns dense
  // (see the constructor); other's may stay a log, whose bins fold into
  // the dense ones exactly as other's dense bins would.
  void merge(const CpaEngine& other);

  // Cheap copy of the accumulator state for mid-campaign GE checkpoints:
  // shard snapshots taken at the same logical trace count merge into the
  // exact engine a sequential run would have held at that count.
  CpaEngine snapshot() const { return *this; }

  std::size_t trace_count() const noexcept { return n_; }

  // True once Rd10-HD pair data is held as the dense histogram.
  bool pair_histogram_dense() const noexcept { return !pair_count_.empty(); }

  // Correlations for every guess at one byte position under one model,
  // computed from the current accumulator state.
  ByteRanking analyze_byte(power::PowerModel model,
                           std::size_t byte_index) const;

  // Full analysis of one model against the true round keys. The 16 byte
  // positions run on up to `width` threads of the worker pool (1 = all on
  // the calling thread); the result does not depend on the width.
  ModelResult analyze(power::PowerModel model,
                      const std::array<aes::Block, aes::num_rounds + 1>&
                          true_round_keys,
                      std::size_t width = 1) const;

 private:
  bool has_model(power::PowerModel model) const noexcept;
  // Log state -> dense state: folds the pair log into fresh dense arrays
  // and releases the log.
  void densify_pairs();

  std::vector<power::PowerModel> models_;
  bool need_pt_hist_ = false;
  bool need_ct_hist_ = false;
  bool need_pair_hist_ = false;

  std::size_t n_ = 0;
  // Channel-value moments, striped by global trace index (util/simd.h);
  // totals come from simd::reduce_stripes. Cache-line aligned so shard
  // engines never false-share.
  util::simd::MomentStripes moments_;

  // Single-byte histograms: count and value-sum per byte value, per
  // position, flattened to 16x256 (bin = position * 256 + byte value) so
  // the SIMD histogram kernel can address them, and cache-line aligned.
  // Allocated only when a configured model needs them.
  util::AlignedVector<std::uint32_t> pt_count_;
  util::AlignedVector<double> pt_sum_;
  util::AlignedVector<std::uint32_t> ct_count_;
  util::AlignedVector<double> ct_sum_;

  // Rd10-HD pair data (see the constructor). Log state: every fed
  // ciphertext and value, in trace order; the dense arrays are empty.
  // Dense state: the log is empty and the pair histogram holds bins
  // (ct[i], ct[shift_rows_source(i)]), indexed [pos][ct_i * 256 + ct_src].
  std::vector<aes::Block> pair_log_ct_;
  std::vector<double> pair_log_value_;
  util::AlignedVector<std::uint32_t> pair_count_;
  util::AlignedVector<double> pair_sum_;
};

}  // namespace psc::core
