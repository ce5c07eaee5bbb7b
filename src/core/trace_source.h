// Pluggable trace acquisition (the paper's acquire->accumulate loop,
// abstracted). Every campaign, bench and example consumes traces through
// one interface, so the same CPA/TVLA analysis code runs against:
//
//   LiveTraceSource      the simulated device (victim::FastTraceSource
//                        driving the SMC read path), optionally exposing
//                        the IOReport PCPU channel as an extra column;
//   ReplayTraceSource    a recorded TraceSet (e.g. a CSV capture),
//                        decoupling analysis from collection;
//   SyntheticTraceSource a bare leakage model plus measurement noise, for
//                        fast statistical tests of the analysis pipeline.
//
// A fourth source lives in the store layer: store::FileTraceSource
// (store/file_trace_source.h) replays a chunked binary PSTR trace store
// out-of-core — datasets larger than RAM stream through collect_batch
// one chunk at a time, optionally sharded so shard units each own a
// disjoint chunk range of the same file.
//
// The native currency is the columnar core::TraceBatch, filled through a
// stage-then-collect protocol: the caller sizes the batch and writes the
// chosen plaintexts into its plaintext column, then collect_batch()
// computes the ciphertext and channel columns in place. All three shipped
// sources override collect_batch with allocation-free columnar fills; the
// per-trace collect() path remains as a thin wrapper for convenience.
//
// Sources are single-threaded; the parallel campaign runner gives each
// shard its own source built from a split RNG stream (see core/parallel.h).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "aes/aes128.h"
#include "core/cpa.h"
#include "core/trace.h"
#include "core/trace_batch.h"
#include "power/leakage_model.h"
#include "power/noise.h"
#include "smc/mitigation.h"
#include "soc/device_profile.h"
#include "util/rng.h"
#include "victim/fast_trace.h"

namespace psc::core {

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  // Channel columns reported per trace, aligned with the batch's value
  // columns (and TraceRecord::values).
  virtual const std::vector<util::FourCc>& keys() const noexcept = 0;

  // One trace for an attacker-chosen plaintext. Replay sources ignore
  // `plaintext` and return the next recorded trace (whose own plaintext is
  // in the returned record).
  virtual TraceRecord collect(const aes::Block& plaintext) = 0;

  // Fills the ciphertext and value columns of `batch` for its staged
  // plaintext column (the caller resizes the batch and writes chosen
  // plaintexts first). Replay sources overwrite the plaintext column with
  // the recorded plaintexts instead. Throws std::invalid_argument unless
  // batch.channels() == keys().size(). The base implementation loops
  // collect(); sources override it with allocation-free columnar fills
  // that are bit-identical to the loop.
  virtual void collect_batch(TraceBatch& batch);

  // Seconds of attacker wall-time one trace costs (the SMC update window).
  virtual double window_s() const noexcept { return 1.0; }

  // Traces left before the source is exhausted; nullopt for unbounded
  // (live / synthetic) sources.
  virtual std::optional<std::size_t> remaining() const noexcept {
    return std::nullopt;
  }
};

// Clears `batch`, stages `count` plaintexts drawn from `rng` and collects
// into them: one chosen-plaintext acquisition chunk. RNG consumption and
// results match a collect() loop drawing one plaintext per trace.
void collect_random_batch(TraceSource& source, std::size_t count,
                          util::Xoshiro256& rng, TraceBatch& batch);

// ---------- live simulated capture ----------

struct LiveSourceConfig {
  soc::DeviceProfile profile;
  victim::VictimModel victim = victim::VictimModel::user_space();
  smc::MitigationPolicy mitigation = smc::MitigationPolicy::none();
  // Also expose the IOReport PCPU energy (mJ) as a trailing "PCPU" column.
  bool include_pcpu = false;
};

class LiveTraceSource final : public TraceSource {
 public:
  LiveTraceSource(const LiveSourceConfig& config, const aes::Block& victim_key,
                  std::uint64_t seed);

  // The channel columns a source with this config will report, without
  // paying for device calibration (the set depends only on the device's
  // key database and the mitigation policy).
  static std::vector<util::FourCc> channel_names(
      const LiveSourceConfig& config);

  const std::vector<util::FourCc>& keys() const noexcept override {
    return keys_;
  }
  TraceRecord collect(const aes::Block& plaintext) override;
  // Columnar fill through FastTraceSource::collect_into — no per-trace
  // allocation.
  void collect_batch(TraceBatch& batch) override;
  double window_s() const noexcept override { return source_.window_s(); }

  // The underlying calibrated device pipeline.
  const victim::FastTraceSource& device() const noexcept { return source_; }

 private:
  victim::FastTraceSource source_;
  std::vector<util::FourCc> keys_;
  bool include_pcpu_;
  std::vector<double> scratch_;  // one row of SMC values, reused
};

// ---------- CSV / TraceSet replay ----------

class ReplayTraceSource final : public TraceSource {
 public:
  // Replays every record of `set` in order.
  explicit ReplayTraceSource(std::shared_ptr<const TraceSet> set);
  // Replays records [begin, begin + count) — a shard view for parallel
  // offline analysis.
  ReplayTraceSource(std::shared_ptr<const TraceSet> set, std::size_t begin,
                    std::size_t count);

  const std::vector<util::FourCc>& keys() const noexcept override;
  // Returns the next recorded trace; `plaintext` is ignored. Throws
  // std::out_of_range once the view is exhausted.
  TraceRecord collect(const aes::Block& plaintext) override;
  // Bulk column copy of the next batch.size() recorded traces (including
  // their plaintexts); throws std::out_of_range if fewer remain.
  void collect_batch(TraceBatch& batch) override;
  std::optional<std::size_t> remaining() const noexcept override;

 private:
  std::shared_ptr<const TraceSet> set_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

// ---------- synthetic leakage ----------

struct SyntheticSourceConfig {
  // Chip-side leakage shape; the default is the calibrated Apple-silicon
  // profile.
  power::LeakageConfig leakage = power::LeakageConfig::apple_silicon_default();
  // Channel units per joule of data-dependent energy deviation.
  double gain = 1.0;
  // Additive Gaussian measurement noise, in channel units (after gain).
  double noise_sigma = 0.0;
  util::FourCc channel = util::FourCc("SYNT");
};

class SyntheticTraceSource final : public TraceSource {
 public:
  SyntheticTraceSource(const SyntheticSourceConfig& config,
                       const aes::Block& victim_key, std::uint64_t seed);

  const std::vector<util::FourCc>& keys() const noexcept override {
    return keys_;
  }
  TraceRecord collect(const aes::Block& plaintext) override;
  void collect_batch(TraceBatch& batch) override;

  const aes::Aes128& cipher() const noexcept { return cipher_; }

 private:
  double leak_value(const aes::Block& plaintext, aes::Block& ciphertext);

  aes::Aes128 cipher_;
  power::LeakageEvaluator evaluator_;
  power::GaussianNoise noise_;
  util::Xoshiro256 rng_;
  double gain_;
  std::vector<util::FourCc> keys_;
};

// ---------- source-generic acquisition helpers ----------

// Captures `count` chosen-plaintext traces (plaintexts drawn from `rng`)
// into a TraceSet ready for CSV persistence. Runs on the batched path.
TraceSet capture_trace_set(TraceSource& source, std::size_t count,
                           util::Xoshiro256& rng);

// Acquire-and-accumulate CPA over any source: feeds `count` traces
// (0 = everything remaining, for finite sources) into a CpaEngine
// attacking channel `key`. Runs on the batched path; feeding order and
// arithmetic match a hand-rolled collect()/add_trace loop bit-for-bit.
CpaEngine accumulate_cpa(TraceSource& source, util::FourCc key,
                         const std::vector<power::PowerModel>& models,
                         std::size_t count, util::Xoshiro256& rng);

}  // namespace psc::core
