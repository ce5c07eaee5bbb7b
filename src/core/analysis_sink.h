// Multi-sink analysis: feed several consumers from one acquisition pass.
//
// The paper's Tables 3-6 each re-acquire traces per analysis; at 1M-trace
// scale the acquisition dominates, so this layer decouples "what the
// attacker collects" from "what is computed over it". An AnalysisSink
// consumes columnar TraceBatches tagged with a BatchLabel; MultiSink fans
// one stream out to any number of sinks, so a single sharded acquisition
// pass produces CPA rankings, TVLA matrices and guessing-entropy
// checkpoints concurrently — one trace budget, all the statistics.
//
// Sinks are shard-local: each shard unit (core::run_shard_units) owns its
// own sinks, and the campaign merges per-sink partial state in shard
// order as each unit drains (CpaSink::merge / TvlaSink::merge), exactly
// like the bare engines.
//
// Sinks need not compute anything: store::RecordingSink
// (store/trace_file_writer.h) tees the acquisition stream to a PSTR
// trace store, so one pass both analyzes and persists — the recorded
// file replays (store::FileTraceSource) bit-identically to the live run.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "core/cpa.h"
#include "core/trace_batch.h"
#include "core/tvla.h"
#include "power/hypothetical.h"

namespace psc::core {

// Provenance tag of an acquisition batch. Chosen-plaintext CPA batches
// are unlabeled; the TVLA collection protocol labels each batch with its
// (plaintext class, primed-or-not collection) pair.
struct BatchLabel {
  std::optional<PlaintextClass> cls;
  bool primed = false;

  static BatchLabel unlabeled() noexcept { return {}; }
  static BatchLabel tvla(PlaintextClass cls, bool primed) noexcept {
    return {cls, primed};
  }

  // True when the batch carries attacker-unpredictable plaintexts — the
  // only traces a chosen/known-plaintext CPA can rank guesses with.
  bool random_plaintexts() const noexcept {
    return !cls.has_value() || *cls == PlaintextClass::random_pt;
  }
};

class AnalysisSink {
 public:
  virtual ~AnalysisSink() = default;

  // Consumes one acquisition batch. Sinks sharing a MultiSink see the
  // same batches in the same order; a sink ignores batches outside its
  // protocol (e.g. CPA sinks skip fixed-plaintext TVLA sets).
  virtual void consume(const TraceBatch& batch, const BatchLabel& label) = 0;
};

// Fans one acquisition stream out to several sinks, in order. Non-owning:
// the campaign keeps the concrete sinks so it can read their state after
// the pass.
class MultiSink final : public AnalysisSink {
 public:
  MultiSink() = default;
  explicit MultiSink(std::vector<AnalysisSink*> sinks)
      : sinks_(std::move(sinks)) {}

  void add(AnalysisSink* sink) { sinks_.push_back(sink); }

  void consume(const TraceBatch& batch, const BatchLabel& label) override {
    for (AnalysisSink* sink : sinks_) {
      sink->consume(batch, label);
    }
  }

 private:
  std::vector<AnalysisSink*> sinks_;
};

// CPA over one or more channel columns: one CpaEngine per attacked
// column, all fed from the same batches. Consumes random-plaintext
// batches only.
class CpaSink final : public AnalysisSink {
 public:
  CpaSink(std::vector<power::PowerModel> models,
          std::vector<std::size_t> columns);

  void consume(const TraceBatch& batch, const BatchLabel& label) override;

  std::size_t engines() const noexcept { return engines_.size(); }
  const CpaEngine& engine(std::size_t i) const { return engines_.at(i); }
  std::size_t trace_count() const noexcept;

  // Absorbs another sink's accumulator state (same models and columns), as
  // if its batches had been consumed here: the shard-merge step.
  void merge(const CpaSink& other);

 private:
  std::vector<std::size_t> columns_;
  std::vector<CpaEngine> engines_;
};

// TVLA over every channel column: one TvlaAccumulator per channel, fed
// from labeled batches only (unlabeled CPA batches carry no collection
// tag and are skipped).
class TvlaSink final : public AnalysisSink {
 public:
  explicit TvlaSink(std::size_t channels) : accumulators_(channels) {}

  void consume(const TraceBatch& batch, const BatchLabel& label) override;

  std::size_t channels() const noexcept { return accumulators_.size(); }
  const TvlaAccumulator& accumulator(std::size_t c) const {
    return accumulators_.at(c);
  }

  void merge(const TvlaSink& other);

 private:
  std::vector<TvlaAccumulator> accumulators_;
};

// CPA accumulation with engine snapshots at ascending trace-count targets
// — the sharded pipeline's guessing-entropy checkpoints without merge
// barriers. Each shard runs one GeCheckpointSink per attacked channel with
// targets shard_size(checkpoint, shards, s); because those per-shard
// targets sum to exactly the global checkpoint, merging the k-th snapshot
// of every shard (in shard order) reconstructs bit-for-bit the engine a
// sequential run would hold at that checkpoint. A batch straddling a
// target is split so snapshots land exactly on it.
//
// Memory: each snapshot is a full accumulator copy, so a campaign holds
// shards x (targets + 1) engines until the post-pass reduction drains
// them (release_snapshot). With pair-histogram models (rd10_hd, ~13 MB
// per engine) keep the checkpoint schedule short or the shard count
// moderate; single-byte-histogram models cost ~0.1 MB per snapshot.
class GeCheckpointSink final : public AnalysisSink {
 public:
  // `targets` must be ascending; a trailing target equal to the shard's
  // total trace share yields the final-state snapshot.
  GeCheckpointSink(std::vector<power::PowerModel> models, std::size_t column,
                   std::vector<std::size_t> targets);

  void consume(const TraceBatch& batch, const BatchLabel& label) override;

  // The running engine (state after everything consumed so far).
  const CpaEngine& engine() const noexcept { return engine_; }
  // Snapshots taken so far, one per reached target, in target order.
  const std::vector<CpaEngine>& snapshots() const noexcept {
    return snapshots_;
  }
  // Moves snapshot `i` out (freeing its histograms), for reductions that
  // drain checkpoints in order instead of holding every copy alive.
  CpaEngine release_snapshot(std::size_t i) {
    return std::move(snapshots_.at(i));
  }

 private:
  CpaEngine engine_;
  std::size_t column_;
  std::vector<std::size_t> targets_;
  std::size_t next_target_ = 0;
  std::vector<CpaEngine> snapshots_;
};

}  // namespace psc::core
