// Columnar trace storage: the native currency of the acquisition and
// analysis pipeline.
//
// A TraceBatch is a struct-of-arrays slab: one contiguous plaintext array,
// one contiguous ciphertext array, and one contiguous value column per
// measured channel. Acquisition follows a stage-then-fill protocol —
//
//   batch.clear();
//   batch.resize(n);                    // no allocation within capacity
//   for (auto& pt : batch.plaintexts()) pt = ...;  // choose plaintexts
//   source.collect_batch(batch);        // fills ciphertexts + columns
//
// — and analysis engines ingest whole columns (CpaEngine::add_batch,
// TvlaAccumulator::add_batch), so the hot acquire->accumulate loop touches
// only contiguous memory and performs no per-trace heap allocation.
// TraceBatchPool recycles batches across shard jobs: steady-state
// collection is allocation-free after the first few chunks.
#pragma once

#include <cstddef>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "aes/aes128.h"

namespace psc::core {

class TraceBatch {
 public:
  TraceBatch() = default;
  explicit TraceBatch(std::size_t channels) { reset_channels(channels); }

  std::size_t channels() const noexcept { return columns_.size(); }
  std::size_t size() const noexcept { return plaintexts_.size(); }
  bool empty() const noexcept { return plaintexts_.empty(); }
  std::size_t capacity() const noexcept { return plaintexts_.capacity(); }

  // Re-shapes the batch for `channels` value columns and drops all rows.
  // Column storage is kept where possible.
  void reset_channels(std::size_t channels);

  // Pre-allocates storage for `n` rows in every array.
  void reserve(std::size_t n);

  // Drops all rows, keeping channel count and storage (the clear-and-refill
  // step of the pooled collection loop).
  void clear() noexcept;

  // Sets the row count: the staging step of the fill protocol. Rows beyond
  // the previous size are zero-initialized; within capacity no allocation
  // happens.
  void resize(std::size_t n);

  std::span<aes::Block> plaintexts() noexcept { return plaintexts_; }
  std::span<const aes::Block> plaintexts() const noexcept {
    return plaintexts_;
  }
  std::span<aes::Block> ciphertexts() noexcept { return ciphertexts_; }
  std::span<const aes::Block> ciphertexts() const noexcept {
    return ciphertexts_;
  }

  // One channel's value column; throws std::out_of_range on a bad index.
  std::span<double> column(std::size_t c);
  std::span<const double> column(std::size_t c) const;

  // Appends one trace: the thin per-record path over the columnar core.
  // `values` must have exactly channels() entries.
  void append(const aes::Block& plaintext, const aes::Block& ciphertext,
              std::span<const double> values);

  // Appends rows [begin, begin + count) of `other`; channel counts must
  // match. The bulk transfer used by replay sources and TraceSet.
  void append(const TraceBatch& other, std::size_t begin, std::size_t count);
  void append(const TraceBatch& other) { append(other, 0, other.size()); }

  // Row view: gathers one logical trace from the columns without copying
  // the value row (values are strided across columns, not contiguous).
  class RowValues {
   public:
    RowValues(const TraceBatch* batch, std::size_t row) noexcept
        : batch_(batch), row_(row) {}
    std::size_t size() const noexcept { return batch_->channels(); }
    double operator[](std::size_t c) const { return batch_->column(c)[row_]; }

   private:
    const TraceBatch* batch_;
    std::size_t row_;
  };
  struct ConstRow {
    const aes::Block& plaintext;
    const aes::Block& ciphertext;
    RowValues values;
  };
  ConstRow row(std::size_t i) const {
    return {plaintexts_[i], ciphertexts_[i], RowValues(this, i)};
  }

 private:
  std::vector<aes::Block> plaintexts_;
  std::vector<aes::Block> ciphertexts_;
  std::vector<std::vector<double>> columns_;  // [channel][row]
};

// Thread-safe pool of reusable batches. Shard jobs acquire a batch at
// start and return it when done, so a run with more shards than workers
// recycles the same few slabs instead of allocating per shard — this is
// how batches travel between shard units under core::run_shard_units.
class TraceBatchPool {
 public:
  // Batches handed out are shaped for `channels` columns with at least
  // `capacity` rows reserved.
  TraceBatchPool(std::size_t channels, std::size_t capacity)
      : channels_(channels), capacity_(capacity) {}

  // RAII lease: returns the batch to the pool on destruction.
  class Lease {
   public:
    Lease(TraceBatchPool* pool, TraceBatch batch) noexcept
        : pool_(pool), batch_(std::move(batch)) {}
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), batch_(std::move(other.batch_)) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (pool_ != nullptr) {
        pool_->release(std::move(batch_));
      }
    }

    TraceBatch& operator*() noexcept { return batch_; }
    TraceBatch* operator->() noexcept { return &batch_; }

   private:
    TraceBatchPool* pool_;
    TraceBatch batch_;
  };

  Lease acquire();

 private:
  void release(TraceBatch batch);

  std::mutex mu_;
  std::vector<TraceBatch> free_;
  std::size_t channels_;
  std::size_t capacity_;
};

}  // namespace psc::core
