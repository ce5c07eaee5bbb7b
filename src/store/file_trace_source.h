// Out-of-core replay: a core::TraceSource that streams a PSTR trace
// store through the standard acquire->accumulate pipeline, so every
// existing analysis (CPA, TVLA, GE, combined campaigns) runs against a
// recorded dataset larger than RAM without touching its math.
// collect() ignores the requested plaintext and collect_batch()
// overwrites the staged plaintext column with the recorded plaintexts.
//
// Sharded replay: each shard unit (core::run_shard_units) constructs its
// own FileTraceSource over its own contiguous row range of the same file
// (and thus its own reader; readers are single-threaded, while the OS
// page cache or one store::SharedMapping shares the file across all of
// them). Bus jobs cut the rows with core::shard_begin/shard_size, so a
// chunk on a shard boundary is decoded by both neighbours;
// shard_row_range() below cuts at chunk boundaries instead, and only
// tests use it so far. Because ranges are contiguous and in shard order,
// merging per-shard engines in shard order is bit-identical to one
// sequential replay.
//
// Replay overlaps chunk decode with analysis: the source walks its row
// range through a store::ChunkPrefetcher, which decodes chunk N+1 on the
// persistent core::WorkerPool while the caller ingests chunk N. Sharded
// replay inside pool jobs degrades gracefully to inline decode (see
// chunk_prefetcher.h). A corrupt chunk's StoreError is rethrown by every
// read that reaches it.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/trace_source.h"
#include "store/chunk_prefetcher.h"
#include "store/trace_file_reader.h"

namespace psc::store {

class FileTraceSource final : public core::TraceSource {
 public:
  // Replays every trace of the file at `path` in order.
  explicit FileTraceSource(const std::string& path,
                           ReaderMode mode = ReaderMode::automatic);
  // Replays rows [begin, begin + count) — a shard view for parallel
  // out-of-core analysis. `count` is clamped to the rows available.
  FileTraceSource(const std::string& path, std::size_t begin,
                  std::size_t count, ReaderMode mode = ReaderMode::automatic);
  // Adopts an already-open reader (single-threaded use only) and replays
  // rows [begin, begin + count) of it, clamped as above.
  explicit FileTraceSource(
      std::unique_ptr<TraceFileReader> reader, std::size_t begin = 0,
      std::size_t count = std::numeric_limits<std::size_t>::max());

  const TraceFileReader& reader() const noexcept { return *reader_; }

  // Chunk decodes that completed asynchronously so far (0 before the
  // first read).
  std::size_t async_completions() const noexcept {
    return prefetcher_ ? prefetcher_->async_completions() : 0;
  }

  const std::vector<util::FourCc>& keys() const noexcept override {
    return reader_->channels();
  }
  // Returns the next recorded trace; `plaintext` is ignored. Throws
  // std::out_of_range once the view is exhausted.
  core::TraceRecord collect(const aes::Block& plaintext) override;
  // Bulk chunk-seeked copy of the next batch.size() recorded traces
  // (including their plaintexts); throws std::out_of_range if fewer
  // remain.
  void collect_batch(core::TraceBatch& batch) override;
  std::optional<std::size_t> remaining() const noexcept override {
    return end_ - pos_;
  }

 private:
  // The prefetched view covering global row `row`, advancing the
  // prefetcher as needed (rows are consumed strictly in order).
  const ChunkView& current_view(std::size_t row);

  std::unique_ptr<TraceFileReader> reader_;
  core::TraceBatch row_scratch_;  // one-row staging for collect(), reused
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  std::optional<ChunkPrefetcher> prefetcher_;  // built on first read
  ChunkView view_;
  bool have_view_ = false;
};

// The chunk-aligned (row_begin, row_count) range shard `s` of `shards`
// owns: chunks are partitioned contiguously with core::shard_size, so
// the ranges are disjoint, cover every trace, and keep whole chunks on
// one shard (each worker decodes and CRC-checks its chunks exactly once).
std::pair<std::size_t, std::size_t> shard_row_range(
    const TraceFileReader& reader, std::size_t shards, std::size_t s);

}  // namespace psc::store
