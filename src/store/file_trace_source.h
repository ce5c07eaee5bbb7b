// Out-of-core replay: a core::TraceSource that streams a PSTR trace
// store through the standard acquire->accumulate pipeline, so every
// existing analysis (CPA, TVLA, GE, combined campaigns) runs against a
// recorded dataset larger than RAM without touching its math. Like
// ReplayTraceSource, collect() ignores the requested plaintext and
// collect_batch() overwrites the staged plaintext column with the
// recorded plaintexts.
//
// Sharded replay: shard units (core::run_shard_units) each own a disjoint,
// chunk-aligned row range of the same file — shard_row_range() partitions
// the chunk list with core::shard_size so ranges cover the file exactly
// and no two shards decode the same chunk. Each shard constructs its own
// FileTraceSource (and thus its own reader; readers are single-threaded,
// while the OS page cache shares the mapped file across all of them).
// Because ranges are contiguous and in shard order, merging per-shard
// engines in shard order is bit-identical to one sequential replay.
// Replay overlaps chunk decode with analysis by default: the source
// walks its row range through a store::ChunkPrefetcher, which decodes
// chunk N+1 on the persistent core::WorkerPool while the caller ingests
// chunk N. The schedule — not the result — changes: batches are
// bit-identical with prefetch on or off, and sharded replay inside pool
// jobs degrades gracefully to inline decode (see chunk_prefetcher.h).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/trace_source.h"
#include "store/chunk_prefetcher.h"
#include "store/trace_file_reader.h"

namespace psc::store {

// Whether replay decodes ahead asynchronously. `automatic` is on unless
// the PSC_STORE_PREFETCH env knob is set falsy (PSC_STORE_PREFETCH=0
// turns every automatic source into the serial decode path — the A/B
// switch the benches and equivalence tests use).
enum class PrefetchMode {
  automatic,
  on,
  off,
};

struct FileSourceOptions {
  ReaderMode mode = ReaderMode::automatic;
  PrefetchMode prefetch = PrefetchMode::automatic;
};

class FileTraceSource final : public core::TraceSource {
 public:
  // Replays every trace of the file at `path` in order.
  explicit FileTraceSource(const std::string& path,
                           ReaderMode mode = ReaderMode::automatic);
  FileTraceSource(const std::string& path, const FileSourceOptions& options);
  // Replays rows [begin, begin + count) — a shard view for parallel
  // out-of-core analysis. `count` is clamped to the rows available.
  FileTraceSource(const std::string& path, std::size_t begin,
                  std::size_t count, ReaderMode mode = ReaderMode::automatic);
  FileTraceSource(const std::string& path, std::size_t begin,
                  std::size_t count, const FileSourceOptions& options);
  // Adopts an already-open reader (single-threaded use only).
  explicit FileTraceSource(std::unique_ptr<TraceFileReader> reader);
  FileTraceSource(std::unique_ptr<TraceFileReader> reader, std::size_t begin,
                  std::size_t count,
                  const FileSourceOptions& options = FileSourceOptions{});

  const TraceFileReader& reader() const noexcept { return *reader_; }

  // True when this source decodes ahead through the worker pool.
  bool prefetch_enabled() const noexcept { return prefetch_; }
  // Chunk decodes that completed asynchronously so far (0 with prefetch
  // off or before the first batch).
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
  bool prefetch_ = false;
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
