// PSTR reader: validates and decodes the chunked binary trace store
// written by store::TraceFileWriter (layout in store/pstr_format.h).
//
// On POSIX the file is memory-mapped through a store::SharedMapping and
// chunks are exposed as zero-copy ChunkViews — aligned spans straight
// into the mapping (the format 8-aligns every column), so replaying a
// 100 GB capture touches only the pages the analysis walks. Elsewhere,
// or with ReaderMode::stream, a buffered-read fallback materializes one
// chunk at a time into a reusable buffer: resident memory is a single
// chunk regardless of file size, which is what lets replay campaigns run
// out-of-core.
//
// Every structural failure is a loud StoreError, never UB or a silent
// short read: bad magic, unsupported version, truncated file, corrupt
// footer/index, and per-chunk CRC mismatches (checked on first access of
// each chunk) all name the file and the violation.
//
// Readers are single-threaded; sharded replay gives each shard its own
// reader over its own row range (see store/file_trace_source.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aes/aes128.h"
#include "core/trace_batch.h"
#include "store/pstr_format.h"
#include "store/shared_mapping.h"
#include "util/fourcc.h"

namespace psc::store {

class ChunkCache;  // store/chunk_cache.h

enum class ReaderMode {
  automatic,  // map through SharedMapping::map where it can, else stream
              // (so the PSC_NO_MMAP env flag forces the stream fallback)
  stream,     // force the buffered-read fallback (one chunk resident)
};

// Decoded view of one chunk: column spans over either the file mapping
// (zero-copy) or a decoded-chunk buffer. A chunk() view is valid until
// the next chunk()/read_rows() call on the owning reader.
class ChunkView {
 public:
  std::size_t rows() const noexcept { return rows_; }
  // Global index of the chunk's first trace.
  std::size_t row_begin() const noexcept { return row_begin_; }
  std::size_t channels() const noexcept { return channels_; }

  std::span<const aes::Block> plaintexts() const noexcept {
    return {reinterpret_cast<const aes::Block*>(payload_), rows_};
  }
  std::span<const aes::Block> ciphertexts() const noexcept {
    return {reinterpret_cast<const aes::Block*>(payload_ +
                                                rows_ * block_bytes),
            rows_};
  }
  std::span<const double> column(std::size_t c) const;

  // Appends chunk rows [begin, begin + count) to `batch`; the batch's
  // channel count must match.
  void append_to(core::TraceBatch& batch, std::size_t begin,
                 std::size_t count) const;
  void append_to(core::TraceBatch& batch) const {
    append_to(batch, 0, rows_);
  }

 private:
  friend class TraceFileReader;
  const std::byte* payload_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t row_begin_ = 0;
  std::size_t channels_ = 0;
};

class TraceFileReader {
 public:
  // Opens and structurally validates `path` (header, footer, chunk
  // index); chunk payload CRCs are checked lazily on first access.
  explicit TraceFileReader(const std::string& path,
                           ReaderMode mode = ReaderMode::automatic);
  // Reads through an already-open SharedMapping instead of opening the
  // file again: N readers (one per job or shard) share one mapping of
  // the dataset. The reader keeps a reference, so the bytes outlive it.
  explicit TraceFileReader(std::shared_ptr<const SharedMapping> mapping);

  TraceFileReader(const TraceFileReader&) = delete;
  TraceFileReader& operator=(const TraceFileReader&) = delete;

  const std::string& path() const noexcept { return path_; }
  // On-disk format version (1 or 2; see store/pstr_format.h).
  std::uint16_t format_version() const noexcept { return version_; }
  const std::vector<util::FourCc>& channels() const noexcept {
    return channels_;
  }
  const Metadata& metadata() const noexcept { return metadata_; }
  std::size_t trace_count() const noexcept { return trace_count_; }
  std::size_t chunk_count() const noexcept { return index_.size(); }
  std::size_t chunk_capacity() const noexcept { return chunk_capacity_; }
  std::size_t file_bytes() const noexcept { return file_bytes_; }

  // True when the reader reads through a SharedMapping (the zero-copy
  // path).
  bool mapped() const noexcept { return mapping_ != nullptr; }
  // Bytes of chunk data the reader itself keeps resident: the chunk()
  // buffer (one decoded chunk) plus one compressed column block (stream
  // mode, v2); 0 while chunk() has only served zero-copy mapped chunks
  // (pages belong to the OS cache). Bounded by a small constant number
  // of chunks regardless of file size — the out-of-core property.
  std::size_t resident_bytes() const noexcept {
    return own_.bytes.size() + comp_scratch_.size();
  }

  std::size_t chunk_rows(std::size_t i) const { return index_.at(i).rows; }
  std::size_t chunk_row_begin(std::size_t i) const {
    return index_.at(i).row_begin;
  }
  // Index of the chunk holding global row `row` (row < trace_count()).
  std::size_t chunk_containing(std::size_t row) const;

  // read_chunk_into(i) on a reader-owned buffer, remembering the last
  // index so repeated calls for one chunk decode it once; throws
  // StoreError on corruption (and again on every retry). The view is
  // invalidated by the next chunk()/read_rows() call.
  ChunkView chunk(std::size_t i);

  // Routes chunk decodes through a shared decoded-chunk cache keyed by
  // (mapping id, chunk index): N readers over one SharedMapping decode
  // each compressed chunk once and share the immutable bytes. Identity
  // all-column chunks keep their zero-copy mapped path and never touch
  // the cache. Every mapped reader has a SharedMapping id to key by; a
  // stream-mode reader has none and throws std::logic_error.
  void set_chunk_cache(std::shared_ptr<ChunkCache> cache);

  // Decoded-chunk storage for read_chunk_into: lets the prefetcher keep
  // two chunks alive while the reader's own chunk() buffer advances.
  struct ChunkBuffer {
    std::vector<std::byte> bytes;
    // Pin on the cache entry backing the last view served from a shared
    // ChunkCache, so the view keeps its valid-until-buf-reused contract
    // even if the cache evicts the entry meanwhile.
    std::shared_ptr<const std::vector<std::byte>> cached;
  };

  // The one chunk read: validates chunk `i` and serves it zero-copy from
  // the mapping when it is stored all-identity and aligned (its CRC
  // checked on first access), else through the attached cache, else
  // decoded into `buf` (CRC checked on every decode). Throws StoreError
  // on corruption. The view stays valid until `buf` is reused, even
  // across later chunk()/read_chunk_into() calls — the contract the
  // double-buffered prefetcher needs. Not thread-safe: callers serialize
  // all access to the reader (see store/chunk_prefetcher.h).
  ChunkView read_chunk_into(std::size_t i, ChunkBuffer& buf);

  // Appends rows [begin, begin + count) to `batch`, seeking through the
  // chunk index in O(1) per chunk touched.
  void read_rows(std::size_t begin, std::size_t count,
                 core::TraceBatch& batch);

  // Per-column storage accounting over the whole file: codec usage plus
  // raw vs. stored bytes, one entry per chunk column (plaintexts,
  // ciphertexts, then each channel). Walks chunk headers and v2 column
  // directories only — no chunk payload is decoded and no payload CRC is
  // checked, so listing a dataset stays cheap no matter its size (the
  // contract the bus daemon's dataset registry relies on). Corrupt
  // directory structure still fails loudly; corrupt payload *data* is
  // only caught when a chunk is actually decoded.
  struct ColumnStats {
    std::string name;              // "plaintext", "ciphertext" or FourCC
    std::size_t chunks_coded = 0;  // chunks stored with a real codec
    std::uint64_t raw_bytes = 0;
    std::uint64_t stored_bytes = 0;
  };
  std::vector<ColumnStats> column_stats();

 private:
  // One column block of a chunk: parsed from a v2 column directory, or
  // the fixed identity layout of a v1 chunk (a v1 chunk reads as an
  // all-identity v2 chunk without a directory).
  struct ColumnBlock {
    ColumnCodec codec = ColumnCodec::identity;
    std::uint64_t raw_bytes = 0;
    std::uint64_t stored_bytes = 0;
    std::uint64_t offset = 0;  // of the column block, relative to the chunk
  };

  static constexpr std::size_t no_chunk = static_cast<std::size_t>(-1);

  [[noreturn]] void fail(const std::string& what) const;
  void validate_structure();
  void parse_header(const std::byte* data, std::size_t size);
  void parse_footer_and_index();
  void load_bytes(std::uint64_t offset, std::span<std::byte> out);
  // Loads + validates chunk i's header and column blocks into dir_;
  // returns true when every column is stored identity. No payload bytes
  // are touched.
  bool load_directory(std::size_t i);
  // Decodes chunk i's payload into `dest` and checks its CRC; the
  // chunk's blocks (dir_) must already be loaded.
  void decode_chunk(std::size_t i, std::vector<std::byte>& dest);
  ChunkView make_view(const std::byte* payload, const ChunkIndexEntry& entry);

  std::string path_;
  std::size_t file_bytes_ = 0;

  // Mapped path: the bytes (null when streaming) and their owner.
  std::shared_ptr<const SharedMapping> mapping_;
  const std::byte* map_ = nullptr;

  // Stream path.
  std::ifstream in_;

  // Shared decoded-chunk cache (optional; mapped readers only).
  std::shared_ptr<ChunkCache> chunk_cache_;

  // chunk()'s buffer and the index of the chunk it last served.
  ChunkBuffer own_;
  std::size_t own_chunk_ = no_chunk;
  ChunkView own_view_;

  // Compressed staging (stream mode), the raw chunk header + directory
  // (stream mode), and the parsed blocks of the chunk being opened.
  std::vector<std::byte> comp_scratch_;
  std::vector<std::byte> dir_scratch_;
  std::vector<ColumnBlock> dir_;

  std::uint16_t version_ = format_version_v1;
  std::vector<util::FourCc> channels_;
  Metadata metadata_;
  std::size_t chunk_capacity_ = 0;
  std::size_t header_bytes_ = 0;
  std::uint64_t index_offset_ = 0;  // chunk data ends here
  std::uint64_t trace_count_ = 0;
  std::vector<ChunkIndexEntry> index_;
  std::vector<std::uint8_t> crc_checked_;
};

}  // namespace psc::store
