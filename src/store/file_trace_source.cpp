#include "store/file_trace_source.h"

#include <algorithm>
#include <stdexcept>

#include "core/parallel.h"

namespace psc::store {

FileTraceSource::FileTraceSource(const std::string& path, ReaderMode mode)
    : FileTraceSource(std::make_unique<TraceFileReader>(path, mode)) {}

FileTraceSource::FileTraceSource(const std::string& path, std::size_t begin,
                                 std::size_t count, ReaderMode mode)
    : FileTraceSource(std::make_unique<TraceFileReader>(path, mode), begin,
                      count) {}

FileTraceSource::FileTraceSource(std::unique_ptr<TraceFileReader> reader,
                                 std::size_t begin, std::size_t count)
    : reader_(std::move(reader)) {
  if (!reader_) {
    throw std::invalid_argument("FileTraceSource: null reader");
  }
  row_scratch_.reset_channels(reader_->channels().size());
  row_scratch_.reserve(1);
  pos_ = std::min(begin, reader_->trace_count());
  end_ = count > reader_->trace_count() - pos_ ? reader_->trace_count()
                                               : pos_ + count;
}

const ChunkView& FileTraceSource::current_view(std::size_t row) {
  if (!prefetcher_) {
    // Built lazily on the first read so a source that is constructed but
    // never consumed posts no decode work; [first, last) is the chunk
    // range covering this source's rows.
    const std::size_t first = reader_->chunk_containing(row);
    const std::size_t last = reader_->chunk_containing(end_ - 1) + 1;
    prefetcher_.emplace(*reader_, first, last);
  }
  while (!have_view_ || row < view_.row_begin() ||
         row >= view_.row_begin() + view_.rows()) {
    std::optional<ChunkView> next = prefetcher_->next_chunk();
    if (!next.has_value()) {
      // Unreachable when the bounds checks in collect()/collect_batch()
      // hold; guard so a logic bug cannot become an infinite loop.
      throw std::out_of_range("FileTraceSource: prefetch range exhausted");
    }
    view_ = *next;
    have_view_ = true;
  }
  return view_;
}

core::TraceRecord FileTraceSource::collect(const aes::Block& /*plaintext*/) {
  if (pos_ >= end_) {
    throw std::out_of_range("FileTraceSource: file exhausted");
  }
  row_scratch_.clear();
  const ChunkView& view = current_view(pos_);
  view.append_to(row_scratch_, pos_ - view.row_begin(), 1);
  ++pos_;
  core::TraceRecord record;
  record.plaintext = row_scratch_.plaintexts()[0];
  record.ciphertext = row_scratch_.ciphertexts()[0];
  record.values.resize(row_scratch_.channels());
  for (std::size_t c = 0; c < row_scratch_.channels(); ++c) {
    record.values[c] = row_scratch_.column(c)[0];
  }
  return record;
}

void FileTraceSource::collect_batch(core::TraceBatch& batch) {
  if (batch.channels() != reader_->channels().size()) {
    throw std::invalid_argument(
        "FileTraceSource::collect_batch: batch channel count mismatch");
  }
  const std::size_t n = batch.size();
  if (n > end_ - pos_) {
    throw std::out_of_range("FileTraceSource: file exhausted");
  }
  batch.clear();
  std::size_t row = pos_;
  std::size_t left = n;
  while (left > 0) {
    const ChunkView& view = current_view(row);
    const std::size_t local = row - view.row_begin();
    const std::size_t take = std::min(left, view.rows() - local);
    view.append_to(batch, local, take);
    row += take;
    left -= take;
  }
  pos_ = row;
}

std::pair<std::size_t, std::size_t> shard_row_range(
    const TraceFileReader& reader, std::size_t shards, std::size_t s) {
  const std::size_t chunks = reader.chunk_count();
  const std::size_t first = core::shard_begin(chunks, shards, s);
  const std::size_t count = core::shard_size(chunks, shards, s);
  if (count == 0) {
    return {reader.trace_count(), 0};
  }
  const std::size_t row_begin = reader.chunk_row_begin(first);
  const std::size_t last = first + count - 1;
  const std::size_t row_end =
      reader.chunk_row_begin(last) + reader.chunk_rows(last);
  return {row_begin, row_end - row_begin};
}

}  // namespace psc::store
