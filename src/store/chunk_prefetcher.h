// Double-buffered async chunk prefetch for out-of-core replay.
//
// Replaying a v2 (compressed) store serializes decode and analysis on
// one thread: decode chunk N, ingest chunk N, decode chunk N+1... The
// prefetcher overlaps them by posting the decode of chunk N+1 to the
// persistent core::WorkerPool while the caller ingests chunk N — two
// ChunkBuffers alternate as decode target and ingest source, so steady
// state allocates nothing and resident memory stays at two chunks.
//
// Exactly one posted job is in flight at a time, which preserves the
// reader's single-threaded contract: next_chunk() always finish()es the
// outstanding job before issuing the next, so the reader is only ever
// touched by one thread at any moment (with the pool mutex ordering the
// hand-offs — clean under TSan). When every pool thread is busy — e.g.
// sharded replay, where each shard's prefetcher lives inside a pool job
// — finish() steals the job back and decodes inline: the schedule
// degrades to the serial one, it never deadlocks.
//
// Decode errors (CRC mismatch, corrupt codec block) are captured on the
// decode thread and rethrown from the next_chunk() call that would have
// returned that chunk, and from every call after it, so StoreError
// surfaces on the replaying thread however often the caller retries.
#pragma once

#include <cstddef>
#include <exception>
#include <optional>

#include "core/parallel.h"
#include "store/trace_file_reader.h"

namespace psc::store {

class ChunkPrefetcher {
 public:
  // Prefetches chunks [begin, min(end, chunk_count)) of `reader` in
  // order; issues the first decode immediately. The reader must outlive
  // the prefetcher, and nothing else may touch it while the prefetcher
  // is alive (chunk()/read_rows() calls would race the posted decode).
  ChunkPrefetcher(TraceFileReader& reader, std::size_t begin,
                  std::size_t end);
  ~ChunkPrefetcher();  // waits out any in-flight decode

  ChunkPrefetcher(const ChunkPrefetcher&) = delete;
  ChunkPrefetcher& operator=(const ChunkPrefetcher&) = delete;

  // The next chunk's decoded view, or nullopt when the range is
  // exhausted. The view stays valid until the next-next next_chunk()
  // call (its slot is only reused then); throws StoreError if the chunk
  // is corrupt, and again on every later call.
  std::optional<ChunkView> next_chunk();

  // Chunks whose decode actually completed on a pool thread (vs stolen
  // back inline) — the overlap statistic the benches report.
  std::size_t async_completions() const noexcept {
    return async_completions_;
  }

 private:
  struct Slot {
    TraceFileReader::ChunkBuffer buf;
    ChunkView view;
    std::exception_ptr error;
    core::WorkerPool::AsyncTicket ticket;
    bool pending = false;
  };

  void issue(Slot& slot, std::size_t chunk);

  TraceFileReader* reader_;
  core::WorkerPool* pool_;
  std::size_t end_;
  std::size_t next_issue_;
  std::size_t cur_ = 0;  // slot the next next_chunk() delivers from
  std::size_t async_completions_ = 0;
  Slot slots_[2];
};

}  // namespace psc::store
