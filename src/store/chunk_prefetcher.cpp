#include "store/chunk_prefetcher.h"

#include <algorithm>

namespace psc::store {

ChunkPrefetcher::ChunkPrefetcher(TraceFileReader& reader, std::size_t begin,
                                 std::size_t end)
    : reader_(&reader),
      pool_(&core::WorkerPool::instance()),
      end_(std::min(end, reader.chunk_count())),
      next_issue_(begin) {
  if (next_issue_ < end_) {
    issue(slots_[0], next_issue_++);
  }
}

ChunkPrefetcher::~ChunkPrefetcher() {
  // At most one ticket is outstanding; finishing both is a no-op on the
  // empty one. This keeps the posted lambda's captures (this, the slot)
  // alive until the job has run.
  for (Slot& slot : slots_) {
    pool_->finish(slot.ticket);
  }
}

void ChunkPrefetcher::issue(Slot& slot, std::size_t chunk) {
  slot.pending = true;
  slot.error = nullptr;
  // The job must not throw across the pool boundary: decode errors are
  // parked in the slot and rethrown by next_chunk() on the caller.
  slot.ticket = pool_->post([this, &slot, chunk] {
    try {
      slot.view = reader_->read_chunk_into(chunk, slot.buf);
    } catch (...) {
      slot.error = std::current_exception();
    }
  });
}

std::optional<ChunkView> ChunkPrefetcher::next_chunk() {
  Slot& slot = slots_[cur_];
  if (slot.pending) {
    if (pool_->finish(slot.ticket)) {
      ++async_completions_;
    }
    slot.pending = false;
    // The reader is idle between the finish() above and this post, which
    // is the only window where issuing a new job is safe. A failed chunk
    // ends the range: nothing after it is decoded.
    if (slot.error == nullptr && next_issue_ < end_) {
      issue(slots_[cur_ ^ 1], next_issue_++);
    }
  } else if (slot.error == nullptr) {
    return std::nullopt;
  }
  if (slot.error != nullptr) {
    // The slot keeps its error, so every later call rethrows it instead
    // of reporting the range exhausted.
    std::rethrow_exception(slot.error);
  }
  cur_ ^= 1;
  return slot.view;
}

}  // namespace psc::store
