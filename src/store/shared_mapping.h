// Refcounted read-only bytes of one PSTR file, shared across readers.
//
// SharedMapping is the one owner of mapped file bytes in the store:
// every mapped TraceFileReader reads through one. A reader opened by
// path maps its own (map()); the bus daemon serves many concurrent jobs
// over one dataset, so it opens the file once (open()) and builds each
// job's (and each shard's) reader over the same bytes: one mapping, one
// page-cache working set, any number of single-threaded readers on top.
// The handle is handed around as shared_ptr<const SharedMapping>; the
// bytes unmap when the last reader and the registry drop it.
//
// On platforms without mmap (or under PSC_NO_MMAP) open() loads the whole
// file into one heap buffer instead — still a single shared copy, so the
// sharing contract survives the fallback; out-of-core streaming is lost,
// which matches what a no-mmap platform could do anyway. map() never
// heap-loads: it returns null there, and a path-opened reader falls back
// to streaming one chunk at a time.
//
// The bytes are immutable after open(), so concurrent readers need no
// locking on the mapping itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace psc::store {

class SharedMapping {
 public:
  // Opens `path` and maps (or loads) its current contents. Throws
  // StoreError when the file cannot be opened, mapped or read.
  static std::shared_ptr<const SharedMapping> open(const std::string& path);
  // Maps `path` read-only, or returns null where open() would heap-load
  // it: no mmap on this platform, PSC_NO_MMAP set, an empty or
  // unopenable file, or a failed mmap.
  static std::shared_ptr<const SharedMapping> map(const std::string& path);

  ~SharedMapping();

  SharedMapping(const SharedMapping&) = delete;
  SharedMapping& operator=(const SharedMapping&) = delete;

  const std::string& path() const noexcept { return path_; }
  const std::byte* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  // True when the bytes are an mmap of the file (zero-copy reads); false
  // for the heap-loaded fallback.
  bool mmap_backed() const noexcept { return mapped_; }
  // Process-unique id, assigned at open() and never reused. Caches keyed
  // by mapping cannot key on the pointer — a mapping closed and reopened
  // can land at the same address — so this is the stable dataset key for
  // anything that outlives an individual reader (store::ChunkCache).
  std::uint64_t id() const noexcept { return id_; }

 private:
  explicit SharedMapping(const std::string& path);

  std::string path_;
  std::uint64_t id_ = 0;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::vector<std::byte> heap_;  // fallback storage when not mapped
};

}  // namespace psc::store
