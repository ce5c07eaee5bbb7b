#include "store/shared_mapping.h"

#include <atomic>
#include <fstream>

#include "store/pstr_format.h"
#include "util/env.h"

#if defined(__unix__) || defined(__APPLE__)
#define PSC_SHARED_MAPPING_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define PSC_SHARED_MAPPING_HAS_MMAP 0
#endif

namespace psc::store {

SharedMapping::SharedMapping(const std::string& path) : path_(path) {
  static std::atomic<std::uint64_t> next_id{1};
  id_ = next_id.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const SharedMapping> SharedMapping::map(
    const std::string& path) {
#if PSC_SHARED_MAPPING_HAS_MMAP
  if (util::env_flag("PSC_NO_MMAP")) {
    return nullptr;
  }
  // Built first so nothing can throw between open/mmap and the close or
  // the destructor's munmap. The constructor is private, so make_shared
  // cannot reach it.
  std::shared_ptr<SharedMapping> mapping(new SharedMapping(path));
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return nullptr;
  }
  struct stat st {};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    void* map = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                       PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      mapping->data_ = static_cast<const std::byte*>(map);
      mapping->size_ = static_cast<std::size_t>(st.st_size);
      mapping->mapped_ = true;
    }
  }
  ::close(fd);
  return mapping->mapped_ ? mapping : nullptr;
#else
  (void)path;
  return nullptr;
#endif
}

std::shared_ptr<const SharedMapping> SharedMapping::open(
    const std::string& path) {
  if (std::shared_ptr<const SharedMapping> mapped = map(path)) {
    return mapped;
  }
  // Heap fallback: one shared copy of the file.
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw StoreError("PSTR " + path + ": cannot open file");
  }
  in.seekg(0, std::ios::end);
  const std::size_t size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::shared_ptr<SharedMapping> mapping(new SharedMapping(path));
  mapping->size_ = size;
  mapping->heap_.resize(size);
  if (size > 0) {
    in.read(reinterpret_cast<char*>(mapping->heap_.data()),
            static_cast<std::streamsize>(size));
    if (in.gcount() != static_cast<std::streamsize>(size)) {
      throw StoreError("PSTR " + path + ": short read loading file");
    }
  }
  mapping->data_ = mapping->heap_.data();
  return mapping;
}

SharedMapping::~SharedMapping() {
#if PSC_SHARED_MAPPING_HAS_MMAP
  if (mapped_) {
    ::munmap(const_cast<std::byte*>(data_), size_);
  }
#endif
}

}  // namespace psc::store
