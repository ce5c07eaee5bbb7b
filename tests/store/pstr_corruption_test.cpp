// Robustness: a TraceFileReader pointed at a damaged PSTR file must fail
// with a clear StoreError — never undefined behavior, never a silent
// short read. Each test writes a real file, corrupts it byte-wise, and
// checks both the failure and (where it matters) the message.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <string>
#include <vector>

#include "store/file_trace_source.h"
#include "store/trace_file_reader.h"
#include "store/trace_file_writer.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace psc::store {
namespace {

constexpr std::size_t rows = 100;
constexpr std::size_t chunk_rows = 32;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// A small but multi-chunk valid file: 100 rows over 4 chunks, 2 channels.
std::string write_valid_file(const std::string& name) {
  const std::string path = temp_path(name);
  util::Xoshiro256 rng(1);
  core::TraceBatch batch(2);
  batch.resize(rows);
  for (auto& pt : batch.plaintexts()) {
    rng.fill_bytes(pt);
  }
  for (auto& ct : batch.ciphertexts()) {
    rng.fill_bytes(ct);
  }
  for (std::size_t c = 0; c < 2; ++c) {
    for (auto& v : batch.column(c)) {
      v = rng.uniform(-1.0, 1.0);
    }
  }
  TraceFileWriter writer(
      path, {.channels = {util::FourCc("PHPC"), util::FourCc("PMVC")},
             .chunk_capacity = chunk_rows});
  writer.append(batch);
  writer.finalize();
  return path;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void dump(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Expects opening (or fully reading) `path` to throw a StoreError whose
// message contains `needle`.
void expect_open_fails(const std::string& path, const std::string& needle,
                       ReaderMode mode = ReaderMode::automatic) {
  try {
    TraceFileReader reader(path, mode);
    core::TraceBatch batch(reader.channels().size());
    reader.read_rows(0, reader.trace_count(), batch);
    FAIL() << "expected StoreError containing \"" << needle << "\"";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(PstrCorruption, MissingFile) {
  expect_open_fails(temp_path("does_not_exist.pstr"), "cannot open");
}

TEST(PstrCorruption, FileShorterThanMagic) {
  const std::string path = write_valid_file("tiny.pstr");
  dump(path, {'P', 'S'});
  expect_open_fails(path, "truncated");
}

TEST(PstrCorruption, BadMagic) {
  const std::string path = write_valid_file("magic.pstr");
  auto bytes = slurp(path);
  bytes[0] = 'X';
  dump(path, bytes);
  expect_open_fails(path, "bad magic");
}

TEST(PstrCorruption, VersionMismatch) {
  const std::string path = write_valid_file("version.pstr");
  auto bytes = slurp(path);
  bytes[4] = 3;  // version field (little-endian u16 at offset 4)
  dump(path, bytes);
  expect_open_fails(path, "unsupported format version 3");
}

TEST(PstrCorruption, TruncatedTail) {
  const std::string path = write_valid_file("tail.pstr");
  auto bytes = slurp(path);
  // Any truncation destroys the fixed-size footer at EOF, so every
  // partial copy/crash mid-download is caught up front.
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() - 100, bytes.size() / 2,
        std::size_t{64}}) {
    std::vector<char> cut(bytes.begin(),
                          bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    dump(path, cut);
    expect_open_fails(path, "footer");
  }
}

// A valid file whose chunk 1 carries one flipped payload bit.
std::string write_flipped_chunk1_file(const std::string& name) {
  const std::string path = write_valid_file(name);
  auto bytes = slurp(path);
  // Chunks are contiguous after the header; find chunk 1's header by
  // scanning for the second "CHNK", then flip one payload bit.
  std::size_t victim_offset = bytes.size();
  std::size_t seen = 0;
  for (std::size_t i = 0; i + 4 <= bytes.size(); ++i) {
    if (bytes[i] == 'C' && bytes[i + 1] == 'H' && bytes[i + 2] == 'N' &&
        bytes[i + 3] == 'K' && ++seen == 2) {
      victim_offset = i + chunk_header_bytes + 40;  // inside the payload
      break;
    }
  }
  EXPECT_LT(victim_offset, bytes.size());
  bytes.at(victim_offset) = static_cast<char>(bytes[victim_offset] ^ 0x10);
  dump(path, bytes);
  return path;
}

// Runs `read` and expects a StoreError naming a CRC mismatch.
template <typename Read>
void expect_crc_mismatch(Read&& read) {
  try {
    read();
    FAIL() << "expected CRC mismatch";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(PstrCorruption, ChunkPayloadBitFlip) {
  for (const ReaderMode mode : {ReaderMode::automatic, ReaderMode::stream}) {
    const std::string path = write_flipped_chunk1_file("payload.pstr");
    TraceFileReader reader(path, mode);
    core::TraceBatch batch(2);
    // Chunk 0 is intact and reads fine...
    reader.read_rows(0, chunk_rows, batch);
    EXPECT_EQ(batch.size(), chunk_rows);
    // ...but touching the flipped chunk is a loud CRC error, not a wrong
    // correlation.
    batch.clear();
    expect_crc_mismatch([&] { reader.read_rows(chunk_rows, chunk_rows, batch); });
  }
}

// Replay must stay loud when the caller retries past a corrupt chunk:
// every read that reaches it rethrows the chunk's StoreError, never a
// different error or a silently shortened replay.
TEST(PstrCorruption, CorruptChunkStaysLoudOnReplayRetry) {
  for (const ReaderMode mode : {ReaderMode::automatic, ReaderMode::stream}) {
    const std::string path = write_flipped_chunk1_file("payload_retry.pstr");
    FileTraceSource source(path, mode);
    core::TraceBatch batch(2);
    batch.resize(chunk_rows);
    source.collect_batch(batch);  // chunk 0 is intact
    for (int attempt = 0; attempt < 3; ++attempt) {
      SCOPED_TRACE("attempt " + std::to_string(attempt));
      batch.resize(chunk_rows);
      expect_crc_mismatch([&] { source.collect_batch(batch); });
      expect_crc_mismatch([&] { source.collect(aes::Block{}); });
    }
  }
}

// chunk() remembers the last chunk it served. A throwing chunk(i) must
// leave no memo behind: not for i (the retry must throw again) and not
// for the chunk before it, whose buffer the failed read overwrote.
TEST(PstrCorruption, ChunkMemoNeverServesStaleBytes) {
  for (const ReaderMode mode : {ReaderMode::automatic, ReaderMode::stream}) {
    const std::string path = write_flipped_chunk1_file("payload_memo.pstr");
    TraceFileReader reference(path, mode);
    core::TraceBatch expected(2);
    reference.chunk(0).append_to(expected);

    TraceFileReader reader(path, mode);
    const auto expect_chunk0 = [&] {
      core::TraceBatch got(2);
      reader.chunk(0).append_to(got);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got.plaintexts()[r], expected.plaintexts()[r]) << r;
        for (std::size_t c = 0; c < 2; ++c) {
          ASSERT_EQ(got.column(c)[r], expected.column(c)[r]) << r;
        }
      }
    };
    expect_chunk0();
    expect_crc_mismatch([&] { reader.chunk(1); });
    expect_crc_mismatch([&] { reader.chunk(1); });
    expect_chunk0();
    reader.chunk(2);
    expect_chunk0();
  }
}

TEST(PstrCorruption, ChunkIndexBitFlip) {
  const std::string path = write_valid_file("index.pstr");
  auto bytes = slurp(path);
  // The index entries end 8 bytes before the index CRC, which sits just
  // ahead of the 32-byte footer: flip a byte inside the last entry.
  bytes[bytes.size() - footer_bytes - 16] =
      static_cast<char>(bytes[bytes.size() - footer_bytes - 16] ^ 0x01);
  dump(path, bytes);
  expect_open_fails(path, "chunk index");
}

TEST(PstrCorruption, FooterBitFlip) {
  const std::string path = write_valid_file("footer.pstr");
  auto bytes = slurp(path);
  bytes[bytes.size() - 20] =
      static_cast<char>(bytes[bytes.size() - 20] ^ 0x80);  // trace_count
  dump(path, bytes);
  expect_open_fails(path, "footer");
}

// CRC32 is integrity, not authentication: a crafted file can carry
// self-consistent CRCs, so the structural bounds checks themselves must
// reject hostile values instead of wrapping. These tests re-sign the
// corruption with a valid CRC before reopening.

TEST(PstrCorruption, CraftedHugeChunkOffsetWithValidIndexCrc) {
  const std::string path = write_valid_file("crafted_offset.pstr");
  auto bytes = slurp(path);
  std::byte* data = reinterpret_cast<std::byte*>(bytes.data());
  const std::byte* footer = data + bytes.size() - footer_bytes;
  const std::uint64_t index_offset = get_u64(footer);
  const std::uint64_t chunks = get_u64(footer + 16);
  // Entry 0's offset would wrap any additive chunk-extent check and send
  // a mapped reader far outside the mapping.
  std::byte* entries = data + index_offset + 16;
  put_u64(entries, 0xfffffffffffff000ull);
  const std::size_t entries_size = chunks * index_entry_bytes;
  put_u32(entries + entries_size, util::crc32(entries, entries_size));
  dump(path, bytes);
  for (const ReaderMode mode : {ReaderMode::automatic, ReaderMode::stream}) {
    expect_open_fails(path, "chunk index", mode);
  }
}

TEST(PstrCorruption, CraftedHugeChunkCountWithValidFooterCrc) {
  const std::string path = write_valid_file("crafted_count.pstr");
  auto bytes = slurp(path);
  std::byte* footer =
      reinterpret_cast<std::byte*>(bytes.data()) + bytes.size() - footer_bytes;
  // chunk_count chosen so chunks * index_entry_bytes wraps to a small
  // value; must fail loudly, not std::bad_alloc out of reserve().
  put_u64(footer + 16, 0x4000000000000000ull);
  put_u32(footer + 24, util::crc32(footer, 24));
  dump(path, bytes);
  expect_open_fails(path, "corrupt footer");
}

TEST(PstrCorruption, HeaderChannelListOutOfBounds) {
  const std::string path = write_valid_file("channels.pstr");
  auto bytes = slurp(path);
  bytes[16] = static_cast<char>(0xff);  // channel_count low byte: 255
  dump(path, bytes);
  expect_open_fails(path, "corrupt header");
}

}  // namespace
}  // namespace psc::store
