// PSTR round-trip tests: the on-disk store must reproduce the columnar
// TraceBatch bit-for-bit through both reader paths (mmap and buffered
// stream), across chunk boundaries, and stay out-of-core — resident
// reader memory is one chunk no matter how large the file is.
#include "store/trace_file_reader.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "store/trace_file_writer.h"
#include "util/rng.h"

namespace psc::store {
namespace {

core::TraceBatch random_batch(util::Xoshiro256& rng, std::size_t n,
                              std::size_t channels) {
  core::TraceBatch batch(channels);
  batch.resize(n);
  for (auto& pt : batch.plaintexts()) {
    rng.fill_bytes(pt);
  }
  for (auto& ct : batch.ciphertexts()) {
    rng.fill_bytes(ct);
  }
  for (std::size_t c = 0; c < channels; ++c) {
    for (auto& v : batch.column(c)) {
      v = rng.uniform(-10.0, 10.0);
    }
  }
  return batch;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void expect_batches_identical(const core::TraceBatch& a,
                              const core::TraceBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.channels(), b.channels());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.plaintexts()[i], b.plaintexts()[i]) << "row " << i;
    ASSERT_EQ(a.ciphertexts()[i], b.ciphertexts()[i]) << "row " << i;
  }
  for (std::size_t c = 0; c < a.channels(); ++c) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a.column(c)[i], b.column(c)[i]) << "col " << c << " row " << i;
    }
  }
}

const std::vector<util::FourCc> two_channels = {util::FourCc("PHPC"),
                                                util::FourCc("PMVC")};

TEST(PstrStore, RoundTripsBitExactAcrossChunkBoundaries) {
  const std::string path = temp_path("roundtrip.pstr");
  util::Xoshiro256 rng(1);
  const core::TraceBatch data = random_batch(rng, 180, 2);

  // chunk_capacity 64 and appends of 50/100/30: every chunk boundary
  // falls inside an appended batch, so the writer's internal slicing is
  // exercised in both directions.
  TraceFileWriter writer(path, {.channels = two_channels,
                                .chunk_capacity = 64,
                                .metadata = device_metadata("Test M2",
                                                            "14.0")});
  core::TraceBatch piece(2);
  for (const auto& [begin, count] :
       {std::pair<std::size_t, std::size_t>{0, 50}, {50, 100}, {150, 30}}) {
    piece.clear();
    piece.append(data, begin, count);
    writer.append(piece);
  }
  EXPECT_EQ(writer.trace_count(), 180u);
  writer.finalize();

  for (const ReaderMode mode : {ReaderMode::automatic, ReaderMode::stream}) {
    TraceFileReader reader(path, mode);
    EXPECT_EQ(reader.trace_count(), 180u);
    EXPECT_EQ(reader.chunk_count(), 3u);  // 64 + 64 + 52
    EXPECT_EQ(reader.chunk_rows(0), 64u);
    EXPECT_EQ(reader.chunk_rows(2), 52u);
    EXPECT_EQ(reader.channels(), two_channels);

    core::TraceBatch loaded(2);
    reader.read_rows(0, reader.trace_count(), loaded);
    expect_batches_identical(loaded, data);
  }
}

TEST(PstrStore, HeaderMetadataRoundTrips) {
  const std::string path = temp_path("metadata.pstr");
  util::Xoshiro256 rng(2);
  const Metadata metadata = {{"device", "MacBook Air M2"},
                             {"os", "macOS 13.0"},
                             {"victim", "user_space"},
                             {"empty", ""}};
  TraceFileWriter writer(
      path,
      {.channels = two_channels, .chunk_capacity = 16, .metadata = metadata});
  writer.append(random_batch(rng, 5, 2));
  writer.finalize();

  TraceFileReader reader(path);
  EXPECT_EQ(reader.metadata(), metadata);
  EXPECT_EQ(reader.chunk_capacity(), 16u);
}

TEST(PstrStore, EmptyStoreRoundTrips) {
  const std::string path = temp_path("empty.pstr");
  {
    TraceFileWriter writer(path, {.channels = two_channels});
    writer.finalize();
  }
  TraceFileReader reader(path);
  EXPECT_EQ(reader.trace_count(), 0u);
  EXPECT_EQ(reader.chunk_count(), 0u);
  core::TraceBatch batch(2);
  reader.read_rows(0, 0, batch);  // empty range is fine
  EXPECT_TRUE(batch.empty());
  EXPECT_THROW(reader.chunk_containing(0), std::out_of_range);
}

TEST(PstrStore, ArbitraryRowRangesSeekThroughTheIndex) {
  const std::string path = temp_path("seek.pstr");
  util::Xoshiro256 rng(3);
  const core::TraceBatch data = random_batch(rng, 333, 1);
  TraceFileWriter writer(path, {.channels = {util::FourCc("SYNT")},
                                .chunk_capacity = 32});
  writer.append(data);
  writer.finalize();

  TraceFileReader reader(path);
  // Ranges chosen to start/end mid-chunk and span several chunks.
  for (const auto& [begin, count] :
       {std::pair<std::size_t, std::size_t>{0, 1}, {31, 2}, {40, 100},
        {300, 33}, {0, 333}}) {
    core::TraceBatch expected(1);
    expected.append(data, begin, count);
    core::TraceBatch got(1);
    reader.read_rows(begin, count, got);
    expect_batches_identical(got, expected);
  }
  core::TraceBatch overflow(1);
  EXPECT_THROW(reader.read_rows(330, 10, overflow), std::out_of_range);
}

TEST(PstrStore, MappedReaderServesZeroCopyChunks) {
  // Covers the mapped path, which PSC_NO_MMAP turns off.
  ASSERT_EQ(::unsetenv("PSC_NO_MMAP"), 0);
  const std::string path = temp_path("zerocopy.pstr");
  util::Xoshiro256 rng(4);
  const core::TraceBatch data = random_batch(rng, 96, 2);
  TraceFileWriter writer(path,
                         {.channels = two_channels, .chunk_capacity = 64});
  writer.append(data);
  writer.finalize();

  TraceFileReader reader(path);
  ASSERT_TRUE(reader.mapped());
  const ChunkView view = reader.chunk(1);
  EXPECT_EQ(view.rows(), 32u);
  EXPECT_EQ(view.row_begin(), 64u);
  // Aligned mapped chunks never touch the scratch buffer.
  EXPECT_EQ(reader.resident_bytes(), 0u);
  for (std::size_t i = 0; i < view.rows(); ++i) {
    ASSERT_EQ(view.plaintexts()[i], data.plaintexts()[64 + i]);
    ASSERT_EQ(view.column(1)[i], data.column(1)[64 + i]);
  }
}

// The out-of-core guarantee: a stream-mode reader walking a file keeps
// only one chunk resident, so files larger than any configured batch
// pool replay without being loaded wholesale.
TEST(PstrStore, StreamReaderStaysOutOfCore) {
  const std::string path = temp_path("outofcore.pstr");
  util::Xoshiro256 rng(5);
  constexpr std::size_t chunk_rows = 128;
  constexpr std::size_t total_rows = 6400;
  {
    TraceFileWriter writer(
        path, {.channels = two_channels, .chunk_capacity = chunk_rows});
    core::TraceBatch batch(2);
    for (std::size_t produced = 0; produced < total_rows; produced += 400) {
      batch = random_batch(rng, 400, 2);
      writer.append(batch);
    }
    writer.finalize();
  }

  TraceFileReader reader(path, ReaderMode::stream);
  EXPECT_FALSE(reader.mapped());
  const std::size_t one_chunk = chunk_bytes(chunk_rows, 2);
  ASSERT_GT(reader.file_bytes(), 10 * one_chunk);

  core::TraceBatch batch(2);
  std::size_t seen = 0;
  while (seen < reader.trace_count()) {
    const std::size_t take = std::min<std::size_t>(100, total_rows - seen);
    batch.clear();
    reader.read_rows(seen, take, batch);
    ASSERT_EQ(batch.size(), take);
    // Never more than one chunk resident, however much has streamed by.
    ASSERT_LE(reader.resident_bytes(), one_chunk);
    seen += take;
  }
  EXPECT_EQ(seen, total_rows);
  EXPECT_LT(reader.resident_bytes(), reader.file_bytes() / 10);
}

TEST(PstrStore, StreamAndMmapReadsAreIdentical) {
  const std::string path = temp_path("modes.pstr");
  util::Xoshiro256 rng(6);
  const core::TraceBatch data = random_batch(rng, 250, 3);
  TraceFileWriter writer(
      path, {.channels = {util::FourCc("PHPC"), util::FourCc("PMVC"),
                          util::FourCc("PCPU")},
             .chunk_capacity = 77});
  writer.append(data);
  writer.finalize();

  TraceFileReader mapped(path, ReaderMode::automatic);
  TraceFileReader streamed(path, ReaderMode::stream);
  core::TraceBatch a(3);
  core::TraceBatch b(3);
  mapped.read_rows(13, 200, a);
  streamed.read_rows(13, 200, b);
  expect_batches_identical(a, b);
}

TEST(PstrStore, WriterRejectsMisuse) {
  EXPECT_THROW(TraceFileWriter("/tmp/x.pstr", {.channels = {}}), StoreError);
  EXPECT_THROW(
      TraceFileWriter("/tmp/x.pstr",
                      {.channels = two_channels, .chunk_capacity = 0}),
      StoreError);
  EXPECT_THROW(TraceFileWriter("/nonexistent-dir/x.pstr",
                               {.channels = two_channels}),
               StoreError);

  const std::string path = temp_path("misuse.pstr");
  TraceFileWriter writer(path, {.channels = two_channels});
  EXPECT_THROW(writer.append(core::TraceBatch(1)), StoreError);  // 1 != 2
  writer.finalize();
  writer.finalize();  // idempotent
  util::Xoshiro256 rng(7);
  EXPECT_THROW(writer.append(random_batch(rng, 1, 2)), StoreError);
}

}  // namespace
}  // namespace psc::store
