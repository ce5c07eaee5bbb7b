// PSTR v2: compressed chunk codecs end-to-end through the store layer.
// Round trips must be bit-exact in both reader modes, corruption inside
// a *compressed* column block must be a loud StoreError (the CRC covers
// the decoded payload, so codecs cannot weaken integrity), and a CPA
// campaign replayed from a v2 file — through the prefetching source —
// must match the live recording bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/analysis_sink.h"
#include "core/trace_source.h"
#include "store/file_trace_source.h"
#include "store/shared_mapping.h"
#include "store/trace_file_reader.h"
#include "store/trace_file_writer.h"
#include "util/rng.h"

namespace psc::store {
namespace {

constexpr std::size_t rows = 600;
constexpr std::size_t chunk_rows = 128;
constexpr std::size_t n_channels = 3;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// A batch shaped like a real capture: random AES blocks and channel
// columns on quantized float32-truncated sensor grids — exactly what
// victim/fast_trace.cpp records, and what delta_bitpack compresses.
core::TraceBatch quantized_batch(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  core::TraceBatch batch(n_channels);
  batch.resize(rows);
  for (auto& pt : batch.plaintexts()) {
    rng.fill_bytes(pt);
  }
  for (auto& ct : batch.ciphertexts()) {
    rng.fill_bytes(ct);
  }
  const double steps[n_channels] = {1e-6, 1e-3, 0.01};
  for (std::size_t c = 0; c < n_channels; ++c) {
    double level = 4.0;
    for (auto& v : batch.column(c)) {
      level += rng.gaussian(0.0, 50 * steps[c]);
      v = static_cast<double>(
          static_cast<float>(std::round(level / steps[c]) * steps[c]));
    }
  }
  return batch;
}

std::string write_v2_file(const std::string& name,
                          const core::TraceBatch& batch) {
  const std::string path = temp_path(name);
  TraceFileWriter writer(
      path,
      {.channels = {util::FourCc("PHPC"), util::FourCc("PMVC"),
                    util::FourCc("PSTR")},
       .chunk_capacity = chunk_rows,
       .channel_codecs =
           uniform_channel_codecs(n_channels, ColumnCodec::delta_bitpack)});
  EXPECT_EQ(writer.format_version(), format_version_v2);
  writer.append(batch);
  writer.finalize();
  return path;
}

void expect_batches_bit_identical(const core::TraceBatch& a,
                                  const core::TraceBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.channels(), b.channels());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.plaintexts()[i], b.plaintexts()[i]) << "row " << i;
    ASSERT_EQ(a.ciphertexts()[i], b.ciphertexts()[i]) << "row " << i;
  }
  for (std::size_t c = 0; c < a.channels(); ++c) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.column(c)[i]),
                std::bit_cast<std::uint64_t>(b.column(c)[i]))
          << "channel " << c << " row " << i;
    }
  }
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void dump(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Offset of chunk 0's header: the first "CHNK" after the file header.
std::size_t first_chunk_offset(const std::vector<char>& bytes) {
  for (std::size_t i = 0; i + 4 <= bytes.size(); ++i) {
    if (bytes[i] == 'C' && bytes[i + 1] == 'H' && bytes[i + 2] == 'N' &&
        bytes[i + 3] == 'K') {
      return i;
    }
  }
  ADD_FAILURE() << "no CHNK magic found";
  return bytes.size();
}

// Directory entry of column `col` in chunk 0 (u32 codec, u32 reserved,
// u64 raw_bytes, u64 stored_bytes).
std::byte* dir_entry(std::vector<char>& bytes, std::size_t col) {
  const std::size_t chunk = first_chunk_offset(bytes);
  return reinterpret_cast<std::byte*>(bytes.data()) + chunk +
         chunk_header_bytes + col * column_entry_bytes;
}

// File offset of the first byte of column `col`'s block in chunk 0.
std::size_t column_block_offset(std::vector<char>& bytes, std::size_t col) {
  const std::size_t chunk = first_chunk_offset(bytes);
  std::size_t off = chunk + chunk_header_bytes +
                    chunk_column_count(n_channels) * column_entry_bytes;
  for (std::size_t c = 0; c < col; ++c) {
    off += pad8(get_u64(dir_entry(bytes, c) + 16));  // stored_bytes
  }
  return off;
}

void expect_chunk0_fails(const std::string& path, const std::string& needle,
                         ReaderMode mode) {
  try {
    TraceFileReader reader(path, mode);
    core::TraceBatch batch(reader.channels().size());
    reader.read_rows(0, chunk_rows, batch);
    FAIL() << "expected StoreError containing \"" << needle << "\"";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(PstrV2, RoundTripsBitExactInBothReaderModes) {
  const core::TraceBatch original = quantized_batch(3);
  const std::string path = write_v2_file("v2_roundtrip.pstr", original);

  for (const ReaderMode mode : {ReaderMode::automatic, ReaderMode::stream}) {
    TraceFileReader reader(path, mode);
    EXPECT_EQ(reader.format_version(), format_version_v2);
    ASSERT_EQ(reader.trace_count(), rows);
    core::TraceBatch loaded(n_channels);
    reader.read_rows(0, rows, loaded);
    expect_batches_bit_identical(loaded, original);
  }
}

TEST(PstrV2, CompressionEngagesAndShrinksChannelColumns) {
  const core::TraceBatch original = quantized_batch(5);
  const std::string path = temp_path("v2_shrink.pstr");
  TraceFileWriter writer(
      path,
      {.channels = {util::FourCc("PHPC"), util::FourCc("PMVC"),
                    util::FourCc("PSTR")},
       .chunk_capacity = chunk_rows,
       .channel_codecs =
           uniform_channel_codecs(n_channels, ColumnCodec::delta_bitpack)});
  writer.append(original);
  writer.finalize();
  EXPECT_EQ(writer.channel_raw_bytes(), rows * n_channels * 8);
  // Narrow quantized walks pack well below half the raw doubles.
  EXPECT_LT(writer.channel_stored_bytes() * 2, writer.channel_raw_bytes());

  // And the v2 file is genuinely smaller than the same data as v1.
  const std::string v1_path = temp_path("v2_shrink_ref_v1.pstr");
  TraceFileWriter v1_writer(
      v1_path, {.channels = writer.channels(), .chunk_capacity = chunk_rows});
  v1_writer.append(original);
  v1_writer.finalize();
  EXPECT_LT(TraceFileReader(path).file_bytes(),
            TraceFileReader(v1_path).file_bytes());
}

TEST(PstrV2, UnquantizedDataFallsBackToIdentityAndRoundTrips) {
  util::Xoshiro256 rng(7);
  core::TraceBatch batch(n_channels);
  batch.resize(rows);
  for (auto& pt : batch.plaintexts()) {
    rng.fill_bytes(pt);
  }
  for (auto& ct : batch.ciphertexts()) {
    rng.fill_bytes(ct);
  }
  for (std::size_t c = 0; c < n_channels; ++c) {
    for (auto& v : batch.column(c)) {
      v = rng.gaussian(0.0, 1.0);  // off-grid: the codec must refuse
    }
  }

  const std::string path = temp_path("v2_identity.pstr");
  TraceFileWriter writer(
      path,
      {.channels = {util::FourCc("PHPC"), util::FourCc("PMVC"),
                    util::FourCc("PSTR")},
       .chunk_capacity = chunk_rows,
       .channel_codecs =
           uniform_channel_codecs(n_channels, ColumnCodec::delta_bitpack)});
  writer.append(batch);
  writer.finalize();
  EXPECT_EQ(writer.channel_stored_bytes(), writer.channel_raw_bytes());

  for (const ReaderMode mode : {ReaderMode::automatic, ReaderMode::stream}) {
    TraceFileReader reader(path, mode);
    core::TraceBatch loaded(n_channels);
    reader.read_rows(0, rows, loaded);
    expect_batches_bit_identical(loaded, batch);
  }
}

TEST(PstrV2, BitFlipInCompressedBlockHeaderIsLoudError) {
  for (const ReaderMode mode : {ReaderMode::automatic, ReaderMode::stream}) {
    const std::string path =
        write_v2_file("v2_flip_header.pstr", quantized_batch(11));
    auto bytes = slurp(path);
    // Channel 0 (column 2) must actually be compressed, or the test
    // would pass vacuously against an identity block.
    ASSERT_EQ(get_u32(dir_entry(bytes, 2)),
              static_cast<std::uint32_t>(ColumnCodec::delta_bitpack));
    // Corrupt the encoded block's count field: decode fails structurally.
    const std::size_t off = column_block_offset(bytes, 2);
    bytes[off] = static_cast<char>(bytes[off] ^ 0x01);
    dump(path, bytes);
    expect_chunk0_fails(path, "corrupt compressed block", mode);
  }
}

TEST(PstrV2, BitFlipInPackedDeltasFailsDecodedPayloadCrc) {
  for (const ReaderMode mode : {ReaderMode::automatic, ReaderMode::stream}) {
    const std::string path =
        write_v2_file("v2_flip_payload.pstr", quantized_batch(13));
    auto bytes = slurp(path);
    ASSERT_EQ(get_u32(dir_entry(bytes, 2)),
              static_cast<std::uint32_t>(ColumnCodec::delta_bitpack));
    // Flip a packed delta bit past the 24-byte codec header: the block
    // stays structurally valid and decodes — to different values, which
    // the CRC over the *decoded* payload must catch.
    ASSERT_GT(get_u64(dir_entry(bytes, 2) + 16), std::uint64_t{24});
    const std::size_t off = column_block_offset(bytes, 2) + 24;
    bytes[off] = static_cast<char>(bytes[off] ^ 0x10);
    dump(path, bytes);
    expect_chunk0_fails(path, "payload CRC mismatch", mode);
  }
}

TEST(PstrV2, DirectoryCorruptionIsLoudError) {
  // Unknown codec id.
  {
    const std::string path =
        write_v2_file("v2_bad_codec.pstr", quantized_batch(17));
    auto bytes = slurp(path);
    put_u32(dir_entry(bytes, 2), 7);
    dump(path, bytes);
    for (const ReaderMode mode :
         {ReaderMode::automatic, ReaderMode::stream}) {
      expect_chunk0_fails(path, "unknown codec 7", mode);
    }
  }
  // stored_bytes beyond the chunk's byte budget.
  {
    const std::string path =
        write_v2_file("v2_bad_size.pstr", quantized_batch(19));
    auto bytes = slurp(path);
    put_u64(dir_entry(bytes, 2) + 16, 0xfffffffffffff000ull);
    dump(path, bytes);
    for (const ReaderMode mode :
         {ReaderMode::automatic, ReaderMode::stream}) {
      expect_chunk0_fails(path, "corrupt chunk 0", mode);
    }
  }
}

TEST(PstrV2, PrefetchedReplayMatchesReadRowsInBothReaderModes) {
  // Covers the mapped path, which PSC_NO_MMAP turns off.
  ASSERT_EQ(::unsetenv("PSC_NO_MMAP"), 0);
  const core::TraceBatch original = quantized_batch(23);
  const std::string path = write_v2_file("v2_prefetch.pstr", original);

  for (const ReaderMode mode : {ReaderMode::automatic, ReaderMode::stream}) {
    core::TraceBatch read(n_channels);
    TraceFileReader(path, mode).read_rows(0, rows, read);

    FileTraceSource source(path, mode);
    EXPECT_EQ(source.reader().mapped(), mode == ReaderMode::automatic);
    core::TraceBatch replayed(n_channels);
    replayed.resize(rows);
    source.collect_batch(replayed);

    expect_batches_bit_identical(replayed, read);
    expect_batches_bit_identical(replayed, original);
  }
}

TEST(PstrV2, NoMmapEnvForcesStreamFallback) {
  const core::TraceBatch original = quantized_batch(29);
  const std::string path = write_v2_file("v2_no_mmap.pstr", original);

  ASSERT_EQ(::setenv("PSC_NO_MMAP", "1", 1), 0);
  {
    // automatic now takes the buffered-fread path...
    TraceFileReader reader(path);
    EXPECT_FALSE(reader.mapped());
    core::TraceBatch loaded(n_channels);
    reader.read_rows(0, rows, loaded);
    expect_batches_bit_identical(loaded, original);

    // ...and the full replay source (prefetch included) works on it.
    FileTraceSource source(path);
    EXPECT_FALSE(source.reader().mapped());
    core::TraceBatch replayed(n_channels);
    replayed.resize(rows);
    source.collect_batch(replayed);
    expect_batches_bit_identical(replayed, original);

    // The map-only factory refuses as well, while a SharedMapping still
    // opens as one heap-loaded copy.
    EXPECT_EQ(SharedMapping::map(path), nullptr);
    const auto heap = SharedMapping::open(path);
    EXPECT_FALSE(heap->mmap_backed());
    EXPECT_TRUE(TraceFileReader(heap).mapped());
  }
  ASSERT_EQ(::unsetenv("PSC_NO_MMAP"), 0);
  EXPECT_TRUE(TraceFileReader(path).mapped());
  const auto mapped = SharedMapping::map(path);
  ASSERT_NE(mapped, nullptr);
  EXPECT_TRUE(mapped->mmap_backed());
}

void expect_results_identical(const core::ModelResult& a,
                              const core::ModelResult& b) {
  EXPECT_EQ(a.true_ranks, b.true_ranks);
  EXPECT_EQ(a.best_round_key, b.best_round_key);
  ASSERT_EQ(a.ge_bits, b.ge_bits);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t g = 0; g < 256; ++g) {
      ASSERT_EQ(a.bytes[i].correlation[g], b.bytes[i].correlation[g])
          << "byte " << i << " guess " << g;
    }
  }
}

// The v2 acceptance test: a live campaign teed to a *compressed*
// recording replays bit-identically through the prefetching source, in
// both reader modes. Compression and async decode change bytes on disk
// and the schedule — never a single analyzed bit.
TEST(PstrV2, ReplayedCpaFromV2FileBitIdenticalToLiveRecording) {
  const std::string path = temp_path("v2_recorded_campaign.pstr");
  const std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw};
  const core::LiveSourceConfig live_config{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .victim = victim::VictimModel::user_space(),
  };

  util::Xoshiro256 rng(47);
  aes::Block victim_key;
  rng.fill_bytes(victim_key);
  const auto round_keys = aes::Aes128::expand_key(victim_key);

  core::LiveTraceSource source(live_config, victim_key, 7);
  const auto& channels = source.keys();
  const std::size_t column = static_cast<std::size_t>(
      std::find(channels.begin(), channels.end(), util::FourCc("PHPC")) -
      channels.begin());
  ASSERT_LT(column, channels.size());

  constexpr std::size_t total = 2000;
  core::ModelResult live_result;
  std::uint64_t stored_bytes = 0;
  std::uint64_t raw_bytes = 0;
  {
    TraceFileWriter writer(
        path,
        {.channels = channels,
         .chunk_capacity = 256,
         .metadata = device_metadata(live_config.profile.name,
                                     live_config.profile.os_version),
         .channel_codecs = uniform_channel_codecs(
             channels.size(), ColumnCodec::delta_bitpack)});
    core::CpaSink cpa(models, {column});
    RecordingSink recorder(writer);
    core::MultiSink multi({&cpa, &recorder});

    core::TraceBatch batch(channels.size());
    std::size_t produced = 0;
    while (produced < total) {
      const std::size_t chunk = std::min<std::size_t>(170, total - produced);
      core::collect_random_batch(source, chunk, rng, batch);
      multi.consume(batch, core::BatchLabel::unlabeled());
      produced += chunk;
    }
    writer.finalize();
    stored_bytes = writer.channel_stored_bytes();
    raw_bytes = writer.channel_raw_bytes();
    live_result = cpa.engine(0).analyze(models[0], round_keys);
  }
  // Real recorded sensor grids must compress — this guards the codec
  // against drifting away from what the measurement path emits.
  EXPECT_LT(stored_bytes * 2, raw_bytes);

  for (const ReaderMode mode : {ReaderMode::automatic, ReaderMode::stream}) {
    FileTraceSource replay(path, mode);
    EXPECT_EQ(replay.reader().format_version(), format_version_v2);
    ASSERT_EQ(replay.remaining(), total);
    util::Xoshiro256 unused_rng(0);  // replay returns recorded plaintexts
    const core::CpaEngine engine = core::accumulate_cpa(
        replay, util::FourCc("PHPC"), models, /*count=*/0, unused_rng);
    expect_results_identical(engine.analyze(models[0], round_keys),
                             live_result);
  }
}

}  // namespace
}  // namespace psc::store
