// Wire-protocol unit tests: every message round-trips exactly (doubles
// bit-for-bit — the daemon's bit-identity contract crosses the wire),
// every malformed payload is a loud ProtocolError, and the framing layer
// rejects each class of broken frame (bad magic, wrong version, corrupt
// CRC, oversized declared length, truncation) without UB.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "bus/framing.h"
#include "bus/protocol.h"
#include "store/pstr_format.h"
#include "util/crc32.h"

namespace psc::bus {
namespace {

TEST(Payload, ScalarsAndStringsRoundTrip) {
  PayloadWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.f64(std::numeric_limits<double>::denorm_min());
  w.str("hello bus");
  w.str("");
  const std::uint8_t blob[3] = {1, 2, 3};
  w.block(blob, sizeof(blob));

  PayloadReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefU);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  // Bit-pattern equality: -0.0 and NaN must survive exactly.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(
                std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(r.str(), "hello bus");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.block(), std::vector<std::uint8_t>({1, 2, 3}));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Payload, UnderrunAndTrailingBytesThrow) {
  PayloadWriter w;
  w.u32(7);
  {
    PayloadReader r(w.bytes());
    r.u16();
    r.u16();
    EXPECT_THROW(r.u8(), ProtocolError);  // past the end
  }
  {
    PayloadReader r(w.bytes());
    EXPECT_THROW(r.u64(), ProtocolError);  // wider than the payload
  }
  {
    PayloadReader r(w.bytes());
    r.u16();
    EXPECT_THROW(r.expect_end(), ProtocolError);  // trailing bytes
  }
  // A declared string length larger than the remaining payload must not
  // be trusted.
  PayloadWriter lying;
  lying.u32(1000);
  PayloadReader r(lying.bytes());
  EXPECT_THROW(r.str(), ProtocolError);
}

template <typename Msg>
Msg reencode(const Msg& msg) {
  PayloadWriter w;
  msg.encode(w);
  PayloadReader r(w.bytes());
  Msg out = Msg::decode(r);
  EXPECT_EQ(r.remaining(), 0u);
  return out;
}

TEST(Messages, ErrorStatusProgressRoundTrip) {
  const ErrorMsg err = reencode(ErrorMsg{ErrorCode::quota_exceeded, "full"});
  EXPECT_EQ(err.code, ErrorCode::quota_exceeded);
  EXPECT_EQ(err.message, "full");

  JobStatusMsg status;
  status.id = 42;
  status.state = JobState::failed;
  status.consumed = 100;
  status.total = 400;
  status.error = "boom";
  const JobStatusMsg s2 = reencode(status);
  EXPECT_EQ(s2.id, 42u);
  EXPECT_EQ(s2.state, JobState::failed);
  EXPECT_EQ(s2.consumed, 100u);
  EXPECT_EQ(s2.total, 400u);
  EXPECT_EQ(s2.error, "boom");

  const ProgressMsg p = reencode(ProgressMsg{7, 10, 20, 3});
  EXPECT_EQ(p.id, 7u);
  EXPECT_EQ(p.consumed, 10u);
  EXPECT_EQ(p.total, 20u);
  EXPECT_EQ(p.running_shards, 3u);

  const JobIdMsg id = reencode(JobIdMsg{99});
  EXPECT_EQ(id.id, 99u);
}

TEST(Messages, StatusCarriesRunningShards) {
  JobStatusMsg status;
  status.id = 8;
  status.state = JobState::running;
  status.consumed = 512;
  status.total = 4096;
  status.running_shards = 4;
  const JobStatusMsg out = reencode(status);
  EXPECT_EQ(out.running_shards, 4u);
}

TEST(Messages, StatsRoundTrip) {
  StatsMsg msg;
  msg.cache_hits = 1000;
  msg.cache_misses = 42;
  msg.cache_evictions = 7;
  msg.cache_resident_bytes = 123456789;
  msg.cache_capacity_bytes = 268435456;
  msg.cache_entries = 32;
  msg.jobs_submitted = 17;
  msg.jobs_active = 2;
  msg.pool_threads = 8;
  msg.jobs = {{1, JobState::running, 16, 2, 2, 4},
              {5, JobState::queued, 0, 0, 0, 0}};

  const StatsMsg out = reencode(msg);
  EXPECT_EQ(out.cache_hits, 1000u);
  EXPECT_EQ(out.cache_misses, 42u);
  EXPECT_EQ(out.cache_evictions, 7u);
  EXPECT_EQ(out.cache_resident_bytes, 123456789u);
  EXPECT_EQ(out.cache_capacity_bytes, 268435456u);
  EXPECT_EQ(out.cache_entries, 32u);
  EXPECT_EQ(out.jobs_submitted, 17u);
  EXPECT_EQ(out.jobs_active, 2u);
  EXPECT_EQ(out.pool_threads, 8u);
  ASSERT_EQ(out.jobs.size(), 2u);
  EXPECT_EQ(out.jobs[0].id, 1u);
  EXPECT_EQ(out.jobs[0].state, JobState::running);
  EXPECT_EQ(out.jobs[0].shards, 16u);
  EXPECT_EQ(out.jobs[0].shard_cap, 2u);
  EXPECT_EQ(out.jobs[0].running_shards, 2u);
  EXPECT_EQ(out.jobs[0].peak_shards, 4u);
  EXPECT_EQ(out.jobs[1].id, 5u);
  EXPECT_EQ(out.jobs[1].state, JobState::queued);

  // A bad job state on the wire is rejected.
  PayloadWriter w;
  msg.encode(w);
  std::vector<std::byte> bytes(w.bytes().begin(), w.bytes().end());
  // The first row's state byte sits after 8 u64 counters + u32 + u32 +
  // the row's u64 id.
  const std::size_t state_at = 8 * 8 + 4 + 4 + 8;
  ASSERT_LT(state_at, bytes.size());
  bytes[state_at] = std::byte{99};
  PayloadReader r(bytes);
  EXPECT_THROW(StatsMsg::decode(r), ProtocolError);
}

TEST(Messages, SubmitCpaRoundTrip) {
  SubmitCpaMsg msg;
  msg.dataset = "bench";
  msg.spec.channel = 0x50485043;  // "PHPC"
  for (std::size_t i = 0; i < 16; ++i) {
    msg.spec.known_key[i] = static_cast<std::uint8_t>(i * 13);
  }
  msg.spec.models = {power::PowerModel::rd0_hw, power::PowerModel::rd10_hd};
  msg.spec.trace_count = 123456;
  msg.spec.shards = 4;

  const SubmitCpaMsg out = reencode(msg);
  EXPECT_EQ(out.dataset, "bench");
  EXPECT_EQ(out.spec.channel, msg.spec.channel);
  EXPECT_EQ(out.spec.known_key, msg.spec.known_key);
  EXPECT_EQ(out.spec.models, msg.spec.models);
  EXPECT_EQ(out.spec.trace_count, 123456u);
  EXPECT_EQ(out.spec.shards, 4u);

  const SubmitTvlaMsg tvla =
      reencode(SubmitTvlaMsg{"bench", TvlaJobSpec{5000, 2}});
  EXPECT_EQ(tvla.dataset, "bench");
  EXPECT_EQ(tvla.spec.traces_per_set, 5000u);
  EXPECT_EQ(tvla.spec.shards, 2u);
}

TEST(Messages, DatasetListRoundTrip) {
  DatasetListMsg msg;
  DatasetListMsg::Entry entry;
  entry.name = "sample";
  entry.summary.path = "/tmp/sample.pstr";
  entry.summary.format_version = 2;
  entry.summary.trace_count = 9999;
  entry.summary.file_bytes = 123456;
  entry.summary.chunk_count = 3;
  entry.summary.chunk_capacity = 4096;
  entry.summary.channels = {"PHPC", "PMVC"};
  entry.summary.metadata = {{"device", "M2"}, {"os", "13.0"}};
  entry.summary.columns = {{"plaintext", 0, 192000, 192000},
                           {"PHPC", 3, 96000, 14557}};
  msg.datasets.push_back(entry);

  const DatasetListMsg out = reencode(msg);
  ASSERT_EQ(out.datasets.size(), 1u);
  const auto& s = out.datasets[0].summary;
  EXPECT_EQ(out.datasets[0].name, "sample");
  EXPECT_EQ(s.path, "/tmp/sample.pstr");
  EXPECT_EQ(s.format_version, 2);
  EXPECT_EQ(s.trace_count, 9999u);
  EXPECT_EQ(s.file_bytes, 123456u);
  EXPECT_EQ(s.chunk_count, 3u);
  EXPECT_EQ(s.chunk_capacity, 4096u);
  EXPECT_EQ(s.channels, (std::vector<std::string>{"PHPC", "PMVC"}));
  EXPECT_EQ(s.metadata, entry.summary.metadata);
  ASSERT_EQ(s.columns.size(), 2u);
  EXPECT_EQ(s.columns[1].name, "PHPC");
  EXPECT_EQ(s.columns[1].chunks_coded, 3u);
  EXPECT_EQ(s.columns[1].raw_bytes, 96000u);
  EXPECT_EQ(s.columns[1].stored_bytes, 14557u);
}

TEST(Messages, CpaResultRoundTripsEveryDoubleBitExactly) {
  CpaResultMsg msg;
  msg.id = 11;
  msg.result.traces = 50000;
  core::ModelResult model;
  model.model = power::PowerModel::rd10_hw;
  for (std::size_t i = 0; i < 16; ++i) {
    model.true_ranks[i] = static_cast<int>(i * 7 + 1);
    model.scored_key[i] = static_cast<std::uint8_t>(0xa0 + i);
    model.best_round_key[i] = static_cast<std::uint8_t>(i);
    model.implied_master_key[i] = static_cast<std::uint8_t>(0x10 + i);
    for (std::size_t g = 0; g < 256; ++g) {
      // Denormals, negatives and irrational doubles: bit patterns that
      // sloppy float formatting would mangle.
      model.bytes[i].correlation[g] =
          (g % 2 ? -1.0 : 1.0) * std::sqrt(static_cast<double>(g + i)) *
          (g == 7 ? std::numeric_limits<double>::denorm_min() : 1e-3);
    }
  }
  model.ge_bits = 87.654321;
  model.mean_rank = 12.875;
  model.recovered_bytes = 3;
  model.near_recovered_bytes = 9;
  msg.result.models.push_back(model);

  const CpaResultMsg out = reencode(msg);
  EXPECT_EQ(out.id, 11u);
  EXPECT_EQ(out.result.traces, 50000u);
  ASSERT_EQ(out.result.models.size(), 1u);
  const core::ModelResult& m = out.result.models[0];
  EXPECT_EQ(m.model, power::PowerModel::rd10_hw);
  EXPECT_EQ(m.true_ranks, model.true_ranks);
  EXPECT_EQ(m.scored_key, model.scored_key);
  EXPECT_EQ(m.best_round_key, model.best_round_key);
  EXPECT_EQ(m.implied_master_key, model.implied_master_key);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(m.ge_bits),
            std::bit_cast<std::uint64_t>(model.ge_bits));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(m.mean_rank),
            std::bit_cast<std::uint64_t>(model.mean_rank));
  EXPECT_EQ(m.recovered_bytes, 3);
  EXPECT_EQ(m.near_recovered_bytes, 9);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t g = 0; g < 256; ++g) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(m.bytes[i].correlation[g]),
                std::bit_cast<std::uint64_t>(model.bytes[i].correlation[g]))
          << "byte " << i << " guess " << g;
    }
  }
}

TEST(Messages, TvlaResultRoundTrip) {
  TvlaResultMsg msg;
  msg.id = 5;
  msg.result.traces_per_set = 2000;
  core::TvlaChannelResult channel;
  channel.channel = "PHPC";
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      channel.matrix.t[i][j] = -4.5 + static_cast<double>(i * 3 + j) * 1.125;
    }
  }
  msg.result.channels.push_back(channel);

  const TvlaResultMsg out = reencode(msg);
  EXPECT_EQ(out.id, 5u);
  EXPECT_EQ(out.result.traces_per_set, 2000u);
  ASSERT_EQ(out.result.channels.size(), 1u);
  EXPECT_EQ(out.result.channels[0].channel, "PHPC");
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(
          std::bit_cast<std::uint64_t>(out.result.channels[0].matrix.t[i][j]),
          std::bit_cast<std::uint64_t>(channel.matrix.t[i][j]));
    }
  }
}

TEST(Messages, MalformedPayloadsThrowNotCrash) {
  // Truncated SubmitCpaMsg: cut a valid encoding in half.
  SubmitCpaMsg msg;
  msg.dataset = "d";
  PayloadWriter w;
  msg.encode(w);
  std::vector<std::byte> half(w.bytes().begin(),
                              w.bytes().begin() +
                                  static_cast<std::ptrdiff_t>(
                                      w.bytes().size() / 2));
  PayloadReader r(half);
  EXPECT_THROW(SubmitCpaMsg::decode(r), ProtocolError);

  // A model count outside (0, all_power_models.size()] is rejected.
  PayloadWriter bad;
  bad.str("d");
  bad.u32(0x50485043);
  const std::uint8_t key[16] = {};
  bad.block(key, sizeof(key));
  bad.u32(250);  // absurd model count
  PayloadReader rb(bad.bytes());
  EXPECT_THROW(SubmitCpaMsg::decode(rb), ProtocolError);

  // An invalid JobState byte is rejected.
  PayloadWriter bs;
  bs.u64(1);
  bs.u8(77);  // no such state
  bs.u64(0);
  bs.u64(0);
  bs.str("");
  PayloadReader rs(bs.bytes());
  EXPECT_THROW(JobStatusMsg::decode(rs), ProtocolError);
}

// ---------- framing over a real socketpair ----------

class FramingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a_ = Socket(fds[0]);
    b_ = Socket(fds[1]);
  }

  // Writes raw bytes as-is to a_'s fd and closes it, so the reader on b_
  // sees exactly this byte stream then EOF.
  void write_raw_and_close(const std::vector<std::byte>& bytes) {
    ASSERT_EQ(::send(a_.fd(), bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    a_.close();
  }

  static std::vector<std::byte> valid_frame(MsgType type,
                                            const std::vector<std::byte>& pay) {
    std::vector<std::byte> frame(frame_header_bytes + pay.size());
    std::memcpy(frame.data(), frame_magic, 4);
    store::put_u16(frame.data() + 4, protocol_version);
    store::put_u16(frame.data() + 6, static_cast<std::uint16_t>(type));
    store::put_u32(frame.data() + 8, static_cast<std::uint32_t>(pay.size()));
    store::put_u32(frame.data() + 12, util::crc32(pay.data(), pay.size()));
    if (!pay.empty()) {
      std::memcpy(frame.data() + frame_header_bytes, pay.data(), pay.size());
    }
    return frame;
  }

  Socket a_;
  Socket b_;
};

TEST_F(FramingTest, RoundTripAndCleanEof) {
  PayloadWriter w;
  w.str("ping me");
  send_frame(a_, MsgType::ping, w);
  a_.close();

  std::vector<std::byte> payload;
  const auto type = recv_frame(b_, payload);
  ASSERT_TRUE(type.has_value());
  EXPECT_EQ(*type, MsgType::ping);
  PayloadReader r(payload);
  EXPECT_EQ(r.str(), "ping me");

  // After the sender closed at a frame boundary: clean EOF, not an error.
  EXPECT_FALSE(recv_frame(b_, payload).has_value());
}

TEST_F(FramingTest, EmptyPayloadFrame) {
  send_frame(a_, MsgType::ok, std::span<const std::byte>{});
  std::vector<std::byte> payload;
  const auto type = recv_frame(b_, payload);
  ASSERT_TRUE(type.has_value());
  EXPECT_EQ(*type, MsgType::ok);
  EXPECT_TRUE(payload.empty());
}

TEST_F(FramingTest, BadMagicIsProtocolError) {
  std::vector<std::byte> pay = {std::byte{1}, std::byte{2}};
  auto frame = valid_frame(MsgType::ping, pay);
  frame[0] = std::byte{'X'};
  write_raw_and_close(frame);
  std::vector<std::byte> payload;
  EXPECT_THROW(recv_frame(b_, payload), ProtocolError);
}

TEST_F(FramingTest, WrongVersionIsProtocolError) {
  auto frame = valid_frame(MsgType::ping, {});
  store::put_u16(frame.data() + 4, protocol_version + 1);
  write_raw_and_close(frame);
  std::vector<std::byte> payload;
  EXPECT_THROW(recv_frame(b_, payload), ProtocolError);
}

TEST_F(FramingTest, CorruptCrcIsProtocolError) {
  std::vector<std::byte> pay = {std::byte{9}, std::byte{8}, std::byte{7}};
  auto frame = valid_frame(MsgType::ping, pay);
  frame[frame_header_bytes + 1] ^= std::byte{0x40};  // flip a payload bit
  write_raw_and_close(frame);
  std::vector<std::byte> payload;
  EXPECT_THROW(recv_frame(b_, payload), ProtocolError);
}

TEST_F(FramingTest, OversizedDeclaredLengthIsRejectedBeforeAllocation) {
  auto frame = valid_frame(MsgType::ping, {});
  // Header claims 1 GiB of payload; recv must refuse without trying to
  // read (or allocate) it.
  store::put_u32(frame.data() + 8, 1u << 30);
  write_raw_and_close(frame);
  std::vector<std::byte> payload;
  EXPECT_THROW(recv_frame(b_, payload), ProtocolError);
}

TEST_F(FramingTest, TruncatedHeaderIsProtocolError) {
  auto frame = valid_frame(MsgType::ping, {});
  frame.resize(7);  // EOF mid-header
  write_raw_and_close(frame);
  std::vector<std::byte> payload;
  EXPECT_THROW(recv_frame(b_, payload), ProtocolError);
}

TEST_F(FramingTest, TruncatedPayloadIsProtocolError) {
  std::vector<std::byte> pay(64, std::byte{0x55});
  auto frame = valid_frame(MsgType::ping, pay);
  frame.resize(frame.size() - 10);  // EOF mid-payload
  write_raw_and_close(frame);
  std::vector<std::byte> payload;
  EXPECT_THROW(recv_frame(b_, payload), ProtocolError);
}

TEST_F(FramingTest, LargeFrameStreamsThroughSocketBuffers) {
  // Bigger than any socket buffer: exercises the partial send/recv loops.
  std::vector<std::byte> pay(512 * 1024);
  for (std::size_t i = 0; i < pay.size(); ++i) {
    pay[i] = static_cast<std::byte>(i * 31);
  }
  std::thread sender([&] { send_frame(a_, MsgType::cpa_result, pay); });
  std::vector<std::byte> payload;
  const auto type = recv_frame(b_, payload);
  sender.join();
  ASSERT_TRUE(type.has_value());
  EXPECT_EQ(*type, MsgType::cpa_result);
  EXPECT_EQ(payload, pay);
}

}  // namespace
}  // namespace psc::bus
