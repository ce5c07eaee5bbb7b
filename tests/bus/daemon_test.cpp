// BusDaemon end-to-end over real Unix-domain sockets: served campaign
// results must be bit-identical to the same campaign run in-process
// (asserted on every correlation double, with two concurrent clients),
// protocol garbage must cost exactly the offending connection, a client
// disconnecting mid-job must leak nothing, and shutdown — via the
// protocol or a signal — must drain before it tears down.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bus/client.h"
#include "bus/daemon.h"
#include "bus/jobs.h"
#include "bus/scenario_jobs.h"
#include "store/pstr_format.h"
#include "store/trace_file_reader.h"
#include "store/trace_file_writer.h"
#include "util/rng.h"
#include "scenario_identity.h"

namespace psc::bus {
namespace {

constexpr std::size_t rows = 1920;  // divisible by 6 for TVLA sets
constexpr std::size_t chunk_rows = 256;
constexpr std::size_t n_channels = 2;

// Short unique socket paths: sockaddr_un caps at ~107 bytes, so steer
// clear of deep gtest temp dirs.
std::string socket_path(const std::string& tag) {
  return "/tmp/psc_bus_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

aes::Block test_key() {
  aes::Block key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 17 + 3);
  }
  return key;
}

// A small v2 dataset with quantized channels (so delta_bitpack engages).
std::string write_dataset(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  util::Xoshiro256 rng(99);
  core::TraceBatch batch(n_channels);
  batch.resize(rows);
  for (auto& pt : batch.plaintexts()) {
    rng.fill_bytes(pt);
  }
  for (auto& ct : batch.ciphertexts()) {
    rng.fill_bytes(ct);
  }
  for (std::size_t c = 0; c < n_channels; ++c) {
    double level = 2.0;
    for (auto& v : batch.column(c)) {
      level += rng.gaussian(0.0, 1e-4);
      v = static_cast<double>(
          static_cast<float>(std::round(level * 1e6) / 1e6));
    }
  }
  store::TraceFileWriter writer(
      path, {.channels = {util::FourCc("PHPC"), util::FourCc("PMVC")},
             .chunk_capacity = chunk_rows,
             .channel_codecs = store::uniform_channel_codecs(
                 n_channels, store::ColumnCodec::delta_bitpack)});
  writer.append(batch);
  writer.finalize();
  return path;
}

void expect_cpa_bit_identical(const CpaJobResult& a, const CpaJobResult& b) {
  ASSERT_EQ(a.traces, b.traces);
  ASSERT_EQ(a.models.size(), b.models.size());
  for (std::size_t m = 0; m < a.models.size(); ++m) {
    const core::ModelResult& x = a.models[m];
    const core::ModelResult& y = b.models[m];
    EXPECT_EQ(x.model, y.model);
    EXPECT_EQ(x.true_ranks, y.true_ranks);
    EXPECT_EQ(x.scored_key, y.scored_key);
    EXPECT_EQ(x.best_round_key, y.best_round_key);
    EXPECT_EQ(x.implied_master_key, y.implied_master_key);
    EXPECT_EQ(x.recovered_bytes, y.recovered_bytes);
    EXPECT_EQ(x.near_recovered_bytes, y.near_recovered_bytes);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.ge_bits),
              std::bit_cast<std::uint64_t>(y.ge_bits));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.mean_rank),
              std::bit_cast<std::uint64_t>(y.mean_rank));
    for (std::size_t i = 0; i < 16; ++i) {
      for (std::size_t g = 0; g < 256; ++g) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(x.bytes[i].correlation[g]),
                  std::bit_cast<std::uint64_t>(y.bytes[i].correlation[g]))
            << "model " << m << " byte " << i << " guess " << g;
      }
    }
  }
}

void expect_tvla_bit_identical(const TvlaJobResult& a, const TvlaJobResult& b) {
  ASSERT_EQ(a.traces_per_set, b.traces_per_set);
  ASSERT_EQ(a.channels.size(), b.channels.size());
  for (std::size_t c = 0; c < a.channels.size(); ++c) {
    EXPECT_EQ(a.channels[c].channel, b.channels[c].channel);
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a.channels[c].matrix.t[i][j]),
                  std::bit_cast<std::uint64_t>(b.channels[c].matrix.t[i][j]))
            << "channel " << c << " cell " << i << "," << j;
      }
    }
  }
}

class BusDaemonTest : public ::testing::Test {
 protected:
  void serve(const std::string& tag, std::size_t quota = 4,
             std::size_t shard_parallelism = 0,
             std::size_t chunk_cache_mb = 256) {
    dataset_path_ = write_dataset("bus_" + tag + ".pstr");
    BusDaemonConfig config;
    config.socket_path = socket_path(tag);
    config.per_session_quota = quota;
    config.pool_reserve = 4;
    config.shard_parallelism = shard_parallelism;
    config.chunk_cache_mb = chunk_cache_mb;
    config.datasets = {{"bench", dataset_path_}};
    daemon_ = std::make_unique<BusDaemon>(std::move(config));
    daemon_->start();
  }

  void TearDown() override {
    if (daemon_ != nullptr) {
      daemon_->stop();
    }
  }

  std::string dataset_path_;
  std::unique_ptr<BusDaemon> daemon_;
};

TEST_F(BusDaemonTest, PingAndDatasetListMatchLocalSummary) {
  serve("list");
  BusClient client(daemon_->socket_path());
  client.ping();

  const auto datasets = client.list_datasets();
  ASSERT_EQ(datasets.size(), 1u);
  EXPECT_EQ(datasets[0].name, "bench");

  store::TraceFileReader reader(dataset_path_);
  const store::DatasetSummary local = store::summarize_dataset(reader);
  const store::DatasetSummary& served = datasets[0].summary;
  EXPECT_EQ(served.path, local.path);
  EXPECT_EQ(served.format_version, local.format_version);
  EXPECT_EQ(served.trace_count, local.trace_count);
  EXPECT_EQ(served.file_bytes, local.file_bytes);
  EXPECT_EQ(served.chunk_count, local.chunk_count);
  EXPECT_EQ(served.channels, local.channels);
  EXPECT_EQ(served.metadata, local.metadata);
  ASSERT_EQ(served.columns.size(), local.columns.size());
  for (std::size_t c = 0; c < served.columns.size(); ++c) {
    EXPECT_EQ(served.columns[c].name, local.columns[c].name);
    EXPECT_EQ(served.columns[c].chunks_coded, local.columns[c].chunks_coded);
    EXPECT_EQ(served.columns[c].raw_bytes, local.columns[c].raw_bytes);
    EXPECT_EQ(served.columns[c].stored_bytes, local.columns[c].stored_bytes);
  }
}

// The acceptance test: two clients submit concurrently (CPA and TVLA,
// multi-shard) against the one shared mapping; both served results must
// equal an independent in-process run of the same spec, every double
// compared by bit pattern.
TEST_F(BusDaemonTest, ConcurrentClientsGetBitIdenticalResults) {
  serve("ident");

  CpaJobSpec cpa;
  cpa.channel = util::FourCc("PHPC").code();
  cpa.known_key = test_key();
  cpa.models = {power::PowerModel::rd0_hw, power::PowerModel::rd10_hw};
  cpa.shards = 2;

  TvlaJobSpec tvla;
  tvla.shards = 3;

  CpaJobResult cpa_served;
  TvlaJobResult tvla_served;
  std::uint64_t cpa_progress_final = 0;
  std::uint64_t tvla_progress_total = 0;

  std::thread cpa_client([&] {
    BusClient client(daemon_->socket_path());
    const std::uint64_t id = client.submit_cpa("bench", cpa);
    const JobStatusMsg status = client.watch(
        id, [&](const ProgressMsg& p) { cpa_progress_final = p.consumed; });
    ASSERT_EQ(status.state, JobState::done);
    EXPECT_EQ(status.consumed, status.total);
    EXPECT_EQ(status.total, rows);
    cpa_served = client.cpa_result(id);
  });
  std::thread tvla_client([&] {
    BusClient client(daemon_->socket_path());
    const std::uint64_t id = client.submit_tvla("bench", tvla);
    const JobStatusMsg status = client.watch(
        id, [&](const ProgressMsg& p) { tvla_progress_total = p.total; });
    ASSERT_EQ(status.state, JobState::done);
    EXPECT_EQ(status.consumed, status.total);
    EXPECT_EQ(status.total, rows);
    tvla_served = client.tvla_result(id);
  });
  cpa_client.join();
  tvla_client.join();

  // Progress frames (if any arrived before the job went terminal) never
  // overshot the dataset.
  EXPECT_LE(cpa_progress_final, rows);
  EXPECT_LE(tvla_progress_total, rows);

  const auto mapping = store::SharedMapping::open(dataset_path_);
  expect_cpa_bit_identical(cpa_served, run_cpa_job(mapping, cpa));
  expect_tvla_bit_identical(tvla_served, run_tvla_job(mapping, tvla));
  EXPECT_EQ(cpa_served.traces, rows);
  EXPECT_EQ(tvla_served.traces_per_set, rows / 6);
}

// The fair-scheduler acceptance test: one large multi-shard job, four
// small ones and a multi-shard scenario job land concurrently; the
// scheduler interleaves their shard units over the shared pool and every
// served result still equals its in-process rerun bit-for-bit.
TEST_F(BusDaemonTest, FairSchedulerInterleavesConcurrentJobsBitIdentically) {
  serve("fair", /*quota=*/8);

  CpaJobSpec large;
  large.channel = util::FourCc("PHPC").code();
  large.known_key = test_key();
  large.models = {power::PowerModel::rd0_hw, power::PowerModel::rd10_hw};
  large.shards = 8;

  constexpr int n_small = 4;
  CpaJobSpec small_cpa;
  small_cpa.channel = util::FourCc("PMVC").code();
  small_cpa.known_key = test_key();
  small_cpa.shards = 2;
  TvlaJobSpec small_tvla;
  small_tvla.shards = 3;

  // A multi-shard scenario job rides the same fair budget: its STATS row
  // reports its resolved shard count and the cap it was granted.
  ScenarioJobSpec scenario;
  scenario.scenario = "aes-power-user";
  scenario.traces_per_set = 300;
  scenario.seed = 4;
  scenario.shards = 4;

  CpaJobResult large_served;
  std::vector<CpaJobResult> small_cpa_served(n_small);
  std::vector<TvlaJobResult> small_tvla_served(n_small);
  ScenarioJobResult scenario_served;
  std::uint64_t scenario_id = 0;

  std::thread large_client([&] {
    BusClient client(daemon_->socket_path());
    const std::uint64_t id = client.submit_cpa("bench", large);
    const JobStatusMsg status = client.watch(id);
    ASSERT_EQ(status.state, JobState::done);
    large_served = client.cpa_result(id);
  });
  std::vector<std::thread> small_clients;
  for (int i = 0; i < n_small; ++i) {
    small_clients.emplace_back([&, i] {
      BusClient client(daemon_->socket_path());
      const std::uint64_t cpa_id = client.submit_cpa("bench", small_cpa);
      const std::uint64_t tvla_id = client.submit_tvla("bench", small_tvla);
      ASSERT_EQ(client.watch(cpa_id).state, JobState::done);
      ASSERT_EQ(client.watch(tvla_id).state, JobState::done);
      small_cpa_served[i] = client.cpa_result(cpa_id);
      small_tvla_served[i] = client.tvla_result(tvla_id);
    });
  }
  std::thread scenario_client([&] {
    BusClient client(daemon_->socket_path());
    scenario_id = client.submit_scenario(scenario);
    const JobStatusMsg status = client.watch(scenario_id);
    ASSERT_EQ(status.state, JobState::done) << status.error;
    scenario_served = client.scenario_result(scenario_id);
  });
  large_client.join();
  for (std::thread& t : small_clients) {
    t.join();
  }
  scenario_client.join();

  // The job row the STATS frame lists while the job runs: the daemon
  // called both the fair budget and the activity hook for it.
  const std::shared_ptr<Job> scenario_row = daemon_->jobs().find(scenario_id);
  ASSERT_NE(scenario_row, nullptr);
  EXPECT_EQ(scenario_row->shards, scenario.shards);
  EXPECT_GE(scenario_row->shard_cap, 1u);
  EXPECT_GE(scenario_row->peak_shards, 1u);
  expect_scenario_bit_identical(scenario_served,
                                run_scenario_job(scenario, {}, 1));

  const auto mapping = store::SharedMapping::open(dataset_path_);
  expect_cpa_bit_identical(large_served, run_cpa_job(mapping, large));
  const CpaJobResult small_cpa_local = run_cpa_job(mapping, small_cpa);
  const TvlaJobResult small_tvla_local = run_tvla_job(mapping, small_tvla);
  for (int i = 0; i < n_small; ++i) {
    expect_cpa_bit_identical(small_cpa_served[i], small_cpa_local);
    expect_tvla_bit_identical(small_tvla_served[i], small_tvla_local);
  }
}

// STATS frame + decode-once: two identical jobs over the compressed
// dataset must decode every chunk exactly once between them — the second
// job is served entirely from the shared cache.
TEST_F(BusDaemonTest, StatsReportDecodeOnceAcrossJobs) {
  serve("stats");
  BusClient client(daemon_->socket_path());

  const StatsMsg before = client.stats();
  EXPECT_EQ(before.jobs_submitted, 0u);
  EXPECT_EQ(before.jobs_active, 0u);
  EXPECT_GT(before.cache_capacity_bytes, 0u);
  EXPECT_EQ(before.cache_misses, 0u);
  EXPECT_GE(before.pool_threads, 1u);

  CpaJobSpec cpa;
  cpa.channel = util::FourCc("PHPC").code();
  cpa.known_key = test_key();
  cpa.shards = 2;
  for (int round = 0; round < 2; ++round) {
    const std::uint64_t id = client.submit_cpa("bench", cpa);
    ASSERT_EQ(client.watch(id).state, JobState::done);
  }

  const StatsMsg after = client.stats();
  EXPECT_EQ(after.jobs_submitted, 2u);
  EXPECT_EQ(after.jobs_active, 0u);
  EXPECT_TRUE(after.jobs.empty());  // only non-terminal jobs are listed
  // Every chunk is delta_bitpack-coded, so each of the file's chunks is
  // decoded exactly once; the second job hits on all of them.
  constexpr std::uint64_t chunks = (rows + chunk_rows - 1) / chunk_rows;
  EXPECT_EQ(after.cache_misses, chunks);
  EXPECT_GE(after.cache_hits, chunks);
  EXPECT_GT(after.cache_resident_bytes, 0u);
  EXPECT_EQ(after.cache_entries, chunks);
}

TEST_F(BusDaemonTest, CacheDisabledServesIdenticalResults) {
  serve("nocache", /*quota=*/4, /*shard_parallelism=*/0,
        /*chunk_cache_mb=*/0);
  BusClient client(daemon_->socket_path());
  CpaJobSpec cpa;
  cpa.channel = util::FourCc("PHPC").code();
  cpa.known_key = test_key();
  cpa.shards = 2;
  const std::uint64_t id = client.submit_cpa("bench", cpa);
  ASSERT_EQ(client.watch(id).state, JobState::done);
  const CpaJobResult served = client.cpa_result(id);
  const auto mapping = store::SharedMapping::open(dataset_path_);
  expect_cpa_bit_identical(served, run_cpa_job(mapping, cpa));
  // With no cache configured, the STATS frame reports it disabled.
  const StatsMsg stats = client.stats();
  EXPECT_EQ(stats.cache_capacity_bytes, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
}

TEST_F(BusDaemonTest, SequentialShardParallelismPinsLegacyExecution) {
  // shard_parallelism = 1 pins jobs to sequential shard execution (the
  // bench baseline); results are of course still bit-identical.
  serve("seqpin", /*quota=*/4, /*shard_parallelism=*/1);
  BusClient client(daemon_->socket_path());
  TvlaJobSpec tvla;
  tvla.shards = 3;
  const std::uint64_t id = client.submit_tvla("bench", tvla);
  ASSERT_EQ(client.watch(id).state, JobState::done);
  const TvlaJobResult served = client.tvla_result(id);
  const auto mapping = store::SharedMapping::open(dataset_path_);
  expect_tvla_bit_identical(served, run_tvla_job(mapping, tvla));
}

TEST_F(BusDaemonTest, QuotaZeroRejectsEverySubmit) {
  serve("quota", /*quota=*/0);
  BusClient client(daemon_->socket_path());
  try {
    client.submit_cpa("bench", CpaJobSpec{.channel =
                                              util::FourCc("PHPC").code()});
    FAIL() << "expected BusRemoteError";
  } catch (const BusRemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::quota_exceeded);
  }
  client.ping();  // connection survives a rejected submit
}

TEST_F(BusDaemonTest, UnknownDatasetAndJobAreLoudErrors) {
  serve("unknown");
  BusClient client(daemon_->socket_path());
  try {
    client.submit_tvla("nope", TvlaJobSpec{});
    FAIL() << "expected BusRemoteError";
  } catch (const BusRemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::unknown_dataset);
  }
  try {
    client.status(12345);
    FAIL() << "expected BusRemoteError";
  } catch (const BusRemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::unknown_job);
  }
  try {
    client.cpa_result(12345);
    FAIL() << "expected BusRemoteError";
  } catch (const BusRemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::unknown_job);
  }
}

TEST_F(BusDaemonTest, BadSpecFailsTheJobAndRelaysTheMessage) {
  serve("badspec");
  BusClient client(daemon_->socket_path());
  // Channel "XXXX" does not exist in the dataset: the job is accepted
  // (the spec is well-formed on the wire) but fails server-side.
  CpaJobSpec cpa;
  cpa.channel = util::FourCc("XXXX").code();
  const std::uint64_t id = client.submit_cpa("bench", cpa);
  const JobStatusMsg status = client.watch(id);
  EXPECT_EQ(status.state, JobState::failed);
  EXPECT_NE(status.error.find("XXXX"), std::string::npos);
  try {
    client.cpa_result(id);
    FAIL() << "expected BusRemoteError";
  } catch (const BusRemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::internal);
    EXPECT_NE(std::string(e.what()).find("XXXX"), std::string::npos);
  }
  // The failed job released its quota slot.
  EXPECT_EQ(daemon_->jobs().in_flight(1), 0u);
}

// Each kind of wire garbage must cost only the offending connection:
// the daemon answers (best-effort) with one ERROR frame, closes, and
// keeps serving everyone else.
TEST_F(BusDaemonTest, GarbageFramesDontCrashOrWedgeTheDaemon) {
  serve("garbage");

  const auto hurl = [&](const std::vector<std::byte>& bytes) {
    Socket socket = connect_unix(daemon_->socket_path());
    ASSERT_EQ(::send(socket.fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    // Half-close so the daemon sees EOF even when the bytes stop mid-frame
    // (otherwise both sides block: it waits for the rest of the header,
    // we wait for a reply).
    ::shutdown(socket.fd(), SHUT_WR);
    // Read until the daemon hangs up; it may send one ERROR frame first.
    std::vector<std::byte> payload;
    try {
      while (recv_frame(socket, payload).has_value()) {
      }
    } catch (const std::exception&) {
      // Daemon closed mid-frame or sent nothing parseable back — fine;
      // the property under test is daemon survival, checked below.
    }
  };

  std::vector<std::byte> frame(frame_header_bytes + 4, std::byte{0});
  std::memcpy(frame.data(), "JUNK", 4);  // bad magic
  hurl(frame);

  std::memcpy(frame.data(), frame_magic, 4);
  store::put_u16(frame.data() + 4, 0x7fff);  // bad version
  hurl(frame);

  store::put_u16(frame.data() + 4, protocol_version);
  store::put_u16(frame.data() + 6, 9 /*ping*/);
  store::put_u32(frame.data() + 8, 4);
  store::put_u32(frame.data() + 12, 0xdeadbeef);  // wrong CRC
  hurl(frame);

  store::put_u32(frame.data() + 8, 0x40000000);  // 1 GiB declared length
  hurl(frame);

  hurl({std::byte{'P'}, std::byte{'S'}});  // truncated header, then EOF

  // After all of that: a well-behaved client is served normally.
  BusClient client(daemon_->socket_path());
  client.ping();
  EXPECT_EQ(client.list_datasets().size(), 1u);
}

TEST_F(BusDaemonTest, MidJobDisconnectLeaksNothing) {
  serve("discon", /*quota=*/2);
  std::uint64_t id = 0;
  {
    // Submit and vanish: the daemon must finish the job anyway, release
    // the quota slot, and keep the result fetchable from elsewhere.
    BusClient client(daemon_->socket_path());
    CpaJobSpec cpa;
    cpa.channel = util::FourCc("PHPC").code();
    cpa.known_key = test_key();
    id = client.submit_cpa("bench", cpa);
  }  // client destroyed: connection drops while the job runs

  BusClient other(daemon_->socket_path());
  const JobStatusMsg status = other.watch(id);
  EXPECT_EQ(status.state, JobState::done);
  const CpaJobResult served = other.cpa_result(id);
  EXPECT_EQ(served.traces, rows);

  // Both quota slots of the (gone) session are free again; sessions are
  // per-connection so just confirm nothing is charged anywhere.
  EXPECT_EQ(daemon_->jobs().in_flight(1), 0u);
  EXPECT_EQ(daemon_->jobs().in_flight(2), 0u);
}

TEST_F(BusDaemonTest, ProtocolShutdownDrainsThenStops) {
  serve("shutdown");
  BusClient client(daemon_->socket_path());
  CpaJobSpec cpa;
  cpa.channel = util::FourCc("PHPC").code();
  const std::uint64_t id = client.submit_cpa("bench", cpa);
  client.shutdown_server();
  daemon_->wait();

  // Drained, not aborted: the submitted job reached a terminal state.
  const auto status = daemon_->jobs().status(id);
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->state, JobState::done);
  // Socket file unlinked; new connections are refused.
  EXPECT_THROW(BusClient{daemon_->socket_path()}, BusError);
}

TEST_F(BusDaemonTest, SigtermStopsTheDaemonGracefully) {
  serve("sigterm");
  BusDaemon::install_signal_handlers(*daemon_);
  BusClient client(daemon_->socket_path());
  client.ping();
  ASSERT_EQ(::raise(SIGTERM), 0);
  daemon_->wait();
  EXPECT_THROW(BusClient{daemon_->socket_path()}, BusError);
  // Restore default dispositions for the rest of the test binary.
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
}

}  // namespace
}  // namespace psc::bus
