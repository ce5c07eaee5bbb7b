// Protocol v3 scenario jobs, end to end: the SCENARIOS listing must
// mirror the built-in registry, a served scenario job must be
// bit-identical to the same spec run in-process (the --verify-local
// contract, asserted for both the TVLA-only and the CPA path), scenario
// messages must round-trip the wire exactly, and the error paths must be
// typed ERROR frames on a connection that stays open — an unknown name
// or malformed params never cost the client its connection, let alone
// the daemon.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "bus/client.h"
#include "bus/daemon.h"
#include "bus/scenario_jobs.h"
#include "scenario/registry.h"
#include "scenario_identity.h"

namespace psc::bus {
namespace {

std::string socket_path(const std::string& tag) {
  return "/tmp/psc_scn_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

template <typename Msg>
Msg reencode(const Msg& msg) {
  PayloadWriter w;
  msg.encode(w);
  PayloadReader r(w.bytes());
  Msg out = Msg::decode(r);
  r.expect_end();
  return out;
}

class ScenarioBusTest : public ::testing::Test {
 protected:
  void serve(const std::string& tag) {
    BusDaemonConfig config;
    config.socket_path = socket_path(tag);
    config.pool_reserve = 4;
    daemon_ = std::make_unique<BusDaemon>(std::move(config));
    daemon_->start();
  }

  void TearDown() override {
    if (daemon_ != nullptr) {
      daemon_->stop();
    }
  }

  std::unique_ptr<BusDaemon> daemon_;
};

// ---------------------------------------------------------------- wire

TEST(ScenarioProtocol, SubmitScenarioMsgRoundTrips) {
  ScenarioJobSpec spec;
  spec.scenario = "cache-timing";
  spec.params = {{"lines", "8"}, {"leak", "0"}};
  spec.traces_per_set = 321;
  spec.seed = 0xfeedULL;
  spec.shards = 5;
  const SubmitScenarioMsg out = reencode(SubmitScenarioMsg{spec});
  EXPECT_EQ(out.spec.scenario, spec.scenario);
  EXPECT_EQ(out.spec.params, spec.params);
  EXPECT_EQ(out.spec.traces_per_set, spec.traces_per_set);
  EXPECT_EQ(out.spec.seed, spec.seed);
  EXPECT_EQ(out.spec.shards, spec.shards);
}

TEST(ScenarioProtocol, ScenarioListMsgRoundTripsRegistryDescription) {
  ScenarioListMsg msg;
  for (const scenario::ScenarioInfo& info :
       scenario::ScenarioRegistry::built_in().describe_all()) {
    msg.scenarios.push_back({info.name, info.description, info.victim,
                             info.channel, info.params, info.channels,
                             info.analysis.cpa,
                             info.analysis.default_traces_per_set});
  }
  const ScenarioListMsg out = reencode(msg);
  ASSERT_EQ(out.scenarios.size(), msg.scenarios.size());
  for (std::size_t i = 0; i < msg.scenarios.size(); ++i) {
    EXPECT_EQ(out.scenarios[i].name, msg.scenarios[i].name);
    EXPECT_EQ(out.scenarios[i].description, msg.scenarios[i].description);
    EXPECT_EQ(out.scenarios[i].victim, msg.scenarios[i].victim);
    EXPECT_EQ(out.scenarios[i].channel, msg.scenarios[i].channel);
    EXPECT_EQ(out.scenarios[i].channels, msg.scenarios[i].channels);
    EXPECT_EQ(out.scenarios[i].cpa, msg.scenarios[i].cpa);
    EXPECT_EQ(out.scenarios[i].default_traces_per_set,
              msg.scenarios[i].default_traces_per_set);
    ASSERT_EQ(out.scenarios[i].params.size(), msg.scenarios[i].params.size());
    for (std::size_t p = 0; p < msg.scenarios[i].params.size(); ++p) {
      EXPECT_EQ(out.scenarios[i].params[p].name,
                msg.scenarios[i].params[p].name);
      EXPECT_EQ(out.scenarios[i].params[p].default_value,
                msg.scenarios[i].params[p].default_value);
      EXPECT_EQ(out.scenarios[i].params[p].description,
                msg.scenarios[i].params[p].description);
    }
  }
}

TEST(ScenarioProtocol, ScenarioResultMsgRoundTripsRealRunBitForBit) {
  ScenarioJobSpec spec;
  spec.scenario = "sqmul-timing";
  spec.traces_per_set = 60;
  spec.seed = 11;
  const ScenarioJobResult result = run_scenario_job(spec);
  const ScenarioResultMsg out = reencode(ScenarioResultMsg{42, result});
  EXPECT_EQ(out.id, 42u);
  expect_scenario_bit_identical(out.result, result);
}

TEST(ScenarioProtocol, ResolvedShardsArePureAndBounded) {
  ScenarioJobSpec spec;
  spec.scenario = "sqmul-timing";
  spec.shards = 7;
  // Explicit count is taken verbatim.
  EXPECT_EQ(resolved_scenario_shards(spec, 100), 7u);
  // Auto never exceeds the per-set trace count and never returns 0.
  spec.shards = 0;
  EXPECT_EQ(resolved_scenario_shards(spec, 1), 1u);
  EXPECT_GE(resolved_scenario_shards(spec, 100000), 1u);
  for (const std::uint64_t per_set : {1ULL, 3ULL, 50ULL, 4000ULL}) {
    EXPECT_LE(resolved_scenario_shards(spec, per_set), per_set);
    // Purity: the same spec resolves identically on every call.
    EXPECT_EQ(resolved_scenario_shards(spec, per_set),
              resolved_scenario_shards(spec, per_set));
  }
}

// A scenario job runs its shard units under the budget the daemon gives
// every job kind (shard_unit_budget): a live budget read before each
// unit is issued, a window that never runs more units than it allows,
// shard activity reported through on_shard_activity — and a result that
// matches the sequential run bit for bit.
TEST(ScenarioJobs, LiveBudgetRunsUnitsInItsWindowBitIdentically) {
  ScenarioJobSpec spec;
  spec.scenario = "aes-power-user";
  spec.traces_per_set = 240;
  spec.seed = 21;
  spec.shards = 6;
  constexpr std::size_t window = 2;

  std::atomic<std::size_t> reads{0};
  JobExecOptions exec;
  exec.shard_budget = [&reads] {
    reads.fetch_add(1);
    return window;
  };
  std::mutex mu;
  std::size_t reported_shards = 0;
  std::size_t reports = 0;
  std::size_t peak = 0;
  std::size_t reads_at_first_start = 0;
  exec.on_shard_activity = [&](std::size_t shards, std::size_t running) {
    std::lock_guard<std::mutex> lock(mu);
    reported_shards = shards;
    ++reports;
    if (running > 0 && peak == 0) {
      reads_at_first_start = reads.load();
    }
    peak = std::max(peak, running);
  };
  const ScenarioJobResult pooled =
      run_scenario_job(spec, {}, shard_unit_budget(exec));

  EXPECT_GE(reads.load(), spec.shards);
  EXPECT_GE(reads_at_first_start, 1u);
  EXPECT_EQ(reported_shards, spec.shards);
  EXPECT_EQ(reports, 1 + 2 * spec.shards);  // resolve, start + finish each
  EXPECT_GE(peak, 1u);
  EXPECT_LE(peak, window);
  ASSERT_FALSE(pooled.cpa.empty());
  expect_scenario_bit_identical(pooled, run_scenario_job(spec));
}

// -------------------------------------------------------------- daemon

TEST_F(ScenarioBusTest, ScenariosListingMatchesBuiltInRegistry) {
  serve("list");
  BusClient client(daemon_->socket_path());
  const auto served = client.list_scenarios();
  const auto local = scenario::ScenarioRegistry::built_in().describe_all();
  ASSERT_EQ(served.size(), local.size());
  for (std::size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(served[i].name, local[i].name);
    EXPECT_EQ(served[i].description, local[i].description);
    EXPECT_EQ(served[i].victim, local[i].victim);
    EXPECT_EQ(served[i].channel, local[i].channel);
    EXPECT_EQ(served[i].channels, local[i].channels);
    EXPECT_EQ(served[i].cpa, local[i].analysis.cpa);
    EXPECT_EQ(served[i].default_traces_per_set,
              local[i].analysis.default_traces_per_set);
    ASSERT_EQ(served[i].params.size(), local[i].params.size());
    for (std::size_t p = 0; p < local[i].params.size(); ++p) {
      EXPECT_EQ(served[i].params[p].name, local[i].params[p].name);
      EXPECT_EQ(served[i].params[p].default_value,
                local[i].params[p].default_value);
    }
  }
}

// The --verify-local contract for a TVLA-only scenario: the daemon runs
// with its own worker/parallelism budget, the client re-runs the spec
// single-worker; scenario results are worker-invariant, so every double
// must match by bit pattern.
TEST_F(ScenarioBusTest, ServedTvlaScenarioJobIsBitIdenticalToLocalRun) {
  serve("tvla");
  ScenarioJobSpec spec;
  spec.scenario = "sqmul-timing";
  spec.params = {{"noise_ns", "150"}};
  spec.traces_per_set = 90;
  spec.seed = 5;

  BusClient client(daemon_->socket_path());
  const std::uint64_t id = client.submit_scenario(spec);
  ASSERT_NE(id, 0u);
  std::uint64_t last_consumed = 0;
  const JobStatusMsg status = client.watch(
      id, [&](const ProgressMsg& p) { last_consumed = p.consumed; });
  ASSERT_EQ(status.state, JobState::done) << status.error;
  EXPECT_EQ(status.consumed, status.total);
  EXPECT_LE(last_consumed, status.total);

  const ScenarioJobResult served = client.scenario_result(id);
  expect_scenario_bit_identical(served, run_scenario_job(spec));
  EXPECT_EQ(served.scenario, "sqmul-timing");
  EXPECT_EQ(served.traces_per_set, 90u);
}

// Same contract through the CPA path (aes-power scenarios attach the
// CPA/GE sinks, so key-rank curves and correlation tables cross the
// wire too).
TEST_F(ScenarioBusTest, ServedCpaScenarioJobIsBitIdenticalToLocalRun) {
  serve("cpa");
  ScenarioJobSpec spec;
  spec.scenario = "aes-power-user";
  spec.traces_per_set = 36;
  spec.seed = 9;

  BusClient client(daemon_->socket_path());
  const std::uint64_t id = client.submit_scenario(spec);
  ASSERT_NE(id, 0u);
  const JobStatusMsg status = client.watch(id);
  ASSERT_EQ(status.state, JobState::done) << status.error;

  const ScenarioJobResult served = client.scenario_result(id);
  ASSERT_FALSE(served.cpa.empty());
  expect_scenario_bit_identical(served, run_scenario_job(spec));
}

// Satellite: SUBMIT with an unknown scenario name answers a typed ERROR
// frame and nothing else — the same connection keeps working, the next
// submit on it is served, and the daemon never aborts.
TEST_F(ScenarioBusTest, UnknownScenarioIsTypedErrorAndConnectionSurvives) {
  serve("unknown");
  BusClient client(daemon_->socket_path());

  ScenarioJobSpec spec;
  spec.scenario = "no-such-scenario";
  try {
    client.submit_scenario(spec);
    FAIL() << "submit of an unknown scenario must throw";
  } catch (const BusRemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::unknown_scenario);
  }

  // Same connection, same socket: still alive and serving.
  client.ping();
  spec.scenario = "sqmul-timing";
  spec.traces_per_set = 30;
  const std::uint64_t id = client.submit_scenario(spec);
  ASSERT_NE(id, 0u);
  EXPECT_EQ(client.watch(id).state, JobState::done);
}

TEST_F(ScenarioBusTest, MalformedParamsAreTypedErrorsAndConnectionSurvives) {
  serve("params");
  BusClient client(daemon_->socket_path());

  ScenarioJobSpec spec;
  spec.scenario = "cache-timing";
  spec.params = {{"no-such-knob", "1"}};
  try {
    client.submit_scenario(spec);
    FAIL() << "submit with an unknown param must throw";
  } catch (const BusRemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::bad_request);
  }

  // A malformed value (unparsable number) is also a typed error.
  spec.params = {{"lines", "many"}};
  try {
    client.submit_scenario(spec);
    FAIL() << "submit with an unparsable param value must throw";
  } catch (const BusRemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::bad_request);
  }

  client.ping();
  spec.params = {{"lines", "4"}};
  spec.traces_per_set = 30;
  const std::uint64_t id = client.submit_scenario(spec);
  ASSERT_NE(id, 0u);
  EXPECT_EQ(client.watch(id).state, JobState::done);
}

}  // namespace
}  // namespace psc::bus
