// Scenario jobs: live-acquisition campaigns the bus daemon serves by
// registry name (protocol v3's SUBMIT_SCENARIO), next to the recorded-
// dataset jobs of bus/jobs.h.
//
// run_scenario_job is the single compute path: the daemon runs it under
// a driver thread per job, and in-process verification (`psc_busctl
// submit scenario --verify-local`, the ctest suite) calls the same
// function directly. Scenario results are a pure function of (scenario,
// params, traces_per_set, seed, shards) — the shard budget only changes
// how fast they arrive (tests/scenario asserts worker invariance) — so
// the daemon may execute under its fair-share budget while a client
// verifies sequentially, and the doubles still match bit for bit.
// As with the dataset jobs, a spec shard count of 0 auto-sizes through a
// policy that is a pure function of the trace budget (resolved_job_shards
// clamped to the per-set size), never of worker availability; anything
// else would let the daemon and a local rerun resolve different shard
// counts and mismatch.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bus/jobs.h"
#include "scenario/runner.h"

namespace psc::bus {

// A scenario campaign request, addressable by registry name. Everything
// here is result-determining.
struct ScenarioJobSpec {
  std::string scenario;  // ScenarioRegistry::built_in() name
  // key=value overrides, validated against the scenario's ParamSpecs
  // (unknown keys and malformed values are rejected before the job is
  // accepted).
  std::vector<std::pair<std::string, std::string>> params;
  std::uint64_t traces_per_set = 0;  // 0 = the scenario's default
  std::uint64_t seed = 1;
  // 0 auto-sizes (see resolved_job_shards), clamped to traces_per_set.
  std::uint32_t shards = 0;
};

// The full runner result crosses the wire (TVLA matrices, CPA rankings
// and GE curves), so --verify-local can compare every double.
using ScenarioJobResult = scenario::ScenarioRunResult;

// Shard count `spec` resolves to: explicit wins verbatim, 0 auto-sizes
// over the 6 * traces_per_set acquisition budget and is clamped to the
// per-set size (shards slice per-set rows). Pure function of the spec,
// identical wherever the job runs.
std::uint32_t resolved_scenario_shards(const ScenarioJobSpec& spec,
                                       std::uint64_t traces_per_set) noexcept;

// Resolves the scenario in the built-in registry, parses params and runs
// the generic sink campaign. Throws std::invalid_argument for an unknown
// scenario name, malformed/out-of-range params, or an unsatisfiable
// shard count — the daemon's typed-error path. `workers` is an execution
// knob only and never shows in the result: the shard-unit budget of the
// one shard fan-out (core::run_shard_units). A count runs that many
// units at once (1, the default, runs them inline: the --verify-local
// path); the daemon passes the same live fair-share budget and activity
// hook its dataset jobs get (shard_unit_budget), re-read before each
// unit is issued.
ScenarioJobResult run_scenario_job(const ScenarioJobSpec& spec,
                                   const JobProgressFn& progress = {},
                                   core::ShardBudget workers = 1);

}  // namespace psc::bus
