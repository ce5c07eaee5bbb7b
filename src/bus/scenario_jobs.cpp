#include "bus/scenario_jobs.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "scenario/registry.h"

namespace psc::bus {

std::uint32_t resolved_scenario_shards(
    const ScenarioJobSpec& spec, std::uint64_t traces_per_set) noexcept {
  if (spec.shards != 0) {
    return spec.shards;
  }
  const std::uint32_t by_budget =
      resolved_job_shards(0, 6 * traces_per_set);
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(by_budget, std::max<std::uint64_t>(
                                             1, traces_per_set)));
}

ScenarioJobResult run_scenario_job(const ScenarioJobSpec& spec,
                                   const JobProgressFn& progress,
                                   core::ShardBudget workers) {
  const std::shared_ptr<const scenario::Scenario> sc =
      scenario::ScenarioRegistry::built_in().find(spec.scenario);
  if (sc == nullptr) {
    throw std::invalid_argument("unknown scenario '" + spec.scenario + "'");
  }
  const scenario::ParamSet params = sc->parse_params(spec.params);
  // Surfaces out-of-range values (e.g. cache-timing lines > 64) here,
  // where the daemon can still answer with a typed ERROR frame, instead
  // of deep inside the campaign.
  (void)sc->channels(params);

  const std::uint64_t per_set =
      spec.traces_per_set != 0 ? spec.traces_per_set
                               : sc->analysis(params).default_traces_per_set;
  // Resolved here, never left at 0: a live budget must not size the
  // shard count (core::resolve_shards rejects that), and the count is
  // result-determining.
  const std::uint32_t shards = resolved_scenario_shards(spec, per_set);
  if (shards > per_set) {
    throw std::invalid_argument("run_scenario_job: more shards than traces");
  }

  scenario::ScenarioRunConfig config;
  config.traces_per_set = static_cast<std::size_t>(per_set);
  config.seed = spec.seed;
  config.workers = std::move(workers);
  config.shards = shards;
  if (progress) {
    config.progress = progress;
  }
  return scenario::run_scenario(*sc, params, config);
}

}  // namespace psc::bus
