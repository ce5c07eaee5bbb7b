#include "core/campaigns.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>

namespace psc::core {

namespace {

// Per-shard acquisition batch size: traces are staged in a columnar
// TraceBatch and handed to the sinks whole, keeping the acquire and
// accumulate halves of the loop separable; the cap bounds the pooled
// batches' memory.
constexpr std::size_t acquisition_batch = 1024;

// Ascending unique checkpoint schedule within (0, total], with `total`
// always included as the final entry.
std::vector<std::size_t> normalize_checkpoints(std::vector<std::size_t> cps,
                                               std::size_t total) {
  std::sort(cps.begin(), cps.end());
  cps.erase(std::unique(cps.begin(), cps.end()), cps.end());
  cps.erase(std::remove_if(cps.begin(), cps.end(),
                           [&](std::size_t c) { return c == 0 || c > total; }),
            cps.end());
  if (cps.empty() || cps.back() != total) {
    cps.push_back(total);
  }
  return cps;
}

// Column indices of the attacked SMC keys within `channels`; when `keys`
// is empty, defaults to every channel except the PHPS estimate (and the
// IOReport PCPU pseudo-channel).
std::vector<smc::FourCc> resolve_attack_keys(
    const std::vector<util::FourCc>& channels,
    const std::vector<smc::FourCc>& keys, const char* who) {
  std::vector<smc::FourCc> attack_keys = keys;
  if (attack_keys.empty()) {
    for (const smc::FourCc key : channels) {
      if (key != smc::FourCc("PHPS") && key != smc::FourCc("PCPU")) {
        attack_keys.push_back(key);
      }
    }
  }
  for (const smc::FourCc key : attack_keys) {
    if (std::find(channels.begin(), channels.end(), key) == channels.end()) {
      throw std::invalid_argument(std::string(who) +
                                  ": key not provided by this device: " +
                                  key.str());
    }
  }
  return attack_keys;
}

std::vector<std::size_t> key_column_indices(
    const std::vector<util::FourCc>& channels,
    const std::vector<smc::FourCc>& attack_keys) {
  std::vector<std::size_t> columns;
  columns.reserve(attack_keys.size());
  for (const smc::FourCc key : attack_keys) {
    const auto it = std::find(channels.begin(), channels.end(), key);
    columns.push_back(static_cast<std::size_t>(it - channels.begin()));
  }
  return columns;
}

// Folds one drained shard's GE snapshots into the per-(attacked key,
// checkpoint) targets. The first shard's snapshots become the targets
// and later shards merge into them in shard order: bit-identical to the
// engine a sequential run holds at each checkpoint. Snapshots are
// released as they merge, so only the targets and the shard parts still
// in the window are alive.
void merge_ge_snapshots(std::vector<GeCheckpointSink>& sinks,
                        std::vector<std::vector<CpaEngine>>& targets) {
  for (std::size_t k = 0; k < sinks.size(); ++k) {
    for (std::size_t ci = 0; ci < sinks[k].snapshots().size(); ++ci) {
      CpaEngine snapshot = sinks[k].release_snapshot(ci);
      if (targets[k].size() == ci) {
        targets[k].push_back(std::move(snapshot));
      } else {
        targets[k][ci].merge(snapshot);
      }
    }
  }
  sinks.clear();
}

// Analyzes the merged targets into GE curves and final results for each
// attacked key, releasing each target once analyzed.
void analyze_ge_targets(std::vector<std::vector<CpaEngine>>& targets,
                        const std::vector<std::size_t>& checkpoints,
                        const std::vector<power::PowerModel>& models,
                        const std::array<aes::Block, aes::num_rounds + 1>&
                            round_keys,
                        std::vector<CpaKeyResult>& out) {
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k].curves.resize(models.size());
    for (std::size_t ci = 0; ci < checkpoints.size(); ++ci) {
      const CpaEngine combined = std::move(targets[k][ci]);
      for (std::size_t m = 0; m < models.size(); ++m) {
        const ModelResult res = combined.analyze(models[m], round_keys);
        out[k].curves[m].push_back({checkpoints[ci], res.ge_bits,
                                    res.mean_rank, res.recovered_bytes});
        if (ci + 1 == checkpoints.size()) {
          out[k].final_results.push_back(res);
        }
      }
    }
  }
}

// Cumulative cross-shard progress counter feeding a CampaignProgressFn;
// null hook = no-op, so the acquisition loops call add() unconditionally.
// Lives on the campaign's stack and is captured by reference in shard
// units — safe because run_shard_units finishes every unit before
// returning.
class ProgressMeter {
 public:
  ProgressMeter(const CampaignProgressFn& fn, std::size_t total)
      : fn_(fn), total_(total) {}

  void add(std::size_t n) {
    if (fn_) {
      fn_(consumed_.fetch_add(n, std::memory_order_relaxed) + n, total_);
    }
  }

 private:
  const CampaignProgressFn& fn_;
  std::size_t total_;
  std::atomic<std::size_t> consumed_{0};
};

}  // namespace

const TvlaChannelResult* TvlaCampaignResult::find(
    const std::string& channel) const noexcept {
  for (const auto& c : channels) {
    if (c.channel == channel) {
      return &c;
    }
  }
  return nullptr;
}

TvlaCampaignResult run_tvla_campaign(const TvlaCampaignConfig& config) {
  const LiveSourceConfig source_config{
      .profile = config.profile,
      .victim = config.victim,
      .mitigation = config.mitigation,
      .include_pcpu = config.include_pcpu,
  };

  SinkCampaignConfig generic;
  generic.channels = LiveTraceSource::channel_names(source_config);
  generic.make_source = [&source_config](const aes::Block& secret,
                                         std::uint64_t seed) {
    return std::make_unique<LiveTraceSource>(source_config, secret, seed);
  };
  generic.traces_per_set = config.traces_per_set;
  generic.seed = config.seed;
  generic.workers = config.workers;
  generic.shards = config.shards;
  generic.progress = config.progress;

  SinkCampaignResult sink_result = run_sink_campaign(generic);

  TvlaCampaignResult result;
  result.victim_key = sink_result.secret;
  result.traces_per_set = config.traces_per_set;
  result.channels = std::move(sink_result.tvla);
  return result;
}

const CpaKeyResult* CpaCampaignResult::find(smc::FourCc key) const noexcept {
  for (const auto& k : keys) {
    if (k.key == key) {
      return &k;
    }
  }
  return nullptr;
}

CpaCampaignResult run_cpa_campaign(const CpaCampaignConfig& config) {
  util::Xoshiro256 rng(config.seed);
  aes::Block victim_key;
  rng.fill_bytes(victim_key);

  const LiveSourceConfig source_config{
      .profile = config.profile,
      .victim = config.victim,
      .mitigation = config.mitigation,
      .include_pcpu = false,
  };
  const std::vector<util::FourCc> channels =
      LiveTraceSource::channel_names(source_config);

  const std::vector<smc::FourCc> attack_keys =
      resolve_attack_keys(channels, config.keys, "run_cpa_campaign");
  const std::vector<std::size_t> key_columns =
      key_column_indices(channels, attack_keys);

  CpaCampaignResult result;
  result.victim_key = victim_key;
  result.round_keys = aes::Aes128::expand_key(victim_key);
  result.trace_count = config.trace_count;
  result.keys.resize(attack_keys.size());
  for (std::size_t k = 0; k < attack_keys.size(); ++k) {
    result.keys[k].key = attack_keys[k];
  }

  const std::vector<std::size_t> checkpoints =
      normalize_checkpoints(config.checkpoints, config.trace_count);

  const std::size_t shards =
      resolve_shards(config.shards, config.workers, config.trace_count);
  TraceBatchPool pool(channels.size(), acquisition_batch);
  ProgressMeter meter(config.progress, config.trace_count);

  // One single pass per shard: sinks snapshot engine state at the shard's
  // share of each checkpoint, so no mid-campaign merge barriers are
  // needed. Device calibration also runs inside the shard unit.
  std::vector<std::vector<GeCheckpointSink>> parts(shards);
  std::vector<std::vector<CpaEngine>> cpa_targets(attack_keys.size());
  const auto run_shard = [&](std::size_t s) {
    util::Xoshiro256 shard_rng = shards == 1 ? rng : rng.split(s);
    LiveTraceSource source(source_config, victim_key, shard_rng());

    std::vector<std::size_t> targets;
    targets.reserve(checkpoints.size());
    for (const std::size_t cp : checkpoints) {
      targets.push_back(shard_size(cp, shards, s));
    }
    std::vector<GeCheckpointSink> sinks;
    sinks.reserve(attack_keys.size());
    MultiSink multi;
    for (std::size_t k = 0; k < attack_keys.size(); ++k) {
      sinks.emplace_back(config.models, key_columns[k], targets);
    }
    for (auto& sink : sinks) {
      multi.add(&sink);
    }

    const std::size_t total = shard_size(config.trace_count, shards, s);
    auto batch = pool.acquire();
    std::size_t produced = 0;
    while (produced < total) {
      const std::size_t chunk =
          std::min(acquisition_batch, total - produced);
      collect_random_batch(source, chunk, shard_rng, *batch);
      multi.consume(*batch, BatchLabel::unlabeled());
      meter.add(chunk);
      produced += chunk;
    }
    parts[s] = std::move(sinks);
  };
  run_shard_units(shards, config.workers, run_shard, [&](std::size_t s) {
    merge_ge_snapshots(parts[s], cpa_targets);
  });

  analyze_ge_targets(cpa_targets, checkpoints, config.models,
                     result.round_keys, result.keys);
  return result;
}

const TvlaChannelResult* CombinedCampaignResult::find_tvla(
    const std::string& channel) const noexcept {
  for (const auto& c : tvla) {
    if (c.channel == channel) {
      return &c;
    }
  }
  return nullptr;
}

const CpaKeyResult* CombinedCampaignResult::find_cpa(
    smc::FourCc key) const noexcept {
  for (const auto& k : cpa) {
    if (k.key == key) {
      return &k;
    }
  }
  return nullptr;
}

CombinedCampaignResult run_combined_campaign(
    const CombinedCampaignConfig& config) {
  const LiveSourceConfig source_config{
      .profile = config.profile,
      .victim = config.victim,
      .mitigation = config.mitigation,
      .include_pcpu = config.include_pcpu,
  };
  const std::vector<util::FourCc> channels =
      LiveTraceSource::channel_names(source_config);

  const std::vector<smc::FourCc> attack_keys =
      resolve_attack_keys(channels, config.keys, "run_combined_campaign");

  SinkCampaignConfig generic;
  generic.channels = channels;
  generic.make_source = [&source_config](const aes::Block& secret,
                                         std::uint64_t seed) {
    return std::make_unique<LiveTraceSource>(source_config, secret, seed);
  };
  generic.traces_per_set = config.traces_per_set;
  generic.cpa_columns = key_column_indices(channels, attack_keys);
  generic.models = config.models;
  generic.checkpoints = config.checkpoints;
  generic.seed = config.seed;
  generic.workers = config.workers;
  generic.shards = config.shards;
  generic.progress = config.progress;

  SinkCampaignResult sink_result = run_sink_campaign(generic);

  CombinedCampaignResult result;
  result.victim_key = sink_result.secret;
  result.round_keys = sink_result.round_keys;
  result.traces_per_set = sink_result.traces_per_set;
  result.cpa_trace_count = sink_result.cpa_trace_count;
  result.tvla = std::move(sink_result.tvla);
  result.cpa = std::move(sink_result.cpa);
  return result;
}

const TvlaChannelResult* SinkCampaignResult::find_tvla(
    const std::string& channel) const noexcept {
  for (const auto& c : tvla) {
    if (c.channel == channel) {
      return &c;
    }
  }
  return nullptr;
}

SinkCampaignResult run_sink_campaign(const SinkCampaignConfig& config) {
  if (config.channels.empty()) {
    throw std::invalid_argument("run_sink_campaign: no channels");
  }
  if (!config.make_source) {
    throw std::invalid_argument("run_sink_campaign: no source factory");
  }
  for (const std::size_t column : config.cpa_columns) {
    if (column >= config.channels.size()) {
      throw std::invalid_argument(
          "run_sink_campaign: cpa column out of range");
    }
  }

  util::Xoshiro256 rng(config.seed);
  aes::Block secret;
  rng.fill_bytes(secret);

  const std::vector<util::FourCc>& channels = config.channels;

  SinkCampaignResult result;
  result.secret = secret;
  result.round_keys = aes::Aes128::expand_key(secret);
  result.traces_per_set = config.traces_per_set;
  result.cpa_trace_count = 2 * config.traces_per_set;
  result.cpa.resize(config.cpa_columns.size());
  for (std::size_t k = 0; k < config.cpa_columns.size(); ++k) {
    result.cpa[k].key = channels[config.cpa_columns[k]];
  }

  const std::vector<std::size_t> checkpoints =
      normalize_checkpoints(config.checkpoints, result.cpa_trace_count);

  // Auto shard sizing (shards == 0) counts the whole six-set budget, so
  // small assessments run on fewer shards than workers rather than paying
  // per-shard overhead for trivial jobs.
  const std::size_t shards = resolve_shards(config.shards, config.workers,
                                            6 * config.traces_per_set);
  TraceBatchPool pool(channels.size(), acquisition_batch);
  ProgressMeter meter(config.progress, 6 * config.traces_per_set);

  struct ShardResult {
    TvlaSink tvla;
    std::vector<GeCheckpointSink> cpa;
  };
  std::vector<std::unique_ptr<ShardResult>> parts(shards);

  const auto run_shard = [&](std::size_t s) {
    // A single-shard run continues the campaign stream so the sharded
    // pipeline reproduces the sequential implementation bit-for-bit;
    // multi-shard runs give each shard its own split stream.
    util::Xoshiro256 shard_rng = shards == 1 ? rng : rng.split(s);
    const std::unique_ptr<TraceSource> source =
        config.make_source(secret, shard_rng());
    if (!source || source->keys() != channels) {
      throw std::invalid_argument(
          "run_sink_campaign: source channels disagree with config");
    }
    const std::size_t per_set = shard_size(config.traces_per_set, shards, s);

    // The shard's CPA stream is its share of the two random collections,
    // in acquisition order. A global checkpoint cp splits as cp1 traces
    // from the first and cp - cp1 from the second; partitioning each part
    // with shard_size keeps the per-shard targets summing to exactly cp.
    std::vector<std::size_t> targets;
    targets.reserve(checkpoints.size());
    for (const std::size_t cp : checkpoints) {
      const std::size_t cp1 = std::min(cp, config.traces_per_set);
      targets.push_back(shard_size(cp1, shards, s) +
                        shard_size(cp - cp1, shards, s));
    }

    auto out = std::make_unique<ShardResult>(
        ShardResult{.tvla = TvlaSink(channels.size()), .cpa = {}});
    out->cpa.reserve(config.cpa_columns.size());
    MultiSink multi;
    multi.add(&out->tvla);
    for (const std::size_t column : config.cpa_columns) {
      out->cpa.emplace_back(config.models, column, targets);
    }
    for (auto& sink : out->cpa) {
      multi.add(&sink);
    }
    if (config.extra_sink) {
      if (AnalysisSink* extra = config.extra_sink(s)) {
        multi.add(extra);
      }
    }

    auto batch = pool.acquire();
    for (const bool primed : {false, true}) {
      for (const PlaintextClass cls : all_plaintext_classes) {
        std::size_t produced = 0;
        while (produced < per_set) {
          const std::size_t chunk =
              std::min(acquisition_batch, per_set - produced);
          batch->clear();
          batch->resize(chunk);
          for (auto& pt : batch->plaintexts()) {
            pt = class_plaintext(cls, shard_rng);
          }
          source->collect_batch(*batch);
          multi.consume(*batch, BatchLabel::tvla(cls, primed));
          meter.add(chunk);
          produced += chunk;
        }
      }
    }
    parts[s] = std::move(out);
  };

  // Each shard merges as it drains, in shard order.
  TvlaSink merged_tvla(channels.size());
  std::vector<std::vector<CpaEngine>> cpa_targets(config.cpa_columns.size());
  run_shard_units(shards, config.workers, run_shard, [&](std::size_t s) {
    merged_tvla.merge(parts[s]->tvla);
    merge_ge_snapshots(parts[s]->cpa, cpa_targets);
    parts[s].reset();
  });

  for (std::size_t c = 0; c < channels.size(); ++c) {
    result.tvla.push_back(
        {channels[c].str(), merged_tvla.accumulator(c).matrix()});
  }
  analyze_ge_targets(cpa_targets, checkpoints, config.models,
                     result.round_keys, result.cpa);
  return result;
}

std::vector<std::size_t> log_spaced_checkpoints(std::size_t first,
                                                std::size_t last,
                                                std::size_t count) {
  std::vector<std::size_t> out;
  if (count == 0 || first == 0 || last < first) {
    return out;
  }
  const double lo = std::log(static_cast<double>(first));
  const double hi = std::log(static_cast<double>(last));
  for (std::size_t i = 0; i < count; ++i) {
    const double f = count == 1 ? 1.0
                                : static_cast<double>(i) /
                                      static_cast<double>(count - 1);
    out.push_back(static_cast<std::size_t>(
        std::llround(std::exp(lo + f * (hi - lo)))));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace psc::core
