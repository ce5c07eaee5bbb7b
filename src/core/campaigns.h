// End-to-end experiment runners. Each campaign reproduces one of the
// paper's measurement pipelines against the simulated platform and
// returns the data its table/figure reports. The bench binaries are thin
// wrappers over these.
//
// Campaigns run on the sharded columnar pipeline: the trace budget splits
// into shards (core/parallel.h), each with its own RNG stream and trace
// source (core/trace_source.h); shards acquire pooled TraceBatches and
// feed them to AnalysisSinks (core/analysis_sink.h), whose partial state
// merges in shard order as each shard unit drains (run_shard_units).
// Guessing-entropy checkpoints are per-shard engine snapshots — no
// mid-campaign merge barriers. Results are a pure function of (seed,
// shards): any worker count gives bit-identical output, and shards = 1
// reproduces the original sequential loop bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/analysis_sink.h"
#include "core/cpa.h"
#include "core/parallel.h"
#include "core/trace_source.h"
#include "core/tvla.h"
#include "smc/key_database.h"
#include "soc/device_profile.h"
#include "victim/fast_trace.h"

namespace psc::core {

// Optional job-level progress hook: invoked after every consumed
// acquisition batch with (traces_consumed_so_far, traces_total),
// cumulative across all shards of the campaign. Worker threads call it
// concurrently, so the callee must be thread-safe; each call carries a
// unique cumulative count, but calls from different shards may arrive
// out of order (a callee tracking a high-water mark should max(), not
// assign). The hook observes — it must not mutate campaign state, and
// it runs on the acquisition path, so keep it cheap.
using CampaignProgressFn =
    std::function<void(std::size_t consumed, std::size_t total)>;

// ---------- TVLA campaigns (Tables 3 and 5; Table 6 first column) ----------

struct TvlaCampaignConfig {
  soc::DeviceProfile profile;
  victim::VictimModel victim = victim::VictimModel::user_space();
  // Traces per (class, collection): two collections per class, so the
  // paper's 10k per class corresponds to 5000 here.
  std::size_t traces_per_set = 5000;
  // Also assess the IOReport "PCPU" channel (Table 6, first column).
  bool include_pcpu = false;
  // Firmware countermeasure applied to the SMC channel (section 5).
  smc::MitigationPolicy mitigation = smc::MitigationPolicy::none();
  std::uint64_t seed = 1;
  // Sharded execution (see core/parallel.h): workers = units in flight,
  // shards = partial-state count (0 = one per worker; 1 = sequential).
  ShardBudget workers = 1;
  std::size_t shards = 0;
  CampaignProgressFn progress{};  // see CampaignProgressFn above
};

struct TvlaChannelResult {
  std::string channel;  // SMC key name or "PCPU"
  TvlaMatrix matrix;
};

struct TvlaCampaignResult {
  aes::Block victim_key{};
  std::size_t traces_per_set = 0;
  std::vector<TvlaChannelResult> channels;

  const TvlaChannelResult* find(const std::string& channel) const noexcept;
};

TvlaCampaignResult run_tvla_campaign(const TvlaCampaignConfig& config);

// ---------- CPA campaigns (Table 4; Figures 1a and 1b) ----------

struct CpaCampaignConfig {
  soc::DeviceProfile profile;
  victim::VictimModel victim = victim::VictimModel::user_space();
  std::size_t trace_count = 1'000'000;
  std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw};
  // SMC keys to attack; empty = every workload-dependent key except PHPS
  // (the estimate channel carries no signal, as Table 3 establishes).
  std::vector<smc::FourCc> keys;
  // Trace counts at which to snapshot GE (ascending; the final count is
  // always evaluated).
  std::vector<std::size_t> checkpoints;
  // Firmware countermeasure applied to the SMC channel (section 5).
  smc::MitigationPolicy mitigation = smc::MitigationPolicy::none();
  std::uint64_t seed = 1;
  // Sharded execution (see core/parallel.h): workers = units in flight,
  // shards = partial-state count (0 = one per worker; 1 = sequential).
  ShardBudget workers = 1;
  std::size_t shards = 0;
  CampaignProgressFn progress{};  // see CampaignProgressFn above
};

struct GeCurvePoint {
  std::size_t traces = 0;
  double ge_bits = 0.0;
  double mean_rank = 0.0;
  int recovered_bytes = 0;
};

struct CpaKeyResult {
  smc::FourCc key;
  // Final analysis per model, aligned with CpaCampaignConfig::models.
  std::vector<ModelResult> final_results;
  // GE trajectory per model, aligned the same way.
  std::vector<std::vector<GeCurvePoint>> curves;
};

struct CpaCampaignResult {
  aes::Block victim_key{};
  std::array<aes::Block, aes::num_rounds + 1> round_keys{};
  std::size_t trace_count = 0;
  std::vector<CpaKeyResult> keys;

  const CpaKeyResult* find(smc::FourCc key) const noexcept;
};

CpaCampaignResult run_cpa_campaign(const CpaCampaignConfig& config);

// ---------- combined campaign (one acquisition, every analysis) ----------
//
// Runs the TVLA collection protocol once — six labeled (class, collection)
// sets — and fans every batch out to TVLA, CPA and guessing-entropy sinks
// at the same time. The two random-plaintext collections double as the
// CPA trace stream, so one trace budget yields Table 3's matrices and
// Table 4's rankings together. At equal (seed, shards, victim, device,
// mitigation, traces_per_set, include_pcpu), the TVLA half is
// bit-identical to run_tvla_campaign.

struct CombinedCampaignConfig {
  soc::DeviceProfile profile;
  victim::VictimModel victim = victim::VictimModel::user_space();
  // Traces per (class, collection); the CPA stream sees 2x this.
  std::size_t traces_per_set = 5000;
  bool include_pcpu = false;
  std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw};
  // SMC keys to attack with CPA; empty = every workload-dependent key
  // except PHPS (and PCPU when included).
  std::vector<smc::FourCc> keys;
  // CPA trace counts at which to snapshot GE (ascending, over the random
  // stream of 2 * traces_per_set; the final count is always evaluated).
  std::vector<std::size_t> checkpoints;
  smc::MitigationPolicy mitigation = smc::MitigationPolicy::none();
  std::uint64_t seed = 1;
  ShardBudget workers = 1;
  std::size_t shards = 0;
  CampaignProgressFn progress{};  // see CampaignProgressFn above
};

struct CombinedCampaignResult {
  aes::Block victim_key{};
  std::array<aes::Block, aes::num_rounds + 1> round_keys{};
  std::size_t traces_per_set = 0;
  std::size_t cpa_trace_count = 0;  // 2 * traces_per_set
  std::vector<TvlaChannelResult> tvla;
  std::vector<CpaKeyResult> cpa;

  const TvlaChannelResult* find_tvla(const std::string& channel) const noexcept;
  const CpaKeyResult* find_cpa(smc::FourCc key) const noexcept;
};

CombinedCampaignResult run_combined_campaign(
    const CombinedCampaignConfig& config);

// ---------- source-generic sink campaign ----------
//
// The combined campaign's acquisition protocol over an arbitrary trace
// source: six labeled (class, collection) sets fan out to a TvlaSink on
// every channel plus optional per-channel CPA/GE sinks. The source is
// built per shard from `make_source(secret, seed)` — exactly how the AES
// campaigns construct their LiveTraceSource — so any TraceSource-shaped
// victim/channel pair (the scenario registry's currency) inherits the
// sharded pipeline, the sink layer and the purity guarantee: results are
// a function of (seed, shards) only. run_tvla_campaign and
// run_combined_campaign are thin wrappers over this runner, which is what
// makes scenario-registry runs of the AES scenarios bit-identical to the
// legacy entry points.

using SinkSourceFactory = std::function<std::unique_ptr<TraceSource>(
    const aes::Block& secret, std::uint64_t seed)>;

struct SinkCampaignConfig {
  // Channel columns the source reports, in column order.
  std::vector<util::FourCc> channels;
  SinkSourceFactory make_source;
  // Traces per (class, collection); the random stream seen by CPA sinks
  // is 2x this.
  std::size_t traces_per_set = 5000;
  // Channel columns to attack with CPA/GE; empty = TVLA only. The secret
  // is interpreted as an AES-128 key for ranking (the CpaEngine's model).
  std::vector<std::size_t> cpa_columns;
  std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw};
  // CPA trace counts at which to snapshot GE (over 2 * traces_per_set).
  std::vector<std::size_t> checkpoints;
  std::uint64_t seed = 1;
  // A live budget (re-read per unit) needs an explicit shard count.
  ShardBudget workers = 1;
  std::size_t shards = 0;
  CampaignProgressFn progress{};  // see CampaignProgressFn above
  // Optional extra per-shard sink (e.g. a store::RecordingSink teeing the
  // acquisition to disk); non-owning, appended to the shard's MultiSink.
  // Adding or removing it never changes the campaign's RNG stream.
  std::function<AnalysisSink*(std::size_t shard)> extra_sink{};
};

struct SinkCampaignResult {
  aes::Block secret{};
  std::array<aes::Block, aes::num_rounds + 1> round_keys{};
  std::size_t traces_per_set = 0;
  std::size_t cpa_trace_count = 0;  // 2 * traces_per_set
  std::vector<TvlaChannelResult> tvla;  // one per channel, column order
  std::vector<CpaKeyResult> cpa;        // one per cpa_columns entry

  const TvlaChannelResult* find_tvla(const std::string& channel) const noexcept;
};

SinkCampaignResult run_sink_campaign(const SinkCampaignConfig& config);

// Log-spaced checkpoint schedule from `first` to `last` (inclusive).
std::vector<std::size_t> log_spaced_checkpoints(std::size_t first,
                                                std::size_t last,
                                                std::size_t count);

}  // namespace psc::core
