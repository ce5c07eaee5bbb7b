// Campaign jobs the bus daemon executes over shared mmap'd datasets.
//
// run_cpa_job / run_tvla_job are the single compute path for a campaign
// over a recorded PSTR dataset: the daemon runs them under a driver
// thread per job, and in-process verification (`psc_busctl submit
// --verify-local`, the ctest bit-identity suite) calls the same
// functions directly. A job result is a pure function of (dataset bytes,
// spec): each shard accumulates self-contained engine state and the
// partials merge strictly in shard order, so the identical spec yields
// bit-identical doubles wherever — and on however many threads — it
// runs. Shards determine the RESULT; JobExecOptions determine only the
// EXECUTION (the split PR 1 established for campaigns, applied to served
// jobs):
//
//   - At the default budget of 1 (the --verify-local path) shards run
//     sequentially on the calling thread.
//   - Above it, up to budget shard units run concurrently on the worker
//     pool through core::run_shard_units, the one shard fan-out, and the
//     pool grows to the budget it reads. The caller drains units in
//     shard order and merges incrementally, so the merge order never
//     depends on completion order. Alive at once are the merge target
//     plus at most two budgets' worth of shard parts; a CPA part keeps its
//     Rd10-HD pair data as a 24 B/trace log (core/cpa.h), so only the
//     target holds the ~12 MB dense pair histogram. The budget is
//     re-read before each unit is issued, which is how the daemon's fair
//     scheduler shrinks a running job's window when new jobs arrive.
//     run_cpa_job then analyzes the 16 byte positions on up to budget
//     pool threads.
//
// TVLA replay labeling: a PSTR file carries no (class, collection)
// labels, so TVLA-over-file assumes the dataset was recorded in TVLA
// protocol order — six equal consecutive sets, unprimed collections of
// (all-0s, all-1s, random) then the primed three, exactly the order
// run_tvla_campaign acquires. Set k of N/6 rows is labeled
// (class k % 3, primed = k >= 3).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aes/aes128.h"
#include "core/campaigns.h"
#include "core/cpa.h"
#include "core/parallel.h"
#include "core/tvla.h"
#include "power/hypothetical.h"
#include "store/shared_mapping.h"

namespace psc::store {
class ChunkCache;  // store/chunk_cache.h
}

namespace psc::bus {

// Progress hook: (traces consumed so far, traces total). `consumed` is
// aggregated across shard units, so under a shard budget the hook may be
// invoked concurrently from pool threads and values may arrive out of
// order; the largest value seen is the true watermark.
using JobProgressFn =
    std::function<void(std::uint64_t consumed, std::uint64_t total)>;

// Auto-sizing cap for spec.shards == 0. The resolved shard count is
// result-determining, so the policy must be a pure function of the trace
// count — never of worker availability, or the daemon and an in-process
// verification run could resolve different counts and mismatch. A job
// therefore auto-sizes to core::min_traces_per_shard-sized shards capped
// at this fixed constant.
inline constexpr std::uint32_t auto_shard_cap = 16;

// Shard count a spec value of `spec_shards` resolves to over
// `total_traces` traces: an explicit count wins verbatim; 0 auto-sizes
// as documented on auto_shard_cap. Identical wherever the job runs.
std::uint32_t resolved_job_shards(std::uint32_t spec_shards,
                                  std::uint64_t total_traces) noexcept;

// Execution knobs — how a job runs, never what it computes.
struct JobExecOptions {
  // Max shard units to keep in flight on the worker pool, read before
  // each unit is issued (core::ShardBudget: a count, or a live callable
  // like the daemon's fair share). The default, 1, runs shards
  // sequentially on the calling thread, touching no pool state — the
  // in-process verification path.
  core::ShardBudget shard_budget;
  // Shared decoded-chunk cache for the shard readers (null = every
  // reader decodes privately, the legacy behavior).
  std::shared_ptr<store::ChunkCache> chunk_cache;
  // Observer of shard-unit activity: (resolved shard count, units
  // currently running). Called once with running = 0 when the shard
  // count resolves, then as units start and finish — from pool threads,
  // concurrently, under a budget above 1.
  core::ShardActivityFn on_shard_activity;
};

// The budget a job's shard units run under: exec.shard_budget, observed
// by exec.on_shard_activity. Every job kind runs its units under it.
core::ShardBudget shard_unit_budget(const JobExecOptions& exec);

struct CpaJobSpec {
  std::uint32_t channel = 0;  // FourCC code of the attacked column
  aes::Block known_key{};     // victim key, for ranking/GE
  std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw};
  std::uint64_t trace_count = 0;  // 0 = every recorded trace
  // Result-determining; 0 auto-sizes (see resolved_job_shards).
  std::uint32_t shards = 0;
};

struct CpaJobResult {
  std::uint64_t traces = 0;
  // One entry per spec model, in spec order.
  std::vector<core::ModelResult> models;
};

struct TvlaJobSpec {
  std::uint64_t traces_per_set = 0;  // 0 = trace_count / 6
  // Result-determining; 0 auto-sizes (see resolved_job_shards), further
  // clamped to traces_per_set.
  std::uint32_t shards = 0;
};

struct TvlaJobResult {
  std::uint64_t traces_per_set = 0;
  // One entry per dataset channel, in column order.
  std::vector<core::TvlaChannelResult> channels;
};

// Runs CPA over the dataset: feeds the spec's trace budget (sharded,
// merged in shard order) into one CpaEngine per run and analyzes every
// spec model against the known key. Throws std::invalid_argument on a
// spec the dataset cannot satisfy (unknown channel, trace_count or
// shards beyond the data).
CpaJobResult run_cpa_job(std::shared_ptr<const store::SharedMapping> dataset,
                         const CpaJobSpec& spec,
                         const JobProgressFn& progress = {},
                         const JobExecOptions& exec = {});

// Runs TVLA over the dataset under the positional labeling rule above,
// producing one matrix per channel. Throws std::invalid_argument when
// the dataset holds fewer than 6 traces or the spec oversubscribes it.
TvlaJobResult run_tvla_job(std::shared_ptr<const store::SharedMapping> dataset,
                           const TvlaJobSpec& spec,
                           const JobProgressFn& progress = {},
                           const JobExecOptions& exec = {});

}  // namespace psc::bus
