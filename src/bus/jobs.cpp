#include "bus/jobs.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "core/analysis_sink.h"
#include "core/parallel.h"
#include "core/trace_batch.h"
#include "store/chunk_cache.h"
#include "store/file_trace_source.h"
#include "util/fourcc.h"

namespace psc::bus {

namespace {

// Batch granularity of job ingest (and thus of progress callbacks).
// Matches the campaigns' acquisition batch so replayed jobs feed the
// engines the same batch shapes a live campaign would.
constexpr std::size_t job_batch = 1024;

std::unique_ptr<store::TraceFileReader> make_shard_reader(
    const std::shared_ptr<const store::SharedMapping>& dataset,
    const JobExecOptions& exec) {
  auto reader = std::make_unique<store::TraceFileReader>(dataset);
  if (exec.chunk_cache != nullptr) {
    reader->set_chunk_cache(exec.chunk_cache);
  }
  return reader;
}

}  // namespace

core::ShardBudget shard_unit_budget(const JobExecOptions& exec) {
  core::ShardBudget budget = exec.shard_budget;
  budget.on_activity = exec.on_shard_activity;
  return budget;
}

std::uint32_t resolved_job_shards(std::uint32_t spec_shards,
                                  std::uint64_t total_traces) noexcept {
  if (spec_shards != 0) {
    return spec_shards;
  }
  const std::uint64_t by_size = total_traces / core::min_traces_per_shard;
  return static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(by_size, 1, auto_shard_cap));
}

CpaJobResult run_cpa_job(std::shared_ptr<const store::SharedMapping> dataset,
                         const CpaJobSpec& spec, const JobProgressFn& progress,
                         const JobExecOptions& exec) {
  if (dataset == nullptr) {
    throw std::invalid_argument("run_cpa_job: null dataset");
  }
  if (spec.models.empty()) {
    throw std::invalid_argument("run_cpa_job: no power models");
  }
  // A throwaway reader resolves the dataset's shape; each shard below
  // builds its own single-threaded reader over the same shared bytes.
  store::TraceFileReader probe(dataset);
  const auto& channels = probe.channels();
  const util::FourCc wanted(spec.channel);
  const auto it = std::find(channels.begin(), channels.end(), wanted);
  if (it == channels.end()) {
    throw std::invalid_argument("run_cpa_job: dataset has no channel " +
                                wanted.str());
  }
  const std::size_t column = static_cast<std::size_t>(it - channels.begin());

  const std::uint64_t total =
      spec.trace_count == 0 ? probe.trace_count()
                            : std::min<std::uint64_t>(spec.trace_count,
                                                      probe.trace_count());
  if (total == 0) {
    throw std::invalid_argument("run_cpa_job: dataset holds no traces");
  }
  const std::uint32_t shards = resolved_job_shards(spec.shards, total);
  if (shards > total) {
    throw std::invalid_argument("run_cpa_job: more shards than traces");
  }

  // One self-contained engine per shard, merged strictly in shard order:
  // the result depends on (dataset, spec) only — which threads ran the
  // units, and in what order they completed, never shows.
  core::CpaEngine engine(spec.models);
  std::vector<std::unique_ptr<core::CpaEngine>> parts(shards);
  std::atomic<std::uint64_t> consumed{0};
  const auto run_shard = [&](std::size_t s) {
    const std::size_t begin = core::shard_begin(total, shards, s);
    const std::size_t count = core::shard_size(total, shards, s);
    auto part = std::make_unique<core::CpaEngine>(spec.models);
    core::TraceBatch batch(channels.size());
    store::FileTraceSource source(make_shard_reader(dataset, exec), begin,
                                  count);
    std::size_t left = count;
    while (left > 0) {
      const std::size_t take = std::min(job_batch, left);
      batch.clear();
      batch.resize(take);
      source.collect_batch(batch);
      part->add_batch(batch, column);
      left -= take;
      const std::uint64_t now =
          consumed.fetch_add(take, std::memory_order_relaxed) + take;
      if (progress) {
        progress(now, total);
      }
    }
    parts[s] = std::move(part);
  };
  core::run_shard_units(shards, shard_unit_budget(exec), run_shard,
                        [&](std::size_t s) {
                          engine.merge(*parts[s]);
                          parts[s].reset();
                        });

  CpaJobResult result;
  result.traces = total;
  const auto round_keys = aes::Aes128::expand_key(spec.known_key);
  // The byte positions are analyzed at the job's shard budget.
  const std::size_t width = exec.shard_budget.read();
  result.models.reserve(spec.models.size());
  for (const power::PowerModel model : spec.models) {
    result.models.push_back(engine.analyze(model, round_keys, width));
  }
  return result;
}

TvlaJobResult run_tvla_job(std::shared_ptr<const store::SharedMapping> dataset,
                           const TvlaJobSpec& spec,
                           const JobProgressFn& progress,
                           const JobExecOptions& exec) {
  if (dataset == nullptr) {
    throw std::invalid_argument("run_tvla_job: null dataset");
  }
  store::TraceFileReader probe(dataset);
  const std::size_t channel_count = probe.channels().size();
  const std::uint64_t block = probe.trace_count() / 6;
  if (block == 0) {
    throw std::invalid_argument(
        "run_tvla_job: dataset holds fewer than 6 traces");
  }
  const std::uint64_t per_set =
      spec.traces_per_set == 0 ? block : spec.traces_per_set;
  if (per_set > block) {
    throw std::invalid_argument(
        "run_tvla_job: traces_per_set exceeds the dataset's set size");
  }
  const std::uint64_t total = 6 * per_set;
  std::uint32_t shards = resolved_job_shards(spec.shards, total);
  if (spec.shards == 0) {
    // Auto-sizing must stay satisfiable: shards slice per-set rows.
    shards = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(shards, per_set));
  }
  if (shards > per_set) {
    throw std::invalid_argument("run_tvla_job: more shards than traces");
  }

  // Positional labels (see jobs.h): set k = rows [k * block, k * block +
  // per_set), class k % 3, primed k >= 3 — TVLA protocol order. Shard s
  // takes its shard_size slice of every set; one sink per shard, merged
  // in shard order, mirrors the live campaign's structure.
  core::TvlaSink merged(channel_count);
  std::vector<std::unique_ptr<core::TvlaSink>> parts(shards);
  std::atomic<std::uint64_t> consumed{0};
  const auto run_shard = [&](std::size_t s) {
    auto sink = std::make_unique<core::TvlaSink>(channel_count);
    core::TraceBatch batch(channel_count);
    for (std::size_t set = 0; set < 6; ++set) {
      const core::BatchLabel label = core::BatchLabel::tvla(
          core::all_plaintext_classes[set % 3], set >= 3);
      const std::size_t begin = set * block +
                                core::shard_begin(per_set, shards, s);
      const std::size_t count = core::shard_size(per_set, shards, s);
      store::FileTraceSource source(make_shard_reader(dataset, exec), begin,
                                    count);
      std::size_t left = count;
      while (left > 0) {
        const std::size_t take = std::min(job_batch, left);
        batch.clear();
        batch.resize(take);
        source.collect_batch(batch);
        sink->consume(batch, label);
        left -= take;
        const std::uint64_t now =
            consumed.fetch_add(take, std::memory_order_relaxed) + take;
        if (progress) {
          progress(now, total);
        }
      }
    }
    parts[s] = std::move(sink);
  };
  core::run_shard_units(shards, shard_unit_budget(exec), run_shard,
                        [&](std::size_t s) {
                          merged.merge(*parts[s]);
                          parts[s].reset();
                        });

  TvlaJobResult result;
  result.traces_per_set = per_set;
  result.channels.reserve(channel_count);
  for (std::size_t c = 0; c < channel_count; ++c) {
    result.channels.push_back({probe.channels()[c].str(),
                               merged.accumulator(c).matrix()});
  }
  return result;
}

}  // namespace psc::bus
