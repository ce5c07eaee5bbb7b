// replay-analysis: offline attack on a recorded v2 PSTR dataset. Set-up
// records aes-power-user in TVLA protocol order (the store write path);
// each round then runs bus::run_cpa_job for rd0_hw, rd10_hw (both on two
// channels) and rd10_hd, and bus::run_tvla_job twice, in-process, 8 shards
// at shard_budget = nproc and no chunk cache, so every pass decodes every
// chunk. After measuring,
// every job spec runs once more sequentially (no budget) and must give
// the same bytes.
//
// Traced jobs observe shard units through JobExecOptions::
// on_shard_activity: a unit's start and finish are reported from the
// thread that runs it, so a thread-local marks which of the two a call
// is. Store decode and the CPA/TVLA ingest kernels are timed separately
// by a probe pass that calls TraceFileReader::read_chunk_into,
// CpaEngine::add_trace_batch and TvlaAccumulator::add_batch directly.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "common.h"
#include "store/shared_mapping.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr std::size_t dataset_per_set = 16384;  // 98304 traces
constexpr std::uint32_t job_shards = 8;
constexpr std::size_t job_channels = 2;  // small CPA jobs attack both

// One job of a round: a CPA model on one channel, or TVLA (model < 0).
struct JobKey {
  int model = -1;
  std::size_t channel = 0;

  bool operator<(const JobKey& o) const {
    return std::tie(model, channel) < std::tie(o.model, o.channel);
  }
  bool large() const {
    return model == static_cast<int>(power::PowerModel::rd10_hd);
  }
};

constexpr std::array<power::PowerModel, 2> small_models = {
    power::PowerModel::rd0_hw, power::PowerModel::rd10_hw};
// rd10_hd analysis costs seconds; one channel keeps rounds short.
constexpr JobKey large_job{static_cast<int>(power::PowerModel::rd10_hd), 0};

thread_local bool tl_in_unit = false;
thread_local std::int64_t tl_unit_start = 0;

// Shard-unit observer of one traced job.
struct UnitTrace {
  Tracer* tracer = nullptr;
  std::uint64_t root = 0;
  std::uint64_t job = 0;
  std::mutex mu;
  bool resolved = false;
  std::uint32_t peak = 0;
  double busy_s = 0.0;
  double slowest_s = 0.0;
  std::size_t units = 0;
  std::int64_t last_finish = 0;

  void on_activity(std::uint32_t running) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu);
    if (!resolved) {  // the first call reports the resolved shard count
      resolved = true;
      return;
    }
    if (!tl_in_unit) {
      tl_in_unit = true;
      tl_unit_start = t;
      peak = std::max(peak, running);
      return;
    }
    tl_in_unit = false;
    tracer->record("core.shard_unit", root, job, tl_unit_start, t);
    const double d = seconds_between(tl_unit_start, t);
    busy_s += d;
    slowest_s = std::max(slowest_s, d);
    ++units;
    last_finish = std::max(last_finish, t);
  }
};

class ReplayAnalysis final : public Workload {
 public:
  explicit ReplayAnalysis(const Options& options)
      : options_(options),
        budget_(static_cast<std::uint32_t>(host_nproc())),
        path_(options.out_dir + "/replay-" + std::to_string(::getpid()) +
              ".pstr") {}

  ~ReplayAnalysis() override {
    dataset_.reset();
    std::remove(path_.c_str());
  }

  void setup() override {
    dataset_.reset();
    record_ = record_dataset(path_, dataset_per_set,
                             derive_seed(options_.seed, 0));
    dataset_ = store::SharedMapping::open(path_);
    const AesScenario aes = aes_power_user();
    channels_.clear();
    for (std::size_t i = 0; i < job_channels && i < aes.cpa_columns.size();
         ++i) {
      channels_.push_back(aes.channels[aes.cpa_columns[i]].code());
    }
  }

  void warm_up() override {
    Tally scratch;
    run_job(JobKey{static_cast<int>(power::PowerModel::rd0_hw), 0}, nullptr,
            scratch);
  }

  Window measure(double seconds, Tracer* tracer, Tally& tally) override {
    const WindowClock clock;
    const std::int64_t deadline =
        clock.from_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() < deadline) {
      // Every small spec once (rd0_hw and rd10_hw CPA on both channels,
      // TVLA twice) and rd10_hd CPA on channel 0, in seeded order.
      util::Xoshiro256 rng(derive_seed(options_.seed, 1000 + next_round_++));
      std::vector<JobKey> round{JobKey{}, JobKey{}, large_job};
      for (const power::PowerModel model : small_models) {
        for (std::size_t c = 0; c < channels_.size(); ++c) {
          round.push_back({static_cast<int>(model), c});
        }
      }
      std::shuffle(round.begin(), round.end(), rng);
      for (const JobKey& key : round) {
        run_job(key, tracer, tally);
      }
    }
    return clock.close(tally);
  }

  void verify(Tally& tally) override {
    // Every spec once, sequentially: the reference for the budgeted runs
    // and the serial_traces_per_s sample (fixed composition every run).
    std::vector<JobKey> all{JobKey{}, large_job};
    for (const power::PowerModel model : small_models) {
      for (std::size_t c = 0; c < channels_.size(); ++c) {
        all.push_back({static_cast<int>(model), c});
      }
    }
    for (const JobKey& key : all) {
      ++tally.attempted;
      const std::int64_t t0 = now_ns();
      try {
        double traces = 0.0;
        const std::vector<std::byte> bytes = execute(key, {}, traces);
        tally.serial_s += seconds_between(t0, now_ns());
        tally.serial_traces += traces;
        const auto it = seen_.find(key);
        if (it != seen_.end() && it->second != bytes) {
          ++tally.mismatches;
        }
      } catch (const std::exception&) {
        ++tally.failed;
      }
    }
  }

  // One round (7 jobs) per segment.
  double trace_segment_s() const override { return 1.0; }

  void layer_metrics(const Tracer&, LayerMetrics& out) override {
    out["core.shard_skew"] = median(skew_);
    out["core.shard_units_peak"] = median(peaks_);
    out["core.pool_busy_ratio"] = unit_busy_s_ / budget_wall_s_;
    double merge_sum = 0.0;
    for (const double ms : merge_ms_) {
      merge_sum += ms;
    }
    out["core.merge_analyze_ms"] =
        merge_sum / static_cast<double>(merge_ms_.size());
    out["store.encode_us_per_chunk"] =
        record_.encode_s / static_cast<double>(record_.chunks) * 1e6;
    out["store.bytes_per_trace"] = static_cast<double>(record_.file_bytes) /
                                   static_cast<double>(record_.traces);
    store_core_probe(dataset_, record_.secret, out);
  }

 private:
  // Runs one job under the shard budget and books it.
  void run_job(const JobKey& key, Tracer* tracer, Tally& tally) {
    ++tally.attempted;
    UnitTrace trace;
    bus::JobExecOptions exec;
    const std::uint32_t budget = budget_;
    exec.shard_budget = [budget] { return budget; };
    if (tracer != nullptr) {
      trace.tracer = tracer;
      trace.root = tracer->next_id();
      trace.job = next_job_++;
      exec.on_shard_activity = [&trace](std::uint32_t, std::uint32_t running) {
        trace.on_activity(running);
      };
    }
    std::vector<double>& latencies = key.large() ? tally.large_ms
                                                 : tally.small_ms;
    const std::int64_t t0 = now_ns();
    try {
      double traces = 0.0;
      std::vector<std::byte> bytes = execute(key, exec, traces);
      const std::int64_t t1 = now_ns();
      const double dt = seconds_between(t0, t1);
      ++tally.jobs_done;
      tally.traces += traces;
      tally.traces_s += dt;
      tally.window_traces += traces;
      latencies.push_back(dt * 1e3);
      const auto [it, fresh] = seen_.try_emplace(key, std::move(bytes));
      if (!fresh && it->second != bytes) {
        ++tally.mismatches;  // same spec, same dataset, different bytes
      }
      if (tracer != nullptr) {
        tracer->record(Span{"bus.job", trace.root, 0, trace.job, -1, t0, t1});
        if (trace.units > 0) {
          tracer->record("core.merge_analyze", trace.root, trace.job,
                         trace.last_finish, t1);
          skew_.push_back(trace.slowest_s /
                          (trace.busy_s / static_cast<double>(trace.units)));
          peaks_.push_back(static_cast<double>(trace.peak));
          unit_busy_s_ += trace.busy_s;
          budget_wall_s_ += dt * budget;
          merge_ms_.push_back(seconds_between(trace.last_finish, t1) * 1e3);
        }
      }
    } catch (const std::exception&) {
      ++tally.failed;
      latencies.push_back(std::numeric_limits<double>::infinity());
    }
  }

  std::vector<std::byte> execute(const JobKey& key,
                                 const bus::JobExecOptions& exec,
                                 double& traces) const {
    if (key.model < 0) {
      bus::TvlaJobSpec spec;
      spec.shards = job_shards;
      const bus::TvlaJobResult result =
          bus::run_tvla_job(dataset_, spec, {}, exec);
      traces = 6.0 * static_cast<double>(result.traces_per_set);
      return encode(result);
    }
    bus::CpaJobSpec spec;
    spec.channel = channels_[key.channel];
    spec.known_key = record_.secret;
    spec.models = {static_cast<power::PowerModel>(key.model)};
    spec.shards = job_shards;
    const bus::CpaJobResult result = bus::run_cpa_job(dataset_, spec, {}, exec);
    traces = static_cast<double>(result.traces);
    return encode(result);
  }

  Options options_;
  std::uint32_t budget_;
  std::string path_;
  RecordStats record_;
  std::shared_ptr<const store::SharedMapping> dataset_;
  std::vector<std::uint32_t> channels_;
  std::map<JobKey, std::vector<std::byte>> seen_;
  std::uint64_t next_round_ = 0;
  std::uint64_t next_job_ = 1;
  std::vector<double> skew_;
  std::vector<double> peaks_;
  std::vector<double> merge_ms_;
  double unit_busy_s_ = 0.0;
  double budget_wall_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_replay_analysis(const Options& options) {
  return std::make_unique<ReplayAnalysis>(options);
}

}  // namespace perfbench
