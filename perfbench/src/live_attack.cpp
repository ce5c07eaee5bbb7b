// live-attack: the paper's Table 3 + Table 4 pipeline from live simulated
// acquisition. Each round runs combined TVLA + CPA(rd0_hw) + GE campaigns
// on aes-power-user through core::run_sink_campaign at workers = nproc
// (8 shards), then the first of them again at 1 worker; the two results
// must be bit-identical.
//
// Traced campaigns wrap Scenario::make_source in a forwarding decorator
// (victim collect_batch timing) and append a probe as the shard's extra
// sink, which run_sink_campaign places last in the shard's MultiSink: the
// interval from collect_batch returning to the probe being reached is the
// TVLA, CPA and GE sinks' ingest.
#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <vector>

#include "aes/aes128.h"
#include "common.h"
#include "core/tvla.h"
#include "power/leakage_model.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr std::size_t campaign_shards = 8;
constexpr std::size_t traces_per_set = 24576;  // 147456 traces per campaign
constexpr int parallel_per_round = 4;

// One shard of a traced campaign. The source factory creates it on the
// shard's thread; the extra-sink hook, called next on the same thread,
// learns the shard index from run_sink_campaign and picks it up through
// the thread-local below.
struct ShardTrace {
  std::uint64_t span = 0;
  std::int32_t index = -1;
  std::int64_t start_ns = 0;
  std::int64_t collect_end_ns = 0;
  std::int64_t last_ns = 0;
};

thread_local ShardTrace* tl_shard = nullptr;

struct LayerTotals {
  double collect_s = 0.0;
  double ingest_s = 0.0;
  double traces = 0.0;
  std::vector<double> make_source_ms;
  std::vector<double> shard_skew;
  std::vector<double> merge_analyze_ms;
};

class TimedSource final : public core::TraceSource {
 public:
  TimedSource(std::unique_ptr<core::TraceSource> inner, Tracer& tracer,
              std::uint64_t job, ShardTrace& shard, std::mutex& mu,
              LayerTotals& totals)
      : inner_(std::move(inner)),
        tracer_(tracer),
        job_(job),
        shard_(shard),
        mu_(mu),
        totals_(totals) {}

  const std::vector<util::FourCc>& keys() const noexcept override {
    return inner_->keys();
  }
  core::TraceRecord collect(const aes::Block& plaintext) override {
    return inner_->collect(plaintext);
  }
  void collect_batch(core::TraceBatch& batch) override {
    const std::int64_t t0 = now_ns();
    inner_->collect_batch(batch);
    const std::int64_t t1 = now_ns();
    tracer_.record("victim.collect_batch", shard_.span, job_, t0, t1);
    shard_.collect_end_ns = t1;
    std::lock_guard<std::mutex> lock(mu_);
    totals_.collect_s += seconds_between(t0, t1);
    totals_.traces += static_cast<double>(batch.size());
  }
  double window_s() const noexcept override { return inner_->window_s(); }
  std::optional<std::size_t> remaining() const noexcept override {
    return inner_->remaining();
  }

 private:
  std::unique_ptr<core::TraceSource> inner_;
  Tracer& tracer_;
  std::uint64_t job_;
  ShardTrace& shard_;
  std::mutex& mu_;
  LayerTotals& totals_;
};

class IngestProbe final : public core::AnalysisSink {
 public:
  void consume(const core::TraceBatch&, const core::BatchLabel&) override {
    const std::int64_t t = now_ns();
    tracer->record("core.ingest", shard->span, job, shard->collect_end_ns, t);
    ingest_s += seconds_between(shard->collect_end_ns, t);
    shard->last_ns = t;
  }

  Tracer* tracer = nullptr;
  std::uint64_t job = 0;
  ShardTrace* shard = nullptr;
  double ingest_s = 0.0;
};

class LiveAttack final : public Workload {
 public:
  explicit LiveAttack(const Options& options)
      : options_(options), workers_(host_nproc()) {}

  // Source calibration for every shard, then a first eighth-size
  // campaign at one worker. (One worker: a short parallel pass times
  // thread wake-ups more than work on a shared host.)
  void setup() override {
    aes_ = aes_power_user();
    util::Xoshiro256 rng(derive_seed(options_.seed, 0));
    aes::Block secret;
    rng.fill_bytes(secret);
    for (std::size_t s = 0; s < campaign_shards; ++s) {
      (void)aes_.scenario->make_source(aes_.params, secret, rng());
    }
    (void)core::run_sink_campaign(
        config(derive_seed(options_.seed, 1), 1, traces_per_set / 8));
  }

  // Starts the worker pool's threads.
  void warm_up() override {
    (void)core::run_sink_campaign(
        config(derive_seed(options_.seed, 1), workers_, traces_per_set / 8));
  }

  Window measure(double seconds, Tracer* tracer, Tally& tally) override {
    const WindowClock clock;
    const std::int64_t deadline =
        clock.from_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() < deadline) {
      const std::uint64_t round = next_round_++;
      std::vector<std::byte> reference;
      for (int i = 0; i < parallel_per_round; ++i) {
        const std::uint64_t seed =
            derive_seed(options_.seed, 1000 + round * 16 + i);
        const Outcome out = run_campaign(seed, workers_, tracer, tally);
        if (out.ok) {
          tally.traces += out.traces;
          tally.traces_s += out.seconds;
          tally.small_ms.push_back(out.seconds * 1e3);
        } else {
          tally.small_ms.push_back(std::numeric_limits<double>::infinity());
        }
        if (i == 0) {
          reference = out.encoded;
        }
      }
      const Outcome serial = run_campaign(
          derive_seed(options_.seed, 1000 + round * 16), 1, tracer, tally);
      if (serial.ok) {
        tally.serial_traces += serial.traces;
        tally.serial_s += serial.seconds;
        tally.large_ms.push_back(serial.seconds * 1e3);
        if (!reference.empty() && serial.encoded != reference) {
          ++tally.mismatches;  // workers changed the result
        }
      } else {
        tally.large_ms.push_back(std::numeric_limits<double>::infinity());
      }
    }
    return clock.close(tally);
  }

  void verify(Tally&) override {}  // checked in every round

  // One round (4 + 1 campaigns) per segment.
  double trace_segment_s() const override { return 1.0; }

  void layer_metrics(const Tracer&, LayerMetrics& out) override {
    out["victim.collect_ns_per_trace"] =
        totals_.collect_s / totals_.traces * 1e9;
    out["core.ingest_ns_per_trace"] = totals_.ingest_s / totals_.traces * 1e9;
    out["scenario.make_source_ms"] = median(totals_.make_source_ms);
    out["core.shard_skew"] = median(totals_.shard_skew);
    out["core.merge_analyze_ms"] = median(totals_.merge_analyze_ms);
    aes_power_probe(out);
  }

 private:
  struct Outcome {
    bool ok = false;
    double traces = 0.0;
    double seconds = 0.0;
    std::vector<std::byte> encoded;
  };

  core::SinkCampaignConfig config(std::uint64_t seed, std::size_t workers,
                                  std::size_t per_set) const {
    core::SinkCampaignConfig config;
    config.channels = aes_.channels;
    const AesScenario* aes = &aes_;
    config.make_source = [aes](const aes::Block& secret, std::uint64_t s) {
      return aes->scenario->make_source(aes->params, secret, s);
    };
    config.traces_per_set = per_set;
    config.cpa_columns = aes_.cpa_columns;
    config.models = {power::PowerModel::rd0_hw};
    // GE at 1/16, 1/4 and all of the CPA stream.
    config.checkpoints =
        core::log_spaced_checkpoints(per_set / 8, 2 * per_set, 3);
    config.seed = seed;
    config.workers = workers;
    config.shards = campaign_shards;
    return config;
  }

  Outcome run_campaign(std::uint64_t seed, std::size_t workers,
                       Tracer* tracer, Tally& tally) {
    ++tally.attempted;
    core::SinkCampaignConfig cfg = config(seed, workers, traces_per_set);
    const std::uint64_t job = next_job_++;
    std::uint64_t root = 0;
    std::mutex mu;
    std::vector<std::unique_ptr<ShardTrace>> shards;
    std::vector<IngestProbe> probes(campaign_shards);
    if (tracer != nullptr) {
      root = tracer->next_id();
      const AesScenario* aes = &aes_;
      cfg.make_source = [&, aes, job](const aes::Block& secret,
                                      std::uint64_t s) {
        const std::int64_t t0 = now_ns();
        ShardTrace* shard = nullptr;
        {
          std::lock_guard<std::mutex> lock(mu);
          shards.push_back(std::make_unique<ShardTrace>());
          shard = shards.back().get();
        }
        shard->span = tracer->next_id();
        shard->start_ns = t0;
        tl_shard = shard;
        auto inner = aes->scenario->make_source(aes->params, secret, s);
        const std::int64_t t1 = now_ns();
        tracer->record("scenario.make_source", shard->span, job, t0, t1);
        shard->collect_end_ns = t1;
        {
          std::lock_guard<std::mutex> lock(mu);
          totals_.make_source_ms.push_back(seconds_between(t0, t1) * 1e3);
        }
        return std::make_unique<TimedSource>(std::move(inner), *tracer, job,
                                             *shard, mu, totals_);
      };
      cfg.extra_sink = [&, job](std::size_t s) -> core::AnalysisSink* {
        ShardTrace* shard = tl_shard;
        shard->index = static_cast<std::int32_t>(s);
        probes[s].tracer = tracer;
        probes[s].job = job;
        probes[s].shard = shard;
        return &probes[s];
      };
    }

    Outcome out;
    const std::int64_t t0 = now_ns();
    try {
      const core::SinkCampaignResult result = core::run_sink_campaign(cfg);
      const std::int64_t t1 = now_ns();
      out.ok = true;
      out.seconds = seconds_between(t0, t1);
      out.traces = 6.0 * static_cast<double>(traces_per_set);
      out.encoded = encode(result);
      ++tally.jobs_done;
      tally.window_traces += out.traces;
      if (tracer != nullptr) {
        close_campaign_spans(*tracer, root, job, t0, t1, shards, probes,
                             workers > 1);
      }
    } catch (const std::exception&) {
      ++tally.failed;
    }
    return out;
  }

  void close_campaign_spans(
      Tracer& tracer, std::uint64_t root, std::uint64_t job, std::int64_t t0,
      std::int64_t t1, const std::vector<std::unique_ptr<ShardTrace>>& shards,
      const std::vector<IngestProbe>& probes, bool parallel) {
    double sum = 0.0;
    double slowest = 0.0;
    std::int64_t last = t0;
    for (const auto& shard : shards) {
      tracer.record(Span{"core.shard", shard->span, root, job, shard->index,
                         shard->start_ns, shard->last_ns});
      const double d = seconds_between(shard->start_ns, shard->last_ns);
      sum += d;
      slowest = std::max(slowest, d);
      last = std::max(last, shard->last_ns);
    }
    tracer.record(Span{"core.campaign", root, 0, job, -1, t0, t1});
    for (const IngestProbe& probe : probes) {
      totals_.ingest_s += probe.ingest_s;
    }
    if (parallel && !shards.empty()) {
      totals_.shard_skew.push_back(slowest /
                                   (sum / static_cast<double>(shards.size())));
      totals_.merge_analyze_ms.push_back(seconds_between(last, t1) * 1e3);
    }
  }

  // aes.encrypt_trace_ns and power.leakage_ns: the two halves of the
  // victim's per-trace simulation, timed on the campaign's plaintext mix
  // (TVLA classes, one third each) with a seeded key.
  void aes_power_probe(LayerMetrics& out) const {
    constexpr std::size_t n = 16384;
    constexpr int reps = 7;
    util::Xoshiro256 rng(derive_seed(options_.seed, 2));
    aes::Block key;
    rng.fill_bytes(key);
    const aes::Aes128 cipher(key);
    const power::LeakageEvaluator evaluator(
        power::LeakageConfig::apple_silicon_default());
    std::vector<aes::Block> plaintexts(n);
    for (std::size_t i = 0; i < n; ++i) {
      plaintexts[i] = core::class_plaintext(core::all_plaintext_classes[i % 3],
                                            rng);
    }
    std::vector<aes::RoundTrace> traces(n);
    std::vector<double> aes_ns;
    std::vector<double> leak_ns;
    double sink = 0.0;
    for (int r = 0; r < reps; ++r) {
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < n; ++i) {
        sink += cipher.encrypt_trace(plaintexts[i], traces[i])[0];
      }
      const std::int64_t t1 = now_ns();
      for (std::size_t i = 0; i < n; ++i) {
        sink += evaluator.energy_deviation(plaintexts[i], traces[i]);
      }
      const std::int64_t t2 = now_ns();
      aes_ns.push_back(static_cast<double>(t1 - t0) / n);
      leak_ns.push_back(static_cast<double>(t2 - t1) / n);
    }
    out["aes.encrypt_trace_ns"] = median(aes_ns);
    out["power.leakage_ns"] = median(leak_ns);
    if (std::isnan(sink)) {
      out["aes.encrypt_trace_ns"] = std::nan("");  // keeps `sink` live
    }
  }

  Options options_;
  std::size_t workers_;
  AesScenario aes_;
  LayerTotals totals_;
  std::uint64_t next_round_ = 0;
  std::uint64_t next_job_ = 1;
};

}  // namespace

std::unique_ptr<Workload> make_live_attack(const Options& options) {
  return std::make_unique<LiveAttack>(options);
}

}  // namespace perfbench
