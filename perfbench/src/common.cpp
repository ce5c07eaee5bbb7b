#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "bus/protocol.h"
#include "core/cpa.h"
#include "core/tvla.h"
#include "scenario/registry.h"
#include "store/shared_mapping.h"
#include "store/trace_file_reader.h"
#include "store/trace_file_writer.h"
#include "util/rng.h"

namespace perfbench {

void Tally::add(const Tally& other) {
  wall_s += other.wall_s;
  cpu_s += other.cpu_s;
  traces += other.traces;
  traces_s += other.traces_s;
  window_traces += other.window_traces;
  serial_traces += other.serial_traces;
  serial_s += other.serial_s;
  jobs_done += other.jobs_done;
  attempted += other.attempted;
  failed += other.failed;
  mismatches += other.mismatches;
  small_ms.insert(small_ms.end(), other.small_ms.begin(), other.small_ms.end());
  large_ms.insert(large_ms.end(), other.large_ms.begin(), other.large_ms.end());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  util::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + stream);
  mix();
  return mix();
}

std::size_t host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) {
      return static_cast<std::size_t>(n);
    }
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0 || values[lo] == values[hi]) {
    return values[lo];
  }
  if (std::isinf(values[hi])) {
    return values[hi];
  }
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

Window WindowClock::close(Tally& tally) const {
  const std::int64_t to_ns = now_ns();
  tally.wall_s += seconds_between(from_ns_, to_ns);
  tally.cpu_s += cpu_seconds() - cpu0_;
  return {from_ns_, to_ns};
}

AesScenario aes_power_user() {
  AesScenario out;
  out.scenario = scenario::ScenarioRegistry::built_in().find("aes-power-user");
  if (out.scenario == nullptr) {
    throw std::runtime_error("aes-power-user scenario not registered");
  }
  out.params = out.scenario->parse_params({});
  out.channels = out.scenario->channels(out.params);
  for (const util::FourCc key : out.scenario->analysis(out.params).cpa_keys) {
    const auto it = std::find(out.channels.begin(), out.channels.end(), key);
    out.cpa_columns.push_back(
        static_cast<std::size_t>(it - out.channels.begin()));
  }
  return out;
}

namespace {

// Recording sink that times the store write path it forwards to.
class TimedRecorder final : public core::AnalysisSink {
 public:
  explicit TimedRecorder(store::TraceFileWriter& writer) : writer_(writer) {}

  void consume(const core::TraceBatch& batch,
               const core::BatchLabel&) override {
    const std::int64_t t0 = now_ns();
    writer_.append(batch);
    encode_s += seconds_between(t0, now_ns());
  }

  double encode_s = 0.0;

 private:
  store::TraceFileWriter& writer_;
};

}  // namespace

RecordStats record_dataset(const std::string& path,
                           std::size_t traces_per_set, std::uint64_t seed) {
  const AesScenario aes = aes_power_user();
  store::TraceFileWriter writer(
      path, {.channels = aes.channels,
             .metadata = {{"scenario", aes.scenario->name()}},
             .channel_codecs = store::uniform_channel_codecs(
                 aes.channels.size(), store::ColumnCodec::delta_bitpack)});
  TimedRecorder recorder(writer);

  core::SinkCampaignConfig config;
  config.channels = aes.channels;
  config.make_source = [&aes](const aes::Block& secret, std::uint64_t s) {
    return aes.scenario->make_source(aes.params, secret, s);
  };
  config.traces_per_set = traces_per_set;
  config.seed = seed;
  config.workers = 1;
  config.shards = 1;
  config.extra_sink = [&recorder](std::size_t) { return &recorder; };
  const core::SinkCampaignResult result = core::run_sink_campaign(config);

  const std::int64_t t0 = now_ns();
  writer.finalize();
  recorder.encode_s += seconds_between(t0, now_ns());

  const store::TraceFileReader reader(path);
  RecordStats stats;
  stats.secret = result.secret;
  stats.traces = reader.trace_count();
  stats.chunks = reader.chunk_count();
  stats.encode_s = recorder.encode_s;
  stats.file_bytes = reader.file_bytes();
  return stats;
}

// Decode, ingest and analysis costs of one dataset, each timed around a
// direct call: store.decode_us_per_chunk (read_chunk_into, no cache),
// core.cpa_add_batch_ns_per_trace (one engine holding the three paper
// models), core.tvla_add_batch_ns_per_trace (every channel) and
// core.cpa_analyze_ms.{rd0_hw,rd10_hd}. Medians over passes (rd10_hd
// analysis runs on the first pass only).
void store_core_probe(const std::shared_ptr<const store::SharedMapping>& data,
                      const aes::Block& secret, LayerMetrics& out) {
  constexpr int passes = 3;
  std::vector<double> decode_us;
  std::vector<double> cpa_ns;
  std::vector<double> tvla_ns;
  std::vector<double> analyze_hw_ms;
  std::vector<double> analyze_hd_ms;
  const auto round_keys = aes::Aes128::expand_key(secret);
  for (int p = 0; p < passes; ++p) {
    store::TraceFileReader reader(data);
    store::TraceFileReader::ChunkBuffer buf;
    core::CpaEngine engine({power::PowerModel::rd0_hw,
                            power::PowerModel::rd10_hw,
                            power::PowerModel::rd10_hd});
    std::vector<core::TvlaAccumulator> tvla(reader.channels().size());
    const std::size_t block = reader.trace_count() / 6;
    double decode_s = 0.0;
    double cpa_s = 0.0;
    double tvla_s = 0.0;
    for (std::size_t i = 0; i < reader.chunk_count(); ++i) {
      const std::int64_t t0 = now_ns();
      const store::ChunkView view = reader.read_chunk_into(i, buf);
      const std::int64_t t1 = now_ns();
      engine.add_trace_batch(view.plaintexts(), view.ciphertexts(),
                             view.column(0));
      const std::int64_t t2 = now_ns();
      const std::size_t set =
          std::min<std::size_t>(5, view.row_begin() / block);
      for (std::size_t c = 0; c < tvla.size(); ++c) {
        tvla[c].add_batch(core::all_plaintext_classes[set % 3], set >= 3,
                          view.column(c));
      }
      const std::int64_t t3 = now_ns();
      decode_s += seconds_between(t0, t1);
      cpa_s += seconds_between(t1, t2);
      tvla_s += seconds_between(t2, t3);
    }
    const double traces = static_cast<double>(reader.trace_count());
    decode_us.push_back(decode_s / static_cast<double>(reader.chunk_count()) *
                        1e6);
    cpa_ns.push_back(cpa_s / traces * 1e9);
    tvla_ns.push_back(tvla_s / traces * 1e9);
    std::int64_t t0 = now_ns();
    (void)engine.analyze(power::PowerModel::rd0_hw, round_keys);
    std::int64_t t1 = now_ns();
    analyze_hw_ms.push_back(seconds_between(t0, t1) * 1e3);
    if (p == 0) {  // seconds per call: once is enough
      t0 = now_ns();
      (void)engine.analyze(power::PowerModel::rd10_hd, round_keys);
      t1 = now_ns();
      analyze_hd_ms.push_back(seconds_between(t0, t1) * 1e3);
    }
  }
  out["store.decode_us_per_chunk"] = median(decode_us);
  out["core.cpa_add_batch_ns_per_trace"] = median(cpa_ns);
  out["core.tvla_add_batch_ns_per_trace"] = median(tvla_ns);
  out["core.cpa_analyze_ms.rd0_hw"] = median(analyze_hw_ms);
  out["core.cpa_analyze_ms.rd10_hd"] = median(analyze_hd_ms);
}

std::vector<std::byte> encode(const bus::CpaJobResult& result) {
  bus::PayloadWriter w;
  bus::CpaResultMsg{0, result}.encode(w);
  return w.bytes();
}

std::vector<std::byte> encode(const bus::TvlaJobResult& result) {
  bus::PayloadWriter w;
  bus::TvlaResultMsg{0, result}.encode(w);
  return w.bytes();
}

std::vector<std::byte> encode(const bus::ScenarioJobResult& result) {
  bus::PayloadWriter w;
  bus::ScenarioResultMsg{0, result}.encode(w);
  return w.bytes();
}

std::vector<std::byte> encode(const core::SinkCampaignResult& result) {
  bus::ScenarioJobResult wrapped;
  wrapped.secret = result.secret;
  wrapped.traces_per_set = result.traces_per_set;
  wrapped.cpa_trace_count = result.cpa_trace_count;
  wrapped.tvla = result.tvla;
  wrapped.cpa = result.cpa;
  return encode(wrapped);
}

}  // namespace perfbench
