// Shared pieces of the benchmark workloads: options, the per-segment
// tally the end-to-end metrics come from, the workload interface, and
// helpers every workload uses (seeding, statistics, resource usage,
// dataset recording, bit-exact result encoding).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bus/jobs.h"
#include "bus/scenario_jobs.h"
#include "core/campaigns.h"
#include "scenario/scenario.h"
#include "tracer.h"

namespace psc::store {
class SharedMapping;  // store/shared_mapping.h
}

namespace perfbench {

namespace aes = psc::aes;
namespace bus = psc::bus;
namespace core = psc::core;
namespace power = psc::power;
namespace scenario = psc::scenario;
namespace store = psc::store;
namespace util = psc::util;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build";
};

// What one measured segment did. End-to-end metrics are computed from
// it; a traced run keeps separate tallies for its traced and untraced
// segments.
struct Tally {
  double wall_s = 0.0;  // segment wall time
  double cpu_s = 0.0;   // user+sys CPU of the whole process in the segment
  // Work behind traces_per_s: traces fully analysed, and the wall time
  // spent producing them.
  double traces = 0.0;
  double traces_s = 0.0;
  // Every trace analysed in the segment (the cpu_s_per_mtrace base).
  double window_traces = 0.0;
  // Work behind serial_traces_per_s (one worker / sequential).
  double serial_traces = 0.0;
  double serial_s = 0.0;
  std::uint64_t jobs_done = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // failed or refused operations
  std::uint64_t mismatches = 0;  // correctness-check disagreements
  // Submit-to-result latencies. A failed or refused job enters as
  // +infinity: it misses any limit, and is never dropped.
  std::vector<double> small_ms;
  std::vector<double> large_ms;

  void add(const Tally& other);
};

// The span of time one measured segment covers.
struct Window {
  std::int64_t from_ns = 0;
  std::int64_t to_ns = 0;
};

// Per-layer metrics by name (units live in BENCHMARK.json).
using LayerMetrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  // One set-up unit (source calibration, dataset recording, daemon
  // start). Called several times; the median is setup_s. The state the
  // last call leaves behind is what the measured segments use.
  virtual void setup() = 0;
  // Untimed first pass so lazy start-up (pool threads, page cache,
  // chunk cache) is done before measuring.
  virtual void warm_up() = 0;
  // Runs the workload for about `seconds` and adds to `tally`, including
  // the wall and CPU time of the measured window it returns. With a
  // tracer, records spans around each layer call.
  virtual Window measure(double seconds, Tracer* tracer, Tally& tally) = 0;
  // Correctness checks and sequential reference runs, after measuring.
  virtual void verify(Tally& tally) = 0;
  // Per-layer metrics from the traced segments' spans plus the
  // workload's out-of-band layer probes (traced runs only).
  virtual void layer_metrics(const Tracer& tracer, LayerMetrics& out) = 0;
  // Length of one untraced or traced segment of a traced run: about one
  // round of the workload, so the two kinds interleave finely.
  virtual double trace_segment_s() const { return 2.5; }
};

std::unique_ptr<Workload> make_live_attack(const Options& options);
std::unique_ptr<Workload> make_replay_analysis(const Options& options);
std::unique_ptr<Workload> make_served_mix(const Options& options);

// ---------- helpers ----------

// Stream `stream` of the run's seed: every key, plaintext and job
// sequence derives from (seed, stream), never from timing.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// CPUs this process may run on (what `nproc` prints).
std::size_t host_nproc();

double cpu_seconds();      // user + sys of this process so far
double peak_rss_mib();     // ru_maxrss of this process

// Linear-interpolated percentile (q in [0, 100]) of `values`; +infinity
// entries sort last. Returns +infinity when the rank lands on one.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

double seconds_between(std::int64_t from_ns, std::int64_t to_ns);

// Opens a measured window; close() charges its wall time and the
// process's CPU time to a tally.
class WindowClock {
 public:
  WindowClock() : from_ns_(now_ns()), cpu0_(cpu_seconds()) {}

  std::int64_t from_ns() const { return from_ns_; }
  Window close(Tally& tally) const;

 private:
  std::int64_t from_ns_;
  double cpu0_;
};

// The paper's scenario: aes-power-user with default params.
struct AesScenario {
  std::shared_ptr<const scenario::Scenario> scenario;
  scenario::ParamSet params;
  std::vector<util::FourCc> channels;
  std::vector<std::size_t> cpa_columns;  // default CPA keys, as columns
};
AesScenario aes_power_user();

// Records `traces_per_set` traces per TVLA set from aes-power-user into a
// v2 PSTR file at `path`, in TVLA protocol order (shards = 1), through
// store::TraceFileWriter with delta+bit-pack channel codecs. Returns the
// recorded secret (the key CPA jobs rank against).
struct RecordStats {
  aes::Block secret{};
  std::size_t traces = 0;
  std::size_t chunks = 0;
  double encode_s = 0.0;  // inside TraceFileWriter::append / finalize
  std::size_t file_bytes = 0;
};
RecordStats record_dataset(const std::string& path,
                           std::size_t traces_per_set, std::uint64_t seed);

// Times the store and core layers on `data` with direct calls (chunk
// decode without a cache, CPA/TVLA batch ingest, CPA analysis); the
// replay and served workloads' traced runs share it.
void store_core_probe(const std::shared_ptr<const store::SharedMapping>& data,
                      const aes::Block& secret, LayerMetrics& out);

// Wire encodings of job results (f64 as IEEE bit patterns), so two
// results compare bit-for-bit as byte strings.
std::vector<std::byte> encode(const bus::CpaJobResult& result);
std::vector<std::byte> encode(const bus::TvlaJobResult& result);
std::vector<std::byte> encode(const bus::ScenarioJobResult& result);
std::vector<std::byte> encode(const core::SinkCampaignResult& result);

}  // namespace perfbench
