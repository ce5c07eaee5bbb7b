// served-mix: an in-process bus::BusDaemon with its default chunk cache
// (large enough for the whole decoded dataset) serving min(4, nproc)
// closed-loop clients, one connection each; a client submits its next
// job only after fetching the previous result. The seeded mix is mostly
// small CPA and TVLA replay jobs plus scenario jobs over aes-power-kernel,
// cache-timing, dvfs-frequency and sqmul-timing, and from client 0 now
// and then a full-dataset rd10_hd CPA job on many shards (see
// `deck_counts`).
//
// Latency runs from submit to result fetched. A traced client splits it
// at the calls it makes: submit (BusClient::submit_*), queue wait (submit
// returned -> first PROGRESS frame showing the job started, i.e. traces
// consumed or shard units running; 0 when no such frame arrives), run
// (-> JOB_DONE) and result fetch (BusClient::*_result). The first job of
// each kind on clients 0 and 1, and client 0's first large job, are re-run
// in-process afterwards and must match the served bytes (the check
// `psc_busctl --verify-local` makes).
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "bus/client.h"
#include "bus/daemon.h"
#include "common.h"
#include "scenario/registry.h"
#include "store/shared_mapping.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr std::size_t dataset_per_set = 16384;  // 98304 traces
constexpr std::size_t max_clients = 4;
constexpr std::uint32_t large_shards = 16;
constexpr std::uint64_t small_cpa_traces = 16384;
constexpr std::uint64_t small_tvla_per_set = 4096;
constexpr std::uint64_t scenario_per_set = 500;
constexpr std::size_t verified_clients = 2;
const char* const dataset_name = "ds";

// Kinds of job in the mix; verification takes the first of each kind.
enum Kind : int {
  cpa_rd0 = 0,
  cpa_rd10,
  tvla,
  scn_aes_kernel,
  scn_cache,
  scn_dvfs,
  scn_sqmul,
  large,
  kind_count
};

struct Job {
  Kind kind = cpa_rd0;
  bus::CpaJobSpec cpa;
  bus::TvlaJobSpec tvla;
  bus::ScenarioJobSpec scenario;
  double traces = 0.0;
};

struct Served {
  Job job;
  std::vector<std::byte> bytes;
};

// Per-layer samples of the traced segments.
struct BusSamples {
  std::vector<double> submit_us;
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  std::vector<double> fetch_ms;
  std::uint64_t submits = 0;
  std::uint64_t refused = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  void add(const BusSamples& o) {
    submit_us.insert(submit_us.end(), o.submit_us.begin(), o.submit_us.end());
    queue_ms.insert(queue_ms.end(), o.queue_ms.begin(), o.queue_ms.end());
    run_ms.insert(run_ms.end(), o.run_ms.begin(), o.run_ms.end());
    fetch_ms.insert(fetch_ms.end(), o.fetch_ms.begin(), o.fetch_ms.end());
    submits += o.submits;
    refused += o.refused;
  }
};

// Small job kinds per deck of 39: 17 small CPA, 10 small TVLA and 12
// scenario jobs (3 per scenario). Client 0 adds one large job to each of
// its decks, so at most one large job runs at a time and small jobs from
// the other clients queue behind it.
constexpr std::array<std::pair<Kind, int>, 7> deck_counts = {{
    {cpa_rd0, 9}, {cpa_rd10, 8}, {tvla, 10}, {scn_aes_kernel, 3},
    {scn_cache, 3}, {scn_dvfs, 3}, {scn_sqmul, 3}}};

std::vector<Kind> make_deck(bool with_large) {
  std::vector<Kind> out;
  for (const auto& [kind, count] : deck_counts) {
    out.insert(out.end(), static_cast<std::size_t>(count), kind);
  }
  if (with_large) {
    out.push_back(large);
  }
  return out;
}

// One closed-loop client's seeded job stream; persists across segments.
struct ClientState {
  util::Xoshiro256 rng{1};
  std::vector<Kind> deck = make_deck(false);
  std::uint64_t next = 0;
  std::array<bool, kind_count> verified{};
};

class ServedMix final : public Workload {
 public:
  explicit ServedMix(const Options& options)
      : options_(options),
        clients_(std::min(max_clients, host_nproc())),
        socket_path_(options.out_dir + "/served-" +
                     std::to_string(::getpid()) + ".sock"),
        path_(options.out_dir + "/served-" + std::to_string(::getpid()) +
              ".pstr") {
    for (std::size_t c = 0; c < clients_; ++c) {
      ClientState state;
      state.rng = util::Xoshiro256(derive_seed(options_.seed, 5000 + c));
      state.deck = make_deck(c == 0);
      states_.push_back(state);
    }
  }

  ~ServedMix() override {
    if (daemon_ != nullptr) {
      daemon_->stop();
    }
    std::remove(path_.c_str());
  }

  void setup() override {
    if (daemon_ != nullptr) {
      daemon_->stop();
      daemon_.reset();
    }
    record_ = record_dataset(path_, dataset_per_set,
                             derive_seed(options_.seed, 0));
    const AesScenario aes = aes_power_user();
    channels_ = {aes.channels[aes.cpa_columns.at(0)].code(),
                 aes.channels[aes.cpa_columns.at(1)].code()};

    bus::BusDaemonConfig config;
    config.socket_path = socket_path_;
    config.pool_reserve = host_nproc();
    config.datasets = {{dataset_name, path_}};
    daemon_ = std::make_unique<bus::BusDaemon>(std::move(config));
    daemon_->start();

    // Fill the chunk cache: one TVLA pass decodes every chunk once.
    bus::BusClient client(socket_path_);
    const std::uint64_t id = client.submit_tvla(dataset_name, {});
    client.watch(id);
    (void)client.tvla_result(id);
  }

  void warm_up() override {
    bus::BusClient client(socket_path_);
    for (const Kind kind : {cpa_rd0, tvla, scn_aes_kernel}) {
      ClientState scratch;
      Job job = make_job(kind, scratch.rng);
      BusSamples ignored;
      serve(client, job, nullptr, 0, ignored);
    }
  }

  // The window ends at the deadline: a job counts towards throughput
  // when its result arrived by then, and the drain that follows (clients
  // finishing in-flight jobs, possibly a large one) is not measured.
  // Latency samples keep every completed job.
  Window measure(double seconds, Tracer* tracer, Tally& tally) override {
    // The STATS connection closes before the clients connect, so no more
    // than `clients_` connections are ever open.
    const bus::StatsMsg before = bus::BusClient(socket_path_).stats();
    const WindowClock clock;
    const std::int64_t deadline =
        clock.from_ns() + static_cast<std::int64_t>(seconds * 1e9);
    std::mutex mu;
    Tally clients;
    std::vector<std::thread> threads;
    threads.reserve(clients_);
    for (std::size_t c = 0; c < clients_; ++c) {
      threads.emplace_back([&, c] {
        Tally mine;
        BusSamples samples;
        std::vector<Served> checks;
        try {
          run_client(c, deadline, tracer, mine, samples, checks);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "served-mix client %zu: %s\n", c, e.what());
          ++mine.failed;
        }
        std::lock_guard<std::mutex> lock(mu);
        clients.add(mine);
        if (tracer != nullptr) {
          samples_.add(samples);
        }
        for (Served& s : checks) {
          checks_.push_back(std::move(s));
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline - now_ns()));
    const Window window = clock.close(tally);
    for (std::thread& t : threads) {
      t.join();
    }
    tally.add(clients);
    tally.traces_s += seconds_between(window.from_ns, window.to_ns);
    const bus::StatsMsg after = bus::BusClient(socket_path_).stats();
    if (tracer != nullptr) {
      samples_.cache_hits += after.cache_hits - before.cache_hits;
      samples_.cache_misses += after.cache_misses - before.cache_misses;
    }
    return window;
  }

  void verify(Tally& tally) override {
    const auto dataset = store::SharedMapping::open(path_);
    for (const Served& s : checks_) {
      ++tally.attempted;
      const std::int64_t t0 = now_ns();
      try {
        const std::vector<std::byte> local = run_local(dataset, s.job);
        tally.serial_s += seconds_between(t0, now_ns());
        tally.serial_traces += s.job.traces;
        if (local != s.bytes) {
          ++tally.mismatches;
        }
      } catch (const std::exception&) {
        ++tally.failed;
      }
    }
  }

  void layer_metrics(const Tracer&, LayerMetrics& out) override {
    out["bus.submit_rtt_us"] = median(samples_.submit_us);
    out["bus.queue_wait_ms"] = median(samples_.queue_ms);
    out["bus.run_ms"] = median(samples_.run_ms);
    out["bus.result_fetch_ms"] = median(samples_.fetch_ms);
    out["bus.refused_ratio"] = static_cast<double>(samples_.refused) /
                               static_cast<double>(samples_.submits);
    const double lookups =
        static_cast<double>(samples_.cache_hits + samples_.cache_misses);
    out["store.cache_hit_ratio"] =
        lookups > 0 ? static_cast<double>(samples_.cache_hits) / lookups : 0.0;
    out["store.cache_misses"] = static_cast<double>(samples_.cache_misses);
    out["store.encode_us_per_chunk"] =
        record_.encode_s / static_cast<double>(record_.chunks) * 1e6;
    out["store.bytes_per_trace"] = static_cast<double>(record_.file_bytes) /
                                   static_cast<double>(record_.traces);
    make_source_probe(out);
    store_core_probe(store::SharedMapping::open(path_), record_.secret, out);
  }

 private:
  Job make_job(Kind kind, util::Xoshiro256& rng) const {
    Job job;
    job.kind = kind;
    switch (kind) {
      case cpa_rd0:
      case cpa_rd10:
      case large:
        job.cpa.channel = channels_[rng.uniform_u64(channels_.size())];
        job.cpa.known_key = record_.secret;
        if (kind == large) {
          job.cpa.models = {power::PowerModel::rd10_hd};
          job.cpa.shards = large_shards;
          job.traces = static_cast<double>(record_.traces);
        } else {
          job.cpa.models = {kind == cpa_rd0 ? power::PowerModel::rd0_hw
                                            : power::PowerModel::rd10_hw};
          job.cpa.trace_count = small_cpa_traces;
          job.traces = static_cast<double>(small_cpa_traces);
        }
        break;
      case tvla:
        job.tvla.traces_per_set = small_tvla_per_set;
        job.traces = 6.0 * static_cast<double>(small_tvla_per_set);
        break;
      default: {
        static const std::array<const char*, 4> names = {
            "aes-power-kernel", "cache-timing", "dvfs-frequency",
            "sqmul-timing"};
        job.scenario.scenario = names[kind - scn_aes_kernel];
        if (kind == scn_cache) {
          job.scenario.params = {{"slc_pressure", "0.2"}};  // EXAM-style
        }
        job.scenario.traces_per_set = scenario_per_set;
        job.scenario.seed = rng();
        job.traces = 6.0 * static_cast<double>(scenario_per_set);
        break;
      }
    }
    return job;
  }

  // Clients deal their jobs from seeded shuffles of their deck, so every
  // stretch of a run sees the same mix of kinds whatever the seed.
  Job next_job(ClientState& state) const {
    const std::size_t n = state.deck.size();
    if (state.next % n == 0) {
      std::shuffle(state.deck.begin(), state.deck.end(), state.rng);
    }
    return make_job(state.deck[state.next++ % n], state.rng);
  }

  void run_client(std::size_t c, std::int64_t deadline, Tracer* tracer,
                  Tally& tally, BusSamples& samples,
                  std::vector<Served>& checks) {
    bus::BusClient client(socket_path_);
    ClientState& state = states_[c];
    while (now_ns() < deadline) {
      const Job job = next_job(state);
      ++tally.attempted;
      const std::int64_t t0 = now_ns();
      std::vector<std::byte> bytes;
      const bool ok =
          serve(client, job, tracer, next_job_id(), samples, &bytes);
      const std::int64_t t1 = now_ns();
      std::vector<double>& latencies =
          job.kind == large ? tally.large_ms : tally.small_ms;
      if (!ok) {
        ++tally.failed;
        latencies.push_back(std::numeric_limits<double>::infinity());
        continue;
      }
      latencies.push_back(seconds_between(t0, t1) * 1e3);
      if (t1 <= deadline) {
        ++tally.jobs_done;
        tally.traces += job.traces;
        tally.window_traces += job.traces;
      }
      const bool wanted = job.kind == large ? c == 0 : c < verified_clients;
      if (wanted && !state.verified[job.kind]) {
        state.verified[job.kind] = true;
        checks.push_back({job, std::move(bytes)});
      }
    }
  }

  // Submits, watches and fetches one job. Returns false when the daemon
  // refused or failed it.
  bool serve(bus::BusClient& client, const Job& job, Tracer* tracer,
             std::uint64_t job_id, BusSamples& samples,
             std::vector<std::byte>* bytes = nullptr) {
    const std::int64_t t0 = now_ns();
    std::uint64_t id = 0;
    ++samples.submits;
    try {
      switch (job.kind) {
        case tvla:
          id = client.submit_tvla(dataset_name, job.tvla);
          break;
        case cpa_rd0:
        case cpa_rd10:
        case large:
          id = client.submit_cpa(dataset_name, job.cpa);
          break;
        default:
          id = client.submit_scenario(job.scenario);
          break;
      }
    } catch (const bus::BusRemoteError&) {
      ++samples.refused;
      return false;
    }
    const std::int64_t t1 = now_ns();
    std::int64_t started = 0;
    const bus::JobStatusMsg status =
        client.watch(id, [&started](const bus::ProgressMsg& p) {
          if (started == 0 && (p.consumed > 0 || p.running_shards > 0)) {
            started = now_ns();
          }
        });
    const std::int64_t t2 = now_ns();
    if (status.state != bus::JobState::done) {
      return false;
    }
    std::vector<std::byte> encoded;
    try {
      switch (job.kind) {
        case tvla:
          encoded = encode(client.tvla_result(id));
          break;
        case cpa_rd0:
        case cpa_rd10:
        case large:
          encoded = encode(client.cpa_result(id));
          break;
        default:
          encoded = encode(client.scenario_result(id));
          break;
      }
    } catch (const bus::BusRemoteError&) {
      return false;
    }
    const std::int64_t t3 = now_ns();
    if (started == 0) {
      started = t1;
    }
    if (tracer != nullptr) {
      const std::uint64_t root = tracer->next_id();
      tracer->record("bus.submit", root, job_id, t0, t1);
      tracer->record("bus.queue_wait", root, job_id, t1, started);
      tracer->record("bus.run", root, job_id, started, t2);
      tracer->record("bus.result_fetch", root, job_id, t2, t3);
      tracer->record(Span{"bus.client_job", root, 0, job_id, -1, t0, t3});
      samples.submit_us.push_back(seconds_between(t0, t1) * 1e6);
      samples.queue_ms.push_back(seconds_between(t1, started) * 1e3);
      samples.run_ms.push_back(seconds_between(started, t2) * 1e3);
      samples.fetch_ms.push_back(seconds_between(t2, t3) * 1e3);
    }
    if (bytes != nullptr) {
      *bytes = std::move(encoded);
    }
    return true;
  }

  // The in-process rerun: sequential shards, one worker.
  static std::vector<std::byte> run_local(
      const std::shared_ptr<const store::SharedMapping>& dataset,
      const Job& job) {
    switch (job.kind) {
      case tvla:
        return encode(bus::run_tvla_job(dataset, job.tvla));
      case cpa_rd0:
      case cpa_rd10:
      case large:
        return encode(bus::run_cpa_job(dataset, job.cpa));
      default:
        return encode(bus::run_scenario_job(job.scenario, {}, 1));
    }
  }

  // scenario.make_source_ms: calibration + construction of one source,
  // timed around Scenario::make_source; the mean over the mix's four
  // scenarios, each weighted as the deck weights them.
  void make_source_probe(LayerMetrics& out) const {
    std::vector<double> ms;
    util::Xoshiro256 rng(derive_seed(options_.seed, 3));
    for (int kind = scn_aes_kernel; kind <= scn_sqmul; ++kind) {
      const Job job = make_job(static_cast<Kind>(kind), rng);
      const auto sc =
          scenario::ScenarioRegistry::built_in().find(job.scenario.scenario);
      const scenario::ParamSet params = sc->parse_params(job.scenario.params);
      aes::Block secret;
      rng.fill_bytes(secret);
      for (int r = 0; r < 3; ++r) {
        const std::int64_t t0 = now_ns();
        (void)sc->make_source(params, secret, rng());
        ms.push_back(seconds_between(t0, now_ns()) * 1e3);
      }
    }
    double sum = 0.0;
    for (const double m : ms) {
      sum += m;
    }
    out["scenario.make_source_ms"] = sum / static_cast<double>(ms.size());
  }

  std::uint64_t next_job_id() {
    return job_ids_.fetch_add(1, std::memory_order_relaxed);
  }

  Options options_;
  std::size_t clients_;
  std::string socket_path_;
  std::string path_;
  RecordStats record_;
  std::vector<std::uint32_t> channels_;
  std::unique_ptr<bus::BusDaemon> daemon_;
  std::vector<ClientState> states_;
  std::vector<Served> checks_;
  BusSamples samples_;
  std::atomic<std::uint64_t> job_ids_{1};
};

}  // namespace

std::unique_ptr<Workload> make_served_mix(const Options& options) {
  return std::make_unique<ServedMix>(options);
}

}  // namespace perfbench
