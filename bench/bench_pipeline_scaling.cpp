// Pipeline scaling micro-bench: acquisition->accumulation throughput of
// the sharded combined CPA+TVLA campaign versus worker count, per-kernel
// scalar-vs-SIMD ingest throughput, a head-to-head of the legacy
// per-record ingest path against the columnar TraceBatch path,
// and a record-then-replay stage for the PSTR trace store (out-of-core
// replay vs re-simulating the device), as machine-readable JSON so
// successive commits have a perf trajectory to compare against. The JSON
// object is printed to stdout and written to BENCH_pipeline_scaling.json
// (override with PSC_BENCH_JSON); the recorded store is left at
// PSC_BENCH_PSTR (default BENCH_sample.pstr) as a CI artifact.
//
// The shard count is pinned (default 8) while workers vary, so every run
// must produce bit-identical campaign results — the bench cross-checks
// that (`identical_results`) while measuring wall-clock traces/sec. The
// ingest comparison feeds the same live source through both paths and
// requires (a) bit-identical engine state and (b) batch throughput at
// least PSC_INGEST_MIN_RATIO times the legacy throughput (default 0.95).
// The store stage requires the replayed engine to be bit-identical to
// the engine that accumulated during recording, and replay throughput at
// least PSC_REPLAY_MIN_RATIO times the live-regeneration throughput
// (default 1.0 — reading back must not be slower than re-simulating).
// Any failure exits non-zero so CI smoke runs catch regressions.
//
// The store_v2 stage gates the compressed format: a synthetic
// quantized-sensor dataset (PSC_STORE_V2_CHANNELS rails through the
// measurement path's noise + quantizer + float32 truncation) is written
// as both v1 and v2; the v2 file must shrink bytes/trace by at least
// PSC_STORE_V2_MIN_RATIO (default 2.0) and its compressed replay —
// decode-ahead prefetch included — must reach PSC_STORE_V2_MIN_TPS_RATIO
// (default 0.8) times the uncompressed mmap replay, with bit-identical
// engines. The stage also compacts the live recording into the
// PSC_BENCH_PSTR_V2 artifact (default BENCH_sample_v2.pstr), checks the
// compacted replay bit-identical to the v1 replay, and reports — without
// gating — the ratios real recorded data achieves.
//
// The bus stage serves that v2 artifact from an in-process psc::bus
// daemon and measures aggregate campaign throughput for 1/2/4 concurrent
// clients, each running 16 full-dataset CPA jobs back to back over the
// shared mapping (jobs pinned to sequential in-job execution, so the number
// isolates cross-job concurrency). One served result is cross-checked
// bit-identical against run_cpa_job invoked directly; the 4-client
// aggregate must reach PSC_BUS_MIN_SCALING (default 2.0) times the
// single-client aggregate (enforced only with >= 4 hardware threads).
// The daemon's shared decoded-chunk cache is sampled over the whole
// stage: total decodes must not exceed the dataset's chunk count
// (decode-once) and the hit rate must reach PSC_BUS_MIN_CACHE_HIT
// (default 0.5). A separate job-parallel stage runs ONE large CPA job
// with its shard units fanned out on the worker pool — budget 4 versus
// the sequential baseline, bit-identical by construction and checked —
// and requires PSC_BUS_JOB_MIN_SCALING (default 2.0) speedup, again
// only with >= 4 hardware threads. The three scaling gates (workers,
// bus clients, bus job-parallel) each compare medians of 5 timed reps,
// taken alternating between the configurations compared.
//
// The worker sweep runs the *combined* CPA+TVLA campaign (one
// acquisition, every analysis) on the persistent worker pool, 1/2/4/8
// workers at a pinned shard count (median of 5 alternating sweeps per
// worker count), and enforces a scaling gate: workers=4 must reach
// PSC_SCALING_MIN_SPEEDUP (default 2.5) times workers=1 —
// enforced only when the machine actually has >= 4 hardware threads,
// recorded as "skipped" (with the measured numbers) otherwise, so the
// gate cannot fail spuriously on small CI runners. A SIMD stage times the
// ingest kernels (moment stripes, byte histogram) per available backend
// against the forced-scalar fallback and requires the best backend to
// reach PSC_SIMD_MIN_RATIO (default 1.5) times scalar — skipped when
// only the scalar backend exists (e.g. -DPSC_FORCE_SCALAR=ON builds).
//
//   ./bench_pipeline_scaling
//   PSC_TRACES=N            trace count per campaign      (default 200000)
//   PSC_SHARDS=N            pinned shard count            (default 8)
//   PSC_MAX_WORKERS=N       highest worker count measured (default 8)
//   PSC_SCALING_MIN_SPEEDUP=R  min workers=4/workers=1    (default 2.5)
//   PSC_INGEST_TRACES=N     ingest comparison trace count (default 60000)
//   PSC_INGEST_REPS=N       timing reps, median-of (default 5)
//   PSC_INGEST_MIN_RATIO=R  minimum batch/legacy ratio    (default 0.95)
//   PSC_SIMD_MIN_RATIO=R    minimum best-backend/scalar   (default 1.5)
//   PSC_STORE_TRACES=N      record/replay trace count     (default 60000)
//   PSC_REPLAY_MIN_RATIO=R  minimum replay/live ratio     (default 1.0)
//   PSC_BENCH_PSTR=PATH     recorded store artifact path
//   PSC_STORE_V2_TRACES=N   synthetic v1-vs-v2 trace count (default 60000)
//   PSC_STORE_V2_CHANNELS=N synthetic sensor rail count    (default 16)
//   PSC_STORE_V2_MIN_RATIO=R     minimum v1/v2 bytes-per-trace  (default 2.0)
//   PSC_STORE_V2_MIN_TPS_RATIO=R minimum v2/v1 replay tps       (default 0.8)
//   PSC_BENCH_PSTR_V2=PATH  compacted v2 store artifact path
//   PSC_BUS_MIN_SCALING=R   minimum 4-client/1-client aggregate (default 2.0)
//   PSC_BUS_MIN_CACHE_HIT=R minimum chunk-cache hit rate        (default 0.5)
//   PSC_BUS_JOB_MIN_SCALING=R  minimum budget-4/sequential single-job
//                              speedup                          (default 2.0)
//   PSC_SEED=N              campaign seed
//   PSC_BENCH_JSON=PATH     trajectory file path
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bus/client.h"
#include "bus/daemon.h"
#include "bus/jobs.h"
#include "core/campaigns.h"
#include "power/noise.h"
#include "store/file_trace_source.h"
#include "store/shared_mapping.h"
#include "store/trace_file_writer.h"
#include "util/aligned.h"
#include "util/csv.h"
#include "util/simd.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Timed reps per configuration for the throughput gates (worker sweep,
// bus N-client, bus job-parallel; the ingest default). Each gate compares
// medians of this many samples, taken alternating between the
// configurations it compares, so neither one noisy sample nor one lucky
// best-of decides a gate.
constexpr int gate_reps = 5;

// Median of a non-empty sample; the upper median for even sizes.
double median(std::vector<double> samples) {
  const auto mid = samples.begin() + samples.size() / 2;
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

// True when both engines hold bit-identical accumulator state, judged by
// every guess correlation of every key byte.
bool engines_identical(const psc::core::CpaEngine& a,
                       const psc::core::CpaEngine& b) {
  for (std::size_t i = 0; i < 16; ++i) {
    const psc::core::ByteRanking ra =
        a.analyze_byte(psc::power::PowerModel::rd0_hw, i);
    const psc::core::ByteRanking rb =
        b.analyze_byte(psc::power::PowerModel::rd0_hw, i);
    for (std::size_t g = 0; g < 256; ++g) {
      if (ra.correlation[g] != rb.correlation[g]) {
        return false;
      }
    }
  }
  return true;
}

// One timed acquire->accumulate pass over any source in 1024-row batches,
// optionally teeing every batch to a store writer. Returns traces/sec.
// With `replay` set the source returns recorded plaintexts and would
// discard staged ones, so the timed loop skips the random staging — the
// replay number measures pure out-of-core decode, not wasted RNG work.
double time_accumulate(psc::core::TraceSource& source,
                       psc::util::Xoshiro256& rng,
                       psc::core::CpaEngine& engine,
                       std::size_t traces, std::size_t column,
                       psc::store::TraceFileWriter* writer = nullptr,
                       bool replay = false) {
  constexpr std::size_t batch_rows = 1024;
  psc::core::TraceBatch batch(source.keys().size());
  batch.reserve(batch_rows);
  const auto start = std::chrono::steady_clock::now();
  std::size_t produced = 0;
  while (produced < traces) {
    const std::size_t chunk = std::min(batch_rows, traces - produced);
    if (replay) {
      batch.clear();
      batch.resize(chunk);
      source.collect_batch(batch);
    } else {
      psc::core::collect_random_batch(source, chunk, rng, batch);
    }
    if (writer != nullptr) {
      writer->append(batch);
    }
    engine.add_batch(batch, column);
    produced += chunk;
  }
  return static_cast<double>(traces) / seconds_since(start);
}

}  // namespace

int main() {
  using namespace psc;

  const std::size_t traces = util::env_size("PSC_TRACES", 200'000);
  const std::size_t shards = util::env_size("PSC_SHARDS", 8);
  const std::size_t max_workers = util::env_size("PSC_MAX_WORKERS", 8);
  const std::size_t ingest_traces =
      util::env_size("PSC_INGEST_TRACES", 60'000);
  const double min_ratio = util::env_double("PSC_INGEST_MIN_RATIO", 0.95);

  // ---- ingest throughput: legacy per-record loop vs columnar batches ----
  //
  // Same live source configuration and seeds, so both paths see the same
  // trace stream; the engines must end bit-identical while the columnar
  // path avoids the per-trace TraceRecord allocation and virtual call.
  const core::LiveSourceConfig live_config{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .victim = victim::VictimModel::user_space(),
  };
  util::Xoshiro256 key_rng(bench::bench_seed());
  aes::Block victim_key;
  key_rng.fill_bytes(victim_key);
  const std::vector<power::PowerModel> ingest_models = {
      power::PowerModel::rd0_hw};

  // Median-of-N timing, reps alternating between the paths, so a
  // transient stall (noisy CI neighbor, page cache warm-up) on one rep
  // cannot decide the throughput gate either way.
  const std::size_t ingest_reps =
      std::max<std::size_t>(1, util::env_size("PSC_INGEST_REPS", gate_reps));
  std::vector<double> legacy_samples;
  std::vector<double> batch_samples;
  bool ingest_identical = true;
  {
    std::vector<util::FourCc> channel_probe =
        core::LiveTraceSource::channel_names(live_config);
    const std::size_t column = static_cast<std::size_t>(
        std::find(channel_probe.begin(), channel_probe.end(),
                  util::FourCc("PHPC")) -
        channel_probe.begin());

    for (std::size_t rep = 0; rep < ingest_reps; ++rep) {
      core::LiveTraceSource source(live_config, victim_key, 1);
      util::Xoshiro256 pt_rng(2);
      core::CpaEngine engine(ingest_models);
      aes::Block pt;
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t t = 0; t < ingest_traces; ++t) {
        pt_rng.fill_bytes(pt);
        const core::TraceRecord record = source.collect(pt);
        engine.add_trace_batch({&record.plaintext, 1},
                               {&record.ciphertext, 1},
                               {&record.values[column], 1});
      }
      legacy_samples.push_back(static_cast<double>(ingest_traces) /
                               seconds_since(start));

      core::LiveTraceSource batch_source(live_config, victim_key, 1);
      util::Xoshiro256 batch_pt_rng(2);
      core::CpaEngine batch_engine(ingest_models);
      batch_samples.push_back(time_accumulate(
          batch_source, batch_pt_rng, batch_engine, ingest_traces, column));

      // Cross-check: the two paths must accumulate bit-identical state.
      ingest_identical =
          ingest_identical && engines_identical(engine, batch_engine);
    }
  }
  const double legacy_tps = median(legacy_samples);
  const double batch_tps = median(batch_samples);
  const double ingest_ratio = legacy_tps > 0.0 ? batch_tps / legacy_tps : 0.0;
  std::cerr << "ingest: legacy " << legacy_tps << " traces/s, batch "
            << batch_tps << " traces/s (ratio " << ingest_ratio << ", "
            << (ingest_identical ? "bit-identical" : "MISMATCH") << ")\n";

  // ---- store: record-then-replay vs synthetic regeneration ----
  //
  // One live pass records a PSTR store while a CPA engine accumulates
  // (the capture-once half); then the same stream is obtained two ways —
  // replayed out-of-core from the file, and regenerated by re-simulating
  // the device with the same seeds — and fed to fresh engines. Replay
  // must be bit-identical to the recording pass and at least
  // PSC_REPLAY_MIN_RATIO times the regeneration throughput.
  const std::size_t store_traces = util::env_size("PSC_STORE_TRACES", 60'000);
  const std::string pstr_path =
      util::env_string("PSC_BENCH_PSTR", "BENCH_sample.pstr");
  const double replay_min_ratio = util::env_double("PSC_REPLAY_MIN_RATIO", 1.0);
  double record_tps = 0.0;
  double replay_tps = 0.0;
  double regen_tps = 0.0;
  std::size_t store_bytes = 0;
  bool replay_identical = true;
  {
    const std::vector<util::FourCc> channels =
        core::LiveTraceSource::channel_names(live_config);
    const std::size_t column = static_cast<std::size_t>(
        std::find(channels.begin(), channels.end(), util::FourCc("PHPC")) -
        channels.begin());

    // Record: acquisition teed to disk while the engine accumulates.
    core::CpaEngine recorded_engine(ingest_models);
    {
      core::LiveTraceSource source(live_config, victim_key, 5);
      util::Xoshiro256 pt_rng(6);
      store::TraceFileWriter writer(
          pstr_path,
          {.channels = channels,
           .metadata = store::device_metadata(live_config.profile.name,
                                              live_config.profile.os_version)});
      record_tps = time_accumulate(source, pt_rng, recorded_engine,
                                   store_traces, column, &writer);
      writer.finalize();
    }

    // Synthetic regeneration baseline: the same stream re-simulated.
    {
      core::LiveTraceSource source(live_config, victim_key, 5);
      util::Xoshiro256 pt_rng(6);
      core::CpaEngine engine(ingest_models);
      regen_tps = time_accumulate(source, pt_rng, engine, store_traces,
                                  column);
    }

    // Out-of-core replay from the recorded store.
    {
      store::FileTraceSource replay(pstr_path);
      store_bytes = replay.reader().file_bytes();
      util::Xoshiro256 unused_rng(0);
      core::CpaEngine engine(ingest_models);
      replay_tps = time_accumulate(replay, unused_rng, engine, store_traces,
                                   column, nullptr, /*replay=*/true);
      replay_identical = engines_identical(recorded_engine, engine);
    }
  }
  const double replay_ratio = regen_tps > 0.0 ? replay_tps / regen_tps : 0.0;
  std::cerr << "store: record " << record_tps << " traces/s, replay "
            << replay_tps << " traces/s, regenerate " << regen_tps
            << " traces/s (replay/regen " << replay_ratio << ", "
            << (replay_identical ? "bit-identical" : "MISMATCH") << ", "
            << store_bytes << " bytes on disk)\n";

  // ---- store v2: compressed codecs + prefetch vs uncompressed mmap ----
  //
  // The gated dataset is synthetic and shaped like the quantized sensor
  // columns the codec targets: PSC_STORE_V2_CHANNELS rails, each a slow
  // random walk pushed through power::GaussianNoise, power::Quantizer and
  // the SMC client's float32 truncation (victim/fast_trace.cpp). Both a
  // v1 and a v2 file of the same stream are written; the v2 file must
  // shrink bytes/trace by >= PSC_STORE_V2_MIN_RATIO and its compressed
  // replay (prefetch on, the default) must hold >=
  // PSC_STORE_V2_MIN_TPS_RATIO of the uncompressed mmap replay while the
  // replayed engines stay bit-identical. The live recording from the
  // store stage above is then compacted into the PSC_BENCH_PSTR_V2
  // artifact and cross-checked the same way, with its ratios reported
  // but not gated (real captures carry fewer channels per byte of AES
  // framing than the sensor-heavy synthetic set).
  const std::size_t v2_traces = util::env_size("PSC_STORE_V2_TRACES", 60'000);
  const std::size_t v2_channels = util::env_size("PSC_STORE_V2_CHANNELS", 16);
  const double v2_min_ratio = util::env_double("PSC_STORE_V2_MIN_RATIO", 2.0);
  const double v2_min_tps_ratio =
      util::env_double("PSC_STORE_V2_MIN_TPS_RATIO", 0.8);
  const std::string pstr_v2_path =
      util::env_string("PSC_BENCH_PSTR_V2", "BENCH_sample_v2.pstr");
  std::size_t v2_ref_bytes = 0;   // synthetic stream as v1
  std::size_t v2_cmp_bytes = 0;   // same stream as v2
  double v1_replay_tps = 0.0;
  double v2_replay_tps = 0.0;
  std::size_t v2_async_decodes = 0;
  bool v2_identical = true;
  std::size_t sample_v1_bytes = 0;
  std::size_t sample_v2_bytes = 0;
  double sample_chan_ratio = 0.0;
  bool sample_identical = true;
  {
    std::vector<util::FourCc> channels;
    for (std::size_t c = 0; c < v2_channels; ++c) {
      char name[5];
      std::snprintf(name, sizeof(name), "QT%02u",
                    static_cast<unsigned>(c % 100));
      channels.push_back(util::FourCc(name));
    }
    const std::string ref_path = "BENCH_store_v2_ref.pstr";
    const std::string cmp_path = "BENCH_store_v2_cmp.pstr";
    {
      store::TraceFileWriter ref_writer(ref_path, {.channels = channels});
      store::TraceFileWriter cmp_writer(
          cmp_path, {.channels = channels,
                     .channel_codecs = store::uniform_channel_codecs(
                         channels.size(), store::ColumnCodec::delta_bitpack)});
      util::Xoshiro256 rng(bench::bench_seed() + 23);
      const power::GaussianNoise noise(250e-6);  // ~250 quantization steps
      const power::Quantizer quant(1e-6);        // uW-resolution sensor
      std::vector<double> levels(channels.size(), 4.0);
      core::TraceBatch batch(channels.size());
      std::size_t produced = 0;
      while (produced < v2_traces) {
        const std::size_t n = std::min<std::size_t>(1024, v2_traces - produced);
        batch.clear();
        batch.resize(n);
        for (auto& pt : batch.plaintexts()) {
          rng.fill_bytes(pt);
        }
        for (auto& ct : batch.ciphertexts()) {
          rng.fill_bytes(ct);
        }
        for (std::size_t c = 0; c < channels.size(); ++c) {
          auto column = batch.column(c);
          for (std::size_t r = 0; r < n; ++r) {
            levels[c] += rng.gaussian(0.0, 10e-6);  // slow baseline drift
            column[r] = static_cast<double>(static_cast<float>(
                quant.apply(noise.apply(levels[c], rng))));
          }
        }
        ref_writer.append(batch);
        cmp_writer.append(batch);
        produced += n;
      }
      ref_writer.finalize();
      cmp_writer.finalize();
    }
    v2_ref_bytes = store::TraceFileReader(ref_path).file_bytes();
    v2_cmp_bytes = store::TraceFileReader(cmp_path).file_bytes();

    // Replay throughput, best of 3 alternating reps; the engines of every
    // rep must match bit-for-bit (column 0 — any rail works, they are
    // statistically identical).
    for (int rep = 0; rep < 3; ++rep) {
      core::CpaEngine ref_engine(ingest_models);
      core::CpaEngine cmp_engine(ingest_models);
      {
        store::FileTraceSource replay(ref_path);
        util::Xoshiro256 unused_rng(0);
        v1_replay_tps = std::max(
            v1_replay_tps, time_accumulate(replay, unused_rng, ref_engine,
                                           v2_traces, 0, nullptr, true));
      }
      {
        store::FileTraceSource replay(cmp_path);
        util::Xoshiro256 unused_rng(0);
        v2_replay_tps = std::max(
            v2_replay_tps, time_accumulate(replay, unused_rng, cmp_engine,
                                           v2_traces, 0, nullptr, true));
        v2_async_decodes = replay.async_completions();
      }
      v2_identical = v2_identical && engines_identical(ref_engine, cmp_engine);
    }
    std::remove(ref_path.c_str());
    std::remove(cmp_path.c_str());

    // Compact the live recording into the v2 CI artifact and cross-check
    // its replay against the v1 replay.
    {
      store::TraceFileReader src(pstr_path);
      store::TraceFileWriter compact(
          pstr_v2_path,
          {.channels = src.channels(),
           .chunk_capacity = src.chunk_capacity(),
           .metadata = src.metadata(),
           .channel_codecs = store::uniform_channel_codecs(
               src.channels().size(), store::ColumnCodec::delta_bitpack)});
      core::TraceBatch batch(src.channels().size());
      for (std::size_t i = 0; i < src.chunk_count(); ++i) {
        batch.clear();
        src.chunk(i).append_to(batch);
        compact.append(batch);
      }
      compact.finalize();
      sample_v1_bytes = src.file_bytes();
      sample_chan_ratio =
          compact.channel_stored_bytes() > 0
              ? static_cast<double>(compact.channel_raw_bytes()) /
                    static_cast<double>(compact.channel_stored_bytes())
              : 0.0;
    }
    sample_v2_bytes = store::TraceFileReader(pstr_v2_path).file_bytes();
    {
      const std::vector<util::FourCc> channels =
          core::LiveTraceSource::channel_names(live_config);
      const std::size_t column = static_cast<std::size_t>(
          std::find(channels.begin(), channels.end(), util::FourCc("PHPC")) -
          channels.begin());
      core::CpaEngine v1_engine(ingest_models);
      core::CpaEngine v2_engine(ingest_models);
      util::Xoshiro256 unused_rng(0);
      store::FileTraceSource v1_replay(pstr_path);
      time_accumulate(v1_replay, unused_rng, v1_engine, store_traces, column,
                      nullptr, true);
      store::FileTraceSource v2_replay(pstr_v2_path);
      time_accumulate(v2_replay, unused_rng, v2_engine, store_traces, column,
                      nullptr, true);
      sample_identical = engines_identical(v1_engine, v2_engine);
    }
  }
  const double v2_ratio =
      v2_cmp_bytes > 0
          ? static_cast<double>(v2_ref_bytes) / static_cast<double>(v2_cmp_bytes)
          : 0.0;
  const double v2_tps_ratio =
      v1_replay_tps > 0.0 ? v2_replay_tps / v1_replay_tps : 0.0;
  const double sample_file_ratio =
      sample_v2_bytes > 0 ? static_cast<double>(sample_v1_bytes) /
                                static_cast<double>(sample_v2_bytes)
                          : 0.0;
  std::cerr << "store_v2: " << v2_ref_bytes << " -> " << v2_cmp_bytes
            << " bytes (" << v2_ratio << "x), replay v1 " << v1_replay_tps
            << " traces/s, v2 " << v2_replay_tps << " traces/s (ratio "
            << v2_tps_ratio << ", " << v2_async_decodes
            << " async decodes, "
            << (v2_identical ? "bit-identical" : "MISMATCH")
            << "); sample " << sample_v1_bytes << " -> " << sample_v2_bytes
            << " bytes (" << sample_file_ratio << "x file, "
            << sample_chan_ratio << "x channels, "
            << (sample_identical ? "bit-identical" : "MISMATCH") << ")\n";

  // ---- bus: daemon-served campaigns vs concurrent client count ----
  //
  // An in-process BusDaemon serves the compacted v2 artifact over a unix
  // socket; 1, 2 and 4 concurrent clients each run bus_jobs_per_client
  // full-dataset CPA campaigns back to back and the aggregate traces/sec
  // is measured per client count — the median of gate_reps windows, the
  // client counts alternating. shard_parallelism is pinned to 1 — each
  // job runs its shards sequentially — so this number isolates cross-job
  // concurrency on the shared mapping; in-job shard scaling is measured
  // by the job-parallel stage below. The gate requires the 4-client
  // aggregate to reach PSC_BUS_MIN_SCALING (default 2.0) times the
  // single-client aggregate, enforced only with >= 4 hardware threads;
  // one served result is also cross-checked bit-for-bit against
  // run_cpa_job invoked directly on the same file. The daemon's
  // decoded-chunk cache is sampled across the whole stage (every job runs
  // over one compressed dataset): decodes must not exceed the chunk count
  // and the hit rate must reach PSC_BUS_MIN_CACHE_HIT.
  constexpr std::size_t bus_jobs_per_client = 16;
  const double bus_min_scaling = util::env_double("PSC_BUS_MIN_SCALING", 2.0);
  const double bus_min_cache_hit =
      util::env_double("PSC_BUS_MIN_CACHE_HIT", 0.5);
  double bus_tps_1 = 0.0;
  double bus_tps_2 = 0.0;
  double bus_tps_4 = 0.0;
  bool bus_identical = true;
  bool bus_clients_ok = true;
  std::size_t bus_chunks = 0;
  bus::StatsMsg bus_stats;
  {
    bus::BusDaemonConfig bus_config;
    bus_config.socket_path =
        "/tmp/psc_bus_bench_" + std::to_string(::getpid()) + ".sock";
    bus_config.per_session_quota = 2;
    bus_config.pool_reserve = 4;
    // Sequential in-job execution: the stage measures job-level
    // concurrency, and a single client must not occupy the whole pool.
    bus_config.shard_parallelism = 1;
    bus_config.datasets = {{"bench", pstr_v2_path}};
    bus::BusDaemon daemon(bus_config);
    daemon.start();
    bus_chunks = store::TraceFileReader(pstr_v2_path).chunk_count();

    bus::CpaJobSpec spec;
    spec.channel = util::FourCc("PHPC").code();
    spec.known_key = victim_key;
    spec.models = {power::PowerModel::rd0_hw};
    spec.shards = 4;

    // Warm-up pass doubling as the correctness check: the daemon-served
    // result must be bit-identical to the same job run in-process.
    {
      bus::BusClient client(bus_config.socket_path);
      const std::uint64_t id = client.submit_cpa("bench", spec);
      client.watch(id);
      const bus::CpaJobResult served = client.cpa_result(id);
      const bus::CpaJobResult local =
          bus::run_cpa_job(store::SharedMapping::open(pstr_v2_path), spec);
      const auto bits = [](double v) {
        return std::bit_cast<std::uint64_t>(v);
      };
      bus_identical = served.traces == local.traces &&
                      served.models.size() == local.models.size();
      for (std::size_t m = 0; bus_identical && m < served.models.size(); ++m) {
        const core::ModelResult& sm = served.models[m];
        const core::ModelResult& lm = local.models[m];
        bus_identical = bits(sm.ge_bits) == bits(lm.ge_bits) &&
                        sm.true_ranks == lm.true_ranks &&
                        sm.scored_key == lm.scored_key;
        for (std::size_t b = 0; bus_identical && b < 16; ++b) {
          for (std::size_t g = 0; g < 256; ++g) {
            if (bits(sm.bytes[b].correlation[g]) !=
                bits(lm.bytes[b].correlation[g])) {
              bus_identical = false;
              break;
            }
          }
        }
      }
    }

    // One timing window: n clients, each holding one connection and
    // running bus_jobs_per_client jobs back to back, so the window
    // measures served campaigns rather than connect/submit overhead.
    const auto run_clients = [&](std::size_t n) {
      std::atomic<bool> ok{true};
      std::vector<std::thread> clients;
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t c = 0; c < n; ++c) {
        clients.emplace_back([&] {
          try {
            bus::BusClient client(bus_config.socket_path);
            for (std::size_t j = 0; j < bus_jobs_per_client; ++j) {
              const std::uint64_t id = client.submit_cpa("bench", spec);
              client.watch(id);
              if (client.cpa_result(id).traces != store_traces) {
                ok.store(false);
              }
            }
          } catch (const std::exception&) {
            ok.store(false);
          }
        });
      }
      for (std::thread& t : clients) {
        t.join();
      }
      const double tps =
          static_cast<double>(n * bus_jobs_per_client * store_traces) /
          seconds_since(start);
      bus_clients_ok = bus_clients_ok && ok.load();
      return tps;
    };
    std::vector<double> tps_1;
    std::vector<double> tps_2;
    std::vector<double> tps_4;
    for (int rep = 0; rep < gate_reps; ++rep) {
      tps_1.push_back(run_clients(1));
      tps_2.push_back(run_clients(2));
      tps_4.push_back(run_clients(4));
    }
    bus_tps_1 = median(tps_1);
    bus_tps_2 = median(tps_2);
    bus_tps_4 = median(tps_4);
    {
      bus::BusClient stats_client(bus_config.socket_path);
      bus_stats = stats_client.stats();
    }
    daemon.stop();
  }
  const double bus_scaling = bus_tps_1 > 0.0 ? bus_tps_4 / bus_tps_1 : 0.0;
  const unsigned bus_hw_threads = std::thread::hardware_concurrency();
  const bool bus_gate_enforced = bus_hw_threads >= 4 && bus_tps_4 > 0.0;
  // Cache verdict over every job of the stage (1 warm-up, then
  // gate_reps x (1 + 2 + 4) clients x bus_jobs_per_client): the shared
  // cache must have decoded each compressed chunk at most once, with
  // every other access a hit.
  const double bus_cache_hit_rate =
      bus_stats.cache_hits + bus_stats.cache_misses > 0
          ? static_cast<double>(bus_stats.cache_hits) /
                static_cast<double>(bus_stats.cache_hits +
                                    bus_stats.cache_misses)
          : 0.0;
  const bool bus_decode_once = bus_stats.cache_misses <= bus_chunks;
  const bool bus_cache_ok =
      bus_decode_once && bus_cache_hit_rate >= bus_min_cache_hit;
  const bool bus_ok = bus_identical && bus_clients_ok && bus_cache_ok &&
                      (!bus_gate_enforced || bus_scaling >= bus_min_scaling);
  std::cerr << "bus: 1 client " << bus_tps_1 << " traces/s, 2 clients "
            << bus_tps_2 << " traces/s, 4 clients " << bus_tps_4
            << " traces/s aggregate (scaling " << bus_scaling << ", "
            << (bus_identical ? "bit-identical" : "MISMATCH") << "); cache "
            << bus_stats.cache_hits << " hits / " << bus_stats.cache_misses
            << " misses over " << bus_chunks << " chunks (hit rate "
            << bus_cache_hit_rate << ")\n";

  // ---- bus job-parallel: one large job's shard units on the pool ----
  //
  // The same full-dataset CPA spec, run in-process through run_cpa_job:
  // once sequentially (the default exec — also the bit-identity
  // reference) and once with a shard budget of 4, fanning the 8 shard
  // units out on the worker pool with merges in shard order (the job
  // grows the pool to its budget itself). Median of
  // gate_reps reps each, alternating. The budget-4 run must reach
  // PSC_BUS_JOB_MIN_SCALING times sequential throughput (>= 4 hardware
  // threads only) and match it bit-for-bit.
  const double bus_job_min_scaling =
      util::env_double("PSC_BUS_JOB_MIN_SCALING", 2.0);
  double bus_job_tps_seq = 0.0;
  double bus_job_tps_par = 0.0;
  bool bus_job_identical = true;
  {
    const auto mapping = store::SharedMapping::open(pstr_v2_path);
    bus::CpaJobSpec spec;
    spec.channel = util::FourCc("PHPC").code();
    spec.known_key = victim_key;
    spec.models = {power::PowerModel::rd0_hw};
    spec.shards = 8;
    bus::JobExecOptions par_exec;
    par_exec.shard_budget = [] { return std::uint32_t{4}; };

    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    std::vector<double> seq_tps;
    std::vector<double> par_tps;
    for (int rep = 0; rep < gate_reps; ++rep) {
      auto start = std::chrono::steady_clock::now();
      const bus::CpaJobResult seq = bus::run_cpa_job(mapping, spec);
      seq_tps.push_back(static_cast<double>(seq.traces) /
                        seconds_since(start));

      start = std::chrono::steady_clock::now();
      const bus::CpaJobResult par =
          bus::run_cpa_job(mapping, spec, {}, par_exec);
      par_tps.push_back(static_cast<double>(par.traces) /
                        seconds_since(start));

      for (std::size_t b = 0; bus_job_identical && b < 16; ++b) {
        for (std::size_t g = 0; g < 256; ++g) {
          if (bits(seq.models[0].bytes[b].correlation[g]) !=
              bits(par.models[0].bytes[b].correlation[g])) {
            bus_job_identical = false;
            break;
          }
        }
      }
    }
    bus_job_tps_seq = median(seq_tps);
    bus_job_tps_par = median(par_tps);
  }
  const double bus_job_scaling =
      bus_job_tps_seq > 0.0 ? bus_job_tps_par / bus_job_tps_seq : 0.0;
  const bool bus_job_gate_enforced =
      bus_hw_threads >= 4 && bus_job_tps_par > 0.0;
  const bool bus_job_ok =
      bus_job_identical &&
      (!bus_job_gate_enforced || bus_job_scaling >= bus_job_min_scaling);
  std::cerr << "bus job-parallel: sequential " << bus_job_tps_seq
            << " traces/s, budget-4 " << bus_job_tps_par
            << " traces/s (speedup " << bus_job_scaling << ", "
            << (bus_job_identical ? "bit-identical" : "MISMATCH") << ")\n";

  // ---- SIMD ingest kernels: each available backend vs forced scalar ----
  //
  // Times the two dispatched kernels the engines ingest through — the
  // striped moment accumulator and the 16-position byte histogram — on a
  // cache-resident working set, once per supported backend, against the
  // forced-scalar fallback built from the same sources. Each backend's
  // accumulator state must stay bit-identical to scalar (the same
  // contract the unit tests enforce, re-checked here on the bench's own
  // stream). The gate requires the best vector backend to reach
  // PSC_SIMD_MIN_RATIO times scalar on at least one kernel, and is
  // skipped when only the scalar backend exists (PSC_FORCE_SCALAR builds
  // or unsupported hardware).
  const double simd_min_ratio = util::env_double("PSC_SIMD_MIN_RATIO", 1.5);
  const std::size_t simd_values = util::env_size("PSC_SIMD_VALUES", 16'000'000);
  constexpr std::size_t simd_block = 4096;  // 32 KiB of doubles: L1-resident
  const std::size_t simd_rep_count =
      std::max<std::size_t>(1, simd_values / simd_block);

  struct SimdRow {
    util::simd::Backend backend;
    double moments_vps = 0.0;  // moment-stripe values/sec
    double hist_tps = 0.0;     // histogram traces/sec (16 bytes + 1 value)
    bool bit_identical = true;
  };
  std::vector<SimdRow> simd_rows;
  {
    util::AlignedVector<double> values(simd_block);
    std::vector<std::uint8_t> blocks(simd_block * 16);
    util::Xoshiro256 simd_rng(bench::bench_seed() + 17);
    for (double& v : values) {
      v = simd_rng.gaussian();
    }
    simd_rng.fill_bytes(blocks);

    // Scalar reference state for the bit-identity cross-check.
    util::simd::MomentStripes ref_moments;
    util::AlignedVector<std::uint32_t> ref_count(16 * 256, 0);
    util::AlignedVector<double> ref_sum(16 * 256, 0.0);
    util::simd::force_backend(util::simd::Backend::scalar);
    util::simd::accumulate_moments(values.data(), simd_block, 0, ref_moments);
    util::simd::accumulate_histogram16(blocks.data(), values.data(),
                                       simd_block, ref_count.data(),
                                       ref_sum.data());

    for (const util::simd::Backend backend : util::simd::supported_backends()) {
      util::simd::force_backend(backend);
      SimdRow row{.backend = backend};

      // Correctness first: one pass over the same stream, compared
      // element-wise against the scalar reference.
      util::simd::MomentStripes moments;
      util::AlignedVector<std::uint32_t> count(16 * 256, 0);
      util::AlignedVector<double> sum(16 * 256, 0.0);
      util::simd::accumulate_moments(values.data(), simd_block, 0, moments);
      util::simd::accumulate_histogram16(blocks.data(), values.data(),
                                         simd_block, count.data(), sum.data());
      row.bit_identical = moments.sum == ref_moments.sum &&
                          moments.sumsq == ref_moments.sumsq &&
                          std::equal(count.begin(), count.end(),
                                     ref_count.begin()) &&
                          std::equal(sum.begin(), sum.end(), ref_sum.begin());

      // Throughput, best of 3 timed passes per kernel.
      for (int rep = 0; rep < 3; ++rep) {
        util::simd::MomentStripes timed;
        std::uint64_t g = 0;
        auto start = std::chrono::steady_clock::now();
        for (std::size_t r = 0; r < simd_rep_count; ++r) {
          util::simd::accumulate_moments(values.data(), simd_block, g, timed);
          g += simd_block;
        }
        row.moments_vps = std::max(
            row.moments_vps,
            static_cast<double>(simd_rep_count * simd_block) /
                seconds_since(start));

        std::fill(count.begin(), count.end(), 0u);
        std::fill(sum.begin(), sum.end(), 0.0);
        start = std::chrono::steady_clock::now();
        for (std::size_t r = 0; r < simd_rep_count; ++r) {
          util::simd::accumulate_histogram16(blocks.data(), values.data(),
                                             simd_block, count.data(),
                                             sum.data());
        }
        row.hist_tps = std::max(
            row.hist_tps, static_cast<double>(simd_rep_count * simd_block) /
                              seconds_since(start));
      }
      simd_rows.push_back(row);
      std::cerr << "simd[" << util::simd::backend_name(backend)
                << "]: moments " << row.moments_vps << " values/s, hist "
                << row.hist_tps << " traces/s"
                << (row.bit_identical ? "" : " MISMATCH") << "\n";
    }
    util::simd::reset_backend();
  }
  const std::string simd_active(
      util::simd::backend_name(util::simd::active_backend()));
  double scalar_moments_vps = 0.0;
  double scalar_hist_tps = 0.0;
  for (const SimdRow& row : simd_rows) {
    if (row.backend == util::simd::Backend::scalar) {
      scalar_moments_vps = row.moments_vps;
      scalar_hist_tps = row.hist_tps;
    }
  }
  bool simd_identical = true;
  double simd_best_ratio = 0.0;
  for (const SimdRow& row : simd_rows) {
    simd_identical = simd_identical && row.bit_identical;
    if (row.backend == util::simd::Backend::scalar) {
      continue;
    }
    if (scalar_moments_vps > 0.0) {
      simd_best_ratio =
          std::max(simd_best_ratio, row.moments_vps / scalar_moments_vps);
    }
    if (scalar_hist_tps > 0.0) {
      simd_best_ratio =
          std::max(simd_best_ratio, row.hist_tps / scalar_hist_tps);
    }
  }
  const bool simd_gate_enforced = simd_rows.size() > 1;
  const bool simd_ok =
      simd_identical &&
      (!simd_gate_enforced || simd_best_ratio >= simd_min_ratio);

  // ---- combined CPA+TVLA campaign scaling vs worker count ----
  //
  // The combined campaign — one acquisition fanned to TVLA, CPA and GE
  // sinks — is the heaviest per-batch pipeline, so its scaling is what
  // the worker-pool gate measures. traces_per_set is sized so the six
  // labeled sets total PSC_TRACES acquired traces.
  const std::size_t traces_per_set = std::max<std::size_t>(1, traces / 6);
  const std::size_t total_traces = 6 * traces_per_set;
  core::CombinedCampaignConfig config{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .victim = victim::VictimModel::user_space(),
      .traces_per_set = traces_per_set,
      .models = {power::PowerModel::rd0_hw},
      .keys = {smc::FourCc("PHPC")},
      .checkpoints = {},
      .seed = bench::bench_seed(),
      .workers = 1,
      .shards = shards,
  };

  std::vector<std::size_t> worker_counts;
  for (std::size_t w = 1; w <= max_workers; w *= 2) {
    worker_counts.push_back(w);
  }

  // gate_reps sweeps over the worker counts; every run is checked
  // against the first one (workers=1) for bit-identical results.
  bool identical = true;
  bool have_reference = false;
  double reference_ge = 0.0;
  std::array<int, 16> reference_ranks{};
  std::vector<core::TvlaMatrix> reference_tvla;
  std::vector<std::vector<double>> sweep_seconds(worker_counts.size());
  std::vector<double> sweep_ge(worker_counts.size());
  for (int rep = 0; rep < gate_reps; ++rep) {
    for (std::size_t i = 0; i < worker_counts.size(); ++i) {
      config.workers = worker_counts[i];
      const auto start = std::chrono::steady_clock::now();
      const auto result = run_combined_campaign(config);
      sweep_seconds[i].push_back(seconds_since(start));
      const auto& final = result.cpa[0].final_results[0];
      sweep_ge[i] = final.ge_bits;
      if (!have_reference) {
        have_reference = true;
        reference_ge = final.ge_bits;
        reference_ranks = final.true_ranks;
        for (const auto& channel : result.tvla) {
          reference_tvla.push_back(channel.matrix);
        }
      } else if (final.ge_bits != reference_ge ||
                 final.true_ranks != reference_ranks ||
                 result.tvla.size() != reference_tvla.size()) {
        identical = false;
      } else {
        for (std::size_t c = 0; c < reference_tvla.size(); ++c) {
          if (result.tvla[c].matrix.t != reference_tvla[c].t) {
            identical = false;
          }
        }
      }
    }
  }
  double tps_at_1 = 0.0;
  double tps_at_4 = 0.0;
  std::string rows;
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    const std::size_t workers = worker_counts[i];
    const double seconds = median(sweep_seconds[i]);
    const double tps = static_cast<double>(total_traces) / seconds;
    if (workers == 1) {
      tps_at_1 = tps;
    } else if (workers == 4) {
      tps_at_4 = tps;
    }
    if (!rows.empty()) {
      rows += ",";
    }
    rows += "{\"workers\":" + std::to_string(workers) +
            ",\"seconds\":" + util::format_double(seconds) +
            ",\"traces_per_sec\":" + util::format_double(tps) +
            ",\"ge_bits\":" + util::format_double(sweep_ge[i]) + "}";
    std::cerr << "workers=" << workers << " " << seconds << "s (" << tps
              << " traces/s, median of " << gate_reps << ")\n";
  }

  // Scaling gate: workers=4 must beat workers=1 by min_speedup — but only
  // on machines that actually have >= 4 hardware threads; a 1- or 2-core
  // CI runner records the measured numbers with the gate marked skipped
  // instead of failing on physics.
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const double min_speedup =
      util::env_double("PSC_SCALING_MIN_SPEEDUP", 2.5);
  const double speedup_at_4 = tps_at_1 > 0.0 ? tps_at_4 / tps_at_1 : 0.0;
  const bool scaling_gate_enforced = hw_threads >= 4 && tps_at_4 > 0.0;
  const bool scaling_ok =
      !scaling_gate_enforced || speedup_at_4 >= min_speedup;

  const bool ingest_ok = ingest_identical && ingest_ratio >= min_ratio;
  if (!ingest_ok) {
    std::cerr << "FAIL: columnar ingest "
              << (ingest_identical ? "below required throughput ratio "
                                   : "state mismatch ")
              << "(ratio " << ingest_ratio << ", required " << min_ratio
              << ")\n";
  }
  const bool store_ok = replay_identical && replay_ratio >= replay_min_ratio;
  if (!store_ok) {
    std::cerr << "FAIL: PSTR replay "
              << (replay_identical ? "below required throughput ratio "
                                   : "state mismatch ")
              << "(ratio " << replay_ratio << ", required "
              << replay_min_ratio << ")\n";
  }
  const bool store_v2_ok = v2_identical && sample_identical &&
                           v2_ratio >= v2_min_ratio &&
                           v2_tps_ratio >= v2_min_tps_ratio;
  if (!store_v2_ok) {
    std::cerr << "FAIL: PSTR v2 ";
    if (!v2_identical || !sample_identical) {
      std::cerr << "replay state mismatch";
    } else if (v2_ratio < v2_min_ratio) {
      std::cerr << "compression ratio " << v2_ratio << " below required "
                << v2_min_ratio;
    } else {
      std::cerr << "compressed replay ratio " << v2_tps_ratio
                << " below required " << v2_min_tps_ratio;
    }
    std::cerr << "\n";
  }
  if (!bus_ok) {
    std::cerr << "FAIL: bus daemon ";
    if (!bus_identical) {
      std::cerr << "served result differs from in-process run";
    } else if (!bus_clients_ok) {
      std::cerr << "client campaign errored";
    } else if (!bus_decode_once) {
      std::cerr << "chunk cache decoded " << bus_stats.cache_misses
                << " times over " << bus_chunks << " chunks";
    } else if (bus_cache_hit_rate < bus_min_cache_hit) {
      std::cerr << "chunk cache hit rate " << bus_cache_hit_rate
                << " below required " << bus_min_cache_hit;
    } else {
      std::cerr << "4-client aggregate scaling " << bus_scaling
                << " below required " << bus_min_scaling;
    }
    std::cerr << "\n";
  }
  if (!bus_job_ok) {
    std::cerr << "FAIL: bus job-parallel "
              << (bus_job_identical ? "speedup " : "result mismatch ")
              << "(speedup " << bus_job_scaling << ", required "
              << bus_job_min_scaling << ")\n";
  }
  if (!simd_ok) {
    std::cerr << "FAIL: SIMD ingest "
              << (simd_identical ? "below required speedup over scalar "
                                 : "state mismatch ")
              << "(best ratio " << simd_best_ratio << ", required "
              << simd_min_ratio << ")\n";
  }
  if (!scaling_ok) {
    std::cerr << "FAIL: combined campaign speedup at 4 workers "
              << speedup_at_4 << " below required " << min_speedup << "\n";
  }

  // One JSON object, to stdout and to the trajectory file; progress went
  // to stderr.
  std::string simd_kernels;
  for (const SimdRow& row : simd_rows) {
    if (!simd_kernels.empty()) {
      simd_kernels += ",";
    }
    simd_kernels +=
        "{\"backend\":\"" +
        std::string(util::simd::backend_name(row.backend)) + "\"," +
        "\"moments_values_per_sec\":" + util::format_double(row.moments_vps) +
        ",\"hist_traces_per_sec\":" + util::format_double(row.hist_tps) +
        ",\"moments_over_scalar\":" +
        util::format_double(scalar_moments_vps > 0.0
                                ? row.moments_vps / scalar_moments_vps
                                : 0.0) +
        ",\"hist_over_scalar\":" +
        util::format_double(
            scalar_hist_tps > 0.0 ? row.hist_tps / scalar_hist_tps : 0.0) +
        ",\"bit_identical\":" + (row.bit_identical ? "true" : "false") + "}";
  }

  const std::string json =
      "{\"bench\":\"pipeline_scaling\","
      "\"device\":\"macbook_air_m2\","
      "\"channel\":\"PHPC\","
      "\"traces\":" + std::to_string(total_traces) + ","
      "\"traces_per_set\":" + std::to_string(traces_per_set) + ","
      "\"shards\":" + std::to_string(shards) + ","
      "\"seed\":" + std::to_string(bench::bench_seed()) + ","
      "\"hw_concurrency\":" + std::to_string(hw_threads) + ","
      "\"identical_results\":" + (identical ? "true" : "false") + ","
      "\"simd\":{"
      "\"active_backend\":\"" + simd_active + "\","
      "\"values\":" + std::to_string(simd_rep_count * simd_block) + ","
      "\"kernels\":[" + simd_kernels + "],"
      "\"best_over_scalar\":" + util::format_double(simd_best_ratio) + ","
      "\"min_ratio\":" + util::format_double(simd_min_ratio) + ","
      "\"gate\":\"" + (simd_gate_enforced ? "enforced" : "skipped") + "\","
      "\"bit_identical\":" + (simd_identical ? "true" : "false") + ","
      "\"ok\":" + (simd_ok ? "true" : "false") + "},"
      "\"scaling\":{"
      "\"speedup_at_4\":" + util::format_double(speedup_at_4) + ","
      "\"min_speedup\":" + util::format_double(min_speedup) + ","
      "\"gate\":\"" + (scaling_gate_enforced ? "enforced" : "skipped") + "\","
      "\"ok\":" + (scaling_ok ? "true" : "false") + "},"
      "\"ingest\":{"
      "\"traces\":" + std::to_string(ingest_traces) + ","
      "\"legacy_traces_per_sec\":" + util::format_double(legacy_tps) + ","
      "\"batch_traces_per_sec\":" + util::format_double(batch_tps) + ","
      "\"batch_over_legacy\":" + util::format_double(ingest_ratio) + ","
      "\"bit_identical\":" + (ingest_identical ? "true" : "false") + "},"
      "\"store\":{"
      "\"traces\":" + std::to_string(store_traces) + ","
      "\"file_bytes\":" + std::to_string(store_bytes) + ","
      "\"record_traces_per_sec\":" + util::format_double(record_tps) + ","
      "\"replay_traces_per_sec\":" + util::format_double(replay_tps) + ","
      "\"regen_traces_per_sec\":" + util::format_double(regen_tps) + ","
      "\"replay_over_regen\":" + util::format_double(replay_ratio) + ","
      "\"bit_identical\":" + (replay_identical ? "true" : "false") + "},"
      "\"store_v2\":{"
      "\"traces\":" + std::to_string(v2_traces) + ","
      "\"channels\":" + std::to_string(v2_channels) + ","
      "\"v1_file_bytes\":" + std::to_string(v2_ref_bytes) + ","
      "\"v2_file_bytes\":" + std::to_string(v2_cmp_bytes) + ","
      "\"bytes_per_trace_v1\":" +
      util::format_double(v2_traces > 0
                              ? static_cast<double>(v2_ref_bytes) /
                                    static_cast<double>(v2_traces)
                              : 0.0) + ","
      "\"bytes_per_trace_v2\":" +
      util::format_double(v2_traces > 0
                              ? static_cast<double>(v2_cmp_bytes) /
                                    static_cast<double>(v2_traces)
                              : 0.0) + ","
      "\"compression_ratio\":" + util::format_double(v2_ratio) + ","
      "\"min_ratio\":" + util::format_double(v2_min_ratio) + ","
      "\"v1_replay_traces_per_sec\":" + util::format_double(v1_replay_tps) + ","
      "\"v2_replay_traces_per_sec\":" + util::format_double(v2_replay_tps) + ","
      "\"replay_ratio\":" + util::format_double(v2_tps_ratio) + ","
      "\"min_replay_ratio\":" + util::format_double(v2_min_tps_ratio) + ","
      "\"async_chunk_decodes\":" + std::to_string(v2_async_decodes) + ","
      "\"bit_identical\":" + (v2_identical ? "true" : "false") + ","
      "\"sample\":{"
      "\"path\":\"" + pstr_v2_path + "\","
      "\"v1_bytes\":" + std::to_string(sample_v1_bytes) + ","
      "\"v2_bytes\":" + std::to_string(sample_v2_bytes) + ","
      "\"file_ratio\":" + util::format_double(sample_file_ratio) + ","
      "\"channel_ratio\":" + util::format_double(sample_chan_ratio) + ","
      "\"bit_identical\":" + (sample_identical ? "true" : "false") + "},"
      "\"ok\":" + (store_v2_ok ? "true" : "false") + "},"
      "\"bus\":{"
      "\"dataset\":\"" + pstr_v2_path + "\","
      "\"traces_per_job\":" + std::to_string(store_traces) + ","
      "\"clients\":["
      "{\"clients\":1,\"aggregate_traces_per_sec\":" +
      util::format_double(bus_tps_1) + "},"
      "{\"clients\":2,\"aggregate_traces_per_sec\":" +
      util::format_double(bus_tps_2) + "},"
      "{\"clients\":4,\"aggregate_traces_per_sec\":" +
      util::format_double(bus_tps_4) + "}],"
      "\"scaling_4_over_1\":" + util::format_double(bus_scaling) + ","
      "\"min_scaling\":" + util::format_double(bus_min_scaling) + ","
      "\"gate\":\"" + (bus_gate_enforced ? "enforced" : "skipped") + "\","
      "\"bit_identical\":" + (bus_identical ? "true" : "false") + ","
      "\"chunk_cache\":{"
      "\"chunks\":" + std::to_string(bus_chunks) + ","
      "\"hits\":" + std::to_string(bus_stats.cache_hits) + ","
      "\"misses\":" + std::to_string(bus_stats.cache_misses) + ","
      "\"evictions\":" + std::to_string(bus_stats.cache_evictions) + ","
      "\"hit_rate\":" + util::format_double(bus_cache_hit_rate) + ","
      "\"min_hit_rate\":" + util::format_double(bus_min_cache_hit) + ","
      "\"decode_once\":" + (bus_decode_once ? "true" : "false") + ","
      "\"ok\":" + (bus_cache_ok ? "true" : "false") + "},"
      "\"job_parallel\":{"
      "\"shards\":8,"
      "\"seq_traces_per_sec\":" + util::format_double(bus_job_tps_seq) + ","
      "\"budget4_traces_per_sec\":" + util::format_double(bus_job_tps_par) + ","
      "\"speedup\":" + util::format_double(bus_job_scaling) + ","
      "\"min_speedup\":" + util::format_double(bus_job_min_scaling) + ","
      "\"gate\":\"" + (bus_job_gate_enforced ? "enforced" : "skipped") + "\","
      "\"bit_identical\":" + (bus_job_identical ? "true" : "false") + ","
      "\"ok\":" + (bus_job_ok ? "true" : "false") + "},"
      "\"ok\":" + (bus_ok ? "true" : "false") + "},"
      "\"results\":[" + rows + "]}";
  std::cout << json << "\n";
  const std::string path =
      util::env_string("PSC_BENCH_JSON", "BENCH_pipeline_scaling.json");
  if (std::ofstream out(path); out) {
    out << json << "\n";
  } else {
    std::cerr << "warning: could not write " << path << "\n";
  }
  return identical && ingest_ok && store_ok && store_v2_ok && bus_ok &&
                 bus_job_ok && simd_ok && scaling_ok
             ? 0
             : 1;
}
