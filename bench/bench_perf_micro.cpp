// Micro-performance of the framework's hot paths (google-benchmark):
// the AES kernel, leakage evaluation, trace synthesis, CPA updates and
// analysis, TVLA accumulation, the dispatched SIMD kernels (one
// registration per compiled-and-supported backend, so a single run shows
// the scalar-vs-vector ladder on this machine), and the full-chip step
// rate. These bound how fast paper-scale campaigns run (1M traces in
// seconds). The backend auto-dispatch would pick for the engines is
// recorded in the benchmark context as `simd_backend`.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "aes/aes128.h"
#include "aes/aes_armv8.h"
#include "core/cpa.h"
#include "core/tvla.h"
#include "power/leakage_model.h"
#include "sched/scheduler.h"
#include "soc/chip.h"
#include "util/aligned.h"
#include "util/codec.h"
#include "util/rng.h"
#include "util/simd.h"
#include "victim/fast_trace.h"

namespace {

using namespace psc;

aes::Block random_block(util::Xoshiro256& rng) {
  aes::Block b;
  rng.fill_bytes(b);
  return b;
}

void BM_AesEncrypt(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  aes::Aes128 cipher(random_block(rng));
  aes::Block pt = random_block(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cipher.encrypt(pt));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AesEncrypt);

void BM_AesEncryptTrace(benchmark::State& state) {
  util::Xoshiro256 rng(2);
  aes::Aes128 cipher(random_block(rng));
  aes::Block pt = random_block(rng);
  aes::RoundTrace trace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cipher.encrypt_trace(pt, trace));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AesEncryptTrace);

void BM_AesArmv8Encrypt(benchmark::State& state) {
  util::Xoshiro256 rng(3);
  aes::Aes128Armv8 cipher(random_block(rng));
  aes::Block pt = random_block(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cipher.encrypt(pt));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AesArmv8Encrypt);

void BM_LeakageEvaluation(benchmark::State& state) {
  util::Xoshiro256 rng(4);
  aes::Aes128 cipher(random_block(rng));
  power::LeakageEvaluator evaluator(
      power::LeakageConfig::apple_silicon_default());
  aes::Block pt = random_block(rng);
  aes::RoundTrace trace;
  cipher.encrypt_trace(pt, trace);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.encryption_energy(pt, trace));
  }
}
BENCHMARK(BM_LeakageEvaluation);

void BM_FastTraceCollect(benchmark::State& state) {
  util::Xoshiro256 rng(5);
  victim::FastTraceSource source(soc::DeviceProfile::macbook_air_m2(),
                                 random_block(rng),
                                 victim::VictimModel::user_space(), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.collect(random_block(rng)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FastTraceCollect);

// Feeds one trace as a one-trace batch.
void add_one(core::CpaEngine& engine, const aes::Block& pt,
             const aes::Block& ct, double value) {
  engine.add_trace_batch({&pt, 1}, {&ct, 1}, {&value, 1});
}

void BM_CpaAddTrace(benchmark::State& state) {
  util::Xoshiro256 rng(7);
  core::CpaEngine engine({power::PowerModel::rd0_hw});
  aes::Block pt = random_block(rng);
  aes::Block ct = random_block(rng);
  for (auto _ : state) {
    add_one(engine, pt, ct, 1.0);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CpaAddTrace);

void BM_CpaAddTraceWithPairHistogram(benchmark::State& state) {
  util::Xoshiro256 rng(8);
  core::CpaEngine engine({power::PowerModel::rd10_hd});
  aes::Block pt = random_block(rng);
  aes::Block ct = random_block(rng);
  for (auto _ : state) {
    add_one(engine, pt, ct, 1.0);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CpaAddTraceWithPairHistogram);

void BM_CpaAnalyzeByte(benchmark::State& state) {
  util::Xoshiro256 rng(9);
  core::CpaEngine engine({power::PowerModel::rd0_hw});
  for (int i = 0; i < 10000; ++i) {
    add_one(engine, random_block(rng), random_block(rng),
            rng.gaussian(0.0, 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.analyze_byte(power::PowerModel::rd0_hw, 0));
  }
}
BENCHMARK(BM_CpaAnalyzeByte);

// A sequentially fed engine keeps its pair data as a log, so each call
// also builds the position's histogram.
void BM_CpaAnalyzeByteHd(benchmark::State& state) {
  util::Xoshiro256 rng(10);
  core::CpaEngine engine({power::PowerModel::rd10_hd});
  for (int i = 0; i < 10000; ++i) {
    add_one(engine, random_block(rng), random_block(rng),
            rng.gaussian(0.0, 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.analyze_byte(power::PowerModel::rd10_hd, 0));
  }
}
BENCHMARK(BM_CpaAnalyzeByteHd);

// At 98,304 traces ~78% of a position's 65536 pair bins are occupied,
// the replay workload's occupancy, and the per-occupied-bin guess-row
// update sets the cost. Byte 1 pairs with ct[5]; positions 0, 4, 8 and
// 12 (state row 0, not shifted) pair with themselves and fill only the
// 256 diagonal bins. The fed engine is merged into an empty one, which
// holds the dense pair histogram, so the loop times the analysis alone.
void BM_CpaAnalyzeByteHdDense(benchmark::State& state) {
  util::Xoshiro256 rng(21);
  core::CpaEngine fed({power::PowerModel::rd10_hd});
  for (int i = 0; i < 98304; ++i) {
    add_one(fed, random_block(rng), random_block(rng),
            rng.gaussian(0.0, 1.0));
  }
  core::CpaEngine engine({power::PowerModel::rd10_hd});
  engine.merge(fed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.analyze_byte(power::PowerModel::rd10_hd, 1));
  }
}
BENCHMARK(BM_CpaAnalyzeByteHdDense);

void BM_CpaAnalyzeByteRd10Hw(benchmark::State& state) {
  util::Xoshiro256 rng(22);
  core::CpaEngine engine({power::PowerModel::rd10_hw});
  for (int i = 0; i < 10000; ++i) {
    add_one(engine, random_block(rng), random_block(rng),
            rng.gaussian(0.0, 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.analyze_byte(power::PowerModel::rd10_hw, 0));
  }
}
BENCHMARK(BM_CpaAnalyzeByteRd10Hw);

void BM_TvlaAccumulate(benchmark::State& state) {
  util::Xoshiro256 rng(11);
  core::TvlaAccumulator acc;
  for (auto _ : state) {
    acc.add(core::PlaintextClass::all_zeros, false, rng.gaussian());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TvlaAccumulate);

// ---- dispatched SIMD ingest kernels, one registration per backend ----
//
// Registered from main() for every backend this build can run (see
// util/simd.h), with the backend forced for the duration of the
// benchmark; items processed = values (moments) or traces (histogram,
// 16 plaintext bytes + 1 value each). The working set is L1-resident so
// the numbers measure kernel arithmetic, not memory bandwidth.

constexpr std::size_t simd_bench_block = 4096;

void BM_SimdAccumulateMoments(benchmark::State& state,
                              util::simd::Backend backend) {
  util::simd::force_backend(backend);
  util::Xoshiro256 rng(14);
  util::AlignedVector<double> values(simd_bench_block);
  for (double& v : values) {
    v = rng.gaussian();
  }
  util::simd::MomentStripes moments;
  std::uint64_t g = 0;
  for (auto _ : state) {
    util::simd::accumulate_moments(values.data(), values.size(), g, moments);
    g += values.size();
    benchmark::DoNotOptimize(moments);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(simd_bench_block));
  util::simd::reset_backend();
}

void BM_SimdHistogram16(benchmark::State& state,
                        util::simd::Backend backend) {
  util::simd::force_backend(backend);
  util::Xoshiro256 rng(15);
  std::vector<std::uint8_t> blocks(simd_bench_block * 16);
  rng.fill_bytes(blocks);
  util::AlignedVector<double> values(simd_bench_block);
  for (double& v : values) {
    v = rng.gaussian();
  }
  util::AlignedVector<std::uint32_t> count(16 * 256, 0);
  util::AlignedVector<double> sum(16 * 256, 0.0);
  for (auto _ : state) {
    util::simd::accumulate_histogram16(blocks.data(), values.data(),
                                       simd_bench_block, count.data(),
                                       sum.data());
    benchmark::DoNotOptimize(count.data());
    benchmark::DoNotOptimize(sum.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(simd_bench_block));
  util::simd::reset_backend();
}

void BM_CpaAddTraceBatch(benchmark::State& state,
                         util::simd::Backend backend) {
  util::simd::force_backend(backend);
  util::Xoshiro256 rng(16);
  core::CpaEngine engine({power::PowerModel::rd0_hw});
  std::vector<aes::Block> plaintexts(simd_bench_block);
  std::vector<aes::Block> ciphertexts(simd_bench_block);
  util::AlignedVector<double> values(simd_bench_block);
  for (std::size_t i = 0; i < simd_bench_block; ++i) {
    rng.fill_bytes(plaintexts[i]);
    rng.fill_bytes(ciphertexts[i]);
    values[i] = rng.gaussian();
  }
  for (auto _ : state) {
    engine.add_trace_batch(plaintexts, ciphertexts, values);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(simd_bench_block));
  util::simd::reset_backend();
}

// One occupied histogram bin folded into the 256 guess lanes: the CPA
// analysis inner step. Items processed = bins; the weight rows (64 KiB)
// and lanes stay cache-resident.
void BM_SimdGuessRow(benchmark::State& state, util::simd::Backend backend) {
  util::simd::force_backend(backend);
  util::Xoshiro256 rng(23);
  std::vector<std::uint8_t> rows(256 * util::simd::guess_lanes);
  for (std::uint8_t& w : rows) {
    w = static_cast<std::uint8_t>(rng() % 9);
  }
  util::simd::GuessSums acc;
  std::size_t row = 0;
  for (auto _ : state) {
    util::simd::accumulate_guess_row(&rows[row * util::simd::guess_lanes],
                                     3.0, 1.5, acc);
    row = (row + 1) % 256;
    benchmark::DoNotOptimize(&acc);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  util::simd::reset_backend();
}

// ---- PSTR v2 column codec: encode, decode, and the unpack kernel ----
//
// One chunk-sized quantized sensor column shaped like a recorded SMC
// rail (µW grid, float32-truncated, ~250-step noise): what
// delta_bitpack compresses in every v2 chunk flush, and what replay
// decodes per chunk — the costs the store_v2 throughput gate bounds
// end-to-end.

std::vector<double> quantized_sensor_column(std::uint64_t seed,
                                            std::size_t n) {
  util::Xoshiro256 rng(seed);
  std::vector<double> values(n);
  double level = 4.0;
  for (double& v : values) {
    level += rng.gaussian(0.0, 10e-6);
    v = static_cast<double>(static_cast<float>(
        std::round((level + rng.gaussian(0.0, 250e-6)) / 1e-6) * 1e-6));
  }
  return values;
}

void BM_DeltaBitpackEncode(benchmark::State& state) {
  const auto values = quantized_sensor_column(18, simd_bench_block);
  std::vector<std::byte> enc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        util::delta_bitpack_encode(values.data(), values.size(), enc));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(simd_bench_block));
}
BENCHMARK(BM_DeltaBitpackEncode);

void BM_DeltaBitpackDecode(benchmark::State& state,
                           util::simd::Backend backend) {
  util::simd::force_backend(backend);
  const auto values = quantized_sensor_column(19, simd_bench_block);
  std::vector<std::byte> enc;
  util::delta_bitpack_encode(values.data(), values.size(), enc);
  std::vector<double> out(values.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::delta_bitpack_decode(
        enc.data(), enc.size(), out.data(), out.size()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(simd_bench_block));
  util::simd::reset_backend();
}

void BM_SimdUnpackBits(benchmark::State& state,
                       util::simd::Backend backend) {
  util::simd::force_backend(backend);
  constexpr unsigned width = 12;  // typical packed sensor delta width
  util::Xoshiro256 rng(20);
  std::vector<std::byte> packed(simd_bench_block * width / 8 + 8);
  for (std::byte& b : packed) {
    b = static_cast<std::byte>(rng() & 0xff);
  }
  std::vector<std::uint64_t> out(simd_bench_block);
  for (auto _ : state) {
    util::simd::unpack_bits(packed.data(), packed.size(), 0, width,
                            out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(simd_bench_block));
  util::simd::reset_backend();
}

void register_simd_benchmarks() {
  for (const util::simd::Backend backend : util::simd::supported_backends()) {
    const std::string name(util::simd::backend_name(backend));
    benchmark::RegisterBenchmark(
        ("BM_SimdAccumulateMoments/" + name).c_str(),
        BM_SimdAccumulateMoments, backend);
    benchmark::RegisterBenchmark(("BM_SimdHistogram16/" + name).c_str(),
                                 BM_SimdHistogram16, backend);
    benchmark::RegisterBenchmark(("BM_CpaAddTraceBatch/" + name).c_str(),
                                 BM_CpaAddTraceBatch, backend);
    benchmark::RegisterBenchmark(("BM_SimdGuessRow/" + name).c_str(),
                                 BM_SimdGuessRow, backend);
    benchmark::RegisterBenchmark(("BM_SimdUnpackBits/" + name).c_str(),
                                 BM_SimdUnpackBits, backend);
    benchmark::RegisterBenchmark(("BM_DeltaBitpackDecode/" + name).c_str(),
                                 BM_DeltaBitpackDecode, backend);
  }
}

void BM_ChipAdvance(benchmark::State& state) {
  soc::Chip chip(soc::DeviceProfile::macbook_air_m2(), 12);
  soc::FmulStressor fmul;
  chip.p_core(0).assign(&fmul);
  for (auto _ : state) {
    chip.advance(1e-3);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ChipAdvance);

void BM_SchedulerQuantum(benchmark::State& state) {
  soc::Chip chip(soc::DeviceProfile::macbook_air_m2(), 13);
  sched::Scheduler scheduler(chip);
  std::vector<sched::ThreadId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(scheduler.spawn(std::string("t") + std::to_string(i),
                                  std::make_unique<soc::FmulStressor>()));
  }
  for (auto _ : state) {
    scheduler.step();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SchedulerQuantum);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  // What auto-dispatch would pick for the engines on this machine; the
  // per-backend registrations above force their own backend while timed.
  benchmark::AddCustomContext(
      "simd_backend",
      std::string(util::simd::backend_name(util::simd::active_backend())));
  register_simd_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
