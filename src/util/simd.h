// Runtime-dispatched SIMD kernels for the analysis hot paths.
//
// The CPA and TVLA engines accumulate three things per trace: running
// moment sums of the measured channel value, 16 byte-indexed histograms
// of (count, value-sum), and — for the pair model — a 16x65536 pair
// histogram. CPA analysis then folds every occupied histogram bin into
// 256 per-guess correlation sums. This header exposes those inner loops
// as free-function kernels with one implementation per instruction set
// (scalar, SSE2, AVX2, AVX-512, NEON), selected once at runtime from CPU
// capabilities — the same per-ISA-dispatch model aes_armv8 set for the
// cipher.
//
// Bit-exactness contract
// ----------------------
// Every backend produces bit-identical accumulator state. This is not an
// accident of testing but of construction:
//
//  * Moment sums are *striped*: the value with global stream index g
//    accumulates into stripe g % stripes. A lane-width w backend
//    processes stripes [0,w), [w,2w), ... as vector lanes, so each
//    stripe always receives the same values in the same order — an
//    8-lane AVX-512 body, a 2-lane SSE2 body, and the portable scalar
//    loop all build identical stripes. Totals come from the fixed
//    pairwise reduction tree of reduce_stripes.
//  * Histogram updates touch 16 *disjoint* bins per trace (one per byte
//    position), so the vector body that updates all 16 positions of one
//    trace at a time (AVX-512 gather/scatter) performs, per bin, the same
//    floating-point additions in the same trace order as the scalar
//    position-major loop.
//  * The guess-row update folds one histogram bin into 256 independent
//    per-guess lanes: lane j receives only its own products, in call
//    order, so the 4-lane AVX2 body, the auto-vectorized scalar loop and
//    every other body perform the same mul-then-add per lane.
//
// None of the kernels uses fused multiply-add: x*x + s is always two
// roundings, matching the portable fallback on every ISA.
//
// The engines stripe by *global* trace index, which also makes their
// state prefix-consistent: feeding a stream in any batch-boundary
// chunking yields identical accumulators, the property the store replay
// and checkpoint-snapshot tests pin down.
//
// Dispatch
// --------
// active_backend() resolves once from the CPU (best available wins); the
// PSC_SIMD environment variable (scalar|sse2|avx2|avx512|neon) or
// force_backend() — the override hook the bit-consistency tests and the
// per-kernel benches use — pin a specific backend. Building with
// -DPSC_FORCE_SCALAR=ON (CMake) compiles the portable fallback only.
//
// Adding a new SIMD kernel
// ------------------------
//  1. Declare the free function here; implement the portable body in
//     simd.cpp as `<name>_scalar`.
//  2. Add per-ISA bodies guarded by PSC_SIMD_HAVE_* with
//     __attribute__((target(...))); reuse a backend's scalar body when an
//     ISA brings nothing (e.g. histogram scatter below AVX-512).
//  3. Wire the function pointers into KernelTable and the per-backend
//     tables; extend tests/util/simd_test.cpp's backend sweep — the
//     bit-identity harness picks the kernel up automatically.
//  4. Keep the kernel's FP-addition order per accumulator word identical
//     across bodies (stripe or disjoint-bin constructions above), or the
//     cross-backend tests will fail loudly.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace psc::util::simd {

enum class Backend { scalar = 0, sse2, avx2, avx512, neon };

inline constexpr std::array<Backend, 5> all_backends = {
    Backend::scalar, Backend::sse2, Backend::avx2, Backend::avx512,
    Backend::neon};

std::string_view backend_name(Backend backend) noexcept;

// Compiled into this binary (ISA headers and bodies present).
bool backend_compiled(Backend backend) noexcept;
// Compiled and supported by the running CPU; scalar is always supported.
bool backend_supported(Backend backend) noexcept;
std::vector<Backend> supported_backends();

// The backend the kernels currently dispatch to.
Backend active_backend() noexcept;

// Dispatch override hook for tests and benches. Throws
// std::invalid_argument if `backend` is not supported on this machine.
// Takes effect for subsequent kernel calls; do not race against threads
// inside kernels (the campaign runners never switch mid-run).
void force_backend(Backend backend);

// Drops any override and re-resolves from PSC_SIMD / CPU capabilities.
void reset_backend() noexcept;

// ---------------------------------------------------------------------------
// Striped moment accumulation.

inline constexpr std::size_t stripes = 8;

// Per-stream running sums, striped by global index. Cache-line aligned so
// per-shard copies never share a line and vector loads are aligned.
struct alignas(64) MomentStripes {
  std::array<double, stripes> sum{};
  std::array<double, stripes> sumsq{};
};

// Accumulates x[0..n) into m, where x[i] carries global stream index
// g0 + i and lands in stripe (g0 + i) % stripes. sum gets x, sumsq gets
// x*x (two roundings, never fused).
void accumulate_moments(const double* x, std::size_t n, std::uint64_t g0,
                        MomentStripes& m) noexcept;

// Fixed pairwise reduction: ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)).
// Identical on every backend — the only sanctioned way to total stripes.
double reduce_stripes(const std::array<double, stripes>& s) noexcept;

// Merges `b` (accumulated from local indices 0..nb) into `a`, whose
// stream already holds `na` values: b's stripe j joins a's stripe
// (na + j) % stripes, exactly where those values would have landed had
// the streams been concatenated. Deterministic, so shard merges in shard
// order are reproducible bit-for-bit.
void merge_moments(MomentStripes& a, std::uint64_t na,
                   const MomentStripes& b) noexcept;

// ---------------------------------------------------------------------------
// CPA byte histograms.

// For each trace t < n and byte position i < 16:
//   bin = i * 256 + blocks[16 t + i]
//   ++count[bin];  sum[bin] += values[t];
// `blocks` is the packed 16-byte-per-trace column (plaintexts or
// ciphertexts); count/sum hold 16 x 256 bins. Per bin, additions happen
// in trace order on every backend (the 16 bins of one trace are
// disjoint), so the state is bit-identical to the scalar loop.
void accumulate_histogram16(const std::uint8_t* blocks, const double* values,
                            std::size_t n, std::uint32_t* count,
                            double* sum) noexcept;

// ---------------------------------------------------------------------------
// CPA guess-row update (analysis hot loop).

inline constexpr std::size_t guess_lanes = 256;

// Per-lane correlation sums of one CPA analysis: for each lane, the sums
// of prediction x count, prediction^2 x count and prediction x value-sum
// over the histogram bins folded in so far.
struct alignas(64) GuessSums {
  std::array<double, guess_lanes> m{};
  std::array<double, guess_lanes> mm{};
  std::array<double, guess_lanes> mt{};
};

// Folds one histogram bin (count c, value-sum v) into every lane. For
// each lane j < guess_lanes, with w = weights[j] as a double:
//   acc.m[j] += w * c;  acc.mm[j] += w * (w * c);  acc.mt[j] += w * v
// (mul then add, never fused). Lanes are independent, so every backend
// performs the same additions per lane and is bit-identical.
void accumulate_guess_row(const std::uint8_t* weights, double c, double v,
                          GuessSums& acc) noexcept;

// ---------------------------------------------------------------------------
// Fixed-width bit-field unpack (store codec decode hot loop).

// Field widths the kernel accepts: with width <= 56, any field starting
// at bit b lies entirely inside the 8-byte window at byte b/8 after a
// shift of b%8 (<= 7) — one load, one variable shift, one mask per
// field, and the AVX2 body turns that into 4-lane gathers.
inline constexpr unsigned unpack_bits_max_width = 56;

// Unpacks n little-endian bit fields of `width` bits (0 <= width <= 56)
// starting at bit `bit0` of `packed` into out[0..n): field j occupies
// bits [bit0 + j*width, bit0 + (j+1)*width) of the stream, where bit b
// lives in byte b/8 at in-byte position b%8. width == 0 zero-fills.
// `packed_bytes` must cover the last field's final byte; near the buffer
// end the kernels assemble the window byte-wise instead of over-reading.
// Pure integer, so every backend is bit-identical by construction.
void unpack_bits(const std::byte* packed, std::size_t packed_bytes,
                 std::uint64_t bit0, unsigned width, std::uint64_t* out,
                 std::size_t n) noexcept;

}  // namespace psc::util::simd
