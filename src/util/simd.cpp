#include "util/simd.h"

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>

#include "util/env.h"

// ISA availability. PSC_SIMD_FORCE_SCALAR (CMake -DPSC_FORCE_SCALAR=ON)
// compiles the portable fallback only — the configuration CI keeps green
// so non-x86/non-ARM ports always have a working path.
#if !defined(PSC_SIMD_FORCE_SCALAR)
#if defined(__x86_64__) && defined(__GNUC__)
#define PSC_SIMD_HAVE_SSE2 1
#define PSC_SIMD_HAVE_AVX2 1
#define PSC_SIMD_HAVE_AVX512 1
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define PSC_SIMD_HAVE_NEON 1
#include <arm_neon.h>
#endif
#endif  // !PSC_SIMD_FORCE_SCALAR

namespace psc::util::simd {

namespace {

// ---------------------------------------------------------------------------
// Moment bodies. Each consumes whole stripe blocks (n a multiple of
// `stripes`, stream index aligned so x[0] lands in stripe 0); head/tail
// alignment is handled once in accumulate_moments so every body sees the
// same stripe phase.

void moments_body_scalar(const double* x, std::size_t blocks,
                         MomentStripes& m) noexcept {
  std::array<double, stripes> sum = m.sum;
  std::array<double, stripes> sumsq = m.sumsq;
  for (std::size_t b = 0; b < blocks; ++b, x += stripes) {
    for (std::size_t j = 0; j < stripes; ++j) {
      sum[j] += x[j];
      sumsq[j] += x[j] * x[j];
    }
  }
  m.sum = sum;
  m.sumsq = sumsq;
}

#if defined(PSC_SIMD_HAVE_SSE2)
void moments_body_sse2(const double* x, std::size_t blocks,
                       MomentStripes& m) noexcept {
  __m128d s0 = _mm_load_pd(&m.sum[0]);
  __m128d s1 = _mm_load_pd(&m.sum[2]);
  __m128d s2 = _mm_load_pd(&m.sum[4]);
  __m128d s3 = _mm_load_pd(&m.sum[6]);
  __m128d q0 = _mm_load_pd(&m.sumsq[0]);
  __m128d q1 = _mm_load_pd(&m.sumsq[2]);
  __m128d q2 = _mm_load_pd(&m.sumsq[4]);
  __m128d q3 = _mm_load_pd(&m.sumsq[6]);
  for (std::size_t b = 0; b < blocks; ++b, x += stripes) {
    const __m128d v0 = _mm_loadu_pd(x + 0);
    const __m128d v1 = _mm_loadu_pd(x + 2);
    const __m128d v2 = _mm_loadu_pd(x + 4);
    const __m128d v3 = _mm_loadu_pd(x + 6);
    s0 = _mm_add_pd(s0, v0);
    s1 = _mm_add_pd(s1, v1);
    s2 = _mm_add_pd(s2, v2);
    s3 = _mm_add_pd(s3, v3);
    q0 = _mm_add_pd(q0, _mm_mul_pd(v0, v0));
    q1 = _mm_add_pd(q1, _mm_mul_pd(v1, v1));
    q2 = _mm_add_pd(q2, _mm_mul_pd(v2, v2));
    q3 = _mm_add_pd(q3, _mm_mul_pd(v3, v3));
  }
  _mm_store_pd(&m.sum[0], s0);
  _mm_store_pd(&m.sum[2], s1);
  _mm_store_pd(&m.sum[4], s2);
  _mm_store_pd(&m.sum[6], s3);
  _mm_store_pd(&m.sumsq[0], q0);
  _mm_store_pd(&m.sumsq[2], q1);
  _mm_store_pd(&m.sumsq[4], q2);
  _mm_store_pd(&m.sumsq[6], q3);
}

__attribute__((target("avx2"))) void moments_body_avx2(
    const double* x, std::size_t blocks, MomentStripes& m) noexcept {
  __m256d s0 = _mm256_load_pd(&m.sum[0]);
  __m256d s1 = _mm256_load_pd(&m.sum[4]);
  __m256d q0 = _mm256_load_pd(&m.sumsq[0]);
  __m256d q1 = _mm256_load_pd(&m.sumsq[4]);
  for (std::size_t b = 0; b < blocks; ++b, x += stripes) {
    const __m256d v0 = _mm256_loadu_pd(x + 0);
    const __m256d v1 = _mm256_loadu_pd(x + 4);
    s0 = _mm256_add_pd(s0, v0);
    s1 = _mm256_add_pd(s1, v1);
    q0 = _mm256_add_pd(q0, _mm256_mul_pd(v0, v0));
    q1 = _mm256_add_pd(q1, _mm256_mul_pd(v1, v1));
  }
  _mm256_store_pd(&m.sum[0], s0);
  _mm256_store_pd(&m.sum[4], s1);
  _mm256_store_pd(&m.sumsq[0], q0);
  _mm256_store_pd(&m.sumsq[4], q1);
}

__attribute__((target("avx512f"))) void moments_body_avx512(
    const double* x, std::size_t blocks, MomentStripes& m) noexcept {
  __m512d s = _mm512_load_pd(m.sum.data());
  __m512d q = _mm512_load_pd(m.sumsq.data());
  for (std::size_t b = 0; b < blocks; ++b, x += stripes) {
    const __m512d v = _mm512_loadu_pd(x);
    s = _mm512_add_pd(s, v);
    q = _mm512_add_pd(q, _mm512_mul_pd(v, v));
  }
  _mm512_store_pd(m.sum.data(), s);
  _mm512_store_pd(m.sumsq.data(), q);
}
#endif  // PSC_SIMD_HAVE_SSE2

#if defined(PSC_SIMD_HAVE_NEON)
void moments_body_neon(const double* x, std::size_t blocks,
                       MomentStripes& m) noexcept {
  float64x2_t s0 = vld1q_f64(&m.sum[0]);
  float64x2_t s1 = vld1q_f64(&m.sum[2]);
  float64x2_t s2 = vld1q_f64(&m.sum[4]);
  float64x2_t s3 = vld1q_f64(&m.sum[6]);
  float64x2_t q0 = vld1q_f64(&m.sumsq[0]);
  float64x2_t q1 = vld1q_f64(&m.sumsq[2]);
  float64x2_t q2 = vld1q_f64(&m.sumsq[4]);
  float64x2_t q3 = vld1q_f64(&m.sumsq[6]);
  for (std::size_t b = 0; b < blocks; ++b, x += stripes) {
    const float64x2_t v0 = vld1q_f64(x + 0);
    const float64x2_t v1 = vld1q_f64(x + 2);
    const float64x2_t v2 = vld1q_f64(x + 4);
    const float64x2_t v3 = vld1q_f64(x + 6);
    s0 = vaddq_f64(s0, v0);
    s1 = vaddq_f64(s1, v1);
    s2 = vaddq_f64(s2, v2);
    s3 = vaddq_f64(s3, v3);
    // vmulq + vaddq, not vfmaq: fused multiply-add rounds once and would
    // diverge from the scalar body's two-rounding x*x + q.
    q0 = vaddq_f64(q0, vmulq_f64(v0, v0));
    q1 = vaddq_f64(q1, vmulq_f64(v1, v1));
    q2 = vaddq_f64(q2, vmulq_f64(v2, v2));
    q3 = vaddq_f64(q3, vmulq_f64(v3, v3));
  }
  vst1q_f64(&m.sum[0], s0);
  vst1q_f64(&m.sum[2], s1);
  vst1q_f64(&m.sum[4], s2);
  vst1q_f64(&m.sum[6], s3);
  vst1q_f64(&m.sumsq[0], q0);
  vst1q_f64(&m.sumsq[2], q1);
  vst1q_f64(&m.sumsq[4], q2);
  vst1q_f64(&m.sumsq[6], q3);
}
#endif  // PSC_SIMD_HAVE_NEON

// ---------------------------------------------------------------------------
// Histogram bodies. The scalar body runs position-major (one 256-bin
// histogram stays hot across the whole column); AVX-512 runs trace-major,
// updating all 16 disjoint bins of a trace with gather/scatter. Per bin
// both orders perform the same additions in trace order. SSE2/AVX2 have
// no scatter, so they reuse the scalar body — dispatch still reports
// them, covering the moment kernels they do accelerate.

void histogram16_scalar(const std::uint8_t* blocks, const double* values,
                        std::size_t n, std::uint32_t* count,
                        double* sum) noexcept {
  for (std::size_t i = 0; i < 16; ++i) {
    std::uint32_t* c = count + i * 256;
    double* s = sum + i * 256;
    const std::uint8_t* b = blocks + i;
    for (std::size_t t = 0; t < n; ++t) {
      const std::uint8_t v = b[t * 16];
      ++c[v];
      s[v] += values[t];
    }
  }
}

#if defined(PSC_SIMD_HAVE_AVX512)
__attribute__((target("avx512f"))) void histogram16_avx512(
    const std::uint8_t* blocks, const double* values, std::size_t n,
    std::uint32_t* count, double* sum) noexcept {
  // Flat bin index for position i is i*256 + byte: every lane of one
  // trace addresses a different 256-bin block, so gather-add-scatter
  // never collides within a trace.
  const __m512i lane_base = _mm512_setr_epi32(
      0 * 256, 1 * 256, 2 * 256, 3 * 256, 4 * 256, 5 * 256, 6 * 256,
      7 * 256, 8 * 256, 9 * 256, 10 * 256, 11 * 256, 12 * 256, 13 * 256,
      14 * 256, 15 * 256);
  const __m512i one = _mm512_set1_epi32(1);
  for (std::size_t t = 0; t < n; ++t) {
    const __m128i bytes = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(blocks + t * 16));
    const __m512i idx =
        _mm512_add_epi32(_mm512_cvtepu8_epi32(bytes), lane_base);
    // Masked gathers with an explicit zero source: the unmasked forms
    // leave GCC's pass-through operand formally uninitialized and trip
    // -Wmaybe-uninitialized.
    const __m512i c = _mm512_mask_i32gather_epi32(
        _mm512_setzero_si512(), 0xffff, idx, count, 4);
    _mm512_i32scatter_epi32(count, idx, _mm512_add_epi32(c, one), 4);

    const __m512d v = _mm512_set1_pd(values[t]);
    const __m256i idx_lo = _mm512_castsi512_si256(idx);
    const __m256i idx_hi = _mm512_extracti64x4_epi64(idx, 1);
    const __m512d s_lo = _mm512_mask_i32gather_pd(
        _mm512_setzero_pd(), 0xff, idx_lo, sum, 8);
    const __m512d s_hi = _mm512_mask_i32gather_pd(
        _mm512_setzero_pd(), 0xff, idx_hi, sum, 8);
    _mm512_i32scatter_pd(sum, idx_lo, _mm512_add_pd(s_lo, v), 8);
    _mm512_i32scatter_pd(sum, idx_hi, _mm512_add_pd(s_hi, v), 8);
  }
}
#endif  // PSC_SIMD_HAVE_AVX512

// ---------------------------------------------------------------------------
// Guess-row bodies. The scalar loop has no cross-lane dependency, so gcc
// vectorizes it at the SSE2 baseline (and on NEON); the AVX2 body widens
// four weights per step. AVX-512 reuses the AVX2 body.

void guess_row_scalar(const std::uint8_t* weights, double c, double v,
                      GuessSums& acc) noexcept {
  for (std::size_t j = 0; j < guess_lanes; ++j) {
    const double w = weights[j];
    const double wc = w * c;
    acc.m[j] += wc;
    acc.mm[j] += w * wc;
    acc.mt[j] += w * v;
  }
}

#if defined(PSC_SIMD_HAVE_AVX2)
__attribute__((target("avx2"))) void guess_row_avx2(
    const std::uint8_t* weights, double c, double v,
    GuessSums& acc) noexcept {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vv = _mm256_set1_pd(v);
  for (std::size_t j = 0; j < guess_lanes; j += 4) {
    std::int32_t packed;
    std::memcpy(&packed, weights + j, sizeof packed);
    const __m256d w =
        _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(_mm_cvtsi32_si128(packed)));
    const __m256d wc = _mm256_mul_pd(w, vc);
    _mm256_store_pd(&acc.m[j], _mm256_add_pd(_mm256_load_pd(&acc.m[j]), wc));
    _mm256_store_pd(&acc.mm[j], _mm256_add_pd(_mm256_load_pd(&acc.mm[j]),
                                              _mm256_mul_pd(w, wc)));
    _mm256_store_pd(&acc.mt[j], _mm256_add_pd(_mm256_load_pd(&acc.mt[j]),
                                              _mm256_mul_pd(w, vv)));
  }
}
#endif  // PSC_SIMD_HAVE_AVX2

// ---------------------------------------------------------------------------
// Bit-unpack bodies. Each field (width <= 56) is one shifted 8-byte
// little-endian window; near the end of the buffer the window is
// assembled byte-wise so the kernel never reads past packed_bytes. The
// AVX2 body replaces the window load + shift with a 4-lane byte-offset
// gather and a per-lane variable shift; everything is integer, so the
// backends are bit-identical without any ordering discipline.

// One field at bit index `bit`, safe at any distance from the end.
inline std::uint64_t unpack_one(const std::byte* packed,
                                std::size_t packed_bytes, std::uint64_t bit,
                                std::uint64_t mask) noexcept {
  const std::size_t byte = static_cast<std::size_t>(bit >> 3);
  const unsigned shift = static_cast<unsigned>(bit & 7);
  std::uint64_t window = 0;
  const std::size_t avail =
      byte < packed_bytes ? std::min<std::size_t>(8, packed_bytes - byte) : 0;
  for (std::size_t i = avail; i-- > 0;) {
    window = (window << 8) | static_cast<std::uint64_t>(packed[byte + i]);
  }
  return (window >> shift) & mask;
}

void unpack_bits_scalar(const std::byte* packed, std::size_t packed_bytes,
                        std::uint64_t bit0, unsigned width,
                        std::uint64_t* out, std::size_t n) noexcept {
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  std::uint64_t bit = bit0;
  for (std::size_t j = 0; j < n; ++j, bit += width) {
    out[j] = unpack_one(packed, packed_bytes, bit, mask);
  }
}

#if defined(PSC_SIMD_HAVE_AVX2)
__attribute__((target("avx2"))) void unpack_bits_avx2(
    const std::byte* packed, std::size_t packed_bytes, std::uint64_t bit0,
    unsigned width, std::uint64_t* out, std::size_t n) noexcept {
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  std::size_t j = 0;
  if (width > 0) {
    while (j + 4 <= n) {
      const std::uint64_t b0 = bit0 + j * width;
      const std::uint64_t b3 = b0 + 3 * width;
      // Gather loads a full 8-byte window per lane; stop vectorizing when
      // the last lane's window would cross the end of the buffer (or the
      // byte offset no longer fits the i32 gather index).
      if ((b3 >> 3) + 8 > packed_bytes || (b3 >> 3) > 0x7fffffff) {
        break;
      }
      const __m128i idx = _mm_set_epi32(
          static_cast<int>(b3 >> 3), static_cast<int>((b0 + 2 * width) >> 3),
          static_cast<int>((b0 + width) >> 3), static_cast<int>(b0 >> 3));
      const __m256i shifts = _mm256_set_epi64x(
          static_cast<long long>(b3 & 7),
          static_cast<long long>((b0 + 2 * width) & 7),
          static_cast<long long>((b0 + width) & 7),
          static_cast<long long>(b0 & 7));
      __m256i v = _mm256_i32gather_epi64(
          reinterpret_cast<const long long*>(packed), idx, 1);
      v = _mm256_srlv_epi64(v, shifts);
      v = _mm256_and_si256(v, vmask);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j), v);
      j += 4;
    }
  }
  for (std::uint64_t bit = bit0 + j * width; j < n; ++j, bit += width) {
    out[j] = unpack_one(packed, packed_bytes, bit, mask);
  }
}
#endif  // PSC_SIMD_HAVE_AVX2

// ---------------------------------------------------------------------------
// Dispatch.

struct KernelTable {
  void (*moments_body)(const double*, std::size_t, MomentStripes&) noexcept;
  void (*histogram16)(const std::uint8_t*, const double*, std::size_t,
                      std::uint32_t*, double*) noexcept;
  void (*unpack_bits)(const std::byte*, std::size_t, std::uint64_t, unsigned,
                      std::uint64_t*, std::size_t) noexcept;
  void (*guess_row)(const std::uint8_t*, double, double, GuessSums&) noexcept;
};

constexpr KernelTable scalar_table{moments_body_scalar, histogram16_scalar,
                                   unpack_bits_scalar, guess_row_scalar};
#if defined(PSC_SIMD_HAVE_SSE2)
// SSE2 lacks per-lane variable shifts, so its unpack is the scalar body;
// AVX-512 gains nothing over the AVX2 gather for 4-lane 64-bit windows.
// The guess row's scalar body is already SSE2 code (auto-vectorized).
constexpr KernelTable sse2_table{moments_body_sse2, histogram16_scalar,
                                 unpack_bits_scalar, guess_row_scalar};
constexpr KernelTable avx2_table{moments_body_avx2, histogram16_scalar,
                                 unpack_bits_avx2, guess_row_avx2};
constexpr KernelTable avx512_table{moments_body_avx512, histogram16_avx512,
                                   unpack_bits_avx2, guess_row_avx2};
#endif
#if defined(PSC_SIMD_HAVE_NEON)
constexpr KernelTable neon_table{moments_body_neon, histogram16_scalar,
                                 unpack_bits_scalar, guess_row_scalar};
#endif

const KernelTable* table_for(Backend backend) noexcept {
  switch (backend) {
    case Backend::scalar:
      return &scalar_table;
#if defined(PSC_SIMD_HAVE_SSE2)
    case Backend::sse2:
      return &sse2_table;
    case Backend::avx2:
      return &avx2_table;
    case Backend::avx512:
      return &avx512_table;
#endif
#if defined(PSC_SIMD_HAVE_NEON)
    case Backend::neon:
      return &neon_table;
#endif
    default:
      return nullptr;
  }
}

bool cpu_supports(Backend backend) noexcept {
  if (!backend_compiled(backend)) {
    return false;
  }
  switch (backend) {
    case Backend::scalar:
      return true;
#if defined(PSC_SIMD_HAVE_SSE2)
    case Backend::sse2:
      return true;  // x86-64 baseline
    case Backend::avx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Backend::avx512:
      return __builtin_cpu_supports("avx512f") != 0;
#endif
#if defined(PSC_SIMD_HAVE_NEON)
    case Backend::neon:
      return true;  // aarch64 baseline
#endif
    default:
      return false;
  }
}

Backend resolve_auto() noexcept {
  const std::string requested = env_string("PSC_SIMD", "");
  if (!requested.empty()) {
    for (const Backend backend : all_backends) {
      if (requested == backend_name(backend) &&
          cpu_supports(backend)) {
        return backend;
      }
    }
    // Unknown or unsupported request: fall through to auto (loud failure
    // belongs to force_backend; env is a soft knob).
  }
  Backend best = Backend::scalar;
  for (const Backend backend : all_backends) {
    if (cpu_supports(backend)) {
      best = backend;  // all_backends is ordered slowest to fastest
    }
  }
  return best;
}

std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<Backend> g_backend{Backend::scalar};

const KernelTable& active_table() noexcept {
  const KernelTable* table = g_table.load(std::memory_order_acquire);
  if (table == nullptr) {
    const Backend backend = resolve_auto();
    table = table_for(backend);
    g_backend.store(backend, std::memory_order_relaxed);
    g_table.store(table, std::memory_order_release);
  }
  return *table;
}

}  // namespace

std::string_view backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::scalar:
      return "scalar";
    case Backend::sse2:
      return "sse2";
    case Backend::avx2:
      return "avx2";
    case Backend::avx512:
      return "avx512";
    case Backend::neon:
      return "neon";
  }
  return "?";
}

bool backend_compiled(Backend backend) noexcept {
  switch (backend) {
    case Backend::scalar:
      return true;
#if defined(PSC_SIMD_HAVE_SSE2)
    case Backend::sse2:
    case Backend::avx2:
    case Backend::avx512:
      return true;
#endif
#if defined(PSC_SIMD_HAVE_NEON)
    case Backend::neon:
      return true;
#endif
    default:
      return false;
  }
}

bool backend_supported(Backend backend) noexcept {
  return cpu_supports(backend);
}

std::vector<Backend> supported_backends() {
  std::vector<Backend> out;
  for (const Backend backend : all_backends) {
    if (cpu_supports(backend)) {
      out.push_back(backend);
    }
  }
  return out;
}

Backend active_backend() noexcept {
  active_table();  // ensure resolved
  return g_backend.load(std::memory_order_relaxed);
}

void force_backend(Backend backend) {
  if (!cpu_supports(backend)) {
    throw std::invalid_argument(
        "simd::force_backend: backend not supported here: " +
        std::string(backend_name(backend)));
  }
  g_backend.store(backend, std::memory_order_relaxed);
  g_table.store(table_for(backend), std::memory_order_release);
}

void reset_backend() noexcept {
  g_table.store(nullptr, std::memory_order_release);
}

void accumulate_moments(const double* x, std::size_t n, std::uint64_t g0,
                        MomentStripes& m) noexcept {
  // Scalar head until the stream index hits a stripe-0 boundary, so every
  // backend body sees the same phase.
  while (n > 0 && g0 % stripes != 0) {
    const double v = *x;
    m.sum[g0 % stripes] += v;
    m.sumsq[g0 % stripes] += v * v;
    ++x;
    ++g0;
    --n;
  }
  const std::size_t blocks = n / stripes;
  if (blocks > 0) {
    active_table().moments_body(x, blocks, m);
    x += blocks * stripes;
    n -= blocks * stripes;
  }
  for (std::size_t j = 0; j < n; ++j) {
    m.sum[j] += x[j];
    m.sumsq[j] += x[j] * x[j];
  }
}

double reduce_stripes(const std::array<double, stripes>& s) noexcept {
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

void merge_moments(MomentStripes& a, std::uint64_t na,
                   const MomentStripes& b) noexcept {
  const std::size_t rot = static_cast<std::size_t>(na % stripes);
  for (std::size_t j = 0; j < stripes; ++j) {
    const std::size_t k = (rot + j) % stripes;
    a.sum[k] += b.sum[j];
    a.sumsq[k] += b.sumsq[j];
  }
}

void accumulate_histogram16(const std::uint8_t* blocks, const double* values,
                            std::size_t n, std::uint32_t* count,
                            double* sum) noexcept {
  active_table().histogram16(blocks, values, n, count, sum);
}

void unpack_bits(const std::byte* packed, std::size_t packed_bytes,
                 std::uint64_t bit0, unsigned width, std::uint64_t* out,
                 std::size_t n) noexcept {
  active_table().unpack_bits(packed, packed_bytes, bit0, width, out, n);
}

void accumulate_guess_row(const std::uint8_t* weights, double c, double v,
                          GuessSums& acc) noexcept {
  active_table().guess_row(weights, c, v, acc);
}

}  // namespace psc::util::simd
