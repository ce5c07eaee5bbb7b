#include "util/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/aligned.h"
#include "util/rng.h"

namespace psc::util::simd {
namespace {

std::vector<double> gaussian_values(std::uint64_t seed, std::size_t n) {
  util::Xoshiro256 rng(seed);
  std::vector<double> values(n);
  for (double& v : values) {
    v = rng.gaussian(0.5, 2.0);
  }
  return values;
}

MomentStripes scalar_reference(const std::vector<double>& values,
                               std::uint64_t g0) {
  MomentStripes m;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::size_t j = (g0 + i) % stripes;
    m.sum[j] += values[i];
    m.sumsq[j] += values[i] * values[i];
  }
  return m;
}

void expect_stripes_eq(const MomentStripes& a, const MomentStripes& b) {
  for (std::size_t j = 0; j < stripes; ++j) {
    ASSERT_EQ(a.sum[j], b.sum[j]) << "sum stripe " << j;
    ASSERT_EQ(a.sumsq[j], b.sumsq[j]) << "sumsq stripe " << j;
  }
}

// RAII: restore auto dispatch after a forced-backend test.
struct BackendGuard {
  ~BackendGuard() { reset_backend(); }
};

TEST(SimdBackend, ScalarAlwaysSupported) {
  EXPECT_TRUE(backend_compiled(Backend::scalar));
  EXPECT_TRUE(backend_supported(Backend::scalar));
  const auto supported = supported_backends();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.front(), Backend::scalar);
}

TEST(SimdBackend, SupportedImpliesCompiled) {
  for (const Backend backend : all_backends) {
    if (backend_supported(backend)) {
      EXPECT_TRUE(backend_compiled(backend)) << backend_name(backend);
    }
  }
}

TEST(SimdBackend, ActiveBackendIsSupported) {
  EXPECT_TRUE(backend_supported(active_backend()));
}

TEST(SimdBackend, NamesAreUnique) {
  for (const Backend a : all_backends) {
    for (const Backend b : all_backends) {
      if (a != b) {
        EXPECT_NE(backend_name(a), backend_name(b));
      }
    }
  }
}

TEST(SimdBackend, ForceOverrideTakesEffect) {
  BackendGuard guard;
  for (const Backend backend : supported_backends()) {
    force_backend(backend);
    EXPECT_EQ(active_backend(), backend);
  }
}

TEST(SimdBackend, ForceUnsupportedThrows) {
  for (const Backend backend : all_backends) {
    if (!backend_supported(backend)) {
      EXPECT_THROW(force_backend(backend), std::invalid_argument);
    }
  }
}

TEST(SimdMoments, ScalarMatchesReference) {
  BackendGuard guard;
  force_backend(Backend::scalar);
  for (const std::uint64_t g0 : {0u, 1u, 5u, 8u, 13u}) {
    const auto values = gaussian_values(7, 1001);
    MomentStripes m;
    accumulate_moments(values.data(), values.size(), g0, m);
    expect_stripes_eq(m, scalar_reference(values, g0));
  }
}

// The core bit-exactness contract: every supported backend produces
// stripe state identical to the scalar fallback, at every phase offset
// and for lengths exercising head/body/tail splits.
TEST(SimdMoments, AllBackendsBitIdenticalToScalar) {
  BackendGuard guard;
  for (const Backend backend : supported_backends()) {
    for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 64u, 777u, 4096u}) {
      for (const std::uint64_t g0 : {0u, 3u, 8u, 21u}) {
        const auto values = gaussian_values(n + g0 + 11, n);
        force_backend(Backend::scalar);
        MomentStripes expected;
        accumulate_moments(values.data(), n, g0, expected);
        force_backend(backend);
        MomentStripes got;
        accumulate_moments(values.data(), n, g0, got);
        expect_stripes_eq(got, expected);
      }
    }
  }
}

// Prefix consistency: feeding a stream in any chunking yields identical
// stripes, provided g0 tracks the global index. GeCheckpointSink and
// store replay depend on this.
TEST(SimdMoments, ChunkingInvariant) {
  BackendGuard guard;
  const auto values = gaussian_values(9, 2000);
  for (const Backend backend : supported_backends()) {
    force_backend(backend);
    MomentStripes whole;
    accumulate_moments(values.data(), values.size(), 0, whole);
    for (const std::size_t chunk : {1u, 3u, 8u, 100u, 1024u}) {
      MomentStripes pieced;
      std::uint64_t g = 0;
      while (g < values.size()) {
        const std::size_t len =
            std::min<std::size_t>(chunk, values.size() - g);
        accumulate_moments(values.data() + g, len, g, pieced);
        g += len;
      }
      expect_stripes_eq(pieced, whole);
    }
  }
}

TEST(SimdMoments, ReduceStripesFixedTree) {
  std::array<double, stripes> s{};
  for (std::size_t j = 0; j < stripes; ++j) {
    s[j] = 0.1 * static_cast<double>(j + 1);
  }
  const double expected =
      ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
  EXPECT_EQ(reduce_stripes(s), expected);
}

// Merge places b's stripe j where those values would have landed had the
// streams been concatenated. The per-stripe sums match the single-stream
// state to rounding (one pre-reduced add versus sequential adds — same
// 1e-12 contract the engine merge tests pin), and merging is
// deterministic, which is what worker invariance actually needs.
TEST(SimdMoments, MergeMatchesConcatenation) {
  BackendGuard guard;
  force_backend(Backend::scalar);
  for (const std::size_t na : {1u, 8u, 13u, 500u}) {
    const auto a_vals = gaussian_values(21, na);
    const auto b_vals = gaussian_values(22, 301);
    MomentStripes a;
    accumulate_moments(a_vals.data(), a_vals.size(), 0, a);
    MomentStripes b;
    accumulate_moments(b_vals.data(), b_vals.size(), 0, b);
    merge_moments(a, na, b);

    std::vector<double> concat = a_vals;
    concat.insert(concat.end(), b_vals.begin(), b_vals.end());
    MomentStripes whole;
    accumulate_moments(concat.data(), concat.size(), 0, whole);
    for (std::size_t j = 0; j < stripes; ++j) {
      ASSERT_NEAR(a.sum[j], whole.sum[j], 1e-12 * (1.0 + std::abs(whole.sum[j])))
          << "na " << na << " sum stripe " << j;
      ASSERT_NEAR(a.sumsq[j], whole.sumsq[j],
                  1e-12 * (1.0 + whole.sumsq[j]))
          << "na " << na << " sumsq stripe " << j;
    }
  }
}

TEST(SimdMoments, MergeIntoEmptyIsCopy) {
  const auto values = gaussian_values(31, 123);
  MomentStripes b = scalar_reference(values, 0);
  MomentStripes a;
  merge_moments(a, 0, b);
  expect_stripes_eq(a, b);
}

std::vector<std::uint8_t> random_blocks(std::uint64_t seed, std::size_t n) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> blocks(n * 16);
  rng.fill_bytes(blocks);
  return blocks;
}

TEST(SimdHistogram, ScalarMatchesDirectBinning) {
  BackendGuard guard;
  force_backend(Backend::scalar);
  const std::size_t n = 700;
  const auto blocks = random_blocks(41, n);
  const auto values = gaussian_values(42, n);
  AlignedVector<std::uint32_t> count(16 * 256, 0);
  AlignedVector<double> sum(16 * 256, 0.0);
  accumulate_histogram16(blocks.data(), values.data(), n, count.data(),
                         sum.data());
  std::vector<std::uint32_t> ref_count(16 * 256, 0);
  std::vector<double> ref_sum(16 * 256, 0.0);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t t = 0; t < n; ++t) {
      const std::size_t bin = i * 256 + blocks[t * 16 + i];
      ++ref_count[bin];
      ref_sum[bin] += values[t];
    }
  }
  for (std::size_t bin = 0; bin < 16 * 256; ++bin) {
    ASSERT_EQ(count[bin], ref_count[bin]) << "bin " << bin;
    ASSERT_EQ(sum[bin], ref_sum[bin]) << "bin " << bin;
  }
}

TEST(SimdHistogram, AllBackendsBitIdenticalToScalar) {
  BackendGuard guard;
  for (const std::size_t n : {0u, 1u, 15u, 16u, 1000u}) {
    const auto blocks = random_blocks(51 + n, n);
    const auto values = gaussian_values(52 + n, n);
    force_backend(Backend::scalar);
    AlignedVector<std::uint32_t> ref_count(16 * 256, 0);
    AlignedVector<double> ref_sum(16 * 256, 0.0);
    accumulate_histogram16(blocks.data(), values.data(), n,
                           ref_count.data(), ref_sum.data());
    for (const Backend backend : supported_backends()) {
      force_backend(backend);
      AlignedVector<std::uint32_t> count(16 * 256, 0);
      AlignedVector<double> sum(16 * 256, 0.0);
      accumulate_histogram16(blocks.data(), values.data(), n, count.data(),
                             sum.data());
      for (std::size_t bin = 0; bin < 16 * 256; ++bin) {
        ASSERT_EQ(count[bin], ref_count[bin])
            << backend_name(backend) << " bin " << bin;
        ASSERT_EQ(sum[bin], ref_sum[bin])
            << backend_name(backend) << " bin " << bin;
      }
    }
  }
}

// A sequence of histogram bins (weight row, count, value-sum) folded
// into the guess lanes; weights span the full uint8 range, and counts
// reach 2^32 - 1 so w * (w * c) exercises the exact-product bound.
struct GuessRowInput {
  std::vector<std::uint8_t> weights;
  std::vector<double> counts;
  std::vector<double> sums;
};

GuessRowInput random_guess_rows(std::uint64_t seed, std::size_t bins) {
  util::Xoshiro256 rng(seed);
  GuessRowInput in;
  in.weights.resize(bins * guess_lanes);
  rng.fill_bytes(in.weights);
  for (std::size_t b = 0; b < bins; ++b) {
    in.counts.push_back(b % 5 == 0 ? 4294967295.0
                                   : static_cast<double>(rng() % 1000));
    in.sums.push_back(rng.gaussian(0.5, 2.0) * in.counts.back());
  }
  return in;
}

GuessSums fold_guess_rows(const GuessRowInput& in) {
  GuessSums acc;
  for (std::size_t b = 0; b < in.counts.size(); ++b) {
    accumulate_guess_row(&in.weights[b * guess_lanes], in.counts[b],
                         in.sums[b], acc);
  }
  return acc;
}

TEST(SimdGuessRow, ScalarMatchesDirectLoop) {
  BackendGuard guard;
  force_backend(Backend::scalar);
  const auto in = random_guess_rows(61, 40);
  const GuessSums acc = fold_guess_rows(in);
  for (std::size_t j = 0; j < guess_lanes; ++j) {
    double m = 0.0;
    double mm = 0.0;
    double mt = 0.0;
    for (std::size_t b = 0; b < in.counts.size(); ++b) {
      const double w = in.weights[b * guess_lanes + j];
      m += w * in.counts[b];
      mm += w * (w * in.counts[b]);
      mt += w * in.sums[b];
    }
    ASSERT_EQ(acc.m[j], m) << "lane " << j;
    ASSERT_EQ(acc.mm[j], mm) << "lane " << j;
    ASSERT_EQ(acc.mt[j], mt) << "lane " << j;
  }
}

TEST(SimdGuessRow, AllBackendsBitIdenticalToScalar) {
  BackendGuard guard;
  for (const std::size_t bins : {0u, 1u, 3u, 200u}) {
    const auto in = random_guess_rows(71 + bins, bins);
    force_backend(Backend::scalar);
    const GuessSums want = fold_guess_rows(in);
    for (const Backend backend : supported_backends()) {
      force_backend(backend);
      const GuessSums got = fold_guess_rows(in);
      for (std::size_t j = 0; j < guess_lanes; ++j) {
        ASSERT_EQ(got.m[j], want.m[j]) << backend_name(backend) << " " << j;
        ASSERT_EQ(got.mm[j], want.mm[j]) << backend_name(backend) << " " << j;
        ASSERT_EQ(got.mt[j], want.mt[j]) << backend_name(backend) << " " << j;
      }
    }
  }
}

TEST(AlignedVector, DataIsCacheLineAligned) {
  AlignedVector<double> v(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % cache_line_bytes,
            0u);
  AlignedVector<std::uint32_t> c(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.data()) % cache_line_bytes,
            0u);
  // Blocks at or above mapped_allocation_bytes come from a separate
  // allocation path; they must be aligned, value-initialized, and
  // survive a copy and a regrow.
  AlignedVector<double> big(mapped_allocation_bytes / sizeof(double), 0.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big.data()) % cache_line_bytes,
            0u);
  EXPECT_EQ(big.front(), 0.0);
  EXPECT_EQ(big.back(), 0.0);
  big.back() = 2.5;
  AlignedVector<double> copy = big;
  copy.resize(copy.size() * 2, 1.0);
  EXPECT_EQ(copy[big.size() - 1], 2.5);
  EXPECT_EQ(copy.back(), 1.0);
}

TEST(MomentStripesLayout, CacheLineAligned) {
  EXPECT_EQ(alignof(MomentStripes), 64u);
  MomentStripes m;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&m) % 64u, 0u);
}

// Bit-level reference packer for unpack_bits: width-bit fields appended
// little-endian starting at bit 0.
std::vector<std::byte> pack_fields(const std::vector<std::uint64_t>& fields,
                                   unsigned width) {
  std::vector<std::byte> packed((fields.size() * width + 7) / 8,
                                std::byte{0});
  std::size_t bit = 0;
  for (std::uint64_t f : fields) {
    for (unsigned b = 0; b < width; ++b, ++bit) {
      if ((f >> b) & 1) {
        packed[bit >> 3] |=
            static_cast<std::byte>(1u << (bit & 7));
      }
    }
  }
  return packed;
}

TEST(SimdUnpackBits, AllWidthsRoundTripOnEveryBackend) {
  BackendGuard guard;
  util::Xoshiro256 rng(0x5eed);
  for (unsigned width = 1; width <= unpack_bits_max_width; ++width) {
    const std::size_t n = 257;  // odd tail for the vector loop
    std::vector<std::uint64_t> fields(n);
    const std::uint64_t mask =
        width == 64 ? ~0ull : ((1ull << width) - 1);
    for (auto& f : fields) {
      f = rng() & mask;
    }
    const auto packed = pack_fields(fields, width);
    for (const Backend backend : supported_backends()) {
      force_backend(backend);
      std::vector<std::uint64_t> out(n, ~0ull);
      unpack_bits(packed.data(), packed.size(), 0, width, out.data(), n);
      ASSERT_EQ(out, fields)
          << backend_name(backend) << " width " << width;
    }
  }
}

TEST(SimdUnpackBits, NonZeroBitOffsets) {
  BackendGuard guard;
  util::Xoshiro256 rng(0xabc);
  const unsigned width = 13;
  const std::size_t total = 500;
  std::vector<std::uint64_t> fields(total);
  for (auto& f : fields) {
    f = rng() & ((1ull << width) - 1);
  }
  const auto packed = pack_fields(fields, width);
  for (const Backend backend : supported_backends()) {
    force_backend(backend);
    for (const std::size_t first : {std::size_t{1}, std::size_t{7},
                                    std::size_t{63}, std::size_t{255}}) {
      const std::size_t n = total - first;
      std::vector<std::uint64_t> out(n);
      unpack_bits(packed.data(), packed.size(),
                  static_cast<std::uint64_t>(first) * width, width,
                  out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], fields[first + i])
            << backend_name(backend) << " first " << first << " i " << i;
      }
    }
  }
}

TEST(SimdUnpackBits, WidthZeroAndEmpty) {
  BackendGuard guard;
  for (const Backend backend : supported_backends()) {
    force_backend(backend);
    std::vector<std::uint64_t> out(5, 42);
    unpack_bits(nullptr, 0, 0, 0, out.data(), out.size());
    for (const std::uint64_t v : out) {
      EXPECT_EQ(v, 0u) << backend_name(backend);
    }
    unpack_bits(nullptr, 0, 0, 17, out.data(), 0);  // n == 0: no touch
  }
}

TEST(SimdUnpackBits, TightBufferEndIsSafe) {
  // The last field ends exactly at the final byte: every backend must
  // read it correctly without touching past the buffer.
  BackendGuard guard;
  const unsigned width = 56;
  const std::size_t n = 8;  // 56 bytes exactly
  std::vector<std::uint64_t> fields(n);
  for (std::size_t i = 0; i < n; ++i) {
    fields[i] = (0x0123456789abcdull + i * 0x1111111111ull) &
                ((1ull << width) - 1);
  }
  const auto packed = pack_fields(fields, width);
  ASSERT_EQ(packed.size(), n * width / 8);
  for (const Backend backend : supported_backends()) {
    force_backend(backend);
    std::vector<std::uint64_t> out(n);
    unpack_bits(packed.data(), packed.size(), 0, width, out.data(), n);
    EXPECT_EQ(out, fields) << backend_name(backend);
  }
}

}  // namespace
}  // namespace psc::util::simd
