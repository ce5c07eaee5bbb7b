// Bit-identity check for scenario job results: every TVLA t-score, CPA
// correlation and GE curve point compared by bit pattern. Shared by the
// scenario bus and daemon suites.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "bus/scenario_jobs.h"

namespace psc::bus {

inline void expect_bits_equal(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what;
}

inline void expect_scenario_bit_identical(const ScenarioJobResult& a,
                                          const ScenarioJobResult& b) {
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.secret, b.secret);
  EXPECT_EQ(a.traces_per_set, b.traces_per_set);
  EXPECT_EQ(a.cpa_trace_count, b.cpa_trace_count);
  EXPECT_EQ(a.channels, b.channels);
  EXPECT_EQ(a.leakage_channels, b.leakage_channels);
  ASSERT_EQ(a.tvla.size(), b.tvla.size());
  for (std::size_t c = 0; c < a.tvla.size(); ++c) {
    EXPECT_EQ(a.tvla[c].channel, b.tvla[c].channel);
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        expect_bits_equal(a.tvla[c].matrix.t[i][j], b.tvla[c].matrix.t[i][j],
                          "tvla " + a.tvla[c].channel);
      }
    }
  }
  ASSERT_EQ(a.cpa.size(), b.cpa.size());
  for (std::size_t k = 0; k < a.cpa.size(); ++k) {
    const core::CpaKeyResult& x = a.cpa[k];
    const core::CpaKeyResult& y = b.cpa[k];
    EXPECT_EQ(x.key, y.key);
    ASSERT_EQ(x.final_results.size(), y.final_results.size());
    for (std::size_t m = 0; m < x.final_results.size(); ++m) {
      const core::ModelResult& u = x.final_results[m];
      const core::ModelResult& v = y.final_results[m];
      EXPECT_EQ(u.model, v.model);
      EXPECT_EQ(u.true_ranks, v.true_ranks);
      EXPECT_EQ(u.best_round_key, v.best_round_key);
      EXPECT_EQ(u.recovered_bytes, v.recovered_bytes);
      expect_bits_equal(u.ge_bits, v.ge_bits, "ge_bits");
      expect_bits_equal(u.mean_rank, v.mean_rank, "mean_rank");
      for (std::size_t i = 0; i < 16; ++i) {
        for (std::size_t g = 0; g < 256; ++g) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(u.bytes[i].correlation[g]),
                    std::bit_cast<std::uint64_t>(v.bytes[i].correlation[g]))
              << "key " << x.key.str() << " model " << m << " byte " << i
              << " guess " << g;
        }
      }
    }
    ASSERT_EQ(x.curves.size(), y.curves.size());
    for (std::size_t m = 0; m < x.curves.size(); ++m) {
      ASSERT_EQ(x.curves[m].size(), y.curves[m].size());
      for (std::size_t p = 0; p < x.curves[m].size(); ++p) {
        EXPECT_EQ(x.curves[m][p].traces, y.curves[m][p].traces);
        EXPECT_EQ(x.curves[m][p].recovered_bytes,
                  y.curves[m][p].recovered_bytes);
        expect_bits_equal(x.curves[m][p].ge_bits, y.curves[m][p].ge_bits,
                          "curve ge_bits");
        expect_bits_equal(x.curves[m][p].mean_rank, y.curves[m][p].mean_rank,
                          "curve mean_rank");
      }
    }
  }
}

}  // namespace psc::bus
