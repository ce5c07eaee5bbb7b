// DVFS-frequency scenario: the paper's Section 4 channel. A workload
// whose intensity depends on the victim input runs under the reactive
// governor (soc/governor.h) in lowpowermode; when its estimated package
// power exceeds the 4 W budget the governor steps the P-cluster down the
// DVFS ladder, so the cluster's frequency residency (soc/residency.h)
// encodes workload identity. The attacker samples mean frequency and the
// below-ceiling residency fraction over one observation window — the
// powermetrics view of paper Figure 2 — each with a little measurement
// noise (a real attacker estimates frequency from timing loops).
//
// Workload power tracks the applied frequency, so throttling converges to
// the equilibrium state where estimated power crosses the cap: light
// inputs never throttle, heavy inputs settle deep down the ladder, and
// random inputs hover at the cap with input-dependent depth. `leak=0`
// fixes the intensity at 0.5 regardless of input, which must erase every
// cross-class |t| (asserted in tests and the scenario bench).

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/probe.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "soc/device_profile.h"
#include "soc/governor.h"
#include "soc/residency.h"
#include "util/rng.h"

namespace psc::scenario {

namespace {

constexpr std::size_t popcount_block_bits = 128;

struct DvfsProbeConfig {
  soc::DeviceProfile profile;
  bool lowpower = true;
  double window_s = 0.5;       // observation window per trace
  double idle_w = 1.5;         // package power at zero intensity
  double span_w = 6.0;         // extra power at intensity 1, full frequency
  double power_noise_w = 0.15; // per-decision estimated-power jitter
  double freq_noise_hz = 5e6;  // attacker frequency-estimate jitter
  double residency_noise = 0.01;
  bool leak = true;
};

class DvfsFrequencyProbe final : public ChannelProbe {
 public:
  DvfsFrequencyProbe(const DvfsProbeConfig& config, std::uint64_t seed)
      : config_(config),
        rng_(seed),
        keys_({util::FourCc("FAVG"), util::FourCc("FRES")}) {
    // The frequency the workload's power model is normalized to: the
    // highest state the governor will ever apply in this mode.
    soc::Governor probe(config_.profile.governor, config_.profile.p_ladder);
    probe.set_lowpowermode(config_.lowpower);
    ceiling_state_ = probe.p_state_limit();
    ceiling_hz_ = config_.profile.p_ladder.frequency_hz(ceiling_state_);
  }

  const std::vector<util::FourCc>& keys() const noexcept override {
    return keys_;
  }

  void sample(const aes::Block& input, aes::Block& output,
              std::span<double> values) override {
    output = input;  // the workload produces no ciphertext

    const double intensity =
        config_.leak ? static_cast<double>(aes::hamming_weight(input)) /
                           popcount_block_bits
                     : 0.5;

    soc::Governor governor(config_.profile.governor,
                           config_.profile.p_ladder);
    governor.set_lowpowermode(config_.lowpower);
    soc::FrequencyResidency residency(config_.profile.p_ladder);

    const double dt = config_.profile.governor.decision_period_s;
    const std::size_t steps = std::max<std::size_t>(
        1, static_cast<std::size_t>(config_.window_s / dt));
    for (std::size_t step = 0; step < steps; ++step) {
      const std::size_t applied =
          std::min(governor.p_state_limit(), ceiling_state_);
      const double f = config_.profile.p_ladder.frequency_hz(applied);
      const double power =
          config_.idle_w + intensity * config_.span_w * (f / ceiling_hz_) +
          rng_.gaussian(0.0, config_.power_noise_w);
      governor.update(power, /*temperature_c=*/45.0, dt);
      residency.add(std::min(governor.p_state_limit(), ceiling_state_), dt);
    }

    values[0] = residency.mean_frequency_hz() +
                rng_.gaussian(0.0, config_.freq_noise_hz);
    values[1] = residency.fraction_below(ceiling_state_) +
                rng_.gaussian(0.0, config_.residency_noise);
  }

  double window_s() const noexcept override { return config_.window_s; }

 private:
  DvfsProbeConfig config_;
  util::Xoshiro256 rng_;
  std::vector<util::FourCc> keys_;
  std::size_t ceiling_state_ = 0;
  double ceiling_hz_ = 0.0;
};

soc::DeviceProfile dvfs_profile_for(const std::string& device) {
  if (device == "m1") {
    return soc::DeviceProfile::mac_mini_m1();
  }
  if (device == "m2") {
    return soc::DeviceProfile::macbook_air_m2();
  }
  throw std::invalid_argument(
      "scenario param 'device': expected m1 or m2, got '" + device + "'");
}

class DvfsFrequencyScenario final : public Scenario {
 public:
  std::string name() const override { return "dvfs-frequency"; }
  std::string description() const override {
    return "throttling governor leaks workload identity through P-cluster "
           "frequency residency (paper section 4)";
  }
  std::string victim() const override {
    return "workload whose intensity follows the input's popcount";
  }
  std::string channel() const override {
    return "mean P-cluster frequency + below-ceiling residency fraction";
  }

  std::vector<ParamSpec> params() const override {
    return {
        {"device", "m2", "simulated platform: m1 (Mac Mini) or m2 "
                         "(MacBook Air)"},
        {"lowpower", "1", "run under the lowpowermode 4 W budget (0/1)"},
        {"window_s", "0.5", "observation window per trace (seconds)"},
        {"freq_noise_mhz", "5",
         "attacker frequency-estimate jitter sigma (MHz)"},
        {"leak", "1", "0 = input-independent intensity (channel disabled)"},
    };
  }

  std::vector<util::FourCc> channels(const ParamSet& params) const override {
    (void)params;
    return {util::FourCc("FAVG"), util::FourCc("FRES")};
  }

  AnalysisSpec analysis(const ParamSet& params) const override {
    AnalysisSpec spec;
    spec.default_traces_per_set = 1500;
    spec.cpa = false;  // frequency residency carries no S-box model
    spec.leakage_channels = channels(params);
    return spec;
  }

  std::unique_ptr<core::TraceSource> make_source(
      const ParamSet& params, const aes::Block& secret,
      std::uint64_t seed) const override {
    // The DVFS channel leaks *workload identity*, not the block cipher
    // key: the secret block does not parameterize the victim (the input
    // plays that role, mirroring the paper's unprivileged-observer
    // setup).
    (void)secret;
    DvfsProbeConfig config{
        .profile = dvfs_profile_for(params.get("device")),
        .lowpower = params.get_flag("lowpower"),
        .window_s = params.get_double("window_s"),
    };
    if (config.window_s <= 0.0) {
      throw std::invalid_argument(
          "scenario param 'window_s': must be positive");
    }
    config.freq_noise_hz = params.get_double("freq_noise_mhz") * 1e6;
    config.leak = params.get_flag("leak");
    return std::make_unique<ProbeTraceSource>(
        std::make_unique<DvfsFrequencyProbe>(config, seed));
  }
};

}  // namespace

std::unique_ptr<Scenario> make_dvfs_frequency_scenario() {
  return std::make_unique<DvfsFrequencyScenario>();
}

}  // namespace psc::scenario
