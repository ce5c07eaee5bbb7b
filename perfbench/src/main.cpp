// psc_perfbench: times one benchmark workload and prints its metrics.
//
//   psc_perfbench --workload <live-attack|replay-analysis|served-mix>
//                 --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced segments (U T U T ..., about one round
// of the workload each, so that drift in host speed hits both alike):
// the traced segments' spans give the per-layer split, and the untraced
// ones the baseline for the tracing overhead and the reconciliation
// check. Every run checks its results bit-for-bit and exits 1 on a mismatch.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics (name -> {value, unit: ""}); perfbench/run.py fills in units.
#include <algorithm>
#include <cmath>
#include <exception>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "util/simd.h"

namespace {

using namespace perfbench;

constexpr int setup_reps = 5;

Options parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return options;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "live-attack") {
    return make_live_attack(options);
  }
  if (options.workload == "replay-analysis") {
    return make_replay_analysis(options);
  }
  if (options.workload == "served-mix") {
    return make_served_mix(options);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string fingerprint() {
  std::ostringstream out;
  out << "{\"nproc\":" << host_nproc()
      << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
      << ",\"simd\":"
      << json_string(std::string(psc::util::simd::backend_name(
             psc::util::simd::active_backend())))
      << ",\"compiler\":" << json_string("gcc " __VERSION__)
      << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE) << "}";
  return out.str();
}

void put_latency(LayerMetrics& metrics, const std::string& name,
                 const std::vector<double>& samples, double q, double cap_ms) {
  double value = percentile(samples, q);
  if (std::isinf(value)) {
    value = cap_ms;  // failed jobs miss every limit; JSON has no infinity
  }
  metrics[name] = value;
  std::cout << "  " << name << " = " << value << " ms (n=" << samples.size()
            << ")\n";
}

int run(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options);
  std::cout << "fingerprint: " << fingerprint() << "\n";

  std::vector<double> setup_times;
  for (int r = 0; r < setup_reps; ++r) {
    const std::int64_t t0 = now_ns();
    workload->setup();
    setup_times.push_back(seconds_between(t0, now_ns()));
  }
  workload->warm_up();

  Tally untraced;
  Tally traced;
  Tracer tracer;
  std::vector<Window> traced_windows;
  if (!options.trace) {
    workload->measure(options.seconds, nullptr, untraced);
  } else {
    const double segment = workload->trace_segment_s();
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
    do {
      workload->measure(segment, nullptr, untraced);
      traced_windows.push_back(workload->measure(segment, &tracer, traced));
    } while (now_ns() < end);
  }

  Tally all = untraced;
  all.add(traced);
  workload->verify(all);

  const std::uint64_t failed = all.failed + all.mismatches;
  const bool correct = all.mismatches == 0;
  LayerMetrics metrics;
  std::cout << options.workload << " seed=" << options.seed
            << (options.trace ? " (traced run)" : "") << "\n";
  if (!options.trace) {
    const Tally& t = untraced;
    const double cap_ms = t.wall_s * 1e3;
    metrics["setup_s"] = median(setup_times);
    metrics["traces_per_s"] = t.traces / t.traces_s;
    metrics["serial_traces_per_s"] = all.serial_traces / all.serial_s;
    metrics["jobs_per_s"] = static_cast<double>(t.jobs_done) / t.wall_s;
    for (const auto& [name, value] : metrics) {
      std::cout << "  " << name << " = " << value << "\n";
    }
    put_latency(metrics, "job_p50_ms", t.small_ms, 50, cap_ms);
    put_latency(metrics, "job_p95_ms", t.small_ms, 95, cap_ms);
    put_latency(metrics, "large_job_p50_ms", t.large_ms, 50, cap_ms);
    metrics["peak_rss_mb"] = peak_rss_mib();
    metrics["cpu_s_per_mtrace"] = t.cpu_s / t.window_traces * 1e6;
    std::cout << "  peak_rss_mb = " << metrics["peak_rss_mb"]
              << "\n  cpu_s_per_mtrace = " << metrics["cpu_s_per_mtrace"]
              << "\n  failed_ratio = " << failed << "/" << all.attempted
              << "\n";
  } else {
    // Wall-time split of the traced segments by span self time.
    std::map<std::string, double> parts;
    double traced_wall = 0.0;
    for (const Window& w : traced_windows) {
      for (const auto& [name, s] : tracer.attribute_s(w.from_ns, w.to_ns)) {
        parts[name] += s;
      }
      traced_wall += seconds_between(w.from_ns, w.to_ns);
    }
    double spanned = 0.0;
    for (const auto& [name, s] : parts) {
      metrics["self_share." + name] = s / traced_wall;
      if (name != "bench") {
        spanned += s;
      }
    }
    // The traced work at the untraced rate: what the layer parts must
    // add up to.
    const double untraced_rate = untraced.window_traces / untraced.wall_s;
    const double untraced_equiv = traced.window_traces / untraced_rate;
    const double reconcile = (spanned - untraced_equiv) / untraced_equiv;
    metrics["trace.reconcile_error_pct"] = 100.0 * std::abs(reconcile);
    const double untraced_tps = untraced.traces / untraced.traces_s;
    const double traced_tps = traced.traces / traced.traces_s;
    metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced_tps / untraced_tps);
    std::cout << "  traces_per_s untraced " << untraced_tps << ", traced "
              << traced_tps << "\n";
    metrics["failed_ratio"] =
        static_cast<double>(failed) / static_cast<double>(all.attempted);
    workload->layer_metrics(tracer, metrics);
    for (const auto& [name, value] : metrics) {
      std::cout << "  " << name << " = " << value << "\n";
    }
    std::cout << "  reconcile: layer parts " << spanned << " s vs untraced "
              << untraced_equiv << " s -> "
              << (std::abs(reconcile) <= 0.10 ? "ok" : "OUTSIDE 10%") << "\n";
    // The latest traced run of each workload keeps its spans.
    const std::string path =
        options.out_dir + "/spans_" + options.workload + ".jsonl";
    tracer.write_jsonl(path);
    std::cout << "  spans: " << path << "\n";
  }
  if (!correct) {
    std::cout << "CORRECTNESS MISMATCH: " << all.mismatches << "\n";
  }

  std::cout.precision(std::numeric_limits<double>::max_digits10);
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << all.attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::cout << (first ? "" : ", ") << json_string(name)
              << ": {\"value\": " << value << ", \"unit\": \"\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "psc_perfbench: " << e.what() << "\n";
    return 2;
  }
}
