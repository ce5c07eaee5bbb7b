// In-memory span recorder for the traced benchmark run.
//
// The benchmark records spans from its own code, around calls into the
// library's public functions (forwarding decorators, sink probes,
// progress hooks); the library itself is never instrumented. Spans stay
// in memory and are written out once the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";   // "<layer>.<what>", a string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root span
  std::uint64_t job = 0;     // campaign / job / request the span serves
  std::int32_t shard = -1;   // shard index where known
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void record(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  // Records a span with a fresh id and returns that id.
  std::uint64_t record(const char* name, std::uint64_t parent,
                       std::uint64_t job, std::int64_t start_ns,
                       std::int64_t end_ns, std::int32_t shard = -1) {
    const std::uint64_t id = next_id();
    record(Span{name, id, parent, job, shard, start_ns, end_ns});
    return id;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  // Splits the wall time of [from_ns, to_ns) over span names by self
  // time: a span's self time is its interval minus what its children
  // cover, and each instant is shared evenly among the self intervals
  // active at it (concurrent shards on several threads split the
  // instant). Instants that no span covers go to "bench" — the
  // benchmark's own loop. The parts sum to to_ns - from_ns.
  std::map<std::string, double> attribute_s(std::int64_t from_ns,
                                            std::int64_t to_ns) const;

  // Writes every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
