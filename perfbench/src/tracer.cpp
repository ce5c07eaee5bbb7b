#include "tracer.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

// [start, end) minus the union of `cover`, as disjoint intervals.
std::vector<Interval> subtract(Interval span, std::vector<Interval> cover) {
  std::sort(cover.begin(), cover.end());
  std::vector<Interval> out;
  std::int64_t at = span.first;
  for (const auto& [b, e] : cover) {
    if (e <= at) {
      continue;
    }
    if (b >= span.second) {
      break;
    }
    if (b > at) {
      out.emplace_back(at, b);
    }
    at = std::max(at, e);
  }
  if (at < span.second) {
    out.emplace_back(at, span.second);
  }
  return out;
}

}  // namespace

std::map<std::string, double> Tracer::attribute_s(std::int64_t from_ns,
                                                  std::int64_t to_ns) const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  for (const Span& s : all) {
    if (s.parent != 0) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }

  std::vector<std::string> names;
  std::unordered_map<std::string, int> name_index;
  struct Event {
    std::int64_t t;
    int delta;
    int name;
  };
  std::vector<Event> events;
  for (const Span& s : all) {
    const std::int64_t b = std::max(s.start_ns, from_ns);
    const std::int64_t e = std::min(s.end_ns, to_ns);
    if (b >= e) {
      continue;
    }
    const auto [it, inserted] =
        name_index.try_emplace(s.name, static_cast<int>(names.size()));
    if (inserted) {
      names.emplace_back(s.name);
    }
    const auto kids = children.find(s.id);
    const std::vector<Interval> self =
        kids == children.end() ? std::vector<Interval>{{b, e}}
                               : subtract({b, e}, kids->second);
    for (const auto& [sb, se] : self) {
      events.push_back({sb, +1, it->second});
      events.push_back({se, -1, it->second});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.t < b.t; });

  std::vector<double> part(names.size(), 0.0);
  std::vector<int> active(names.size(), 0);
  int total = 0;
  double bench = 0.0;
  std::int64_t at = from_ns;
  for (std::size_t i = 0; i <= events.size(); ++i) {
    const std::int64_t t = i < events.size() ? events[i].t : to_ns;
    if (t > at) {
      const double dt = static_cast<double>(t - at) * 1e-9;
      if (total == 0) {
        bench += dt;
      } else {
        for (std::size_t n = 0; n < names.size(); ++n) {
          part[n] += dt * active[n] / total;
        }
      }
      at = t;
    }
    if (i < events.size()) {
      active[events[i].name] += events[i].delta;
      total += events[i].delta;
    }
  }

  std::map<std::string, double> out;
  for (std::size_t n = 0; n < names.size(); ++n) {
    out[names[n]] = part[n];
  }
  out["bench"] += bench;
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write span file " + path);
  }
  for (const Span& s : spans()) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"job\":" << s.job
        << ",\"shard\":" << s.shard << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

}  // namespace perfbench
