// Span recording, self-time breakdown, trace export, and small numeric
// helpers shared by the workloads.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "bench.h"

namespace e2e {

int32_t SpanRecorder::Begin(const char* name, uint64_t stmt, int32_t parent) {
  Span s;
  s.name = name;
  s.stmt = stmt;
  s.parent = parent;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  return static_cast<int32_t>(spans_.size() - 1);
}

LayerTimes Summarize(const std::vector<Span>& spans, const std::string& root) {
  // Children of each span, in recording order (= start order).
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[static_cast<size_t>(spans[i].parent)].push_back(i);
  }
  auto self_ns = [&](size_t i) {
    const Span& s = spans[i];
    uint64_t covered = 0, cursor = s.start_ns;
    for (size_t c : children[i]) {  // union of child intervals
      const uint64_t lo = std::max(cursor, spans[c].start_ns);
      const uint64_t hi = std::min(s.end_ns, spans[c].end_ns);
      if (hi > lo) covered += hi - lo;
      cursor = std::max(cursor, hi);
    }
    const uint64_t dur = s.end_ns - s.start_ns;
    return covered >= dur ? 0 : dur - covered;
  };

  LayerTimes out;
  std::map<std::string, std::vector<double>> per_stmt_us;
  std::map<std::string, double> total_ns;
  double root_ns = 0;
  for (size_t r = 0; r < spans.size(); ++r) {
    if (spans[r].parent >= 0 || root != spans[r].name) continue;
    ++out.statements;
    root_ns += static_cast<double>(spans[r].end_ns - spans[r].start_ns);
    std::map<std::string, double> stmt_ns;
    std::vector<size_t> stack = {r};
    while (!stack.empty()) {
      const size_t i = stack.back();
      stack.pop_back();
      if (i != r) stmt_ns[spans[i].name] += static_cast<double>(self_ns(i));
      for (const auto& [name, delta] : spans[i].counters) {
        out.counter_sums[name] += static_cast<double>(delta);
      }
      for (size_t c : children[i]) stack.push_back(c);
    }
    for (const auto& [name, ns] : stmt_ns) {
      per_stmt_us[name].push_back(ns / 1e3);
      total_ns[name] += ns;
    }
  }
  for (auto& [name, v] : per_stmt_us) {
    out.p50_us[name] = Median(v);
    out.share[name] = root_ns > 0 ? total_ns[name] / root_ns : 0.0;
  }
  return out;
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"stmt\": %llu",
                 i ? ",\n" : "", s.name, static_cast<unsigned long long>(s.stmt >> kClientShift),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<unsigned long long>(s.stmt));
    for (const auto& [name, delta] : s.counters) {
      std::fprintf(f, ", \"%s\": %lld", name, static_cast<long long>(delta));
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void ResultDigest::Add(const pascalr::Tuple& t) {
  uint64_t z = t.Hash() + 0x9e3779b97f4a7c15ULL;  // splitmix finaliser
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  sum += z ^ (z >> 31);
  ++rows;
}

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v->size()));
  return (*v)[std::min(rank, v->size() - 1)];
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace e2e
