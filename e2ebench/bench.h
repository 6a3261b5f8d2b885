// End-to-end benchmark for the pascalr library: shared declarations.
//
// One binary runs one workload per invocation (olap_n10k, adhoc_n100,
// serving_n1k; see README.md for why each exists and which layer it
// stresses). The library only ever receives generated statements and
// data; everything here drives it through its public API.

#ifndef PASCALR_E2EBENCH_BENCH_H_
#define PASCALR_E2EBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pascalr/pascalr.h"

namespace e2e {

using pascalr::Database;
using pascalr::ParamBindings;
using pascalr::Session;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ------------------------------------------------------------ generators

/// Deterministic 64-bit generator (splitmix64): the same seed yields the
/// same stream on every platform, unlike the <random> distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  /// Uniform in [lo, hi].
  int64_t Between(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Index drawn with the given relative weights.
  size_t Weighted(const std::vector<double>& weights);

 private:
  uint64_t state_;
};

/// Index picked by `u` in [0, 1) from the given relative weights.
size_t WeightedAt(const std::vector<double>& weights, double u);

/// Populates the Figure-1 university schema at the proportions of
/// bench_util::MakeScaledDb: employees n, papers 2n, courses n/2+1,
/// timetable 3n.
std::unique_ptr<Database> MakeUniversityDb(size_t n, uint64_t seed);

/// olap_n10k: the paper's query shapes with seeded literals, as a cycle
/// the closed-loop client walks round-robin (every shape equally often).
std::vector<std::string> OlapStatements(uint64_t seed);

/// adhoc_n100: a pool of distinct generated chain / star / cycle
/// selections, and the skewed draw sequence over it.
struct AdhocStream {
  std::vector<std::string> pool;
  std::vector<uint32_t> draws;
};
AdhocStream AdhocStatements(uint64_t seed, size_t n);

/// serving_n1k: the readers' prepared statements, each reader's parameter
/// stream, and the writer's log of `:+` / `:-` statements.
struct ServingRead {
  size_t query = 0;  ///< index into ServingStream::queries
  ParamBindings params;
  std::string literal_text;  ///< the query with params substituted
};
struct ServingStream {
  std::vector<std::string> queries;
  std::vector<std::vector<ServingRead>> readers;
  std::vector<std::string> writes;
};
ServingStream ServingStatements(uint64_t seed, const Database& db,
                                size_t n_readers, size_t reads_per_reader,
                                size_t writes);

/// The stream a workload sends in a run of `seconds`, flattened to bytes;
/// the determinism check generates it twice and compares.
std::string StreamBytes(const std::string& workload, uint64_t seed, double seconds);

// --------------------------------------------------------------- tracing

constexpr int kClientShift = 40;

/// One span around a public layer call, recorded by the benchmark itself.
struct Span {
  const char* name = "";
  uint64_t stmt = 0;   ///< statement id shared by a statement's spans
                       ///< (bits from kClientShift up name the client thread)
  int32_t parent = -1; ///< index of the enclosing span, -1 at a root
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::vector<std::pair<const char*, int64_t>> counters;  ///< deltas
};

/// In-memory span store; written out once, at exit. Not thread-safe: one
/// recorder per thread.
class SpanRecorder {
 public:
  int32_t Begin(const char* name, uint64_t stmt, int32_t parent);
  void End(int32_t index) { spans_[static_cast<size_t>(index)].end_ns = NowNs(); }
  void Count(int32_t index, const char* name, int64_t delta) {
    spans_[static_cast<size_t>(index)].counters.emplace_back(name, delta);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null recorder makes it a no-op, so the untraced and the
/// traced run share one code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t stmt,
             int32_t parent = -1)
      : rec_(rec), index_(rec == nullptr ? -1 : rec->Begin(name, stmt, parent)) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }
  void Count(const char* name, int64_t delta) {
    if (rec_ != nullptr) rec_->Count(index_, name, delta);
  }

 private:
  SpanRecorder* rec_;
  int32_t index_;
};

/// Per-layer figures derived from spans whose root is named `root`: for
/// each layer, the p50 over statements of its self time (span time minus
/// the time its children cover) and its share of total root time.
struct LayerTimes {
  std::map<std::string, double> p50_us;
  std::map<std::string, double> share;
  /// Sum of each counter over the roots' subtrees, and the root count.
  std::map<std::string, double> counter_sums;
  size_t statements = 0;
};
LayerTimes Summarize(const std::vector<Span>& spans, const std::string& root);

/// Writes spans as Chrome trace-event JSON.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans);

// ------------------------------------------------------------- workloads

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< span file, written at exit (trace runs)
};

/// What one run reports. Metric values keyed by the BENCHMARK.json name.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;  ///< human-readable lines, e.g. mismatches
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

RunReport RunOlap(const RunOptions& options);
RunReport RunAdhoc(const RunOptions& options);
RunReport RunServing(const RunOptions& options);

// --------------------------------------------------------------- helpers

/// Order-independent fingerprint of a result: PASCAL/R results are sets,
/// so row order is not part of the answer.
struct ResultDigest {
  uint64_t sum = 0;
  uint64_t rows = 0;
  void Add(const pascalr::Tuple& t);
  bool operator==(const ResultDigest& o) const {
    return sum == o.sum && rows == o.rows;
  }
  bool operator!=(const ResultDigest& o) const { return !(*this == o); }
};

/// Value at quantile q (0..1) of `v` (sorted in place), nearest-rank.
double Quantile(std::vector<double>* v, double q);
double Median(std::vector<double> v);

/// Peak resident set of this process, in MiB.
double PeakRssMb();

}  // namespace e2e

#endif  // PASCALR_E2EBENCH_BENCH_H_
