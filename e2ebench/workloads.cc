// The three workloads. Each run sets up several times (setup_s is the
// median), measures for the requested seconds, takes the peak RSS, and
// only then computes the reference results and checks every read.
//
// Untraced runs measure one closed-loop phase over the session path
// (Session::Prepare -> PreparedQuery::OpenCursor -> Cursor::Next ->
// Cursor::Close, which folds the statement statistics). Traced runs spend
// two thirds of the time on that path with statements alternating between
// A, untraced (the overhead baseline), and B, spans around each public
// call; the last third is C, the "layer pass", which sends each statement
// through Parser, Binder, BuildStandardForm, PlanQuery,
// Cursor::Open/Next/Close and the statement-statistics fold one call at a
// time, each in its own span.

#include <algorithm>
#include <functional>
#include <thread>

#include "bench.h"
#include "concurrency/session_manager.h"

namespace e2e {

namespace {

using pascalr::CompileCounters;
using pascalr::Cursor;
using pascalr::ExecStats;
using pascalr::GlobalCompileCounters;
using pascalr::PreparedQuery;
using pascalr::Result;
using pascalr::SessionManager;
using pascalr::Tuple;

constexpr int kSetupRepeats = 5;

/// The configuration every read is checked against: a fixed strategy level
/// with the materializing combination phase and greedy join order, so it
/// shares neither the cost-based choice, the pipelined engine nor the DP
/// join order with the configuration under test. OPTLEVEL 2 with the
/// pipeline off materializes Example 2.1's division input and exhausts
/// 3 GB already at n = 300, so the level is 4, falling back to 3 for the
/// statements level 4 reports as unsupported (cyclic value-list scan
/// orders).
class Reference {
 public:
  /// `make` creates a session on the database to check against.
  explicit Reference(const std::function<std::unique_ptr<Session>()>& make)
      : level4_(make()), level3_(make()) {
    ok_ = level4_->ExecuteScript("SET OPTLEVEL 4; SET PIPELINE OFF; SET JOINORDER GREEDY;").ok() &&
          level3_->ExecuteScript("SET OPTLEVEL 3; SET PIPELINE OFF; SET JOINORDER GREEDY;").ok();
  }

  Result<ResultDigest> Digest(const std::string& text) {
    if (!ok_) return pascalr::Status::Internal("reference sessions not configured");
    Result<pascalr::QueryRun> run = level4_->Query(text);
    if (!run.ok() && run.status().code() == pascalr::StatusCode::kUnsupported) {
      run = level3_->Query(text);
    }
    if (!run.ok()) return run.status();
    ResultDigest digest;
    for (const Tuple& t : run->tuples) digest.Add(t);
    return digest;
  }

 private:
  std::unique_ptr<Session> level4_, level3_;
  bool ok_ = false;
};

struct ReadTiming {
  double latency_ms = 0;
  double ttft_ms = 0;
};

/// One closed-loop phase's samples.
struct Phase {
  std::vector<double> latency_ms;
  std::vector<double> ttft_ms;
  uint64_t reads = 0;
  uint64_t failed = 0;
  double seconds = 0;
  void Merge(const Phase& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    ttft_ms.insert(ttft_ms.end(), o.ttft_ms.begin(), o.ttft_ms.end());
    reads += o.reads;
    failed += o.failed;
  }
};

/// One executed read, kept for the after-run check against the reference.
struct Execution {
  uint32_t stmt;
  ResultDigest digest;
};

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Drains an open cursor into `digest` inside a pipeline.drain span, then
/// closes it inside an exec.close span. `open_start` is when the open call
/// began: the first Next's return marks time to first tuple.
bool DrainAndClose(Cursor* cursor, SpanRecorder* rec, uint64_t stmt, int32_t parent,
                   uint64_t open_start, ResultDigest* digest, ReadTiming* timing,
                   ExecStats* stats_out = nullptr) {
  bool ok = true;
  {
    ScopedSpan span(rec, "pipeline.drain", stmt, parent);
    const ExecStats before = cursor->stats();
    Tuple tuple;
    bool first = true;
    while (true) {
      Result<bool> more = cursor->Next(&tuple);
      if (first) {
        timing->ttft_ms = Ms(NowNs() - open_start);
        first = false;
      }
      if (!more.ok()) {
        ok = false;
        break;
      }
      if (!*more) break;
      digest->Add(tuple);
    }
    const ExecStats& after = cursor->stats();
    span.Count("combination_rows", static_cast<int64_t>(after.combination_rows - before.combination_rows));
    span.Count("comparisons", static_cast<int64_t>(after.comparisons - before.comparisons));
    span.Count("division_rows", static_cast<int64_t>(after.division_input_rows - before.division_input_rows));
    span.Count("quant_probes", static_cast<int64_t>(after.quantifier_probes - before.quantifier_probes));
    span.Count("dereferences", static_cast<int64_t>(after.dereferences - before.dereferences));
    span.Count("peak_rows", static_cast<int64_t>(after.peak_intermediate_rows));
    span.Count("result_rows", static_cast<int64_t>(digest->rows));
    if (stats_out != nullptr) *stats_out = after;
  }
  ScopedSpan span(rec, "exec.close", stmt, parent);
  cursor->Close();
  return ok;
}

/// Prepared path: OpenCursor + drain + close (the close hook folds stats).
bool RunPrepared(PreparedQuery* pq, const ParamBindings& params, SpanRecorder* rec,
                 uint64_t stmt, int32_t parent, ResultDigest* digest, ReadTiming* timing) {
  const uint64_t open_start = NowNs();
  Result<Cursor> cursor = Cursor();
  {
    ScopedSpan span(rec, "pascalr.prepared.open_cursor", stmt, parent);
    const pascalr::PreparedStats before = pq->stats();
    cursor = pq->OpenCursor(params);
    span.Count("plan_compiles", static_cast<int64_t>(pq->stats().plan_compiles - before.plan_compiles));
    span.Count("plan_cache_hits",
               static_cast<int64_t>(pq->stats().plan_cache_hits - before.plan_cache_hits));
  }
  if (!cursor.ok()) return false;
  return DrainAndClose(&*cursor, rec, stmt, parent, open_start, digest, timing);
}

/// Session path for one statement text: Prepare, then the prepared path.
bool RunSessionText(Session* session, const std::string& text, SpanRecorder* rec,
                    uint64_t stmt, ResultDigest* digest, ReadTiming* timing) {
  const uint64_t t0 = NowNs();
  bool ok;
  {
    ScopedSpan root(rec, "stmt.session", stmt);
    Result<PreparedQuery> pq = PreparedQuery();
    {
      ScopedSpan span(rec, "pascalr.prepare", stmt, root.index());
      pq = session->Prepare(text);
    }
    ok = pq.ok() && RunPrepared(&*pq, {}, rec, stmt, root.index(), digest, timing);
  }
  timing->latency_ms = Ms(NowNs() - t0);
  return ok;
}

/// Layer pass for one statement text: every public layer call in its own
/// span, the statistics fold done the way Session folds it.
bool RunLayers(Session* session, const std::string& text, SpanRecorder* rec, uint64_t stmt,
               ResultDigest* digest, ReadTiming* timing, std::vector<double>* qerrors) {
  Database& db = *session->db();
  const uint64_t t0 = NowNs();
  ScopedSpan root(rec, "stmt.layers", stmt);
  // One read point for the whole statement, as the session path takes
  // (null, and a no-op, while concurrent serving is off).
  pascalr::ScopedSnapshotInstall snapshot(db.SnapshotForRead());
  auto compile_span = [&](const char* name, const std::function<bool()>& call) {
    ScopedSpan span(rec, name, stmt, root.index());
    const CompileCounters before = GlobalCompileCounters();
    const bool ok = call();
    const CompileCounters after = GlobalCompileCounters();
    span.Count("candidates", static_cast<int64_t>(after.plans - before.plans));
    span.Count("plan_searches", static_cast<int64_t>(after.plan_searches - before.plan_searches));
    return ok;
  };
  Result<pascalr::SelectionExpr> sel = pascalr::SelectionExpr();
  Result<pascalr::BoundQuery> bound = pascalr::BoundQuery();
  Result<pascalr::PlannedQuery> planned = pascalr::PlannedQuery();
  const bool compiled =
      compile_span("parser.parse",
                   [&] {
                     pascalr::Parser parser(text);
                     sel = parser.ParseSelectionOnly();
                     return sel.ok();
                   }) &&
      compile_span("semantics.bind",
                   [&] {
                     pascalr::Binder binder(&db);
                     bound = binder.Bind(sel->Clone());
                     return bound.ok();
                   }) &&
      compile_span("normalize.standard_form",
                   [&] {
                     return pascalr::BuildStandardForm(pascalr::CloneBoundQuery(*bound)).ok();
                   }) &&
      compile_span("opt.plan", [&] {
        planned = pascalr::PlanQuery(db, std::move(*bound), session->options());
        return planned.ok();
      });
  if (!compiled) return false;
  const pascalr::CostEstimate estimate = planned->estimate;
  auto plan = std::make_shared<const pascalr::QueryPlan>(std::move(planned->plan));

  const uint64_t open_start = NowNs();
  Result<Cursor> cursor = Cursor();
  {
    ScopedSpan span(rec, "exec.open", stmt, root.index());
    cursor = Cursor::Open(plan, db);
    if (cursor.ok()) {
      const ExecStats& s = cursor->stats();
      span.Count("elements_scanned", static_cast<int64_t>(s.elements_scanned));
      span.Count("index_probes", static_cast<int64_t>(s.index_probes));
      span.Count("refs_built", static_cast<int64_t>(s.single_list_refs + s.indirect_join_refs));
      span.Count("structure_elements", static_cast<int64_t>(s.structure_elements_built));
    }
  }
  if (!cursor.ok()) return false;
  ExecStats stats;
  if (!DrainAndClose(&*cursor, rec, stmt, root.index(), open_start, digest, timing, &stats)) {
    return false;
  }
  {
    ScopedSpan span(rec, "obs.fold", stmt, root.index());
    const uint64_t latency_us = (NowNs() - t0) / 1000;
    pascalr::StmtObservation obs;
    obs.latency_us = latency_us;
    obs.rows = digest->rows;
    obs.stats = &stats;
    db.stmt_stats().Fold(pascalr::FormatSelection(*sel), obs);
    db.session_registry().RecordQuery(session->session_id());
    db.server_metrics().counter("server.query.count").Inc();
    db.server_metrics().histogram("server.query.latency_us").Record(latency_us);
  }
  const double est = plan->pipeline ? estimate.pipelined_total_work
                                    : static_cast<double>(estimate.predicted.TotalWork());
  const double act = static_cast<double>(stats.TotalWork());
  const double e = std::max(est, 1.0), a = std::max(act, 1.0);
  qerrors->push_back(std::max(e / a, a / e));
  timing->latency_ms = Ms(NowNs() - t0);
  return true;
}

/// Closed loop: calls `one(i, &timing)` for i = 0, 1, ... until `seconds`
/// have passed. Statement i's samples go to phase i % ways.
std::vector<Phase> ClosedLoop(double seconds, size_t ways,
                              const std::function<bool(uint64_t, ReadTiming*)>& one) {
  std::vector<Phase> phases(ways);
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t i = 0; NowNs() < deadline; ++i) {
    Phase& p = phases[i % ways];
    ReadTiming t;
    ++p.reads;
    if (!one(i, &t)) {
      ++p.failed;
      continue;
    }
    p.latency_ms.push_back(t.latency_ms);
    p.ttft_ms.push_back(t.ttft_ms);
  }
  for (Phase& p : phases) p.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return phases;
}

void AddReadMetrics(const Phase& p, double seconds, RunReport* r) {
  std::vector<double> lat = p.latency_ms, ttft = p.ttft_ms;
  r->Add("read_per_s", static_cast<double>(p.reads - p.failed) / seconds, "1/s");
  r->Add("read_p50_ms", Quantile(&lat, 0.50), "ms");
  r->Add("read_p95_ms", Quantile(&lat, 0.95), "ms");
  r->Add("ttft_p50_ms", Quantile(&ttft, 0.50), "ms");
  r->notes.push_back("reads: " + std::to_string(p.reads) + " samples: " +
                     std::to_string(lat.size()) + " failed: " + std::to_string(p.failed));
}

const char* const kLayerTimings[] = {"parser.parse",   "semantics.bind",
                                     "normalize.standard_form", "opt.plan",
                                     "exec.open",      "pipeline.drain",
                                     "obs.fold"};

/// Per-layer figures from a traced run. Layers a workload never runs
/// report 0.
struct TraceFigures {
  LayerTimes session, layers, writes;
  std::vector<double> qerrors;
  double untraced_p50_ms = 0, traced_p50_ms = 0;
  uint64_t session_reads = 0;
  double shared_plan_hit_rate = 0;
  double delta_merges_per_read = 0;
  uint64_t compactions = 0, versions_retired = 0;
  std::vector<double> write_ms;

  /// Rates over the session-path stretch of a traced run: shared-plan hit
  /// rate and delta merges per read from the database counters at its
  /// start and end (all `reads`), and the count of `traced_reads`, the
  /// statements whose spans carry the prepared-plan counters.
  void SetSessionRates(const pascalr::ConcurrencyCounters::View& before,
                       const pascalr::ConcurrencyCounters::View& after, uint64_t reads,
                       uint64_t traced_reads) {
    const uint64_t hits = after.shared_plan_hits - before.shared_plan_hits;
    const uint64_t lookups = hits + after.shared_plan_misses - before.shared_plan_misses;
    shared_plan_hit_rate = lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
    delta_merges_per_read = static_cast<double>(after.delta_merges - before.delta_merges) /
                            static_cast<double>(std::max<uint64_t>(1, reads));
    session_reads = traced_reads;
  }
};

void AddLayerMetrics(const TraceFigures& f, RunReport* r) {
  auto get = [](const std::map<std::string, double>& m, const std::string& k) {
    auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  for (const char* name : kLayerTimings) {
    r->Add(std::string(name) + "_us", get(f.layers.p50_us, name), "us");
    r->Add(std::string(name) + "_share", get(f.layers.share, name), "ratio");
  }
  const std::string oc = "pascalr.prepared.open_cursor";
  r->Add(oc + "_us", get(f.session.p50_us, oc), "us");
  r->Add(oc + "_share", get(f.session.share, oc), "ratio");
  r->Add("concurrency.commit_us", get(f.writes.p50_us, "concurrency.commit"), "us");

  const double stmts = std::max<double>(1.0, static_cast<double>(f.layers.statements));
  auto per_stmt = [&](const char* counter) { return get(f.layers.counter_sums, counter) / stmts; };
  r->Add("cost.candidates", per_stmt("candidates"), "count");
  r->Add("cost.plan_searches", per_stmt("plan_searches"), "count");
  r->Add("cost.work_qerror", Median(f.qerrors), "ratio");
  r->Add("concurrency.shared_plan_hit_rate", f.shared_plan_hit_rate, "ratio");
  r->Add("exec.collection.elements_scanned", per_stmt("elements_scanned"), "count");
  r->Add("exec.collection.index_probes", per_stmt("index_probes"), "count");
  r->Add("exec.collection.refs_built", per_stmt("refs_built"), "count");
  r->Add("exec.collection.structure_elements", per_stmt("structure_elements"), "count");
  r->Add("pipeline.combination_rows", per_stmt("combination_rows"), "count");
  r->Add("pipeline.comparisons", per_stmt("comparisons"), "count");
  r->Add("pipeline.peak_rows", per_stmt("peak_rows"), "count");
  r->Add("refstruct.division_rows", per_stmt("division_rows"), "count");
  r->Add("refstruct.quant_probes", per_stmt("quant_probes"), "count");
  r->Add("exec.construct.dereferences", per_stmt("dereferences"), "count");
  const double comb = get(f.layers.counter_sums, "combination_rows");
  r->Add("exec.construct.dedup_ratio",
         comb > 0 ? get(f.layers.counter_sums, "result_rows") / comb : 0.0, "ratio");

  const double reads = std::max<double>(1.0, static_cast<double>(f.session_reads));
  const double compiles = get(f.session.counter_sums, "plan_compiles");
  const double hits = get(f.session.counter_sums, "plan_cache_hits");
  r->Add("pascalr.prepared.cache_hit_rate", hits / reads, "ratio");
  r->Add("pascalr.prepared.replans_per_read", compiles / reads, "count");
  r->Add("concurrency.delta_merges_per_read", f.delta_merges_per_read, "count");
  r->Add("concurrency.compactions", static_cast<double>(f.compactions), "count");
  r->Add("concurrency.versions_retired", static_cast<double>(f.versions_retired), "count");
  std::vector<double> w = f.write_ms;
  r->Add("serving.write_p50_ms", Quantile(&w, 0.50), "ms");
  r->Add("serving.write_p95_ms", Quantile(&w, 0.95), "ms");
  r->Add("trace.untraced_read_p50_ms", f.untraced_p50_ms, "ms");
  r->Add("trace.traced_read_p50_ms", f.traced_p50_ms, "ms");
  r->Add("trace.overhead",
         f.untraced_p50_ms > 0 ? f.traced_p50_ms / f.untraced_p50_ms - 1.0 : 0.0, "ratio");
}

/// Runs each distinct statement once in the reference configuration and
/// counts the executions whose digest differs from it.
uint64_t CheckAgainstReference(Reference* ref, const std::vector<std::string>& texts,
                               const std::vector<Execution>& executions, RunReport* report) {
  std::map<uint32_t, ResultDigest> expected;
  for (const Execution& e : executions) expected.emplace(e.stmt, ResultDigest());
  for (auto& [stmt, digest] : expected) {
    Result<ResultDigest> want = ref->Digest(texts[stmt]);
    if (!want.ok()) {
      report->notes.push_back("reference failed: " + want.status().ToString());
      digest.rows = ~uint64_t{0};  // matches no execution
      continue;
    }
    digest = *want;
  }
  uint64_t wrong = 0;
  for (const Execution& e : executions) {
    const ResultDigest& want = expected[e.stmt];
    if (e.digest == want) continue;
    if (wrong++ < 3) {
      report->notes.push_back("mismatch: got " + std::to_string(e.digest.rows) + " rows, want " +
                              std::to_string(want.rows) + " for " + texts[e.stmt]);
    }
  }
  return wrong;
}

void AddSetup(const std::vector<double>& setup_s, RunReport* r) {
  std::string reps = "setup reps (s):";
  for (double s : setup_s) reps += " " + std::to_string(s);
  r->notes.push_back(reps);
  r->Add("setup_s", Median(setup_s), "s");
}

struct SingleClient {
  // Declaration order is teardown order reversed: sessions go first.
  std::unique_ptr<Database> db;
  std::unique_ptr<SessionManager> manager;  ///< adhoc only
  std::unique_ptr<Session> session;
};

SingleClient SetUpSingleClient(size_t n, uint64_t seed, bool serving) {
  SingleClient c;
  c.db = MakeUniversityDb(n, seed);
  if (serving) {
    c.manager = std::make_unique<SessionManager>(c.db.get());
    c.session = c.manager->CreateSession();
  } else {
    c.session = std::make_unique<Session>(c.db.get());
  }
  pascalr::Status st = c.session->ExecuteScript("ANALYZE; SET OPTLEVEL AUTO;");
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    std::exit(2);
  }
  return c;
}

/// olap_n10k and adhoc_n100: one client, closed loop, statements from
/// `texts` in the order `pick(i)` gives; `serving` puts the database
/// under a SessionManager.
RunReport RunSingleClient(const RunOptions& o, size_t n, bool serving,
                          const std::vector<std::string>& texts,
                          const std::function<uint32_t(uint64_t)>& pick, uint64_t warmup) {
  RunReport report;
  SingleClient c;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    // Release the previous copy, dependents first, before building the next.
    c.session.reset();
    c.manager.reset();
    c.db.reset();
    const uint64_t t0 = NowNs();
    c = SetUpSingleClient(n, o.seed, serving);
    for (uint64_t i = 0; i < warmup; ++i) {
      ResultDigest d;
      ReadTiming t;
      RunSessionText(c.session.get(), texts[pick(i)], nullptr, 0, &d, &t);
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  std::vector<Execution> executions;
  uint64_t next = warmup;  // the measured stream continues after warm-up
  SpanRecorder rec;
  // Session path; in traced runs odd statements carry spans (phase B) and
  // even ones do not (phase A).
  auto session_loop = [&](uint64_t i, ReadTiming* t) {
    const uint32_t stmt = pick(next++);
    Execution e{stmt, {}};
    SpanRecorder* r = o.trace && i % 2 == 1 ? &rec : nullptr;
    const bool ok = RunSessionText(c.session.get(), texts[stmt], r, next, &e.digest, t);
    if (ok) executions.push_back(e);
    return ok;
  };
  TraceFigures f;
  Phase all;
  double measured_s = 0;
  if (!o.trace) {
    all = ClosedLoop(o.seconds, 1, session_loop)[0];
    measured_s = all.seconds;
  } else {
    const auto before = c.db->ConcurrencyCountersView();
    const std::vector<Phase> ab = ClosedLoop(o.seconds * 2 / 3, 2, session_loop);
    const auto after = c.db->ConcurrencyCountersView();
    const Phase l = ClosedLoop(o.seconds / 3, 1, [&](uint64_t, ReadTiming* t) {
      const uint32_t stmt = pick(next++);
      Execution e{stmt, {}};
      const bool ok = RunLayers(c.session.get(), texts[stmt], &rec, next, &e.digest, t, &f.qerrors);
      if (ok) executions.push_back(e);
      return ok;
    })[0];
    f.untraced_p50_ms = Median(ab[0].latency_ms);
    f.traced_p50_ms = Median(ab[1].latency_ms);
    f.SetSessionRates(before, after, ab[0].reads + ab[1].reads, ab[1].reads);
    all.Merge(ab[0]);
    all.Merge(ab[1]);
    all.Merge(l);
  }
  const double rss = PeakRssMb();

  report.attempted = all.reads;
  report.failed = all.failed;
  Reference ref([&c] {
    return c.manager ? c.manager->CreateSession() : std::make_unique<Session>(c.db.get());
  });
  const uint64_t wrong = CheckAgainstReference(&ref, texts, executions, &report);
  report.failed += wrong;
  report.correct = report.failed == 0;

  if (!o.trace) {
    AddSetup(setup_s, &report);
    AddReadMetrics(all, measured_s, &report);
    report.Add("peak_rss_mb", rss, "MB");
  } else {
    f.session = Summarize(rec.spans(), "stmt.session");
    f.layers = Summarize(rec.spans(), "stmt.layers");
    AddLayerMetrics(f, &report);
    if (!o.trace_out.empty() && !WriteTrace(o.trace_out, rec.spans())) {
      report.notes.push_back("could not write " + o.trace_out);
    }
  }
  return report;
}

}  // namespace

RunReport RunOlap(const RunOptions& o) {
  const std::vector<std::string> cycle = OlapStatements(o.seed);
  const auto pick = [&cycle](uint64_t i) { return static_cast<uint32_t>(i % cycle.size()); };
  // Warm-up: one statement of each of the five shapes.
  return RunSingleClient(o, 10000, /*serving=*/false, cycle, pick, 5);
}

RunReport RunAdhoc(const RunOptions& o) {
  const AdhocStream stream = AdhocStatements(o.seed, 100);
  const auto pick = [&stream](uint64_t i) { return stream.draws[i % stream.draws.size()]; };
  return RunSingleClient(o, 100, /*serving=*/true, stream.pool, pick, 256);
}

// ------------------------------------------------------------ serving_n1k

namespace {

constexpr size_t kServingN = 1000;
constexpr size_t kReaders = 2;
constexpr size_t kReadsPerReader = 30000;  // the stream wraps if a run needs more
/// Writer open-loop rate: about 1,250 base versions die per second, so
/// the 4096-dead-version compaction threshold is crossed several times in
/// a run (whether compaction then runs is what the workload measures).
constexpr double kWritesPerSecond = 2500;

size_t WritesFor(double seconds) {
  return static_cast<size_t>(kWritesPerSecond * seconds) + 16;
}

/// Order-independent digest of every tuple of every relation.
std::map<std::string, ResultDigest> DigestRelations(const Database& db) {
  std::map<std::string, ResultDigest> out;
  for (const char* name : {"employees", "papers", "courses", "timetable"}) {
    ResultDigest& d = out[name];
    db.FindRelation(name)->Scan([&d](const pascalr::Ref&, const Tuple& t) {
      d.Add(t);
      return true;
    });
  }
  return out;
}

}  // namespace

RunReport RunServing(const RunOptions& o) {
  RunReport report;
  struct Setup {  // declaration order is teardown order reversed
    std::unique_ptr<Database> db;
    std::unique_ptr<SessionManager> manager;
    std::unique_ptr<Session> writer;
    std::vector<std::unique_ptr<Session>> readers;
    std::vector<std::vector<PreparedQuery>> prepared;
    ServingStream stream;
  };
  Setup s;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    // Release the previous copy, dependents first, before building the next.
    s.prepared.clear();
    s.readers.clear();
    s.writer.reset();
    s.manager.reset();
    s.db.reset();
    uint64_t t0 = NowNs();
    s.db = MakeUniversityDb(kServingN, o.seed);
    double elapsed = static_cast<double>(NowNs() - t0);
    // Input generation is the benchmark's work, not the system's: untimed.
    s.stream = ServingStatements(o.seed, *s.db, kReaders, kReadsPerReader, WritesFor(o.seconds));
    t0 = NowNs();
    s.manager = std::make_unique<SessionManager>(s.db.get());
    s.writer = s.manager->CreateSession();
    bool ok = s.writer->ExecuteScript("ANALYZE;").ok();
    // Moves the populated rows into the compacted base. Deletes count
    // towards the threshold compaction only once they hit base rows, so
    // without this the first threshold compaction would never fire.
    s.manager->Compact();
    for (size_t r = 0; r < kReaders; ++r) {
      s.readers.push_back(s.manager->CreateSession());
      ok = ok && s.readers[r]->ExecuteScript("SET OPTLEVEL AUTO;").ok();
      s.prepared.emplace_back();
      for (const std::string& q : s.stream.queries) {
        Result<PreparedQuery> pq = s.readers[r]->Prepare(q);
        ok = ok && pq.ok();
        if (pq.ok()) s.prepared[r].push_back(std::move(*pq));
      }
      // Warm-up: every prepared statement once, caching its plan.
      for (size_t i = 0; ok && i < s.stream.queries.size(); ++i) {
        const ServingRead& read = s.stream.readers[r][i];
        ResultDigest d;
        ReadTiming t;
        ok = RunPrepared(&s.prepared[r][read.query], read.params, nullptr, 0, -1, &d, &t);
      }
    }
    if (!ok) {
      std::fprintf(stderr, "serving setup failed\n");
      std::exit(2);
    }
    setup_s.push_back((elapsed + static_cast<double>(NowNs() - t0)) / 1e9);
  }

  // ---- measured run: readers closed loop, writer open loop -------------
  const auto counters_start = s.db->ConcurrencyCountersView();
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(o.seconds * 1e9);
  // Traced runs: for the first two thirds, statements alternate between
  // untraced (phase 0, A) and traced (1, B); the layer pass (2, C) takes
  // the rest.
  const double session_s = o.seconds * 2 / 3;
  auto in_session_stretch = [&](uint64_t now) {
    return static_cast<double>(now - start) / 1e9 < session_s;
  };
  auto phase_of = [&](uint64_t now, size_t i) {
    if (!o.trace) return 0;
    return in_session_stretch(now) ? static_cast<int>(i % 2) : 2;
  };

  std::vector<Phase> reader_phase(kReaders * 3);
  std::vector<SpanRecorder> reader_rec(kReaders);
  std::vector<std::vector<double>> reader_qerrors(kReaders);
  std::vector<std::thread> threads;
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      const std::vector<ServingRead>& reads = s.stream.readers[r];
      size_t next = s.stream.queries.size();  // continue after warm-up
      for (uint64_t now = NowNs(); now < end; now = NowNs()) {
        const int phase = phase_of(now, next);
        Phase& p = reader_phase[r * 3 + static_cast<size_t>(phase)];
        const ServingRead& read = reads[next++ % reads.size()];
        SpanRecorder* rec = phase == 0 ? nullptr : &reader_rec[r];
        const uint64_t stmt = (static_cast<uint64_t>(r) << kClientShift) | next;
        ResultDigest d;
        ReadTiming t;
        bool ok;
        if (phase == 2) {
          ok = RunLayers(s.readers[r].get(), read.literal_text, rec, stmt, &d, &t, &reader_qerrors[r]);
        } else {
          const uint64_t t0 = NowNs();
          ScopedSpan root(rec, "stmt.session", stmt);
          ok = RunPrepared(&s.prepared[r][read.query], read.params, rec, stmt, root.index(), &d, &t);
          t.latency_ms = Ms(NowNs() - t0);
        }
        ++p.reads;
        if (!ok) {
          ++p.failed;
          continue;
        }
        p.latency_ms.push_back(t.latency_ms);
        p.ttft_ms.push_back(t.ttft_ms);
      }
    });
  }

  // The writer runs on this thread: write i is due at start + i / rate and
  // its latency counts from then, so a stall also delays later writes.
  SpanRecorder writer_rec;
  std::vector<double> write_ms, start_late_ms;
  size_t acknowledged = 0;
  uint64_t write_failed = 0;
  pascalr::ConcurrencyCounters::View session_end{};
  bool seen_session_end = false;
  for (size_t i = 0; i < s.stream.writes.size(); ++i) {
    const uint64_t due = start + static_cast<uint64_t>(static_cast<double>(i) * 1e9 / kWritesPerSecond);
    if (due >= end) break;
    // Sleep to just before the due time, then spin, so the generator's own
    // wake-up lateness (tens of microseconds) stays out of write latency.
    constexpr uint64_t kSpinNs = 100000;
    for (uint64_t now = NowNs(); now < due; now = NowNs()) {
      if (due - now > kSpinNs) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
    }
    start_late_ms.push_back(Ms(NowNs() - due));
    if (!seen_session_end && !in_session_stretch(NowNs())) {
      session_end = s.db->ConcurrencyCountersView();
      seen_session_end = true;
    }
    SpanRecorder* rec = o.trace ? &writer_rec : nullptr;
    const uint64_t stmt = (static_cast<uint64_t>(kReaders) << kClientShift) | i;
    ScopedSpan root(rec, "write", stmt);
    pascalr::Status st;
    {
      ScopedSpan span(rec, "concurrency.commit", stmt, root.index());
      st = s.writer->ExecuteScript(s.stream.writes[i]);
    }
    if (!st.ok()) {
      ++write_failed;
      report.notes.push_back("write failed: " + st.ToString());
      break;  // later writes may depend on this one
    }
    ++acknowledged;
    write_ms.push_back(Ms(NowNs() - due));
  }
  for (std::thread& t : threads) t.join();
  const double measured_s = static_cast<double>(NowNs() - start) / 1e9;
  const auto counters_end = s.db->ConcurrencyCountersView();
  const double rss = PeakRssMb();

  Phase all;
  for (const Phase& p : reader_phase) all.Merge(p);
  report.attempted = all.reads + acknowledged + write_failed;
  report.failed = all.failed + write_failed;

  // ---- correctness: serial replay of the acknowledged write log --------
  std::unique_ptr<Database> replay = MakeUniversityDb(kServingN, o.seed);
  Session serial(replay.get());
  for (size_t i = 0; i < acknowledged; ++i) {
    if (!serial.ExecuteScript(s.stream.writes[i]).ok()) {
      ++report.failed;
      report.notes.push_back("replay failed at write " + std::to_string(i));
      break;
    }
  }
  if (DigestRelations(*s.db) != DigestRelations(*replay)) {
    ++report.failed;
    report.notes.push_back("final state differs from the serial replay of the write log");
  }
  // Reads re-run on the quiesced state must match the reference
  // configuration evaluated on the replayed state.
  Reference ref([&replay] { return std::make_unique<Session>(replay.get()); });
  std::unique_ptr<Session> check = s.manager->CreateSession();
  bool check_ok = check->ExecuteScript("SET OPTLEVEL AUTO;").ok();
  std::vector<PreparedQuery> check_pq;
  for (const std::string& q : s.stream.queries) {
    Result<PreparedQuery> pq = check->Prepare(q);
    check_ok = check_ok && pq.ok();
    check_pq.push_back(pq.ok() ? std::move(*pq) : PreparedQuery());
  }
  constexpr size_t kRechecked = 60;  // per reader
  for (size_t r = 0; r < kReaders; ++r) {
    for (size_t i = 0; i < kRechecked; ++i) {
      const ServingRead& read = s.stream.readers[r][i];
      ResultDigest got;
      ReadTiming t;
      ++report.attempted;
      Result<ResultDigest> want = ref.Digest(read.literal_text);
      if (!check_ok || !want.ok() ||
          !RunPrepared(&check_pq[read.query], read.params, nullptr, 0, -1, &got, &t) ||
          got != *want) {
        ++report.failed;
        report.notes.push_back("re-run mismatch for " + read.literal_text);
      }
    }
  }
  report.correct = report.failed == 0;

  std::vector<double> w = write_ms;
  report.notes.push_back("writes: " + std::to_string(acknowledged) + " acknowledged at " +
                         std::to_string(kWritesPerSecond) + "/s, write_p50_ms " +
                         std::to_string(Quantile(&w, 0.5)) + ", write_p95_ms " +
                         std::to_string(Quantile(&w, 0.95)) + ", generator start lateness p95 ms " +
                         std::to_string(Quantile(&start_late_ms, 0.95)) + ", compactions " +
                         std::to_string(counters_end.compactions - counters_start.compactions));
  if (!o.trace) {
    AddSetup(setup_s, &report);
    AddReadMetrics(all, measured_s, &report);
    report.Add("peak_rss_mb", rss, "MB");
  } else {
    TraceFigures f;
    std::vector<Span> spans;
    // Parents index into each recorder; rebase them while concatenating.
    auto append = [&spans](const SpanRecorder& rec) {
      const int32_t base = static_cast<int32_t>(spans.size());
      for (Span span : rec.spans()) {
        if (span.parent >= 0) span.parent += base;
        spans.push_back(std::move(span));
      }
    };
    for (size_t r = 0; r < kReaders; ++r) {
      append(reader_rec[r]);
      f.qerrors.insert(f.qerrors.end(), reader_qerrors[r].begin(), reader_qerrors[r].end());
    }
    f.session = Summarize(spans, "stmt.session");
    f.layers = Summarize(spans, "stmt.layers");
    f.writes = Summarize(writer_rec.spans(), "write");
    Phase a, b;
    for (size_t r = 0; r < kReaders; ++r) {
      a.Merge(reader_phase[r * 3 + 0]);
      b.Merge(reader_phase[r * 3 + 1]);
    }
    f.untraced_p50_ms = Median(a.latency_ms);
    f.traced_p50_ms = Median(b.latency_ms);
    f.SetSessionRates(counters_start, seen_session_end ? session_end : counters_end,
                      a.reads + b.reads, b.reads);
    f.compactions = counters_end.compactions - counters_start.compactions;
    f.versions_retired = counters_end.versions_retired - counters_start.versions_retired;
    f.write_ms = write_ms;
    AddLayerMetrics(f, &report);
    append(writer_rec);
    if (!o.trace_out.empty() && !WriteTrace(o.trace_out, spans)) {
      report.notes.push_back("could not write " + o.trace_out);
    }
  }
  return report;
}

// ------------------------------------------------------------ determinism

std::string StreamBytes(const std::string& workload, uint64_t seed, double seconds) {
  std::string out;
  if (workload == "olap_n10k") {
    for (const std::string& s : OlapStatements(seed)) out += s + "\n";
  } else if (workload == "adhoc_n100") {
    const AdhocStream a = AdhocStatements(seed, 100);
    for (const std::string& s : a.pool) out += s + "\n";
    for (uint32_t d : a.draws) out += std::to_string(d) + ",";
  } else if (workload == "serving_n1k") {
    std::unique_ptr<Database> db = MakeUniversityDb(kServingN, seed);
    const ServingStream st = ServingStatements(seed, *db, kReaders, kReadsPerReader, WritesFor(seconds));
    for (const std::string& s : st.queries) out += s + "\n";
    for (const auto& reads : st.readers) {
      for (const ServingRead& r : reads) out += r.literal_text + "\n";
    }
    for (const std::string& w : st.writes) out += w + "\n";
  }
  return out;
}

}  // namespace e2e
