#include "obs/system_relations.h"

#include <algorithm>
#include <cctype>

#include "catalog/database.h"
#include "catalog/relation_stats.h"
#include "concurrency/snapshot.h"
#include "obs/stmt_stats.h"
#include "storage/relation.h"
#include "value/schema.h"
#include "value/type.h"
#include "value/value.h"

namespace pascalr {

namespace {

thread_local int g_pin_depth = 0;

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

Value V(uint64_t v) { return Value::MakeInt(static_cast<int64_t>(v)); }
Value V(const std::string& s) { return Value::MakeString(s); }

Component IntCol(const char* name) { return Component{name, Type::Int()}; }
Component StrCol(const char* name) { return Component{name, Type::String()}; }
Component BoolCol(const char* name) { return Component{name, Type::Bool()}; }

// ---- sys$statements ---------------------------------------------------
// The linter's execstats-sysstatements rule parses this schema block:
// every ExecStats counter field must appear as a column, so a counter
// added to exec/stats.h cannot silently stay invisible to the telemetry
// surface.
Result<Schema> StatementsSchema() {
  return Schema::Make(
      {StrCol("fingerprint"), IntCol("calls"), IntCol("rows"),
       IntCol("total_us"), IntCol("mean_us"), IntCol("p50_us"),
       IntCol("p95_us"), IntCol("p99_us"), IntCol("max_us"),
       IntCol("plan_hits"), IntCol("plan_misses"), IntCol("qerror_max_x100"),
       IntCol("relations_read"), IntCol("elements_scanned"),
       IntCol("index_probes"), IntCol("single_list_refs"),
       IntCol("indirect_join_refs"), IntCol("combination_rows"),
       IntCol("division_input_rows"), IntCol("quantifier_probes"),
       IntCol("comparisons"), IntCol("dereferences"), IntCol("replans"),
       IntCol("permanent_index_hits"), IntCol("structures_built"),
       IntCol("structure_elements_built"), IntCol("batches_emitted"),
       IntCol("morsels_dispatched"), IntCol("peak_intermediate_rows"),
       IntCol("total_work")},
      {"fingerprint"});
}

Status FillStatements(Database* db, Relation* rel) {
  for (const StmtStatsSnapshot& s : db->stmt_stats().SnapshotAll()) {
    Tuple t;
    t.Append(V(s.fingerprint));
    t.Append(V(s.calls));
    t.Append(V(s.rows));
    t.Append(V(s.total_us));
    t.Append(V(s.mean_us));
    t.Append(V(s.p50_us));
    t.Append(V(s.p95_us));
    t.Append(V(s.p99_us));
    t.Append(V(s.max_us));
    t.Append(V(s.plan_hits));
    t.Append(V(s.plan_misses));
    t.Append(V(s.max_qerror_x100));
    t.Append(V(s.counters.relations_read));
    t.Append(V(s.counters.elements_scanned));
    t.Append(V(s.counters.index_probes));
    t.Append(V(s.counters.single_list_refs));
    t.Append(V(s.counters.indirect_join_refs));
    t.Append(V(s.counters.combination_rows));
    t.Append(V(s.counters.division_input_rows));
    t.Append(V(s.counters.quantifier_probes));
    t.Append(V(s.counters.comparisons));
    t.Append(V(s.counters.dereferences));
    t.Append(V(s.counters.replans));
    t.Append(V(s.counters.permanent_index_hits));
    t.Append(V(s.counters.structures_built));
    t.Append(V(s.counters.structure_elements_built));
    t.Append(V(s.counters.batches_emitted));
    t.Append(V(s.counters.morsels_dispatched));
    t.Append(V(s.counters.peak_intermediate_rows));
    t.Append(V(s.counters.TotalWork()));
    PASCALR_ASSIGN_OR_RETURN(Ref ignored, rel->Insert(std::move(t)));
    (void)ignored;
  }
  return Status::OK();
}

// ---- sys$metrics ------------------------------------------------------
Result<Schema> MetricsSchema() {
  return Schema::Make(
      {StrCol("name"), StrCol("kind"), IntCol("value"), IntCol("count"),
       IntCol("mean"), IntCol("p50"), IntCol("p95"), IntCol("p99"),
       IntCol("max")},
      {"name", "kind"});
}

Status InsertMetricRow(Relation* rel, const std::string& name,
                       const char* kind, uint64_t value, uint64_t count = 0,
                       uint64_t mean = 0, uint64_t p50 = 0, uint64_t p95 = 0,
                       uint64_t p99 = 0, uint64_t max = 0) {
  Tuple t;
  t.Append(V(name));
  t.Append(Value::MakeString(kind));
  t.Append(V(value));
  t.Append(V(count));
  t.Append(V(mean));
  t.Append(V(p50));
  t.Append(V(p95));
  t.Append(V(p99));
  t.Append(V(max));
  PASCALR_ASSIGN_OR_RETURN(Ref ignored, rel->Insert(std::move(t)));
  (void)ignored;
  return Status::OK();
}

Status FillMetrics(Database* db, Relation* rel) {
  const MetricsRegistry& m = db->server_metrics();
  for (const auto& [name, value] : m.CountersSnapshot()) {
    PASCALR_RETURN_IF_ERROR(InsertMetricRow(rel, name, "counter", value));
  }
  for (const auto& [name, value] : m.GaugesSnapshot()) {
    PASCALR_RETURN_IF_ERROR(
        InsertMetricRow(rel, name, "gauge", static_cast<uint64_t>(value)));
  }
  for (const auto& [name, h] : m.HistogramsSnapshot()) {
    PASCALR_RETURN_IF_ERROR(InsertMetricRow(rel, name, "histogram", h.sum,
                                            h.count, h.mean, h.p50, h.p95,
                                            h.p99, h.max));
  }
  // The concurrency layer's process counters ride along so one relation
  // answers "what is this server doing" without a second surface.
  const ConcurrencyCounters::View c = db->ConcurrencyCountersView();
  PASCALR_RETURN_IF_ERROR(InsertMetricRow(
      rel, "concurrency.snapshots_taken", "counter", c.snapshots_taken));
  PASCALR_RETURN_IF_ERROR(InsertMetricRow(rel, "concurrency.delta_merges",
                                          "counter", c.delta_merges));
  PASCALR_RETURN_IF_ERROR(InsertMetricRow(rel, "concurrency.compactions",
                                          "counter", c.compactions));
  PASCALR_RETURN_IF_ERROR(InsertMetricRow(rel, "concurrency.versions_retired",
                                          "counter", c.versions_retired));
  PASCALR_RETURN_IF_ERROR(InsertMetricRow(rel, "concurrency.write_statements",
                                          "counter", c.write_statements));
  PASCALR_RETURN_IF_ERROR(InsertMetricRow(rel, "plan_cache.shared_hits",
                                          "counter", c.shared_plan_hits));
  PASCALR_RETURN_IF_ERROR(InsertMetricRow(rel, "plan_cache.shared_misses",
                                          "counter", c.shared_plan_misses));
  PASCALR_RETURN_IF_ERROR(InsertMetricRow(rel, "slow_log.recorded", "counter",
                                          db->slow_log().recorded()));
  PASCALR_RETURN_IF_ERROR(InsertMetricRow(rel, "slow_log.threshold_us",
                                          "gauge",
                                          db->slow_log().threshold_us()));
  return Status::OK();
}

// ---- sys$relations ----------------------------------------------------
Result<Schema> RelationsSchema() {
  return Schema::Make(
      {StrCol("name"), IntCol("id"), IntCol("arity"), IntCol("cardinality"),
       IntCol("mod_count"), BoolCol("has_fresh_stats"), IntCol("indexes")},
      {"name"});
}

Status FillRelations(Database* db, Relation* rel) {
  std::vector<Database::IndexDescription> indexes = db->ListIndexes();
  for (const std::string& name : db->RelationNames()) {
    // The user catalog only: listing the views themselves would report
    // mid-refresh states (this very relation is being rebuilt right now).
    if (IsSystemRelationName(name)) continue;
    Relation* r = db->FindRelation(name);
    if (r == nullptr) continue;
    size_t index_count = 0;
    for (const Database::IndexDescription& idx : indexes) {
      if (idx.relation == name) ++index_count;
    }
    Tuple t;
    t.Append(V(name));
    t.Append(V(static_cast<uint64_t>(r->id())));
    t.Append(V(r->schema().num_components()));
    t.Append(V(r->cardinality()));
    t.Append(V(r->mod_count()));
    t.Append(Value::MakeBool(db->FindFreshStats(name) != nullptr));
    t.Append(V(index_count));
    PASCALR_ASSIGN_OR_RETURN(Ref ignored, rel->Insert(std::move(t)));
    (void)ignored;
  }
  return Status::OK();
}

// ---- sys$plan_cache ---------------------------------------------------
Result<Schema> PlanCacheSchema() {
  return Schema::Make({StrCol("cache_key"), IntCol("stats_epoch"),
                       IntCol("relations"), IntCol("verdicts")},
                      {"cache_key"});
}

Status FillPlanCache(Database* db, Relation* rel) {
  for (const SharedPlanCache::Description& d : db->shared_plans().Describe()) {
    Tuple t;
    t.Append(V(d.key));
    t.Append(V(d.stats_epoch));
    t.Append(V(d.relations));
    t.Append(V(d.verdicts));
    PASCALR_ASSIGN_OR_RETURN(Ref ignored, rel->Insert(std::move(t)));
    (void)ignored;
  }
  return Status::OK();
}

// ---- sys$sessions -----------------------------------------------------
Result<Schema> SessionsSchema() {
  return Schema::Make({IntCol("id"), IntCol("queries"), IntCol("writes")},
                      {"id"});
}

Status FillSessions(Database* db, Relation* rel) {
  for (const SessionRegistry::Row& row : db->session_registry().SnapshotAll()) {
    Tuple t;
    t.Append(V(row.id));
    t.Append(V(row.queries));
    t.Append(V(row.writes));
    PASCALR_ASSIGN_OR_RETURN(Ref ignored, rel->Insert(std::move(t)));
    (void)ignored;
  }
  return Status::OK();
}

struct ViewDef {
  const char* name;
  Result<Schema> (*schema)();
  Status (*fill)(Database* db, Relation* rel);
};

constexpr ViewDef kViews[] = {
    {sysrel::kStatements, StatementsSchema, FillStatements},
    {sysrel::kMetrics, MetricsSchema, FillMetrics},
    {sysrel::kRelations, RelationsSchema, FillRelations},
    {sysrel::kPlanCache, PlanCacheSchema, FillPlanCache},
    {sysrel::kSessions, SessionsSchema, FillSessions},
};

const ViewDef* FindView(std::string_view name) {
  for (const ViewDef& view : kViews) {
    if (name == view.name) return &view;
  }
  return nullptr;
}

Status RefreshOne(Database* db, const ViewDef& view) {
  Relation* rel = db->FindRelation(view.name);
  if (rel == nullptr) {
    PASCALR_ASSIGN_OR_RETURN(Schema schema, view.schema());
    PASCALR_ASSIGN_OR_RETURN(rel,
                             db->CreateRelation(view.name, std::move(schema)));
  }
  rel->Clear();
  return view.fill(db, rel);
}

/// Trivial statistics — cardinality plus per-column distinct counts — so
/// the cost model prices sys$ scans like any analyzed relation. Seeded
/// quietly (no stats-epoch bump): ordinary queries' cached plans must
/// survive telemetry refreshes, and plans over the views revalidate on
/// mod_count anyway (it changes every refresh).
void SeedTrivialStats(Database* db, const std::string& name) {
  Relation* rel = db->FindRelation(name);
  if (rel == nullptr) return;
  const Schema& schema = rel->schema();
  RelationStats stats;
  stats.relation = name;
  stats.cardinality = rel->cardinality();
  stats.columns.resize(schema.num_components());
  for (size_t i = 0; i < schema.num_components(); ++i) {
    stats.columns[i].name = schema.component(i).name;
    stats.columns[i].distinct = std::max<uint64_t>(1, stats.cardinality);
  }
  // Best-effort: a failed seed only costs estimate quality.
  (void)db->SeedStatsQuiet(std::move(stats));
}

}  // namespace

bool IsSystemRelationName(std::string_view name) {
  return name.rfind(sysrel::kPrefix, 0) == 0;
}

std::vector<std::string> SystemRelationNamesIn(std::string_view text) {
  std::vector<std::string> out;
  size_t pos = 0;
  while ((pos = text.find(sysrel::kPrefix, pos)) != std::string_view::npos) {
    if (pos > 0 && IsIdentChar(text[pos - 1])) {
      // Mid-identifier (e.g. "mysys$x") — not a reference.
      ++pos;
      continue;
    }
    size_t end = pos;
    while (end < text.size() && IsIdentChar(text[end])) ++end;
    std::string name(text.substr(pos, end - pos));
    if (FindView(name) != nullptr &&
        std::find(out.begin(), out.end(), name) == out.end()) {
      out.push_back(std::move(name));
    }
    pos = end;
  }
  return out;
}

ScopedSystemViewPin::ScopedSystemViewPin() { ++g_pin_depth; }
ScopedSystemViewPin::~ScopedSystemViewPin() { --g_pin_depth; }

bool SystemViewsPinned() { return g_pin_depth > 0; }

Status RefreshSystemViews(Database* db,
                          const std::vector<std::string>& names) {
  if (db == nullptr || names.empty()) return Status::OK();
  {
    // One write statement per refresh: serialised against every other
    // writer, published atomically — a snapshot taken after this commit
    // sees all requested views at one consistent instant.
    Database::WriteStatementGuard guard = db->BeginWriteStatement();
    for (const std::string& name : names) {
      const ViewDef* view = FindView(name);
      if (view == nullptr) continue;
      PASCALR_RETURN_IF_ERROR(RefreshOne(db, *view));
    }
    guard.Commit();
  }
  for (const std::string& name : names) SeedTrivialStats(db, name);
  db->MaybeCompact();
  return Status::OK();
}

Status RefreshSystemViewsForSource(Database* db, std::string_view text) {
  if (db == nullptr || SystemViewsPinned()) return Status::OK();
  // An ambient snapshot predates any refresh we could make — the caller
  // up the stack materialized (or deliberately pinned its read point).
  if (CurrentSnapshot() != nullptr) return Status::OK();
  std::vector<std::string> names = SystemRelationNamesIn(text);
  if (names.empty()) return Status::OK();
  return RefreshSystemViews(db, names);
}

}  // namespace pascalr
