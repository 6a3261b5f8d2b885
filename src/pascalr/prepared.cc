#include "pascalr/prepared.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "base/str_util.h"
#include "concurrency/plan_cache.h"
#include "concurrency/snapshot.h"
#include "obs/span_names.h"
#include "obs/system_relations.h"
#include "obs/trace.h"
#include "opt/explain.h"
#include "pascalr/session.h"
#include "semantics/binder.h"

namespace pascalr {

namespace {

const Schema kEmptySchema;

/// One line for the slow-query log: what kind of plan ran this.
std::string PlanSummary(const QueryPlan& plan, bool cache_hit) {
  return StrFormat("level=%s pipeline=%s cache=%s",
                   std::string(OptLevelToString(plan.level)).c_str(),
                   plan.pipeline ? "on" : "off", cache_hit ? "hit" : "miss");
}

}  // namespace

void PreparedQuery::State::RecordBoundRelations() {
  bound_relations.clear();
  for (const auto& [var, binding] : template_query.vars) {
    (void)var;
    bool seen = false;
    for (const auto& [name, id] : bound_relations) {
      (void)id;
      if (name == binding.relation_name) {
        seen = true;
        break;
      }
    }
    if (!seen && binding.relation != nullptr) {
      bound_relations.emplace_back(binding.relation_name,
                                   binding.relation->id());
    }
  }
}

Status PreparedQuery::State::Rebind(const Database* db) {
  Binder binder(db);
  PASCALR_ASSIGN_OR_RETURN(BoundQuery rebound,
                           binder.Bind(raw_selection.Clone()));
  template_query = std::move(rebound);
  param_types = template_query.params;
  RecordBoundRelations();
  planned.reset();
  last_bindings.clear();
  ++stats.rebinds;
  return Status::OK();
}

Status PreparedQuery::EnsurePlan(const ParamBindings& params,
                                 bool* cache_hit) {
  *cache_hit = false;
  if (session_ == nullptr || state_ == nullptr) {
    return Status::InvalidArgument("prepared query is empty");
  }
  State& st = *state_;
  Database& db = *session_->db_;
  PASCALR_ASSIGN_OR_RETURN(ParamBindings bound,
                           CheckParamBindings(st.param_types, params));

  // 1. Template validity: every referenced relation must still be the
  // object the binder resolved. A re-created relation gets a fresh id;
  // rebind against it (one bind, no re-parse). A missing one is an error.
  bool template_ok = true;
  for (const auto& [name, id] : st.bound_relations) {
    Relation* rel = db.FindRelation(name);
    if (rel == nullptr) {
      return Status::NotFound("prepared query references dropped relation '" +
                              name + "'");
    }
    if (rel->id() != id) {
      template_ok = false;
      break;
    }
  }
  if (!template_ok) PASCALR_RETURN_IF_ERROR(st.Rebind(&db));

  // 2. Private plan cache: one CheckPlan (opt/plan_stamp.h) under our
  // snapshot and bindings. A hit re-patches the parameter slots in place —
  // the whole fast path: no parse, no normalization, no plan search.
  const PlannerOptions& options = session_->options_;
  auto count_hit = [&](PlanValidity validity, const char* counter) {
    *cache_hit = true;
    ++st.stats.plan_cache_hits;
    session_->metrics_.counter(counter).Inc();
    if (validity == PlanValidity::kRevalidated) {
      ++st.stats.revalidations;
      session_->metrics_.counter("plan_cache.revalidations").Inc();
    }
  };
  if (st.planned != nullptr) {
    const bool rebound = bound != st.last_bindings;
    PASCALR_ASSIGN_OR_RETURN(
        PlanValidity validity,
        CheckPlan(db, options, st.planned->verdicts, bound, rebound,
                  &st.stamp));
    if (validity != PlanValidity::kStale) {
      if (rebound) {
        PatchPlanParams(&st.planned->plan, bound);
        st.last_bindings = std::move(bound);
      }
      count_hit(validity, "plan_cache.hits");
      return Status::OK();
    }
  }

  // 2b. Shared plan cache (concurrent serving only): another session may
  // already have compiled this exact selection under these options. The
  // cache stores, the adopter judges: the same CheckPlan runs on a copy of
  // the entry's stamp under OUR snapshot and OUR bindings, and the plan is
  // cloned before parameter patching (sessions never share a mutable plan
  // object).
  const bool shared_cache_on = db.serving();
  std::string shared_key;
  if (shared_cache_on) {
    shared_key = st.source + "|" + EncodePlannerOptions(options);
    SharedPlanEntry entry;
    if (db.shared_plans().Lookup(shared_key, &entry)) {
      PlanStamp stamp = *entry.stamp;
      PASCALR_ASSIGN_OR_RETURN(
          PlanValidity validity,
          CheckPlan(db, options, entry.planned->verdicts, bound,
                    /*bindings_changed=*/true, &stamp));
      if (validity != PlanValidity::kStale) {
        st.planned =
            std::make_shared<PlannedQuery>(ClonePlannedQuery(*entry.planned));
        PatchPlanParams(&st.planned->plan, bound);
        st.last_bindings = std::move(bound);
        st.stamp = std::move(stamp);
        db.shared_plans().RecordHit();
        count_hit(validity, "plan_cache.shared_hits");
        return Status::OK();
      }
    }
    db.shared_plans().RecordMiss();
  }
  session_->metrics_.counter("plan_cache.misses").Inc();

  // 3. (Re)plan under the current values: substitute them into a clone of
  // the template and run the full pipeline — under OptLevel::kAuto the
  // plan search estimates selectivity from these very values.
  BoundQuery query = CloneBoundQuery(st.template_query);
  PASCALR_RETURN_IF_ERROR(BindSelectionParams(&query.selection, bound));
  PASCALR_ASSIGN_OR_RETURN(PlannedQuery planned,
                           PlanQuery(db, std::move(query), options));
  st.planned = std::make_shared<PlannedQuery>(std::move(planned));
  ++st.stats.plan_compiles;
  st.last_bindings = std::move(bound);
  st.stamp = StampPlan(db, options, st.bound_relations);

  // Publish the fresh plan to the shared cache as an independent clone —
  // our own copy keeps being parameter-patched in place, the shared one
  // must stay frozen for other sessions to clone from.
  if (shared_cache_on) {
    SharedPlanEntry entry;
    entry.planned =
        std::make_shared<const PlannedQuery>(ClonePlannedQuery(*st.planned));
    entry.stamp = std::make_shared<const PlanStamp>(st.stamp);
    db.shared_plans().Insert(shared_key, std::move(entry));
  }
  return Status::OK();
}

Result<PreparedExecution> PreparedQuery::Execute(const ParamBindings& params) {
  if (session_ == nullptr || state_ == nullptr) {
    return Status::InvalidArgument("prepared query is empty");
  }
  // Direct C++ entry point: install the session tracer (a no-op re-install
  // under the statement path) and open an "execute" trace — nested as a
  // span when Session::Query already opened the query's trace.
  PASCALR_RETURN_IF_ERROR(
      RefreshSystemViewsForSource(session_->db_, state_->source));
  ScopedSystemViewPin pin;
  ScopedTracerInstall install_tracer(session_->active_tracer());
  // One consistent read point for plan validation AND execution (reuses
  // the caller's when one is already installed; null while serving is
  // off). Captured before any catalog or relation read below.
  ScopedSnapshotInstall install_snapshot(session_->db_->SnapshotForRead());
  QueryTraceGuard query_guard(spans::kExecute, "");
  const auto t0 = std::chrono::steady_clock::now();
  bool cache_hit = false;
  PASCALR_RETURN_IF_ERROR(EnsurePlan(params, &cache_hit));
  ++state_->stats.executes;
  std::shared_ptr<const QueryPlan> plan(state_->planned,
                                        &state_->planned->plan);
  PASCALR_ASSIGN_OR_RETURN(
      Cursor cursor, Cursor::Open(std::move(plan), *session_->db_, nullptr));
  PreparedExecution out;
  out.plan_cache_hit = cache_hit;
  const Snapshot* snap = CurrentSnapshot();
  out.snapshot_version = snap == nullptr ? 0 : snap->db_version;
  Tuple tuple;
  while (true) {
    PASCALR_ASSIGN_OR_RETURN(bool more, cursor.Next(&tuple));
    if (!more) break;
    out.tuples.push_back(std::move(tuple));
  }
  out.stats = cursor.stats();
  if (!cache_hit) out.stats.replans = state_->planned->replans;
  out.collection = cursor.ReleaseCollection();
  cursor.Close();
  session_->total_stats_.Merge(out.stats);
  // Metrics feed: every executed query records its latency; the work
  // counters that vary with the collection policy ride along so METRICS
  // shows lazy-build savings without a trace.
  MetricsRegistry& metrics = session_->metrics_;
  metrics.counter("query.count").Inc();
  const uint64_t latency_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  metrics.histogram("query.latency_us").Record(latency_us);
  // Server-wide fold: this run's whole story — latency, rows, counters,
  // cache verdict — becomes one observation on the statement's
  // sys$statements row (and the slow log, when armed).
  session_->FoldStatementStats(state_->source, latency_us,
                               out.tuples.size(), out.stats, cache_hit,
                               /*max_qerror=*/0.0,
                               PlanSummary(state_->planned->plan, cache_hit));
  if (out.stats.replans > 0) {
    metrics.counter("query.replans").Inc(out.stats.replans);
  }
  if (out.stats.structures_built > 0) {
    metrics.counter("collection.structures_built")
        .Inc(out.stats.structures_built);
  }
  if (out.stats.structure_elements_built > 0) {
    metrics.counter("collection.elements_built")
        .Inc(out.stats.structure_elements_built);
  }
  return out;
}

Result<Cursor> PreparedQuery::OpenCursor(const ParamBindings& params) {
  if (session_ == nullptr || state_ == nullptr) {
    return Status::InvalidArgument("prepared query is empty");
  }
  PASCALR_RETURN_IF_ERROR(
      RefreshSystemViewsForSource(session_->db_, state_->source));
  ScopedSystemViewPin pin;
  ScopedTracerInstall install_tracer(session_->active_tracer());
  const auto t0 = std::chrono::steady_clock::now();
  // The cursor captures the ambient snapshot at Open and re-installs it
  // for every Next/Close, so a half-drained cursor keeps its read point
  // after this guard unwinds.
  ScopedSnapshotInstall install_snapshot(session_->db_->SnapshotForRead());
  // No QueryTraceGuard here: the cursor outlives this call, so its drain
  // is recorded as one complete span at Cursor::Close instead.
  bool cache_hit = false;
  PASCALR_RETURN_IF_ERROR(EnsurePlan(params, &cache_hit));
  ++state_->stats.executes;
  session_->metrics_.counter("query.count").Inc();
  std::shared_ptr<const QueryPlan> plan(state_->planned,
                                        &state_->planned->plan);
  PASCALR_ASSIGN_OR_RETURN(
      Cursor cursor,
      Cursor::Open(std::move(plan), *session_->db_,
                   &session_->total_stats_));
  // The fold happens when the cursor closes — also for a half-drained
  // cursor the client abandons — so open-cursor latency covers plan +
  // drain, and rows are whatever was actually emitted. The hook must not
  // outlive the session (the cursor already must not, see class docs).
  Session* session = session_;
  std::shared_ptr<State> state = state_;
  std::string summary = PlanSummary(state_->planned->plan, cache_hit);
  cursor.set_close_hook(
      [session, state = std::move(state), t0, cache_hit,
       summary = std::move(summary)](const ExecStats& stats, uint64_t rows) {
        const uint64_t latency_us = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        session->FoldStatementStats(state->source, latency_us, rows, stats,
                                    cache_hit, /*max_qerror=*/0.0, summary);
      });
  return cursor;
}

Result<std::string> PreparedQuery::Explain(const ParamBindings& params) {
  if (session_ == nullptr || state_ == nullptr) {
    return Status::InvalidArgument("prepared query is empty");
  }
  ScopedSnapshotInstall install_snapshot(session_->db_->SnapshotForRead());
  // With a plan already cached, explain it as-is — no bindings needed
  // (and none validated); otherwise plan with the given params first.
  if (state_->planned == nullptr) {
    bool cache_hit = false;
    PASCALR_RETURN_IF_ERROR(EnsurePlan(params, &cache_hit));
  }
  return ExplainPlan(*state_->planned);
}

void PreparedQuery::InvalidatePlan() {
  if (state_ == nullptr) return;
  state_->planned.reset();
  state_->last_bindings.clear();
}

const Schema& PreparedQuery::output_schema() const {
  return state_ == nullptr ? kEmptySchema : state_->template_query.output_schema;
}

std::vector<std::string> PreparedQuery::param_names() const {
  std::vector<std::string> out;
  if (state_ != nullptr) {
    for (const auto& [name, type] : state_->param_types) {
      (void)type;
      out.push_back(name);
    }
  }
  return out;
}

const std::map<std::string, Type>& PreparedQuery::param_types() const {
  static const std::map<std::string, Type> kEmpty;
  return state_ == nullptr ? kEmpty : state_->param_types;
}

const PreparedStats& PreparedQuery::stats() const {
  static const PreparedStats kEmpty;
  return state_ == nullptr ? kEmpty : state_->stats;
}

const PlannedQuery* PreparedQuery::planned() const {
  return state_ == nullptr ? nullptr : state_->planned.get();
}

PlannedQuery PreparedQuery::TakePlanned() {
  if (state_ == nullptr || state_->planned == nullptr) return PlannedQuery();
  PlannedQuery out = std::move(*state_->planned);
  state_->planned.reset();
  return out;
}

}  // namespace pascalr
