// Process-wide counters of query-compilation work: how many times the
// expensive pre-execution stages ran. The prepared-query layer
// (pascalr/prepared.h) exists to make re-executions skip all of them, and
// its tests assert exactly that — a cached Execute must move none of these
// counters.
//
// The live counters are relaxed atomics so concurrent sessions can bump
// them without racing (they are pure work tallies — no ordering is implied
// or needed). CompileCounters stays a plain snapshot struct: assigning or
// passing AtomicCompileCounters where a CompileCounters is expected takes
// an implicit point-in-time copy, so every existing
// `CompileCounters before = GlobalCompileCounters();` call site keeps its
// meaning.

#ifndef PASCALR_BASE_COUNTERS_H_
#define PASCALR_BASE_COUNTERS_H_

#include <atomic>
#include <cstdint>

namespace pascalr {

/// A point-in-time snapshot of the compilation-work tallies.
struct CompileCounters {
  uint64_t parses = 0;           ///< Parser tokenize+parse passes
  uint64_t binds = 0;            ///< Binder::Bind resolutions
  uint64_t standard_forms = 0;   ///< standard-form (re)normalisations
  /// Concrete-level plans: one per fixed-level PlanQuery, and one per
  /// kAuto candidate that is not pruned (failed ones included), as if
  /// each were planned standalone. The search shares compile work between
  /// candidates; that sharing shows in standard_forms and
  /// collection_walks instead.
  uint64_t plans = 0;
  uint64_t plan_searches = 0;    ///< kAuto plan-search invocations
  uint64_t collection_walks = 0; ///< cost-model collection-phase walks
};

/// The live, thread-safe tallies. Field-for-field mirror of
/// CompileCounters; converts to one implicitly (a relaxed snapshot —
/// fields racing concurrent increments may be from adjacent instants,
/// which is fine for work deltas).
struct AtomicCompileCounters {
  std::atomic<uint64_t> parses{0};
  std::atomic<uint64_t> binds{0};
  std::atomic<uint64_t> standard_forms{0};
  std::atomic<uint64_t> plans{0};
  std::atomic<uint64_t> plan_searches{0};
  std::atomic<uint64_t> collection_walks{0};

  operator CompileCounters() const {
    // Relaxed: pure work tallies, read in isolation — a snapshot racing
    // concurrent increments may pair fields from adjacent instants, and
    // no caller infers other memory state from the values. (Bumps use
    // seq-cst operator++ at the half-dozen compile-stage call sites,
    // where a stronger-than-needed order costs nothing measurable.)
    CompileCounters snap;
    snap.parses = parses.load(std::memory_order_relaxed);
    snap.binds = binds.load(std::memory_order_relaxed);
    snap.standard_forms = standard_forms.load(std::memory_order_relaxed);
    snap.plans = plans.load(std::memory_order_relaxed);
    snap.plan_searches = plan_searches.load(std::memory_order_relaxed);
    snap.collection_walks = collection_walks.load(std::memory_order_relaxed);
    return snap;
  }
};

inline AtomicCompileCounters& GlobalCompileCounters() {
  static AtomicCompileCounters counters;
  return counters;
}

}  // namespace pascalr

#endif  // PASCALR_BASE_COUNTERS_H_
