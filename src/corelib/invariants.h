// Structural and semantic invariant checks for the K-order index.
//
// Used pervasively in tests, and by the sentinel auditor (core/health.h)
// on live trackers, to verify that incremental maintenance leaves the
// index in a state indistinguishable from a fresh rebuild — in O(n + m)
// with no peel and no walk along the level lists: one pass over the
// vertices in id order checks conditions that each read only a vertex,
// its neighbours, its two list links and its level's head and tail:
//   1. the level lists: the next vertex is in range, at the same level
//      and has a larger tag, a vertex without one is its level's tail,
//      the previous vertex links forward to this one, and a vertex
//      without one is its level's head; after the pass, every level's
//      size counter equals its population and an empty level has no
//      head or tail. Together these hold iff walking each level from
//      its head visits exactly that level's vertices, linked both ways
//      in increasing tag order, ending at its tail;
//   2. level membership equals the true core number, certified from
//      both sides by local conditions: mcd(v) = |{w ∈ N(v) : level(w) >=
//      level(v)}| >= level(v) rules out a level above the core, and
//   3. stored deg+ values match a fresh recount, and
//   4. the order is a valid peel order, deg+(v) <= level(v), which
//      rules out a level below the core.
// Checks 2–4 together pass iff the levels equal a fresh DecomposeCores
// and 3–4 hold (docs/ARCHITECTURE.md, "Correctness arguments", has
// both arguments).
//
// Because every per-vertex condition is local, the pass splits into
// fixed blocks of vertex ids run on a ThreadPool. The reported failure
// is the one at the lowest failing vertex id (its list conditions
// before its certificate), then the counters level by level, so the
// verdict and its text are the same with no pool and at every worker
// count.

#ifndef AVT_CORELIB_INVARIANTS_H_
#define AVT_CORELIB_INVARIANTS_H_

#include <string>

#include "corelib/korder.h"
#include "graph/graph.h"
#include "util/thread_pool.h"

namespace avt {

/// Result of an invariant sweep; `ok` plus a first-failure description.
struct InvariantReport {
  bool ok = true;
  std::string failure;

  void Fail(std::string message) {
    if (ok) {
      ok = false;
      failure = std::move(message);
    }
  }
};

/// Runs all checks; O(n + m), no decomposition. With a pool, the
/// per-vertex pass runs as one block per worker (the caller is worker
/// 0); the pool must be idle. The report is the same either way.
InvariantReport CheckKOrderInvariants(const Graph& graph, const KOrder& order,
                                      ThreadPool* pool = nullptr);

/// Checks 2–4 at one vertex in O(deg v): mcd(v) >= level(v) ("core
/// mismatch"), stored deg+ equal to a recount ("stale deg+"), and
/// deg+(v) <= level(v) ("peel-order violation"). Returns false and
/// records the first failing condition in `report`. Requires
/// `order.NumVertices() == graph.NumVertices()`.
bool CheckVertexCertificate(const Graph& graph, const KOrder& order,
                            VertexId v, InvariantReport* report);

}  // namespace avt

#endif  // AVT_CORELIB_INVARIANTS_H_
