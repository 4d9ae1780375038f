// Structural and semantic invariant checks for the K-order index.
//
// Used pervasively in tests, and by the sentinel auditor (core/health.h)
// on live trackers, to verify that incremental maintenance leaves the
// index in a state indistinguishable from a fresh rebuild — in O(n + m)
// with no peel, as one walk along the level lists and one pass over
// each vertex's neighbours:
//   1. each level list is a consistent doubly-linked list with strictly
//      increasing tags and an accurate size counter, and the lists cover
//      every vertex exactly once;
//   2. level membership equals the true core number, certified from
//      both sides by local conditions: mcd(v) = |{w ∈ N(v) : level(w) >=
//      level(v)}| >= level(v) rules out a level above the core, and
//   3. stored deg+ values match a fresh recount, and
//   4. the order is a valid peel order, deg+(v) <= level(v), which
//      rules out a level below the core.
// Checks 2–4 together pass iff the levels equal a fresh DecomposeCores
// and 3–4 hold (docs/ARCHITECTURE.md, "Correctness arguments").

#ifndef AVT_CORELIB_INVARIANTS_H_
#define AVT_CORELIB_INVARIANTS_H_

#include <string>

#include "corelib/korder.h"
#include "graph/graph.h"

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

/// Runs all checks; O(n + m), no decomposition.
InvariantReport CheckKOrderInvariants(const Graph& graph,
                                      const KOrder& order);

/// Checks 2–4 at one vertex in O(deg v): mcd(v) >= level(v) ("core
/// mismatch"), stored deg+ equal to a recount ("stale deg+"), and
/// deg+(v) <= level(v) ("peel-order violation"). Returns false and
/// records the first failing condition in `report`. Requires
/// `order.NumVertices() == graph.NumVertices()`.
bool CheckVertexCertificate(const Graph& graph, const KOrder& order,
                            VertexId v, InvariantReport* report);

}  // namespace avt

#endif  // AVT_CORELIB_INVARIANTS_H_
