// Decomposition-based reference verdict for the K-order invariants: the
// check CheckKOrderInvariants made before it became a linear-time
// certificate. Every level equals a fresh DecomposeCores core number,
// the level lists are consistent, every stored deg+ matches a recount,
// and deg+(v) <= core(v). Shared by the suites that pin the certificate
// (and the sentinel audit built on it) to this verdict.

#ifndef AVT_TESTS_INVARIANTS_REFERENCE_H_
#define AVT_TESTS_INVARIANTS_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "corelib/decomposition.h"
#include "corelib/korder.h"
#include "graph/graph.h"

namespace avt {

/// The reference verdict split by condition, so a test can tell which
/// class of defect a corrupted state carries.
struct ReferenceVerdict {
  bool lists = true;     ///< linkage, tags, sizes, coverage
  bool cores = true;     ///< levels == DecomposeCores(graph).core
  bool deg_plus = true;  ///< stored deg+ == recount
  bool peel = true;      ///< recount <= level

  bool ok() const { return lists && cores && deg_plus && peel; }
};

inline ReferenceVerdict ReferenceCheck(const Graph& graph,
                                       const KOrder& order) {
  ReferenceVerdict verdict;
  const VertexId n = graph.NumVertices();
  if (order.NumVertices() != n) {
    verdict.lists = false;
    return verdict;
  }

  std::vector<uint8_t> seen(n, 0);
  uint64_t total = 0;
  for (uint32_t level = 0; level <= order.MaxLevel() && verdict.lists;
       ++level) {
    uint32_t count = 0;
    VertexId prev = kNoVertex;
    for (VertexId v = order.LevelFront(level); v != kNoVertex;
         v = order.NextInLevel(v)) {
      if (seen[v] || order.CoreOf(v) != level ||
          order.PrevInLevel(v) != prev ||
          (prev != kNoVertex && order.TagOf(prev) >= order.TagOf(v))) {
        verdict.lists = false;
        break;
      }
      seen[v] = 1;
      prev = v;
      ++count;
    }
    if (order.LevelBack(level) != prev || count != order.LevelSize(level)) {
      verdict.lists = false;
    }
    total += count;
  }
  if (total != n) verdict.lists = false;

  const CoreDecomposition fresh = DecomposeCores(graph);
  for (VertexId v = 0; v < n; ++v) {
    if (order.CoreOf(v) != fresh.core[v]) verdict.cores = false;
    uint32_t recount = 0;
    for (VertexId w : graph.Neighbors(v)) {
      if (order.Precedes(v, w)) ++recount;
    }
    if (recount != order.DegPlus(v)) verdict.deg_plus = false;
    if (recount > order.CoreOf(v)) verdict.peel = false;
  }
  return verdict;
}

}  // namespace avt

#endif  // AVT_TESTS_INVARIANTS_REFERENCE_H_
