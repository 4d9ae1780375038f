#include "corelib/invariants.h"

#include <string>
#include <vector>

namespace avt {

bool CheckVertexCertificate(const Graph& graph, const KOrder& order,
                            VertexId v, InvariantReport* report) {
  const uint32_t level = order.CoreOf(v);
  const uint64_t tag = order.TagOf(v);
  uint32_t mcd = 0;       // neighbours at level >= level(v)
  uint32_t deg_plus = 0;  // neighbours after v in the K-order
  // Branch-free: whether a neighbour sits below, at or above v's level
  // is unpredictable, and a mispredict costs more than the arithmetic.
  // "After v" is KOrder::Precedes(v, w): a higher level, or the same
  // level and a larger tag.
  for (VertexId w : graph.Neighbors(v)) {
    const uint32_t w_level = order.CoreOf(w);
    mcd += w_level >= level;
    deg_plus += (w_level > level) |
                ((w_level == level) & (order.TagOf(w) > tag));
  }
  if (mcd < level) {
    report->Fail("core mismatch at vertex " + std::to_string(v) +
                 ": index says " + std::to_string(level) + ", but only " +
                 std::to_string(mcd) + " neighbours are at that level or "
                 "above");
    return false;
  }
  if (deg_plus != order.DegPlus(v)) {
    report->Fail("stale deg+ at vertex " + std::to_string(v) + ": stored " +
                 std::to_string(order.DegPlus(v)) + ", actual " +
                 std::to_string(deg_plus));
    return false;
  }
  if (deg_plus > level) {
    report->Fail("peel-order violation at vertex " + std::to_string(v) +
                 ": deg+ " + std::to_string(deg_plus) + " > core " +
                 std::to_string(level));
    return false;
  }
  return true;
}

InvariantReport CheckKOrderInvariants(const Graph& graph,
                                      const KOrder& order) {
  InvariantReport report;
  const VertexId n = graph.NumVertices();
  if (order.NumVertices() != n) {
    report.Fail("vertex count mismatch");
    return report;
  }

  // 1. Level lists: linkage, tag monotonicity, size, full coverage.
  std::vector<uint8_t> seen(n, 0);
  uint64_t total = 0;
  for (uint32_t level = 0; level <= order.MaxLevel(); ++level) {
    uint32_t count = 0;
    VertexId prev = kNoVertex;
    for (VertexId v = order.LevelFront(level); v != kNoVertex;
         v = order.NextInLevel(v)) {
      if (seen[v]) {
        report.Fail("vertex " + std::to_string(v) + " appears twice");
        return report;
      }
      seen[v] = 1;
      if (order.CoreOf(v) != level) {
        report.Fail("vertex " + std::to_string(v) + " in wrong level list");
        return report;
      }
      if (order.PrevInLevel(v) != prev) {
        report.Fail("broken prev link at vertex " + std::to_string(v));
        return report;
      }
      if (prev != kNoVertex && order.TagOf(prev) >= order.TagOf(v)) {
        report.Fail("non-monotone tags at vertex " + std::to_string(v));
        return report;
      }
      prev = v;
      ++count;
    }
    if (order.LevelBack(level) != prev) {
      report.Fail("tail mismatch at level " + std::to_string(level));
      return report;
    }
    if (count != order.LevelSize(level)) {
      report.Fail("size counter mismatch at level " + std::to_string(level));
      return report;
    }
    total += count;
  }
  if (total != n) {
    report.Fail("level lists cover " + std::to_string(total) + " of " +
                std::to_string(n) + " vertices");
    return report;
  }

  // 2–4. The two-sided core certificate plus deg+ and peel order. It
  // relies on (level, tag) being a strict total order over all
  // vertices, which check 1 establishes.
  for (VertexId v = 0; v < n; ++v) {
    if (!CheckVertexCertificate(graph, order, v, &report)) return report;
  }
  return report;
}

}  // namespace avt
