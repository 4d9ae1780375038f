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

namespace {

// Check 1's conditions at v, each reading only v, its two links and its
// level's head and tail (docs/ARCHITECTURE.md, "The level lists are
// checked link by link"). n bounds the link targets.
bool CheckLinks(const KOrder& order, VertexId n, VertexId v,
                InvariantReport* report) {
  const uint32_t level = order.CoreOf(v);
  const VertexId next = order.NextInLevel(v);
  if (next == kNoVertex) {
    if (order.LevelBack(level) != v) {
      report->Fail("tail mismatch at level " + std::to_string(level));
      return false;
    }
  } else if (next >= n) {
    report->Fail("broken next link at vertex " + std::to_string(v));
    return false;
  } else if (order.CoreOf(next) != level) {
    report->Fail("vertex " + std::to_string(next) + " in wrong level list");
    return false;
  } else if (order.TagOf(next) <= order.TagOf(v)) {
    report->Fail("non-monotone tags at vertex " + std::to_string(next));
    return false;
  }
  const VertexId prev = order.PrevInLevel(v);
  if (prev == kNoVertex) {
    if (order.LevelFront(level) != v) {
      report->Fail("head mismatch at level " + std::to_string(level));
      return false;
    }
  } else if (prev >= n || order.NextInLevel(prev) != v) {
    report->Fail("broken prev link at vertex " + std::to_string(v));
    return false;
  }
  return true;
}

// One fixed block of vertex ids: the first failure in it, and how many
// of its vertices sit at each level up to the top one.
struct BlockResult {
  InvariantReport report;
  std::vector<uint32_t> level_count;
};

}  // namespace

InvariantReport CheckKOrderInvariants(const Graph& graph, const KOrder& order,
                                      ThreadPool* pool) {
  InvariantReport report;
  const VertexId n = graph.NumVertices();
  if (order.NumVertices() != n) {
    report.Fail("vertex count mismatch");
    return report;
  }

  // Per vertex in id order: check 1's link conditions, then checks 2–4.
  // Each block stops at its first failure, so the lowest failing block
  // holds the failure at the lowest failing id, whatever the split.
  const uint32_t top = order.MaxLevel();
  const uint32_t blocks = pool != nullptr ? pool->num_threads() : 1;
  std::vector<BlockResult> results(blocks);
  auto run_block = [&](uint32_t block) {
    BlockResult& result = results[block];
    result.level_count.assign(top + 1, 0);
    const VertexId end =
        static_cast<VertexId>(ThreadPool::BlockEnd(n, blocks, block));
    for (VertexId v = static_cast<VertexId>(
             ThreadPool::BlockBegin(n, blocks, block));
         v < end; ++v) {
      if (!CheckLinks(order, n, v, &result.report) ||
          !CheckVertexCertificate(graph, order, v, &result.report)) {
        return;
      }
      // A vertex above the top level is left uncounted: following its
      // prev links reaches a head at that level, whose null front fails
      // the head condition, so the counters below never run.
      const uint32_t level = order.CoreOf(v);
      if (level <= top) ++result.level_count[level];
    }
  };
  if (pool != nullptr) {
    pool->Run(run_block);
  } else {
    run_block(0);
  }
  for (const BlockResult& result : results) {
    if (!result.report.ok) return result.report;
  }

  // The counters: each level's size is its population, and an empty
  // level has neither head nor tail.
  for (uint32_t level = 0; level <= top; ++level) {
    uint32_t count = 0;
    for (const BlockResult& result : results) {
      count += result.level_count[level];
    }
    if (count != order.LevelSize(level)) {
      report.Fail("size counter mismatch at level " + std::to_string(level));
      return report;
    }
    if (count == 0 && (order.LevelFront(level) != kNoVertex ||
                       order.LevelBack(level) != kNoVertex)) {
      report.Fail("empty level " + std::to_string(level) +
                  " has a head or tail");
      return report;
    }
  }
  return report;
}

}  // namespace avt
