// Differential suite for the maintained Theorem-3 candidate index
// (anchor/candidate_index.h) and the IncAVT pool read off it.
//
// Two references, both computed from scratch after every delta:
//   * every verdict and every candidate-neighbour list of the index
//     against IsAnchorCandidate over the current graph and K-order;
//   * the tracker's pool against the definition of Algorithm 6 line 12,
//     built by the direct walk (every impacted vertex and every
//     neighbour, filtered by Theorem 3, minus the anchors at entry).
// The streams include the inputs that stress the index's bookkeeping:
// duplicate inserts, absent removals, self-loops, an edge inserted and
// deleted in one delta, hub edge removals, window-style deltas that
// replace most of the graph, universe growth and batched transactions.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "anchor/candidate_index.h"
#include "anchor/candidates.h"
#include "core/engine.h"
#include "core/inc_avt.h"
#include "gen/models.h"
#include "graph/delta.h"
#include "graph/delta_source.h"
#include "graph/snapshots.h"
#include "maint/maintainer.h"
#include "util/random.h"

namespace avt {
namespace {

Edge RandomPair(VertexId n, Rng& rng) {
  return Edge(static_cast<VertexId>(rng.Uniform(n)),
              static_cast<VertexId>(rng.Uniform(n)));
}

std::vector<Edge> EdgesOf(const Graph& g) {
  std::vector<Edge> edges;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

/// Churn with the malformed and self-cancelling operations a raw stream
/// can carry: random inserts (some duplicates of present edges, some
/// self-loops), removals of present edges and of absent pairs, and one
/// edge both inserted and deleted.
EdgeDelta MessyDelta(const Graph& g, Rng& rng) {
  const VertexId n = g.NumVertices();
  const std::vector<Edge> present = EdgesOf(g);
  EdgeDelta delta;
  const int ops = 4 + static_cast<int>(rng.Uniform(12));
  for (int i = 0; i < ops; ++i) {
    delta.insertions.push_back(RandomPair(n, rng));
    if (!present.empty()) {
      delta.deletions.push_back(present[rng.Uniform(present.size())]);
    }
  }
  if (!present.empty()) {
    delta.insertions.push_back(present[rng.Uniform(present.size())]);
  }
  const VertexId loop = static_cast<VertexId>(rng.Uniform(n));
  delta.insertions.push_back(Edge(loop, loop));
  delta.deletions.push_back(Edge(loop, loop));
  delta.deletions.push_back(RandomPair(n, rng));  // usually absent
  const Edge both = RandomPair(n, rng);
  delta.insertions.push_back(both);
  delta.deletions.push_back(both);
  delta.insertions.push_back(delta.insertions.front());  // duplicate
  return delta;
}

/// Removes most edges of the highest-degree vertices (churn removals are
/// degree-biased, so impacted sets always hold hubs) and adds a few
/// random edges back.
EdgeDelta HubDelta(const Graph& g, Rng& rng) {
  std::vector<VertexId> by_degree(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) by_degree[v] = v;
  std::sort(by_degree.begin(), by_degree.end(), [&g](VertexId a, VertexId b) {
    return g.Degree(a) != g.Degree(b) ? g.Degree(a) > g.Degree(b) : a < b;
  });
  EdgeDelta delta;
  for (size_t h = 0; h < 3 && h < by_degree.size(); ++h) {
    const VertexId hub = by_degree[h];
    for (VertexId w : g.Neighbors(hub)) {
      if (rng.Uniform(3) != 0) delta.deletions.emplace_back(hub, w);
    }
  }
  for (int i = 0; i < 10; ++i) {
    delta.insertions.push_back(RandomPair(g.NumVertices(), rng));
  }
  return delta;
}

/// A sliding-window step: most present edges leave and as many random
/// pairs arrive.
EdgeDelta WindowDelta(const Graph& g, Rng& rng) {
  const std::vector<Edge> present = EdgesOf(g);
  EdgeDelta delta;
  for (const Edge& e : present) {
    if (rng.Uniform(4) != 0) delta.deletions.push_back(e);
  }
  for (size_t i = 0; i < delta.deletions.size(); ++i) {
    delta.insertions.push_back(RandomPair(g.NumVertices(), rng));
  }
  return delta;
}

EdgeDelta NextDelta(const Graph& g, size_t step, Rng& rng) {
  switch (step % 4) {
    case 0: return HubDelta(g, rng);
    case 1: return WindowDelta(g, rng);
    default: return MessyDelta(g, rng);
  }
}

/// Connects `count` fresh ids (already grown into the universe) to
/// random old vertices and to each other.
EdgeDelta GrowthDelta(VertexId old_n, VertexId count, Rng& rng) {
  EdgeDelta delta;
  for (VertexId v = old_n; v < old_n + count; ++v) {
    for (int i = 0; i < 4; ++i) {
      delta.insertions.emplace_back(v, static_cast<VertexId>(
                                           rng.Uniform(old_n + count)));
    }
  }
  return delta;
}

struct GraphCase {
  std::string name;
  Graph g0;
};

std::vector<GraphCase> Graphs(uint64_t seed) {
  Rng rng(seed);
  std::vector<GraphCase> cases;
  cases.push_back({"chung-lu", ChungLuPowerLaw(160, 6.0, 2.2, 40, rng)});
  cases.push_back({"er", ErdosRenyi(140, 420, rng)});
  return cases;
}

/// Every verdict and every list of `index` against a scratch evaluation
/// over the current graph and order.
void ExpectIndexExact(const CandidateIndex& index, const Graph& g,
                      const KOrder& order, uint32_t k,
                      const std::string& where) {
  std::vector<uint8_t> truth(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    truth[v] = IsAnchorCandidate(g, order, v, k) ? 1 : 0;
    ASSERT_EQ(index.IsCandidate(v), truth[v] != 0) << where << " v=" << v;
  }
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    std::vector<VertexId> listed;
    index.ForEachCandidateNeighbor(
        u, [&listed](VertexId w) { listed.push_back(w); });
    std::vector<VertexId> expected;
    for (VertexId w : g.Neighbors(u)) {
      if (truth[w]) expected.push_back(w);
    }
    std::sort(listed.begin(), listed.end());
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(listed, expected) << where << " u=" << u;
  }
}

/// The pool of Algorithm 6 line 12 by the direct walk: kRestricted takes
/// each impacted vertex and each of its neighbours, kMaintainedFull every
/// vertex; both keep the Theorem-3 candidates outside `anchors`.
std::vector<VertexId> ReferencePool(const Graph& g, const KOrder& order,
                                    const std::vector<VertexId>& impacted,
                                    const std::vector<VertexId>& anchors,
                                    uint32_t k, IncAvtMode mode) {
  std::vector<uint8_t> seen(g.NumVertices(), 0);
  for (VertexId a : anchors) seen[a] = 1;
  std::vector<VertexId> pool;
  auto consider = [&](VertexId v) {
    if (seen[v]) return;
    seen[v] = 1;
    if (IsAnchorCandidate(g, order, v, k)) pool.push_back(v);
  };
  if (mode == IncAvtMode::kMaintainedFull) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) consider(v);
  } else {
    for (VertexId v : impacted) {
      consider(v);
      for (VertexId w : g.Neighbors(v)) consider(w);
    }
  }
  std::sort(pool.begin(), pool.end());
  return pool;
}

TEST(CandidateIndex, MatchesScratchEvaluationAfterEveryDelta) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    for (const GraphCase& gc : Graphs(4100 + seed)) {
      for (uint32_t k : {1u, 2u, 3u, 4u}) {
        const std::string where = gc.name + " seed=" + std::to_string(seed) +
                                  " k=" + std::to_string(k);
        Rng rng(77 * seed + k);
        CoreMaintainer m;
        m.Reset(gc.g0);
        CandidateIndex index;
        index.Seed(m.graph(), k,
                   CollectAnchorCandidates(m.graph(), m.order(), k));
        ExpectIndexExact(index, m.graph(), m.order(), k, where + " seed");
        for (size_t step = 0; step < 16; ++step) {
          EdgeDelta delta;
          if (step == 9) {
            const VertexId old_n = m.graph().NumVertices();
            m.EnsureVertices(old_n + 6);
            index.EnsureVertices(old_n + 6);
            delta = GrowthDelta(old_n, 6, rng);
          } else {
            delta = NextDelta(m.graph(), step, rng);
          }
          const std::vector<VertexId> impacted = m.ApplyDelta(delta);
          index.Update(m, delta, impacted);
          ExpectIndexExact(index, m.graph(), m.order(), k,
                           where + " step=" + std::to_string(step));
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(CandidateIndex, FootprintCountsEntries) {
  Rng rng(5);
  const Graph g = ChungLuPowerLaw(200, 6.0, 2.2, 40, rng);
  CoreMaintainer m;
  m.Reset(g);
  const std::vector<VertexId> candidates =
      CollectAnchorCandidates(m.graph(), m.order(), 3);
  ASSERT_FALSE(candidates.empty());
  size_t entries = 0;
  for (VertexId w : candidates) entries += g.Degree(w);
  CandidateIndex index;
  index.Seed(m.graph(), 3, candidates);
  // 4-byte head + 1-byte flag per vertex, 8 bytes per list entry.
  EXPECT_EQ(index.Footprint(), 5 * g.NumVertices() + 8 * entries);
}

struct PoolConfig {
  IncAvtMode mode;
  bool lazy;
};

constexpr PoolConfig kPoolConfigs[] = {
    {IncAvtMode::kRestricted, true},
    {IncAvtMode::kRestricted, false},
    {IncAvtMode::kMaintainedFull, true},
    {IncAvtMode::kMaintainedFull, false},
};

std::string Describe(const PoolConfig& config, uint32_t k) {
  return std::string(config.mode == IncAvtMode::kRestricted ? "restricted"
                                                            : "full") +
         (config.lazy ? " lazy" : " eager") + " k=" + std::to_string(k);
}

TEST(IncAvtPool, MatchesReferenceWalkAfterEveryDelta) {
  size_t pooled = 0;  // the comparisons must have seen non-empty pools
  for (const GraphCase& gc : Graphs(4300)) {
    for (uint32_t k : {1u, 2u, 3u, 4u}) {
      for (const PoolConfig& config : kPoolConfigs) {
        const std::string where = gc.name + " " + Describe(config, k);
        IncAvtOptions options;
        options.lazy = config.lazy;
        IncAvtTracker tracker(k, 4, config.mode, options);
        tracker.ProcessFirst(gc.g0);
        // The twin replays the same deltas to obtain each impacted set.
        CoreMaintainer twin;
        twin.Reset(gc.g0);
        Rng rng(31 * k + (config.lazy ? 1 : 0));
        for (size_t step = 0; step < 12; ++step) {
          EdgeDelta delta;
          if (step == 6) {
            const VertexId old_n = twin.graph().NumVertices();
            tracker.EnsureVertices(old_n + 5);
            twin.EnsureVertices(old_n + 5);
            delta = GrowthDelta(old_n, 5, rng);
          } else {
            delta = NextDelta(twin.graph(), step, rng);
          }
          const std::vector<VertexId> anchors = tracker.current_anchors();
          const std::vector<VertexId> impacted = twin.ApplyDelta(delta);
          tracker.ProcessDelta(delta);
          const CoreMaintainer& m = tracker.maintainer();
          ASSERT_EQ(tracker.last_pool(),
                    ReferencePool(m.graph(), m.order(), impacted, anchors, k,
                                  config.mode))
              << where << " step=" << step;
          pooled += tracker.last_pool().size();
        }
      }
    }
  }
  EXPECT_GT(pooled, 0u);
}

TEST(IncAvtPool, MatchesReferenceWalkThroughBatchedEngine) {
  // batch_size > 1: the engine merges consecutive deltas into one
  // canonical transaction (DeltaBatcher); the twin replays the same
  // merge, and each transaction's pool must equal the walk over it.
  constexpr size_t kBatch = 3;
  size_t pooled = 0;
  for (const GraphCase& gc : Graphs(4500)) {
    Rng rng(11);
    SnapshotSequence sequence(gc.g0);
    Graph current = gc.g0;
    for (size_t step = 0; step < 18; ++step) {
      // No window steps here: they impact nearly every vertex, which
      // would make the restricted pool the full one.
      EdgeDelta delta = step % 3 == 0 ? HubDelta(current, rng)
                                      : MessyDelta(current, rng);
      delta.Canonicalize();
      delta.Apply(current);
      sequence.PushDelta(std::move(delta));
    }
    for (const PoolConfig& config : kPoolConfigs) {
      const uint32_t k = 3;
      const std::string where = gc.name + " " + Describe(config, k);
      IncAvtOptions options;
      options.lazy = config.lazy;
      options.batch_size = kBatch;
      auto tracker =
          std::make_unique<IncAvtTracker>(k, 4, config.mode, options);
      const IncAvtTracker& view = *tracker;
      AvtEngine engine(std::move(tracker),
                       std::make_unique<SequenceSource>(&sequence));
      ASSERT_TRUE(engine.Step().value());  // G_0
      CoreMaintainer twin;
      twin.Reset(gc.g0);
      size_t next = 0;
      while (next < sequence.deltas().size()) {
        DeltaBatcher batcher;
        for (size_t i = 0; i < kBatch && next < sequence.deltas().size();
             ++i) {
          batcher.Add(sequence.deltas()[next++]);
        }
        EdgeDelta merged;
        batcher.Flush(&merged);
        const std::vector<VertexId> anchors = view.current_anchors();
        const std::vector<VertexId> impacted = twin.ApplyDelta(merged);
        StatusOr<bool> stepped = engine.Step();
        ASSERT_TRUE(stepped.ok() && stepped.value()) << where;
        const CoreMaintainer& m = view.maintainer();
        ASSERT_EQ(view.last_pool(),
                  ReferencePool(m.graph(), m.order(), impacted, anchors, k,
                                config.mode))
            << where << " after delta " << next;
        pooled += view.last_pool().size();
      }
      StatusOr<bool> done = engine.Step();
      ASSERT_TRUE(done.ok());
      EXPECT_FALSE(done.value()) << where;
    }
  }
  EXPECT_GT(pooled, 0u);
}

}  // namespace
}  // namespace avt
