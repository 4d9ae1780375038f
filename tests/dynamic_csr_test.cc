// DynamicCsr unit suite: the order contract (append on insert,
// swap-with-back on delete, slabs copied verbatim by relocation and
// compaction) plus the slack/spill/compaction machinery itself. The
// cross-algorithm consequences of the contract (bit-identical anchors)
// are pinned by tests/differential_fuzz_test.cc; here we pin the
// structure against the Graph it mirrors, mutation by mutation.

#include "graph/dynamic_csr.h"

#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "gen/models.h"
#include "graph/delta.h"
#include "maint/maintainer.h"
#include "util/random.h"

namespace avt {
namespace {

// Exact mirror check: same vertex count, edge count, and per-vertex
// neighbor sequence (order included).
::testing::AssertionResult MirrorsGraph(const DynamicCsr& csr,
                                        const Graph& g) {
  if (csr.NumVertices() != g.NumVertices()) {
    return ::testing::AssertionFailure()
           << "vertex count " << csr.NumVertices() << " != "
           << g.NumVertices();
  }
  if (csr.NumEdges() != g.NumEdges()) {
    return ::testing::AssertionFailure()
           << "edge count " << csr.NumEdges() << " != " << g.NumEdges();
  }
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    std::span<const VertexId> a = csr.Neighbors(u);
    std::span<const VertexId> b = g.Neighbors(u);
    if (a.size() != b.size()) {
      return ::testing::AssertionFailure()
             << "degree(" << u << ") " << a.size() << " != " << b.size();
    }
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) {
        return ::testing::AssertionFailure()
               << "neighbors(" << u << ")[" << i << "] " << a[i]
               << " != " << b[i] << " (order drift)";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(DynamicCsr, RebuildCopiesNeighborOrderVerbatim) {
  Rng rng(11);
  Graph g = ChungLuPowerLaw(300, 6.0, 2.2, 60, rng);
  DynamicCsr csr;
  csr.Rebuild(g);
  EXPECT_TRUE(MirrorsGraph(csr, g));
  EXPECT_EQ(csr.relocations(), 0u);
  EXPECT_EQ(csr.compactions(), 0u);
  // Every slab carries slack beyond its degree.
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    EXPECT_GT(csr.CapacityOf(u), g.Degree(u));
  }
}

TEST(DynamicCsr, InsertAppendsLikeGraphPushBack) {
  Graph g(6);
  DynamicCsr csr;
  csr.Rebuild(g);
  const std::pair<VertexId, VertexId> inserts[] = {
      {0, 1}, {0, 2}, {0, 3}, {2, 4}, {4, 0}, {5, 1}};
  for (auto [u, v] : inserts) {
    ASSERT_TRUE(g.AddEdge(u, v));
    csr.AddEdge(u, v);
    ASSERT_TRUE(MirrorsGraph(csr, g));
  }
  // Append order is the insertion order, not sorted order.
  std::vector<VertexId> expected = {1, 2, 3, 4};
  std::span<const VertexId> actual = csr.Neighbors(0);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]);
  }
}

TEST(DynamicCsr, DeleteSwapsWithBackExactlyLikeGraph) {
  Graph g(5);
  DynamicCsr csr;
  csr.Rebuild(g);
  for (VertexId v = 1; v < 5; ++v) {
    ASSERT_TRUE(g.AddEdge(0, v));
    csr.AddEdge(0, v);
  }
  // Removing (0,2) from [1,2,3,4] must leave [1,4,3] in BOTH structures
  // (middle slot overwritten by the back, back popped).
  ASSERT_TRUE(g.RemoveEdge(0, 2));
  csr.RemoveEdge(0, 2);
  ASSERT_TRUE(MirrorsGraph(csr, g));
  std::span<const VertexId> after = csr.Neighbors(0);
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[0], 1u);
  EXPECT_EQ(after[1], 4u);
  EXPECT_EQ(after[2], 3u);
}

TEST(DynamicCsr, SlabGrowthSpillsAndPreservesOrder) {
  const VertexId n = 600;
  Graph g(n);
  DynamicCsr csr;
  csr.Rebuild(g);  // empty graph: minimal slabs everywhere
  // Grow one hub far past any initial slack: forces repeated
  // relocations of the hub's slab into the spill region.
  for (VertexId v = 1; v < n; ++v) {
    ASSERT_TRUE(g.AddEdge(0, v));
    csr.AddEdge(0, v);
  }
  EXPECT_GT(csr.relocations(), 0u);
  EXPECT_TRUE(MirrorsGraph(csr, g));
  // Geometric growth: the hub relocated O(log n) times, not O(n).
  EXPECT_LT(csr.relocations(), 20u + 2u * csr.compactions());
}

TEST(DynamicCsr, CompactionReclaimsGarbageAndPreservesOrder) {
  // Grow a hub (relocations strand garbage), shrink it back (live
  // payload collapses), then insert once more: the stranded garbage now
  // dominates the live entries and the insert's compaction check fires.
  const VertexId n = 4000;
  Graph g(n);
  DynamicCsr csr;
  csr.Rebuild(g);
  for (VertexId v = 1; v < n; ++v) {
    ASSERT_TRUE(g.AddEdge(0, v));
    csr.AddEdge(0, v);
  }
  ASSERT_GT(csr.relocations(), 0u);
  ASSERT_EQ(csr.compactions(), 0u);
  const uint64_t garbage_before = csr.DeadSlots();
  ASSERT_GT(garbage_before, 0u);
  for (VertexId v = 1; v < n - 50; ++v) {
    ASSERT_TRUE(g.RemoveEdge(0, v));
    csr.RemoveEdge(0, v);
  }
  ASSERT_TRUE(g.AddEdge(1, 2));
  csr.AddEdge(1, 2);
  EXPECT_GT(csr.compactions(), 0u);
  EXPECT_LT(csr.DeadSlots(), garbage_before);
  EXPECT_TRUE(MirrorsGraph(csr, g));
  // Post-compaction slabs are packed with fresh slack and stay usable.
  for (VertexId v = 1; v < 40; ++v) {
    if (v == 3 || g.HasEdge(3, v)) continue;
    ASSERT_TRUE(g.AddEdge(3, v));
    csr.AddEdge(3, v);
  }
  EXPECT_TRUE(MirrorsGraph(csr, g));
}

TEST(DynamicCsr, RandomChurnSoakStaysExact) {
  const VertexId n = 250;
  Rng rng(23);
  Graph g = ChungLuPowerLaw(n, 6.0, 2.2, 40, rng);
  DynamicCsr csr;
  csr.Rebuild(g);
  for (int op = 0; op < 6000; ++op) {
    VertexId u = static_cast<VertexId>(rng.Uniform(n));
    VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v) continue;
    if (g.HasEdge(u, v)) {
      ASSERT_TRUE(g.RemoveEdge(u, v));
      csr.RemoveEdge(u, v);
    } else {
      ASSERT_TRUE(g.AddEdge(u, v));
      csr.AddEdge(u, v);
    }
    if (op % 500 == 0) {
      ASSERT_TRUE(MirrorsGraph(csr, g)) << "op " << op;
    }
  }
  EXPECT_TRUE(MirrorsGraph(csr, g));
}

TEST(DynamicCsr, MaintainerMirrorTracksApplyDelta) {
  Rng rng(31);
  Graph g = ChungLuPowerLaw(200, 6.0, 2.2, 40, rng);
  CoreMaintainer maintainer;
  maintainer.Reset(g);
  maintainer.SetCsrMirror(true);
  ASSERT_NE(maintainer.csr(), nullptr);
  EXPECT_TRUE(MirrorsGraph(*maintainer.csr(), maintainer.graph()));

  for (int step = 0; step < 30; ++step) {
    EdgeDelta delta;
    for (int i = 0; i < 8; ++i) {
      VertexId u = static_cast<VertexId>(rng.Uniform(200));
      VertexId v = static_cast<VertexId>(rng.Uniform(200));
      if (u == v) continue;
      if (maintainer.graph().HasEdge(u, v)) {
        delta.deletions.push_back(Edge(u, v));
      } else {
        delta.insertions.push_back(Edge(u, v));
      }
    }
    maintainer.ApplyDelta(delta);
    ASSERT_TRUE(MirrorsGraph(*maintainer.csr(), maintainer.graph()))
        << "step " << step;
  }

  // The mirror erases at the positions Graph::RemoveEdge reports, and
  // each swap-with-back moves an entry that a later erasure in the same
  // list may target. Strip most edges of the current hubs, several per
  // vertex per delta in scrambled list order, with insertions into the
  // same lists first so appends and erasures interleave.
  for (int step = 0; step < 12; ++step) {
    const Graph& now = maintainer.graph();
    VertexId hub = 0;
    for (VertexId v = 1; v < now.NumVertices(); ++v) {
      if (now.Degree(v) > now.Degree(hub)) hub = v;
    }
    EdgeDelta delta;
    for (int i = 0; i < 4; ++i) {
      const VertexId v = static_cast<VertexId>(rng.Uniform(200));
      if (v != hub && !now.HasEdge(hub, v)) delta.insertions.emplace_back(hub, v);
    }
    std::span<const VertexId> nbrs = now.Neighbors(hub);
    std::vector<VertexId> victims(nbrs.begin(), nbrs.end());
    for (size_t i = victims.size(); i > 1; --i) {
      std::swap(victims[i - 1], victims[rng.Uniform(i)]);
    }
    victims.resize(victims.size() * 2 / 3);
    for (VertexId v : victims) delta.deletions.emplace_back(hub, v);
    // Several edges of one low-degree neighbor too: its list shrinks
    // from the middle and the back within one delta.
    if (!victims.empty()) {
      const VertexId x = victims.front();
      std::span<const VertexId> xs = now.Neighbors(x);
      for (size_t i = 0; i < xs.size(); i += 2) {
        if (xs[i] != hub) delta.deletions.emplace_back(x, xs[i]);
      }
    }
    ASSERT_GT(delta.deletions.size(), 2u) << "hub step " << step;
    maintainer.ApplyDelta(delta);
    ASSERT_TRUE(MirrorsGraph(*maintainer.csr(), maintainer.graph()))
        << "hub step " << step;
  }

  // Disabling drops the mirror; re-enabling rebuilds it fresh.
  maintainer.SetCsrMirror(false);
  EXPECT_EQ(maintainer.csr(), nullptr);
  maintainer.SetCsrMirror(true);
  ASSERT_NE(maintainer.csr(), nullptr);
  EXPECT_TRUE(MirrorsGraph(*maintainer.csr(), maintainer.graph()));
}

}  // namespace
}  // namespace avt
