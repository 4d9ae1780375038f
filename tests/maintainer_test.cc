// Differential and property tests for order-based core maintenance
// (paper Algorithms 4/5). Every mutation is checked against a fresh
// decomposition plus the full K-order invariant suite.

#include "maint/maintainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "corelib/invariants.h"
#include "gen/models.h"
#include "util/random.h"

namespace avt {
namespace {

void ExpectConsistent(const CoreMaintainer& maintainer,
                      const std::string& context) {
  InvariantReport report =
      CheckKOrderInvariants(maintainer.graph(), maintainer.order());
  ASSERT_TRUE(report.ok) << context << ": " << report.failure;
}

TEST(MaintainerInsert, PendantEdgeNoCascade) {
  Graph g(3);
  g.AddEdge(0, 1);
  CoreMaintainer m;
  m.Reset(g);
  EXPECT_TRUE(m.InsertEdge(1, 2));
  EXPECT_EQ(m.CoreOf(2), 1u);
  EXPECT_EQ(m.CoreOf(0), 1u);
  ExpectConsistent(m, "pendant insert");
}

TEST(MaintainerInsert, DuplicateEdgeRejected) {
  Graph g(2);
  g.AddEdge(0, 1);
  CoreMaintainer m;
  m.Reset(g);
  EXPECT_FALSE(m.InsertEdge(0, 1));
  EXPECT_FALSE(m.InsertEdge(1, 0));
  EXPECT_EQ(m.graph().NumEdges(), 1u);
}

TEST(MaintainerInsert, ClosingTriangleRaisesCores) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  CoreMaintainer m;
  m.Reset(g);
  EXPECT_TRUE(m.InsertEdge(0, 2));
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(m.CoreOf(v), 2u);
  ExpectConsistent(m, "triangle close");
}

TEST(MaintainerInsert, IsolatedPairPromotesToCoreOne) {
  Graph g(2);
  CoreMaintainer m;
  m.Reset(g);
  EXPECT_TRUE(m.InsertEdge(0, 1));
  EXPECT_EQ(m.CoreOf(0), 1u);
  EXPECT_EQ(m.CoreOf(1), 1u);
  ExpectConsistent(m, "isolated pair");
}

TEST(MaintainerInsert, GrowCliqueEdgeByEdge) {
  const VertexId n = 8;
  Graph g(n);
  CoreMaintainer m;
  m.Reset(g);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      ASSERT_TRUE(m.InsertEdge(u, v));
      ExpectConsistent(m, "clique growth");
    }
  }
  for (VertexId v = 0; v < n; ++v) EXPECT_EQ(m.CoreOf(v), n - 1);
}

TEST(MaintainerRemove, PendantEdge) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  CoreMaintainer m;
  m.Reset(g);
  EXPECT_TRUE(m.RemoveEdge(1, 2));
  EXPECT_EQ(m.CoreOf(2), 0u);
  EXPECT_EQ(m.CoreOf(0), 1u);
  ExpectConsistent(m, "pendant removal");
}

TEST(MaintainerRemove, AbsentEdgeRejected) {
  Graph g(3);
  g.AddEdge(0, 1);
  CoreMaintainer m;
  m.Reset(g);
  EXPECT_FALSE(m.RemoveEdge(0, 2));
  EXPECT_FALSE(m.RemoveEdge(0, 0));
}

TEST(MaintainerRemove, BreakTriangleDropsCores) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  CoreMaintainer m;
  m.Reset(g);
  EXPECT_TRUE(m.RemoveEdge(0, 1));
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(m.CoreOf(v), 1u);
  ExpectConsistent(m, "triangle break");
}

TEST(MaintainerRemove, ShrinkCliqueEdgeByEdge) {
  const VertexId n = 8;
  Graph g(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) g.AddEdge(u, v);
  }
  CoreMaintainer m;
  m.Reset(g);
  std::vector<Edge> edges = g.CollectEdges();
  for (const Edge& e : edges) {
    ASSERT_TRUE(m.RemoveEdge(e.u, e.v));
    ExpectConsistent(m, "clique shrink");
  }
  for (VertexId v = 0; v < n; ++v) EXPECT_EQ(m.CoreOf(v), 0u);
}

TEST(MaintainerInsert, CascadePromotesDeepChain) {
  // Square with a diagonal missing: inserting it lifts the whole square
  // from core 2 to core... build two triangles sharing an edge, then
  // close the 4-cycle: {0,1,2,3} all reach core 3 only when dense enough.
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 0);
  g.AddEdge(0, 2);
  CoreMaintainer m;
  m.Reset(g);
  ExpectConsistent(m, "pre diagonal");
  EXPECT_TRUE(m.InsertEdge(1, 3));  // K4: everyone core 3
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(m.CoreOf(v), 3u);
  ExpectConsistent(m, "post diagonal");
}

// ---------------------------------------------------------------------
// Randomized differential sweeps: random graphs, random churn, verified
// against fresh decompositions after every single operation.
// ---------------------------------------------------------------------

struct ChurnCase {
  const char* label;
  VertexId n;
  uint64_t m;
  int model;  // 0 = ER, 1 = BA, 2 = CL, 3 = WS, 4 = SBM
};

class MaintainerChurnTest : public ::testing::TestWithParam<ChurnCase> {};

Graph MakeModelGraph(const ChurnCase& c, Rng& rng) {
  switch (c.model) {
    case 0: return ErdosRenyi(c.n, c.m, rng);
    case 1: return BarabasiAlbert(c.n, 3, rng);
    case 2: return ChungLuPowerLaw(c.n, 6.0, 2.2, 40, rng);
    case 3: return WattsStrogatz(c.n, 6, 0.2, rng);
    default: return PlantedPartition(c.n, 5, c.m, 0.8, rng);
  }
}

TEST_P(MaintainerChurnTest, RandomChurnStaysConsistent) {
  const ChurnCase& c = GetParam();
  Rng rng(0xC0FFEE ^ c.n);
  Graph g = MakeModelGraph(c, rng);
  CoreMaintainer m;
  m.Reset(g);

  for (int step = 0; step < 120; ++step) {
    bool insert = rng.Bernoulli(0.5);
    if (insert || m.graph().NumEdges() == 0) {
      VertexId u = static_cast<VertexId>(rng.Uniform(c.n));
      VertexId v = static_cast<VertexId>(rng.Uniform(c.n));
      if (u == v) continue;
      m.InsertEdge(u, v);
    } else {
      std::vector<Edge> edges = m.graph().CollectEdges();
      const Edge& e = edges[rng.Uniform(edges.size())];
      m.RemoveEdge(e.u, e.v);
    }
    InvariantReport report = CheckKOrderInvariants(m.graph(), m.order());
    ASSERT_TRUE(report.ok)
        << c.label << " step " << step << ": " << report.failure;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, MaintainerChurnTest,
    ::testing::Values(ChurnCase{"er-sparse", 80, 160, 0},
                      ChurnCase{"er-dense", 60, 600, 0},
                      ChurnCase{"ba", 90, 0, 1},
                      ChurnCase{"chung-lu", 100, 0, 2},
                      ChurnCase{"watts-strogatz", 80, 0, 3},
                      ChurnCase{"sbm", 100, 350, 4}),
    [](const ::testing::TestParamInfo<ChurnCase>& param_info) {
      std::string label = param_info.param.label;
      for (char& ch : label) {
        if (ch == '-') ch = '_';
      }
      return label;
    });

TEST(MaintainerBatch, ApplyDeltaMatchesRebuild) {
  Rng rng(2024);
  Graph g = ChungLuPowerLaw(200, 6.0, 2.1, 50, rng);
  CoreMaintainer m;
  m.Reset(g);

  for (int round = 0; round < 10; ++round) {
    EdgeDelta delta;
    // Deletions from current edges.
    std::vector<Edge> edges = m.graph().CollectEdges();
    std::vector<uint64_t> picks =
        rng.SampleDistinct(edges.size(), std::min<size_t>(25, edges.size()));
    for (uint64_t i : picks) delta.deletions.push_back(edges[i]);
    // Insertions: random absent pairs.
    Graph shadow = m.graph();
    int added = 0;
    while (added < 25) {
      VertexId u = static_cast<VertexId>(rng.Uniform(200));
      VertexId v = static_cast<VertexId>(rng.Uniform(200));
      if (u == v) continue;
      Edge e(u, v);
      bool deleted_now = false;
      for (const Edge& d : delta.deletions) {
        if (d == e) deleted_now = true;
      }
      if (deleted_now) continue;
      if (shadow.AddEdge(u, v)) {
        delta.insertions.push_back(e);
        ++added;
      }
    }

    std::vector<VertexId> affected = m.ApplyDelta(delta);
    InvariantReport report = CheckKOrderInvariants(m.graph(), m.order());
    ASSERT_TRUE(report.ok) << "round " << round << ": " << report.failure;

    // Affected set covers every vertex whose core changed.
    // (Recompute the pre-delta cores by undoing the delta.)
    Graph before = m.graph();
    delta.Inverse().Apply(before);
    CoreDecomposition old_cores = DecomposeCores(before);
    std::vector<uint8_t> in_affected(m.graph().NumVertices(), 0);
    for (VertexId v : affected) in_affected[v] = 1;
    for (VertexId v = 0; v < m.graph().NumVertices(); ++v) {
      if (old_cores.core[v] != m.CoreOf(v)) {
        EXPECT_TRUE(in_affected[v])
            << "vertex " << v << " changed core but was not reported";
      }
    }
  }
}

TEST(MaintainerBatch, ReportsExactlyTheAppliedOpsInOrder) {
  Graph g(8);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  CoreMaintainer m;
  m.Reset(g);
  EdgeDelta delta;
  delta.insertions = {Edge(0, 1), Edge(1, 0), Edge(2, 2), Edge(1, 2),
                      Edge(3, 4)};
  delta.deletions = {Edge(5, 6), Edge(0, 1), Edge(2, 1), Edge(3, 3),
                     Edge(0, 1)};
  m.ApplyDelta(EdgeDelta{{Edge(6, 7)}, {}});  // an earlier report
  m.ApplyDelta(delta);
  // Applied: insert (0,1), insert (3,4), remove (0,1), remove (1,2).
  const std::vector<bool> applied = {true,  false, false, false, true,
                                     false, true,  true,  false, false};
  EXPECT_EQ(m.last_applied(), applied);
}

TEST(MaintainerBatch, EffectReplaysTheDeltaAndListsEveryMove) {
  Rng rng(77);
  Graph g = ChungLuPowerLaw(150, 6.0, 2.1, 40, rng);
  CoreMaintainer m;
  m.Reset(g);
  size_t moves_seen = 0;
  for (int round = 0; round < 30; ++round) {
    // Raw input: present and absent pairs in both batches, self-loops
    // and repeats, so some operations are no-ops.
    EdgeDelta delta;
    const std::vector<Edge> edges = m.graph().CollectEdges();
    for (int i = 0; i < 20; ++i) {
      const VertexId u = static_cast<VertexId>(rng.Uniform(150));
      const VertexId v = static_cast<VertexId>(rng.Uniform(150));
      delta.insertions.emplace_back(u, v);
      delta.deletions.push_back(edges[rng.Uniform(edges.size())]);
      if (i % 5 == 0) delta.deletions.emplace_back(u, v);
    }
    delta.insertions.push_back(delta.insertions.front());

    const Graph before = m.graph();
    const std::vector<uint32_t> old_core = [&] {
      std::vector<uint32_t> cores(before.NumVertices());
      for (VertexId v = 0; v < before.NumVertices(); ++v) {
        cores[v] = m.CoreOf(v);
      }
      return cores;
    }();
    const std::vector<VertexId> old_order = m.order().FullOrder();
    const std::vector<VertexId> impacted = m.ApplyDelta(delta);

    // The report flags exactly the ops that changed the graph, in
    // application order (insertions, then deletions, each in input
    // order); replaying only the flagged ops on the old graph gives the
    // new one.
    Graph probe = before;
    std::vector<bool> applied;
    for (const Edge& e : delta.insertions) {
      applied.push_back(probe.AddEdge(e.u, e.v));
    }
    for (const Edge& e : delta.deletions) {
      applied.push_back(probe.RemoveEdge(e.u, e.v));
    }
    EXPECT_EQ(m.last_applied(), applied) << "round " << round;
    EXPECT_NE(std::count(applied.begin(), applied.end(), false), 0)
        << "round " << round << ": the delta had no no-op to omit";
    Graph replay = before;
    size_t op = 0;
    for (const Edge& e : delta.insertions) {
      if (m.last_applied()[op++]) replay.AddEdge(e.u, e.v);
    }
    for (const Edge& e : delta.deletions) {
      if (m.last_applied()[op++]) replay.RemoveEdge(e.u, e.v);
    }
    EXPECT_EQ(replay.CollectEdges(), m.graph().CollectEdges())
        << "round " << round;

    // Moves: impacted, with the pre-delta core; every vertex whose core
    // changed moved; unmoved vertices keep their relative order.
    std::vector<uint8_t> in_impacted(m.graph().NumVertices(), 0);
    for (VertexId v : impacted) in_impacted[v] = 1;
    std::vector<uint8_t> moved(m.graph().NumVertices(), 0);
    for (VertexId v = 0; v < m.graph().NumVertices(); ++v) {
      const uint32_t core_before = m.CoreBeforeMove(v);
      if (core_before == CoreMaintainer::kNotMoved) continue;
      moved[v] = 1;
      ++moves_seen;
      EXPECT_TRUE(in_impacted[v]) << "round " << round;
      EXPECT_EQ(core_before, old_core[v]) << "round " << round;
    }
    std::vector<VertexId> kept_before;
    std::vector<VertexId> kept_after;
    for (VertexId v : old_order) {
      if (!moved[v]) kept_before.push_back(v);
    }
    for (VertexId v : m.order().FullOrder()) {
      if (!moved[v]) kept_after.push_back(v);
      if (m.CoreOf(v) != old_core[v]) {
        EXPECT_TRUE(moved[v]) << "round " << round << ": core of " << v
                              << " changed without a move";
      }
    }
    EXPECT_EQ(kept_before, kept_after) << "round " << round;
  }
  EXPECT_GT(moves_seen, 0u);
}

// ---------------------------------------------------------------------
// Golden K-order pin. The cascades may be rewritten for speed, but never
// for a different answer: every K-order position, every deg+, and both
// per-delta reports feed the candidate index and the anchors, so they
// are pinned bit for bit against digests recorded from the reference
// implementation. G_0 is an integer-only Chung-Lu graph (weights
// ~ 1/rank, endpoints drawn weight-proportionally) so the digests do
// not depend on libm. One stream replaces most edges per delta (a
// sliding window); the other strips hub edges (uniform churn removals
// are degree-biased). Both mix in no-op operations.
// ---------------------------------------------------------------------

struct GoldenStream {
  Graph g0;
  std::vector<EdgeDelta> deltas;
};

class WeightedPicker {
 public:
  explicit WeightedPicker(VertexId n) {
    // Weight of rank r is ~ 2400 / (r + 12): hubs near 200, tail near 5.
    for (VertexId v = 0; v < n; ++v) {
      total_ += 2400 / (v + 12) + 2;
      prefix_.push_back(total_);
    }
  }
  VertexId Pick(Rng& rng) const {
    const uint64_t x = rng.Uniform(total_);
    return static_cast<VertexId>(
        std::upper_bound(prefix_.begin(), prefix_.end(), x) -
        prefix_.begin());
  }

 private:
  std::vector<uint64_t> prefix_;
  uint64_t total_ = 0;
};

constexpr VertexId kGoldenN = 700;

Graph GoldenChungLu(const WeightedPicker& picker, uint64_t m, Rng& rng) {
  Graph g(kGoldenN);
  while (g.NumEdges() < m) {
    const VertexId u = picker.Pick(rng);
    const VertexId v = picker.Pick(rng);
    if (u != v) g.AddEdge(u, v);
  }
  return g;
}

// Each delta keeps a quarter of the window and draws the rest afresh.
GoldenStream MakeWindowStream() {
  Rng rng(0x601DE7);
  const WeightedPicker picker(kGoldenN);
  GoldenStream s;
  s.g0 = GoldenChungLu(picker, 3000, rng);
  Graph current = s.g0;
  for (int step = 0; step < 8; ++step) {
    EdgeDelta delta;
    Graph next(kGoldenN);
    for (const Edge& e : current.CollectEdges()) {
      if (rng.Uniform(4) == 0) {
        next.AddEdge(e.u, e.v);
      } else {
        delta.deletions.push_back(e);
      }
    }
    while (next.NumEdges() < 3000) {
      const VertexId u = picker.Pick(rng);
      const VertexId v = picker.Pick(rng);
      if (u == v || !next.AddEdge(u, v)) continue;
      if (!current.HasEdge(u, v)) delta.insertions.emplace_back(u, v);
    }
    // No-ops: a repeated insertion and an absent removal.
    delta.insertions.push_back(delta.insertions.front());
    delta.deletions.emplace_back(kGoldenN - 1, kGoldenN - 2);
    current = std::move(next);
    s.deltas.push_back(std::move(delta));
  }
  return s;
}

// Each delta removes most edges of the five current hubs plus a few
// random edges, and draws as many weighted insertions.
GoldenStream MakeHubChurnStream() {
  Rng rng(0xC4B5);
  const WeightedPicker picker(kGoldenN);
  GoldenStream s;
  s.g0 = GoldenChungLu(picker, 3000, rng);
  Graph current = s.g0;
  for (int step = 0; step < 12; ++step) {
    EdgeDelta delta;
    std::vector<VertexId> by_degree(kGoldenN);
    for (VertexId v = 0; v < kGoldenN; ++v) by_degree[v] = v;
    std::stable_sort(by_degree.begin(), by_degree.end(),
                     [&](VertexId a, VertexId b) {
                       return current.Degree(a) > current.Degree(b);
                     });
    Graph next = current;
    for (int h = 0; h < 5; ++h) {
      const VertexId hub = by_degree[h];
      const std::span<const VertexId> nbrs = current.Neighbors(hub);
      for (VertexId x : std::vector<VertexId>(nbrs.begin(), nbrs.end())) {
        if (rng.Uniform(10) < 7 && next.RemoveEdge(hub, x)) {
          delta.deletions.emplace_back(hub, x);
        }
      }
    }
    const std::vector<Edge> edges = next.CollectEdges();
    for (int i = 0; i < 40; ++i) {
      const Edge& e = edges[rng.Uniform(edges.size())];
      delta.deletions.push_back(e);  // repeats become absent removals
      next.RemoveEdge(e.u, e.v);
    }
    const size_t removed = current.NumEdges() - next.NumEdges();
    for (size_t i = 0; i < removed + 5; ++i) {
      const VertexId u = picker.Pick(rng);
      const VertexId v = picker.Pick(rng);
      delta.insertions.emplace_back(u, v);  // self-loops, repeats: no-ops
    }
    delta.Apply(current);
    s.deltas.push_back(std::move(delta));
  }
  return s;
}

class Digest {
 public:
  void Mix(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (word >> (8 * i)) & 0xFF;
      state_ *= 0x100000001B3ULL;
    }
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xCBF29CE484222325ULL;
};

struct GoldenDigests {
  uint64_t order, deg_plus, impacted, applied, core_before;
};

::testing::AssertionResult DegPlusIsFresh(const CoreMaintainer& m) {
  const Graph& g = m.graph();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    uint32_t later = 0;
    for (VertexId x : g.Neighbors(v)) {
      if (m.order().Precedes(v, x)) ++later;
    }
    if (later != m.order().DegPlus(v)) {
      return ::testing::AssertionFailure()
             << "deg+(" << v << ") = " << m.order().DegPlus(v)
             << ", fresh count " << later;
    }
  }
  return ::testing::AssertionSuccess();
}

// Replays `s` through ApplyDelta, digesting both reports and the index
// after every delta. A twin maintainer applies the same operations one
// at a time and checks deg+ against a fresh count after each one.
GoldenDigests RunGolden(const GoldenStream& s, bool mirror) {
  CoreMaintainer m;
  m.Reset(s.g0);
  m.SetCsrMirror(mirror);
  CoreMaintainer single;
  single.Reset(s.g0);
  single.SetCsrMirror(mirror);
  Digest order, deg_plus, impacted, applied, core_before;
  for (size_t step = 0; step < s.deltas.size(); ++step) {
    const EdgeDelta& delta = s.deltas[step];
    for (VertexId v : m.ApplyDelta(delta)) impacted.Mix(v);
    impacted.Mix(~uint64_t{0});
    for (bool flag : m.last_applied()) applied.Mix(flag);
    applied.Mix(~uint64_t{0});
    for (VertexId v : m.order().FullOrder()) order.Mix(v);
    for (VertexId v = 0; v < kGoldenN; ++v) {
      deg_plus.Mix(m.order().DegPlus(v));
      core_before.Mix(m.CoreBeforeMove(v));
    }

    for (const Edge& e : delta.insertions) {
      single.InsertEdge(e.u, e.v);
      EXPECT_TRUE(DegPlusIsFresh(single)) << "step " << step;
    }
    for (const Edge& e : delta.deletions) {
      single.RemoveEdge(e.u, e.v);
      EXPECT_TRUE(DegPlusIsFresh(single)) << "step " << step;
    }
    EXPECT_EQ(single.order().FullOrder(), m.order().FullOrder())
        << "step " << step;
    ExpectConsistent(m, "golden step " + std::to_string(step));
  }
  return {order.value(), deg_plus.value(), impacted.value(),
          applied.value(), core_before.value()};
}

void ExpectGolden(const GoldenDigests& got, const GoldenDigests& want) {
  EXPECT_EQ(got.order, want.order) << "FullOrder() drifted";
  EXPECT_EQ(got.deg_plus, want.deg_plus) << "deg+ drifted";
  EXPECT_EQ(got.impacted, want.impacted) << "impacted list drifted";
  EXPECT_EQ(got.applied, want.applied) << "last_applied() drifted";
  EXPECT_EQ(got.core_before, want.core_before)
      << "CoreBeforeMove() drifted";
}

TEST(MaintainerGolden, WindowStreamPinsKOrder) {
  const GoldenStream s = MakeWindowStream();
  const GoldenDigests want = {
      13590725794717149565ULL, 14131204925297410466ULL,
      3391305030403960171ULL, 3482896973095952964ULL,
      4735789347567973697ULL};
  ExpectGolden(RunGolden(s, /*mirror=*/false), want);
  ExpectGolden(RunGolden(s, /*mirror=*/true), want);
}

TEST(MaintainerGolden, HubChurnStreamPinsKOrder) {
  const GoldenStream s = MakeHubChurnStream();
  const GoldenDigests want = {
      66399869118256105ULL, 7542965983380233423ULL,
      16102405251884876819ULL, 10633421539947038245ULL,
      11223780028530378281ULL};
  ExpectGolden(RunGolden(s, /*mirror=*/false), want);
  ExpectGolden(RunGolden(s, /*mirror=*/true), want);
}

TEST(MaintainerStats, CountersAdvance) {
  Graph g(4);
  CoreMaintainer m;
  m.Reset(g);
  m.InsertEdge(0, 1);
  m.InsertEdge(1, 2);
  m.InsertEdge(2, 0);
  EXPECT_EQ(m.stats().edges_inserted, 3u);
  EXPECT_GT(m.stats().promotions, 0u);
  m.RemoveEdge(0, 1);
  EXPECT_EQ(m.stats().edges_removed, 1u);
  EXPECT_GT(m.stats().demotions, 0u);
}

}  // namespace
}  // namespace avt
