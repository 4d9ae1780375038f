// Negative tests: the invariant checker must detect every class of
// corruption it claims to cover (a checker that never fails would make
// the differential suites vacuous). The equivalence suite then pins the
// decomposition-free certificate to the decomposition-based reference
// (invariants_reference.h) across generated, maintained and corrupted
// states, and the block-parallel pass to the serial one: the same
// verdict and failure text with no pool and at 2, 3 and 4 workers.

#include "corelib/invariants.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gen/churn.h"
#include "gen/models.h"
#include "invariants_reference.h"
#include "maint/maintainer.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace avt {

// Faults no public KOrder mutation can produce: out-of-order tags,
// broken links and stale level heads, tails and size counters.
class KOrderTestPeer {
 public:
  static void SwapTags(KOrder& order, VertexId a, VertexId b) {
    std::swap(order.hot_[a].tag, order.hot_[b].tag);
  }
  static void SetPrev(KOrder& order, VertexId v, VertexId prev) {
    order.links_[v].prev = prev;
  }
  static void SetNext(KOrder& order, VertexId v, VertexId next) {
    order.links_[v].next = next;
  }
  static void SetLevel(KOrder& order, VertexId v, uint32_t level) {
    order.hot_[v].level = level;
  }
  static void SetHead(KOrder& order, uint32_t level, VertexId v) {
    order.levels_[level].head = v;
  }
  static void SetTail(KOrder& order, uint32_t level, VertexId v) {
    order.levels_[level].tail = v;
  }
  static void SetSize(KOrder& order, uint32_t level, uint32_t size) {
    order.levels_[level].size = size;
  }
  // Splices v out of its level list, mending its neighbours' links and
  // the list's head, tail and size, but keeps v's level.
  static void Unlink(KOrder& order, VertexId v) {
    KOrder::Level& list = order.levels_[order.hot_[v].level];
    const VertexId prev = order.links_[v].prev;
    const VertexId next = order.links_[v].next;
    (prev == kNoVertex ? list.head : order.links_[prev].next) = next;
    (next == kNoVertex ? list.tail : order.links_[next].prev) = prev;
    --list.size;
    order.links_[v] = KOrder::Link{};
  }
  // Splices v into `level`'s list where its tag sorts, mending the
  // links, head, tail and size, but keeps v's level.
  static void LinkInto(KOrder& order, VertexId v, uint32_t level) {
    KOrder::Level& list = order.levels_[level];
    VertexId prev = kNoVertex;
    VertexId next = list.head;
    while (next != kNoVertex && order.hot_[next].tag < order.hot_[v].tag) {
      prev = next;
      next = order.links_[next].next;
    }
    order.links_[v] = KOrder::Link{prev, next};
    (prev == kNoVertex ? list.head : order.links_[prev].next) = v;
    (next == kNoVertex ? list.tail : order.links_[next].prev) = v;
    ++list.size;
  }
};

namespace {

Graph TestGraph() {
  Rng rng(99);
  return ChungLuPowerLaw(80, 5.0, 2.2, 20, rng);
}

TEST(InvariantsNegative, CleanIndexPasses) {
  Graph g = TestGraph();
  KOrder order;
  order.Build(g);
  EXPECT_TRUE(CheckKOrderInvariants(g, order).ok);
}

TEST(InvariantsNegative, DetectsWrongLevel) {
  Graph g = TestGraph();
  KOrder order;
  order.Build(g);
  // Move some vertex to a wrong level.
  VertexId victim = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (order.CoreOf(v) >= 1) {
      victim = v;
      break;
    }
  }
  order.MoveToLevelFront(victim, order.CoreOf(victim) + 3);
  InvariantReport report = CheckKOrderInvariants(g, order);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.failure.find("core mismatch"), std::string::npos);
}

TEST(InvariantsNegative, DetectsStaleDegPlus) {
  Graph g = TestGraph();
  KOrder order;
  order.Build(g);
  // Corrupt a stored deg+ without moving anything.
  VertexId victim = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.Degree(v) > 0) {
      victim = v;
      break;
    }
  }
  order.SetDegPlus(victim, order.DegPlus(victim) + 1);
  InvariantReport report = CheckKOrderInvariants(g, order);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.failure.find("stale deg+"), std::string::npos);
}

TEST(InvariantsNegative, DetectsGraphIndexDivergence) {
  Graph g = TestGraph();
  KOrder order;
  order.Build(g);
  // Mutate the graph behind the index's back.
  Graph mutated = g;
  for (VertexId v = 1; v < mutated.NumVertices(); ++v) {
    if (mutated.AddEdge(0, v)) break;
  }
  InvariantReport report = CheckKOrderInvariants(mutated, order);
  EXPECT_FALSE(report.ok);
}

TEST(InvariantsNegative, DetectsIntraLevelOrderCorruption) {
  // Build a graph where intra-level order matters: a path at core 1.
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  KOrder order;
  order.Build(g);
  ASSERT_TRUE(CheckKOrderInvariants(g, order).ok);
  // Force the middle vertex (which has 2 later neighbors once moved to
  // the front) to violate deg+ <= core. Refresh all stored deg+ values
  // so the order violation is the only defect left to find.
  order.MoveToLevelFront(2, 1);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    order.RecomputeDegPlus(g, v);
  }
  InvariantReport report = CheckKOrderInvariants(g, order);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.failure.find("peel-order violation"),
            std::string::npos);
}

TEST(InvariantsNegative, DetectsOutOfRangeLinks) {
  Graph g = TestGraph();
  KOrder order;
  order.Build(g);
  const VertexId beyond = g.NumVertices() + 5;
  KOrder bad_next = order;
  KOrderTestPeer::SetNext(bad_next, 7, beyond);
  EXPECT_EQ(CheckKOrderInvariants(g, bad_next).failure,
            "broken next link at vertex 7");
  KOrder bad_prev = order;
  KOrderTestPeer::SetPrev(bad_prev, 7, beyond);
  EXPECT_EQ(CheckKOrderInvariants(g, bad_prev).failure,
            "broken prev link at vertex 7");
}

TEST(InvariantsNegative, VertexCountMismatch) {
  Graph g = TestGraph();
  KOrder order;
  order.Build(g);
  Graph bigger = g;
  bigger.AddVertex();
  InvariantReport report = CheckKOrderInvariants(bigger, order);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.failure.find("vertex count"), std::string::npos);
}

// --- Equivalence with the decomposition reference ---------------------

struct IndexedGraph {
  std::string name;
  Graph graph;
  KOrder order;
};

// Chung-Lu and ER graphs at several seeds and sizes, each freshly built
// and after a few maintained churn deltas.
std::vector<IndexedGraph> EquivalenceStates() {
  std::vector<IndexedGraph> states;
  for (uint64_t seed : {3u, 11u, 29u}) {
    for (VertexId n : {60u, 400u, 2000u}) {
      Rng rng(seed * 7919 + n);
      std::vector<std::pair<std::string, Graph>> models;
      models.emplace_back("chung-lu",
                          ChungLuPowerLaw(n, 6.0, 2.2, n / 10 + 5, rng));
      models.emplace_back("er", ErdosRenyi(n, 3 * uint64_t{n}, rng));
      for (auto& [model, g] : models) {
        const std::string name = model + " n=" + std::to_string(n) +
                                 " seed=" + std::to_string(seed);
        KOrder built;
        built.Build(g);
        states.push_back({name + " built", g, built});

        CoreMaintainer maintainer;
        maintainer.Reset(g);
        ChurnOptions churn;
        churn.min_churn = n / 20 + 1;
        churn.max_churn = n / 10 + 2;
        Graph current = g;
        for (int step = 0; step < 4; ++step) {
          maintainer.ApplyDelta(NextChurnDelta(current, churn, rng));
        }
        states.push_back({name + " maintained", maintainer.graph(),
                          maintainer.order()});
      }
    }
  }
  return states;
}

void RefreshAllDegPlus(const Graph& g, KOrder* order) {
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    order->RecomputeDegPlus(g, v);
  }
}

// One corrupted copy of a state; `graph` differs from the state's only
// for the behind-the-index edge and vertex-count classes.
struct Corruption {
  std::string what;
  Graph graph;
  KOrder order;
};

std::vector<Corruption> Corrupt(const IndexedGraph& state, VertexId v,
                                size_t variant) {
  const Graph& g = state.graph;
  const KOrder& base = state.order;
  const VertexId n = g.NumVertices();
  const uint32_t core = base.CoreOf(v);
  std::vector<Corruption> out;
  auto add = [&](std::string what) -> Corruption& {
    out.push_back({std::move(what) + " at " + std::to_string(v), g, base});
    return out.back();
  };

  // Raised >= 1 level with every deg+ refreshed: the peel order can
  // still hold, so only the mcd lower bound sees the wrong level.
  {
    Corruption& c = add("raise");
    const uint32_t to = core + 1 + static_cast<uint32_t>(variant % 2);
    if (variant % 2 == 0) {
      c.order.MoveToLevelBack(v, to);
    } else {
      c.order.MoveToLevelFront(v, to);
    }
    RefreshAllDegPlus(c.graph, &c.order);
  }
  if (core >= 1) {
    Corruption& c = add("lower");
    if (variant % 2 == 0) {
      c.order.MoveToLevelBack(v, core - 1);
    } else {
      c.order.MoveToLevelFront(v, core - 1);
    }
    RefreshAllDegPlus(c.graph, &c.order);
  }
  add("deg+ +1").order.SetDegPlus(v, base.DegPlus(v) + 1);
  if (base.DegPlus(v) > 0) {
    add("deg+ -1").order.SetDegPlus(v, base.DegPlus(v) - 1);
  }
  const VertexId next = base.NextInLevel(v);
  if (next != kNoVertex) {
    KOrderTestPeer::SwapTags(add("tag swap").order, v, next);
  }
  const VertexId other = (v + 1) % n;
  KOrderTestPeer::SetPrev(
      add("prev link").order, v,
      base.PrevInLevel(v) == kNoVertex ? other : kNoVertex);
  KOrderTestPeer::SetNext(add("next link").order, v,
                          next == kNoVertex ? other : kNoVertex);
  KOrderTestPeer::SetHead(add("level head").order, core,
                          base.LevelFront(core) == v ? other : v);
  KOrderTestPeer::SetTail(add("level tail").order, core,
                          base.LevelBack(core) == v ? other : v);
  KOrderTestPeer::SetSize(add("level size").order, core,
                          base.LevelSize(core) + 1);
  // Moved between lists with every counter mended but the level and
  // deg+ left alone: only list coverage, and only list membership,
  // can see these.
  KOrderTestPeer::Unlink(add("dropped from its list").order, v);
  if (core + 1 <= base.MaxLevel() || core >= 1) {
    Corruption& c = add("linked into another level's list");
    KOrderTestPeer::Unlink(c.order, v);
    KOrderTestPeer::LinkInto(c.order, v,
                             core + 1 <= base.MaxLevel() ? core + 1 : core - 1);
  }
  // Relevelled while staying inside its old level's list, with both
  // size counters and every deg+ adjusted to match: among the list
  // checks only level membership (the next vertex's level) can see it.
  if (base.PrevInLevel(v) != kNoVertex && next != kNoVertex &&
      core + 1 <= base.MaxLevel()) {
    Corruption& c = add("relevel inside the list");
    KOrderTestPeer::SetLevel(c.order, v, core + 1);
    KOrderTestPeer::SetSize(c.order, core, base.LevelSize(core) - 1);
    KOrderTestPeer::SetSize(c.order, core + 1, base.LevelSize(core + 1) + 1);
    RefreshAllDegPlus(c.graph, &c.order);
  }
  for (uint32_t level = 0; level <= base.MaxLevel(); ++level) {
    if (base.LevelSize(level) == 0) {
      KOrderTestPeer::SetHead(add("empty level head").order, level, v);
      KOrderTestPeer::SetTail(add("empty level tail").order, level, v);
      break;
    }
  }
  for (VertexId step = 1; step < n; ++step) {
    const VertexId w = (v + step) % n;
    if (!g.HasEdge(v, w)) {
      add("edge added behind index").graph.AddEdge(v, w);
      break;
    }
  }
  if (g.Degree(v) > 0) {
    add("edge removed behind index").graph.RemoveEdge(v, g.Neighbors(v)[0]);
  }
  if (variant == 0) add("vertex count").graph.AddVertex();
  return out;
}

// Pools of 2, 3 and 4 workers, shared by the suites below.
const std::vector<std::unique_ptr<ThreadPool>>& Pools() {
  static const std::vector<std::unique_ptr<ThreadPool>> pools = [] {
    std::vector<std::unique_ptr<ThreadPool>> made;
    for (uint32_t workers : {2u, 3u, 4u}) {
      made.push_back(std::make_unique<ThreadPool>(workers));
    }
    return made;
  }();
  return pools;
}

// The serial report, after checking that every pool gives the same
// verdict and the same failure text.
InvariantReport CheckAtEveryWorkerCount(const Graph& graph,
                                        const KOrder& order,
                                        const std::string& context) {
  const InvariantReport serial = CheckKOrderInvariants(graph, order);
  for (const auto& pool : Pools()) {
    const InvariantReport parallel =
        CheckKOrderInvariants(graph, order, pool.get());
    EXPECT_EQ(parallel.ok, serial.ok)
        << context << " at " << pool->num_threads() << " workers";
    EXPECT_EQ(parallel.failure, serial.failure)
        << context << " at " << pool->num_threads() << " workers";
  }
  return serial;
}

TEST(InvariantsEquivalence, HealthyStatesPassBoth) {
  for (const IndexedGraph& state : EquivalenceStates()) {
    ASSERT_TRUE(ReferenceCheck(state.graph, state.order).ok()) << state.name;
    InvariantReport report =
        CheckAtEveryWorkerCount(state.graph, state.order, state.name);
    EXPECT_TRUE(report.ok) << state.name << ": " << report.failure;
  }
}

TEST(InvariantsEquivalence, VerdictMatchesDecompositionReference) {
  size_t cases = 0;
  size_t mcd_only = 0;
  for (const IndexedGraph& state : EquivalenceStates()) {
    const VertexId n = state.graph.NumVertices();
    Rng rng(n);
    for (size_t variant = 0; variant < 6; ++variant) {
      const VertexId v = static_cast<VertexId>(rng.Uniform(n));
      for (const Corruption& c : Corrupt(state, v, variant)) {
        const ReferenceVerdict reference = ReferenceCheck(c.graph, c.order);
        const InvariantReport report = CheckAtEveryWorkerCount(
            c.graph, c.order, state.name + ", " + c.what);
        // Every class really is a defect, so agreement is not vacuous.
        EXPECT_FALSE(reference.ok()) << state.name << ", " << c.what;
        EXPECT_EQ(report.ok, reference.ok())
            << state.name << ", " << c.what << ": " << report.failure;
        ++cases;
        if (reference.lists && reference.deg_plus && reference.peel &&
            !reference.cores) {
          ++mcd_only;
          EXPECT_NE(report.failure.find("core mismatch"), std::string::npos)
              << state.name << ", " << c.what << ": " << report.failure;
        }
      }
    }
  }
  EXPECT_GT(cases, 1000u);
  // Raised levels with a valid peel order must occur, or the suite would
  // not exercise the certificate's lower bound at all.
  EXPECT_GT(mcd_only, 0u);
}

// Faults in the first and the last block at once: every worker count
// reports the one at the lower vertex id.
TEST(InvariantsEquivalence, LowestFaultWinsAcrossBlocks) {
  Rng rng(2024);
  const Graph g = ChungLuPowerLaw(20000, 6.0, 2.2, 200, rng);
  const VertexId n = g.NumVertices();
  KOrder order;
  order.Build(g);
  ASSERT_TRUE(CheckAtEveryWorkerCount(g, order, "clean").ok);

  auto stale_at = [](VertexId v) {
    return "stale deg+ at vertex " + std::to_string(v) + ":";
  };
  const VertexId low = 0;
  const VertexId high = n - 1;
  order.SetDegPlus(high, order.DegPlus(high) + 1);
  const InvariantReport high_only =
      CheckAtEveryWorkerCount(g, order, "last block only");
  EXPECT_EQ(high_only.failure.find(stale_at(high)), 0u) << high_only.failure;

  order.SetDegPlus(low, order.DegPlus(low) + 1);
  const InvariantReport both =
      CheckAtEveryWorkerCount(g, order, "first and last block");
  EXPECT_EQ(both.failure.find(stale_at(low)), 0u) << both.failure;
}

}  // namespace
}  // namespace avt
