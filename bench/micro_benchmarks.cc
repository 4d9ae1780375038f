// Google-benchmark microbenches for the library's primitives:
// core decomposition, K-order construction, single-edge maintenance vs
// rebuild, batch and sliding-window maintenance, follower-oracle
// queries, exact anchored peels, and the sentinel audit.
//
//   ./micro_benchmarks [--benchmark_filter=...]

#include <benchmark/benchmark.h>

#include "anchor/anchored_core.h"
#include "anchor/candidates.h"
#include "anchor/follower_oracle.h"
#include "core/health.h"
#include "corelib/decomposition.h"
#include "corelib/korder.h"
#include "gen/churn.h"
#include "gen/generator_source.h"
#include "gen/models.h"
#include "gen/temporal.h"
#include "maint/maintainer.h"
#include "util/random.h"

namespace avt {
namespace {

Graph BenchGraph(int64_t n) {
  Rng rng(1234);
  return ChungLuPowerLaw(static_cast<VertexId>(n), 8.0, 2.1,
                         static_cast<uint32_t>(n / 20 + 10), rng);
}

void BM_CoreDecomposition(benchmark::State& state) {
  Graph g = BenchGraph(state.range(0));
  for (auto _ : state) {
    CoreDecomposition cores = DecomposeCores(g);
    benchmark::DoNotOptimize(cores.max_core);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_CoreDecomposition)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_KOrderBuild(benchmark::State& state) {
  Graph g = BenchGraph(state.range(0));
  for (auto _ : state) {
    KOrder order;
    order.Build(g);
    benchmark::DoNotOptimize(order.MaxLevel());
  }
}
BENCHMARK(BM_KOrderBuild)->Arg(1000)->Arg(10000)->Arg(50000);

// Maintain one edge churn step (insert + remove) on a warm index.
void BM_MaintainSingleEdge(benchmark::State& state) {
  Graph g = BenchGraph(state.range(0));
  CoreMaintainer m;
  m.Reset(g);
  Rng rng(77);
  const VertexId n = g.NumVertices();
  for (auto _ : state) {
    VertexId u = static_cast<VertexId>(rng.Uniform(n));
    VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v) continue;
    if (m.InsertEdge(u, v)) {
      m.RemoveEdge(u, v);
    }
  }
}
BENCHMARK(BM_MaintainSingleEdge)->Arg(1000)->Arg(10000)->Arg(50000);

// The alternative the maintenance replaces: full rebuild per edge.
void BM_RebuildPerEdge(benchmark::State& state) {
  Graph g = BenchGraph(state.range(0));
  Rng rng(78);
  const VertexId n = g.NumVertices();
  for (auto _ : state) {
    VertexId u = static_cast<VertexId>(rng.Uniform(n));
    VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v) continue;
    if (g.AddEdge(u, v)) {
      KOrder order;
      order.Build(g);
      benchmark::DoNotOptimize(order.MaxLevel());
      g.RemoveEdge(u, v);
    }
  }
}
BENCHMARK(BM_RebuildPerEdge)->Arg(1000)->Arg(10000);

void BM_FollowerOracleQuery(benchmark::State& state) {
  Graph g = BenchGraph(state.range(0));
  KOrder order;
  order.Build(g);
  FollowerOracle oracle(&g, &order);
  std::vector<VertexId> pool = CollectAnchorCandidates(g, order, 3);
  if (pool.empty()) {
    state.SkipWithError("no candidates");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    std::vector<VertexId> anchors{pool[i % pool.size()]};
    benchmark::DoNotOptimize(oracle.CountFollowers(anchors, 3));
    ++i;
  }
}
BENCHMARK(BM_FollowerOracleQuery)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_ExactAnchoredPeel(benchmark::State& state) {
  Graph g = BenchGraph(state.range(0));
  KOrder order;
  order.Build(g);
  std::vector<VertexId> pool = CollectAnchorCandidates(g, order, 3);
  if (pool.empty()) {
    state.SkipWithError("no candidates");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CountFollowersExact(g, 3, {pool[i % pool.size()]}));
    ++i;
  }
}
BENCHMARK(BM_ExactAnchoredPeel)->Arg(1000)->Arg(10000);

void BM_BatchDelta(benchmark::State& state) {
  Graph g = BenchGraph(10000);
  CoreMaintainer m;
  m.Reset(g);
  Rng rng(79);
  for (auto _ : state) {
    state.PauseTiming();
    EdgeDelta delta;
    std::vector<Edge> edges = m.graph().CollectEdges();
    std::vector<uint64_t> picks = rng.SampleDistinct(
        edges.size(), static_cast<uint64_t>(state.range(0)));
    for (uint64_t p : picks) delta.deletions.push_back(edges[p]);
    int added = 0;
    while (added < state.range(0)) {
      VertexId u = static_cast<VertexId>(rng.Uniform(10000));
      VertexId v = static_cast<VertexId>(rng.Uniform(10000));
      if (u == v || m.graph().HasEdge(u, v)) continue;
      Edge e(u, v);
      bool dup = false;
      for (const Edge& d : delta.deletions) {
        if (d == e) dup = true;
      }
      if (dup) continue;
      delta.insertions.push_back(e);
      ++added;
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(m.ApplyDelta(delta).size());
  }
}
BENCHMARK(BM_BatchDelta)->Arg(100)->Arg(250);

// Maintenance alone on a sliding-window stream (perfbench's window-pl50k
// shape at a few thousand vertices): each delta replaces most of the
// window. One iteration replays every delta through ApplyDelta, as the
// tracker runs it; the reset between replays is untimed.
void BM_ApplyDeltaWindow(benchmark::State& state) {
  Rng rng(80);
  TemporalGenOptions options;
  options.num_vertices = static_cast<VertexId>(state.range(0));
  options.num_events = 60 * static_cast<uint64_t>(state.range(0));
  TemporalWindowSource source(GenPowerLawActivityEvents(options, 2.2, rng),
                              /*T=*/101, /*window_days=*/7);
  std::vector<EdgeDelta> deltas;
  int64_t edges = 0;
  for (EdgeDelta delta; source.NextDelta(&delta).value();) {
    edges += static_cast<int64_t>(delta.Size());
    deltas.push_back(delta);
  }
  CoreMaintainer m;
  for (auto _ : state) {
    state.PauseTiming();
    m.Reset(source.InitialGraph());
    state.ResumeTiming();
    for (const EdgeDelta& delta : deltas) {
      benchmark::DoNotOptimize(m.ApplyDelta(delta).size());
    }
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_ApplyDeltaWindow)->Arg(2000)->Arg(5000)->Unit(
    benchmark::kMillisecond);

// One sentinel audit (sampled probe + the linear certificate pass) of a
// maintained Chung-Lu state after a few churn deltas, as AvtEngine runs
// it every --audit-every transactions.
void BM_SentinelAudit(benchmark::State& state) {
  Graph current = BenchGraph(state.range(0));
  CoreMaintainer m;
  m.Reset(current);
  Rng rng(81);
  for (int step = 0; step < 4; ++step) {
    m.ApplyDelta(NextChurnDelta(current, ChurnOptions{}, rng));
  }
  AuditOptions options;
  options.every = 1;
  SentinelAuditor auditor(options);
  size_t step = 0;
  for (auto _ : state) {
    const AuditOutcome outcome = auditor.Audit(&m.graph(), &m.order(), ++step);
    if (!outcome.ok) {
      state.SkipWithError(outcome.failure.c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(m.graph().NumEdges()));
}
BENCHMARK(BM_SentinelAudit)->Arg(50000)->Arg(200000)->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace avt

BENCHMARK_MAIN();
