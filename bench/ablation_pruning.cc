// Ablation: the two Greedy accelerations of Section 4, measured
// separately (the paper reports the combined effect only).
//
//  (a) Theorem-3 candidate pruning: optimized Greedy vs the same solver
//      with the unpruned candidate pool.
//  (b) Order-based follower computation: FollowerOracle vs the exact
//      pinned peel, at equal candidate sets.
//
//   ./ablation_pruning [--scale=...] [--seed=42]

#include <cstdio>

#include "anchor/anchored_core.h"
#include "anchor/candidates.h"
#include "anchor/follower_oracle.h"
#include "anchor/greedy.h"
#include "bench_common.h"
#include "corelib/korder.h"
#include "util/timer.h"

using namespace avt;
using namespace avt::bench;

int main(int argc, char** argv) {
  BenchConfig config = ParseBenchConfig(argc, argv);

  TablePrinter pruning({"dataset", "pruned_ms", "pruned_visited",
                        "unpruned_ms", "unpruned_visited", "followers_eq"});
  TablePrinter oracle_table({"dataset", "candidates", "oracle_ms",
                             "exact_peel_ms", "speedup"});

  for (const DatasetInfo& info : SelectDatasets(config)) {
    double scale = config.scale > 0 ? config.scale : DefaultScale(info);
    Graph g = MakeDatasetGraph(info, scale, config.seed);
    const uint32_t k = info.default_k;
    const uint32_t l = 5;

    // (a) candidate pruning.
    GreedySolver pruned(true), unpruned(false);
    Timer t1;
    SolverResult a = pruned.Solve(g, k, l);
    double pruned_ms = t1.ElapsedMillis();
    Timer t2;
    SolverResult b = unpruned.Solve(g, k, l);
    double unpruned_ms = t2.ElapsedMillis();
    pruning.Row()
        .Str(info.name)
        .Double(pruned_ms, 2)
        .UInt(a.candidates_visited)
        .Double(unpruned_ms, 2)
        .UInt(b.candidates_visited)
        .Str(a.num_followers() == b.num_followers() ? "yes" : "NO");

    // (b) follower computation: evaluate every Theorem-3 candidate once.
    KOrder order;
    order.Build(g);
    FollowerOracle oracle(&g, &order);
    std::vector<VertexId> pool = CollectAnchorCandidates(g, order, k);
    Timer t3;
    uint64_t sink1 = 0;
    for (VertexId x : pool) {
      std::vector<VertexId> anchors{x};
      sink1 += oracle.CountFollowers(anchors, k);
    }
    double oracle_ms = t3.ElapsedMillis();
    Timer t4;
    uint64_t sink2 = 0;
    for (VertexId x : pool) {
      sink2 += CountFollowersExact(g, k, {x});
    }
    double exact_ms = t4.ElapsedMillis();
    AVT_CHECK_MSG(sink1 == sink2, "oracle diverged from exact peel");
    oracle_table.Row()
        .Str(info.name)
        .UInt(pool.size())
        .Double(oracle_ms, 2)
        .Double(exact_ms, 2)
        .Double(oracle_ms > 0 ? exact_ms / oracle_ms : 0.0, 1);
  }

  EmitTable("Ablation (a): Theorem-3 candidate pruning", pruning,
            config.print_csv);
  EmitTable("Ablation (b): order-based follower oracle vs exact peel",
            oracle_table, config.print_csv);
  std::printf("\n'followers_eq' confirms pruning never changes the "
              "result; 'speedup' is exact/oracle per-candidate cost.\n");
  return 0;
}
