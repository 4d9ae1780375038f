// Table 2: dataset statistics.
//
// Prints, for each of the six replicas, the paper-reported statistics
// next to the replica's measured statistics at the configured scale, so
// the fidelity of every substitution is visible at a glance.
//
//   ./table2_datasets [--scale=0.1] [--seed=42]

#include <cstdio>

#include "bench_common.h"
#include "corelib/graph_stats.h"

using namespace avt;
using namespace avt::bench;

int main(int argc, char** argv) {
  BenchConfig config = ParseBenchConfig(argc, argv);

  TablePrinter table({"dataset", "type", "paper_nodes", "paper_edges",
                      "paper_davg", "days", "replica_nodes",
                      "replica_edges", "replica_davg", "replica_maxcore"});
  for (const DatasetInfo& info : SelectDatasets(config)) {
    double scale = config.scale > 0 ? config.scale : DefaultScale(info);
    Graph g = MakeDatasetGraph(info, scale, config.seed);
    GraphStats stats = ComputeGraphStats(g);
    table.Row()
        .Str(info.name)
        .Str(info.type_label)
        .UInt(info.paper_nodes)
        .UInt(info.paper_edges)
        .Double(info.paper_avg_degree, 2)
        .UInt(info.paper_days)
        .UInt(stats.num_vertices)
        .UInt(stats.num_edges)
        .Double(stats.average_degree, 2)
        .UInt(stats.degeneracy);
  }
  EmitTable("Table 2: dataset statistics (paper vs replica)", table,
            config.print_csv);
  std::printf("\nnote: replica columns are the synthetic stand-ins "
              "made in src/gen/datasets.cc;\n"
              "temporal replicas report their first-window graph.\n");
  return 0;
}
