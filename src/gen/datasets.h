// Named replicas of the paper's six SNAP datasets (Table 2).
//
// The evaluation environment has no network access, so the original edge
// lists cannot be downloaded; each dataset is replaced by a synthetic
// replica that matches the statistics the algorithms are sensitive to
// (vertex count, average degree, degree-distribution family, community
// structure, and — for temporal datasets — event count, day span and the
// paper's window rule). MakeDatasetGraph and MakeEventLog in
// gen/datasets.cc make each substitution.
//
// `scale` shrinks vertex/event counts proportionally (default benchmark
// runs use a fraction of the paper's sizes so the full harness completes
// in minutes on a laptop; pass --scale=1.0 to a bench binary for
// full-size replicas).

#ifndef AVT_GEN_DATASETS_H_
#define AVT_GEN_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/snapshots.h"
#include "util/random.h"

namespace avt {

/// How a dataset evolves into snapshots.
enum class DatasetKind {
  kChurn,     // static graph + random churn protocol (paper Sec 6.1)
  kTemporal,  // event log + sliding-window snapshots
};

/// Registry entry: paper-reported statistics plus replica parameters.
struct DatasetInfo {
  std::string name;
  DatasetKind kind;
  std::string type_label;     // Table 2 "Type" column
  uint32_t paper_nodes;
  uint64_t paper_edges;       // (temporal) edges in Table 2
  double paper_avg_degree;
  uint32_t paper_days;        // 0 for non-temporal datasets
  /// Default k sweep for this dataset in the figures (the paper uses
  /// {2,3,4,5} for sparse graphs and {5,10,15,20} for dense ones).
  std::vector<uint32_t> k_values;
  uint32_t default_k;
};

/// All six datasets in Table 2 order.
const std::vector<DatasetInfo>& AllDatasets();

/// Looks up a dataset by name; aborts on unknown names.
const DatasetInfo& DatasetByName(const std::string& name);

/// Materializes the replica's base graph (churn datasets) or the first
/// window (temporal datasets), scaled.
Graph MakeDatasetGraph(const DatasetInfo& info, double scale, uint64_t seed);

/// Materializes the full T-snapshot evolving replica.
SnapshotSequence MakeDatasetSnapshots(const DatasetInfo& info, double scale,
                                      size_t T, uint64_t seed);

}  // namespace avt

#endif  // AVT_GEN_DATASETS_H_
