// Work done outside the timed stream: reading delta sizes off the log,
// the answer certificate, and the traced run's per-layer replays, which
// feed the same inputs through each layer's public functions
// (DecomposeCores, GreedySolver, CoreMaintainer, SentinelAuditor,
// DeltaWal) and time each call.
#ifndef AVT_PERFBENCH_REPLAY_H_
#define AVT_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/avt.h"
#include "graph/graph.h"
#include "util/status.h"
#include "workloads.h"

namespace avt::perfbench {

/// |E+| + |E-| of every delta frame of the log, in stream order.
StatusOr<std::vector<uint64_t>> ReadDeltaSizes(const std::string& log_path);

/// G_T: the log's G_0 with every delta applied.
StatusOr<Graph> RebuildFinalGraph(const std::string& log_path);

/// Recomputes |C_k(S)|, the followers of S and |C_k| on `graph` from
/// scratch (ComputeAnchoredKCore, DecomposeCores) and compares them with
/// what the tracker reported for it. Returns an empty string when all
/// three match, else a description of the first mismatch.
std::string CertifySnapshot(const Graph& graph, uint32_t k,
                            const AvtSnapshotResult& snap);

struct LayerReplay {
  double decompose_ms = 0;
  double first_solve_ms = 0;
  double first_solve_1t_ms = 0;
  /// GreedySolver at 1 thread and at the workload's thread count pick
  /// the tracker's first anchors.
  bool first_anchors_match_1t = false;
  bool first_anchors_match_threads = false;

  double reset_ms = 0;
  std::vector<double> apply_ms;  // one per delta
  uint64_t impacted = 0;
  uint64_t visited = 0;
  uint64_t promotions = 0;
  uint64_t demotions = 0;

  uint64_t audits_run = 0;
  double audit_ms = 0;

  double wal_append_ms = 0;  // 0 unless the workload is durable

  /// Snapshots re-certified on the replayed G_t, and the first failure.
  uint64_t certified = 0;
  std::string certificate_failure;
};

/// Replays the log through each layer. `snapshots` are the tracker's
/// results for the same stream (t = 0 first); every `certify_every`-th
/// one is certified against the maintained graph.
StatusOr<LayerReplay> ReplayLayers(
    const WorkloadSpec& spec, const std::string& log_path,
    const std::vector<AvtSnapshotResult>& snapshots, size_t certify_every,
    const std::string& temp_dir);

}  // namespace avt::perfbench

#endif  // AVT_PERFBENCH_REPLAY_H_
