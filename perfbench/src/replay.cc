#include "replay.h"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "anchor/anchored_core.h"
#include "anchor/greedy.h"
#include "core/health.h"
#include "corelib/decomposition.h"
#include "durability/wal.h"
#include "graph/edge_log.h"
#include "maint/maintainer.h"
#include "util/timer.h"

namespace avt::perfbench {

StatusOr<std::vector<uint64_t>> ReadDeltaSizes(const std::string& log_path) {
  auto reader = EdgeLogReader::Open(log_path);
  if (!reader.ok()) return reader.status();
  std::vector<uint64_t> sizes;
  EdgeDelta delta;
  bool initial = true;
  for (;;) {
    StatusOr<bool> more = reader.value()->NextFrame(&delta);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    if (!initial) sizes.push_back(delta.Size());
    initial = false;
  }
  return sizes;
}

StatusOr<Graph> RebuildFinalGraph(const std::string& log_path) {
  auto source = MmapEdgeLogSource::Open(log_path);
  if (!source.ok()) return source.status();
  Graph graph = source.value()->InitialGraph();
  EdgeDelta delta;
  for (;;) {
    StatusOr<bool> more = source.value()->NextDelta(&delta);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    delta.Apply(graph);
  }
  return graph;
}

std::string CertifySnapshot(const Graph& graph, uint32_t k,
                            const AvtSnapshotResult& snap) {
  const AnchoredCoreResult anchored =
      ComputeAnchoredKCore(graph, k, snap.anchors);
  const CoreDecomposition cores = DecomposeCores(graph);
  const auto kcore = static_cast<uint32_t>(
      std::count_if(cores.core.begin(), cores.core.end(),
                    [k](uint32_t c) { return c >= k; }));
  const std::string at = "t=" + std::to_string(snap.t) + ": ";
  if (anchored.followers.size() != snap.num_followers) {
    return at + "followers " + std::to_string(anchored.followers.size()) +
           " recomputed, " + std::to_string(snap.num_followers) + " reported";
  }
  if (anchored.members.size() != snap.anchored_core_size) {
    return at + "anchored core " + std::to_string(anchored.members.size()) +
           " recomputed, " + std::to_string(snap.anchored_core_size) +
           " reported";
  }
  if (kcore != snap.kcore_size) {
    return at + "k-core " + std::to_string(kcore) + " recomputed, " +
           std::to_string(snap.kcore_size) + " reported";
  }
  return "";
}

namespace {

bool SameAnchors(std::vector<VertexId> a, std::vector<VertexId> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace

StatusOr<LayerReplay> ReplayLayers(
    const WorkloadSpec& spec, const std::string& log_path,
    const std::vector<AvtSnapshotResult>& snapshots, size_t certify_every,
    const std::string& temp_dir) {
  AVT_CHECK(!snapshots.empty());
  auto opened = MmapEdgeLogSource::Open(log_path);
  if (!opened.ok()) return opened.status();
  MmapEdgeLogSource& source = *opened.value();
  const Graph& g0 = source.InitialGraph();
  LayerReplay out;

  Timer timer;
  DecomposeCores(g0);
  out.decompose_ms = timer.ElapsedMillis();

  GreedyOptions greedy;
  greedy.num_threads = spec.threads;
  timer.Start();
  SolverResult first = GreedySolver(greedy).Solve(g0, spec.k, spec.l);
  out.first_solve_ms = timer.ElapsedMillis();
  greedy.num_threads = 1;
  timer.Start();
  SolverResult first_1t = GreedySolver(greedy).Solve(g0, spec.k, spec.l);
  out.first_solve_1t_ms = timer.ElapsedMillis();
  out.first_anchors_match_threads =
      SameAnchors(first.anchors, snapshots[0].anchors);
  out.first_anchors_match_1t =
      SameAnchors(first_1t.anchors, snapshots[0].anchors);

  CoreMaintainer maintainer;
  timer.Start();
  maintainer.Reset(g0);
  maintainer.SetCsrMirror(true);  // IncAVT's default cascade backing
  out.reset_ms = timer.ElapsedMillis();
  maintainer.ResetStats();

  std::unique_ptr<DeltaWal> wal;
  if (spec.durable) {
    auto created =
        DeltaWal::Create(temp_dir + "/replay-wal.log", FsyncPolicy::kNever);
    if (!created.ok()) return created.status();
    wal = std::move(created).value();
  }

  // The engine audits before committing transaction i when
  // i % audit_every == 0 (AvtEngine::Step), with the same options.
  AuditOptions audit_options;
  audit_options.every = spec.audit_every;
  audit_options.sample = spec.audit_sample;
  SentinelAuditor auditor(audit_options);

  EdgeDelta delta;
  for (size_t txn = 1;; ++txn) {
    StatusOr<bool> more = source.NextDelta(&delta);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    timer.Start();
    out.impacted += maintainer.ApplyDelta(delta).size();
    out.apply_ms.push_back(timer.ElapsedMillis());
    if (auditor.Due(txn)) {
      timer.Start();
      auditor.Audit(&maintainer.graph(), &maintainer.order(), txn);
      out.audit_ms += timer.ElapsedMillis();
    }
    if (wal != nullptr) {
      WalRecord record;
      record.seq = txn;
      record.source_pulls = 1;
      record.delta = delta;
      timer.Start();
      Status appended = wal->Append(record);
      out.wal_append_ms += timer.ElapsedMillis();
      if (!appended.ok()) return appended;
    }
    if (certify_every > 0 && txn % certify_every == 0 &&
        txn < snapshots.size() && out.certificate_failure.empty()) {
      out.certificate_failure =
          CertifySnapshot(maintainer.graph(), spec.k, snapshots[txn]);
      ++out.certified;
    }
  }
  if (wal != nullptr) {
    Status flushed = wal->Flush();
    if (!flushed.ok()) return flushed;
    wal.reset();
    std::filesystem::remove(temp_dir + "/replay-wal.log");
  }
  out.audits_run = auditor.audits_run();
  out.visited = maintainer.stats().visited;
  out.promotions = maintainer.stats().promotions;
  out.demotions = maintainer.stats().demotions;
  return out;
}

}  // namespace avt::perfbench
