// Scalability tier (BENCH_PR10.json): the full stream -> track ->
// anchor pipeline at real-graph scale, plus the ingestion gate that
// justifies the binary edge log (graph/edge_log.h).
//
// Two tiers:
//
//   * n = 1M (always): a synthetic sorted temporal edge list is
//     written to disk, transcoded to a binary edge log
//     (ConvertTemporalToEdgeLog — the `avt_cli convert` path), and
//     ingested both ways. The gate times a pure drain (Open + every
//     NextDelta, no tracking) of the text streamer against the mmap
//     binlog source and ENFORCES binlog >= 1.5x; the streams are also
//     pulled side by side and asserted delta-for-delta identical, and
//     the full pipeline is run from BOTH sources with every snapshot's
//     anchor set asserted bit-identical.
//   * n = 10M (opt-in: --full or AVT_SCALE_10M=1; nightly CI): the
//     delta stream is generated straight into a binary edge log —
//     no 10M-vertex text file is ever written — and the pipeline runs
//     from the mmap source alone, so its anchors_bit_identical is
//     "not-compared". The top-level flag is the conjunction over the
//     tiers that did compare.
//
// Peak-RSS methodology: each tier's pipeline runs in a CHILD process
// (this binary re-invoked with --tier-child), so getrusage's process
// high-water mark reflects that tier's stream -> track -> anchor run
// and not the parent's generation scratch. The child samples peak RSS
// immediately after the binlog pipeline drains — before the 1M tier's
// text-pipeline comparison run — and writes a JSON fragment the
// parent embeds verbatim into BENCH_PR10.json.
//
// Audits: each tier's binlog pipeline runs the sentinel audit every
// kTierAuditEvery transactions (three audits at --t=8), so its
// pipeline_wall_ms includes them; the text comparison pipeline runs
// none. The fragment reports audit_every, audits_run, audits_failed
// and audit_ms, the wall time of one extra audit of the drained state.
// A failed audit aborts the tier.
//
//   ./bench_scalability [--out=BENCH_PR10.json] [--workdir=scale_work]
//                       [--n1=1000000] [--n10=10000000] [--full]
//                       [--t=8] [--k=3] [--l=3] [--seed=42]
//                       [--events-per-vertex=4] [--churn=3000]
//                       [--keep-artifacts]

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/avt.h"
#include "core/engine.h"
#include "core/health.h"
#include "core/run_summary.h"
#include "gen/churn.h"
#include "gen/generator_source.h"
#include "gen/models.h"
#include "graph/delta_source.h"
#include "graph/edge_log.h"
#include "util/flags.h"
#include "util/mem.h"
#include "util/random.h"
#include "util/status.h"
#include "util/timer.h"

using namespace avt;

namespace {

constexpr double kIngestSpeedupBound = 1.5;

// Ticks per text window period; the --window horizon is in the same
// unit, sized so pairs age out and every transition carries deletions.
constexpr int64_t kTicksPerPeriod = 1000;
constexpr uint32_t kWindowTicks = 1500;

// Writes a sorted synthetic temporal edge list: `events` uniform
// events over `n` ids, timestamps climbing linearly across T periods.
void WriteSyntheticTemporal(const std::string& path, VertexId n,
                            uint64_t events, size_t T, uint64_t seed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  AVT_CHECK_MSG(f != nullptr, "cannot write synthetic temporal file");
  std::fprintf(f, "# synthetic uniform temporal stream: n=%u events=%" PRIu64
                  " T=%zu seed=%" PRIu64 "\n",
               n, events, T, seed);
  Rng rng(seed);
  const int64_t span = static_cast<int64_t>(T) * kTicksPerPeriod;
  for (uint64_t e = 0; e < events; ++e) {
    const int64_t ts =
        1 + static_cast<int64_t>((static_cast<__uint128_t>(e) * span) /
                                 events);
    VertexId u = static_cast<VertexId>(rng.Uniform(n));
    VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v) v = (v + 1) % n;
    std::fprintf(f, "%u %u %" PRId64 "\n", u, v, ts);
  }
  std::fclose(f);
}

// Pure ingestion drain: every delta pulled, nothing tracked.
struct DrainResult {
  double millis = 0;
  uint64_t deltas = 0;
  uint64_t edges = 0;  // total batch entries pulled
};

DrainResult DrainSource(DeltaSource& source) {
  DrainResult result;
  result.edges = source.InitialGraph().NumEdges();
  EdgeDelta delta;
  Timer timer;
  for (;;) {
    StatusOr<bool> more = source.NextDelta(&delta);
    AVT_CHECK_MSG(more.ok(), "scalability drain hit a source error");
    if (!more.value()) break;
    ++result.deltas;
    result.edges += delta.insertions.size() + delta.deletions.size();
  }
  result.millis = timer.ElapsedMillis();
  return result;
}

// One pipeline run: engine + IncAVT over `source`, anchors recorded
// per snapshot. Wall time is split into the t=0 build (decomposition +
// first anchor solve, O(n + m)) and the per-delta tracking the paper's
// cost model is about.
struct PipelineResult {
  size_t snapshots = 0;
  double initial_millis = 0;    // snapshot 0
  double delta_millis = 0;      // snapshots 1..T-1 (tracker time)
  double wall_millis = 0;       // whole Drain, wall clock
  VertexId vertices = 0;
  std::vector<std::vector<VertexId>> anchors;
  uint64_t audits_run = 0;
  uint64_t audits_failed = 0;
  double audit_millis = 0;  // one audit of the drained state
};

// Sentinel audit cadence of a tier's binlog pipeline, in transactions.
constexpr size_t kTierAuditEvery = 2;

// With `audit`, the engine audits every kTierAuditEvery transactions
// inside the timed Drain, and one more audit of the drained state is
// timed on its own (audit_millis).
PipelineResult RunPipeline(std::unique_ptr<DeltaSource> source, uint32_t k,
                           uint32_t l, bool audit) {
  PipelineResult result;
  EngineOptions options;
  if (audit) options.audit.every = kTierAuditEvery;
  auto engine = std::make_unique<AvtEngine>(
      MakeTracker(AvtAlgorithm::kIncAvt, k, l), std::move(source), options);
  engine->SetObserver([&](const AvtSnapshotResult& snap) {
    if (snap.t == 0) {
      result.initial_millis += snap.millis;
    } else {
      result.delta_millis += snap.millis;
    }
    result.anchors.push_back(snap.anchors);
  });
  Timer timer;
  Status status = engine->Drain();
  result.wall_millis = timer.ElapsedMillis();
  AVT_CHECK_MSG(status.ok(), "scalability pipeline drain failed");
  result.snapshots = engine->SnapshotsProcessed();
  result.vertices = engine->NumVertices();
  if (!audit) return result;
  result.audits_run = engine->auditor().audits_run();
  result.audits_failed = engine->auditor().audits_failed();

  SentinelAuditor auditor(options.audit);
  const TrackerAuditView view = engine->tracker().AuditView();
  timer.Start();
  const AuditOutcome outcome =
      auditor.Audit(view.graph, view.order, result.snapshots);
  result.audit_millis = timer.ElapsedMillis();
  AVT_CHECK_MSG(outcome.audited && outcome.ok,
                "audit of the drained tier state failed");
  return result;
}

std::unique_ptr<MmapEdgeLogSource> MustOpenBinlog(const std::string& path) {
  auto opened = MmapEdgeLogSource::Open(path);
  AVT_CHECK_MSG(opened.ok(), "cannot open the tier's binary edge log");
  return std::move(opened).value();
}

std::unique_ptr<StreamingEdgeFileSource> MustOpenText(
    const std::string& path, size_t T, uint32_t window) {
  auto opened = StreamingEdgeFileSource::Open(path, T, window);
  AVT_CHECK_MSG(opened.ok(), "cannot open the tier's temporal text file");
  return std::move(opened).value();
}

// --- Child mode --------------------------------------------------------
//
// Runs one tier's pipeline in a fresh process so peak RSS is the
// tier's own. Writes a JSON object fragment to --tier-out.
int RunTierChild(const Flags& flags) {
  const std::string binlog = flags.GetString("binlog", "");
  const std::string text = flags.GetString("text", "");
  const std::string tier_out = flags.GetString("tier-out", "tier.json");
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 3));
  const uint32_t l = static_cast<uint32_t>(flags.GetInt("l", 3));
  AVT_CHECK_MSG(!binlog.empty(), "--tier-child needs --binlog");

  auto source = MustOpenBinlog(binlog);
  const uint64_t binlog_bytes = source->reader().file_bytes();
  const VertexId declared = source->reader().num_vertices();
  const uint64_t initial_edges = source->InitialGraph().NumEdges();

  PipelineResult bin = RunPipeline(std::move(source), k, l, /*audit=*/true);
  AVT_CHECK_MSG(bin.audits_failed == 0,
                "scalability gate violated: a sentinel audit failed");
  // Sample the high-water mark NOW: everything after this line (the
  // text comparison pipeline) must not pollute the tier's number.
  const uint64_t peak_rss = PeakRssBytes();

  // Tri-state: a tier without a text run compared nothing, so it
  // reports "not-compared", never true.
  const char* anchors_verdict = "\"not-compared\"";
  if (!text.empty()) {
    const size_t T = static_cast<size_t>(flags.GetInt("t", 8));
    const uint32_t window =
        static_cast<uint32_t>(flags.GetInt("window", kWindowTicks));
    PipelineResult txt =
        RunPipeline(MustOpenText(text, T, window), k, l, /*audit=*/false);
    const bool anchors_match = bin.anchors == txt.anchors &&
                               bin.snapshots == txt.snapshots &&
                               bin.vertices == txt.vertices;
    anchors_verdict = anchors_match ? "true" : "false";
    AVT_CHECK_MSG(anchors_match,
                  "scalability gate violated: binlog-streamed anchors "
                  "differ from text-streamed anchors");
  }

  const size_t deltas = bin.snapshots > 0 ? bin.snapshots - 1 : 0;
  const double ms_per_delta =
      deltas > 0 ? bin.delta_millis / static_cast<double>(deltas) : 0.0;
  const double deltas_per_sec =
      bin.delta_millis > 0
          ? static_cast<double>(deltas) * 1000.0 / bin.delta_millis
          : 0.0;

  std::FILE* f = std::fopen(tier_out.c_str(), "w");
  AVT_CHECK_MSG(f != nullptr, "cannot write tier fragment");
  std::fprintf(f, "{\n");
  std::fprintf(f, "      \"n\": %u,\n", bin.vertices);
  std::fprintf(f, "      \"declared_universe\": %u,\n", declared);
  std::fprintf(f, "      \"initial_edges\": %" PRIu64 ",\n", initial_edges);
  std::fprintf(f, "      \"binlog_bytes\": %" PRIu64 ",\n", binlog_bytes);
  std::fprintf(f, "      \"snapshots\": %zu,\n", bin.snapshots);
  std::fprintf(f, "      \"deltas\": %zu,\n", deltas);
  std::fprintf(f, "      \"initial_build_ms\": %.1f,\n", bin.initial_millis);
  std::fprintf(f, "      \"ms_per_delta\": %.3f,\n", ms_per_delta);
  std::fprintf(f, "      \"deltas_per_sec\": %.1f,\n", deltas_per_sec);
  std::fprintf(f, "      \"pipeline_wall_ms\": %.1f,\n", bin.wall_millis);
  std::fprintf(f, "      \"peak_rss_bytes\": %" PRIu64 ",\n", peak_rss);
  std::fprintf(f, "      \"peak_rss_mib\": %.1f,\n",
               static_cast<double>(peak_rss) / (1024.0 * 1024.0));
  std::fprintf(f, "      \"audit_every\": %zu,\n", kTierAuditEvery);
  std::fprintf(f, "      \"audits_run\": %" PRIu64 ",\n", bin.audits_run);
  std::fprintf(f, "      \"audits_failed\": %" PRIu64 ",\n",
               bin.audits_failed);
  std::fprintf(f, "      \"audit_ms\": %.1f,\n", bin.audit_millis);
  std::fprintf(f, "      \"text_compared\": %s,\n",
               text.empty() ? "false" : "true");
  std::fprintf(f, "      \"anchors_bit_identical\": %s\n",
               anchors_verdict);
  std::fprintf(f, "    }");
  std::fclose(f);
  std::printf("tier n=%u: %zu deltas, %.3f ms/delta, peak RSS %.1f MiB, "
              "%" PRIu64 " audits, %.1f ms/audit\n",
              bin.vertices, deltas, ms_per_delta,
              static_cast<double>(peak_rss) / (1024.0 * 1024.0),
              bin.audits_run, bin.audit_millis);
  return 0;
}

std::string Slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  AVT_CHECK_MSG(f != nullptr, "cannot read tier fragment");
  std::string content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  return content;
}

// The "anchors_bit_identical" value a tier fragment carries: true,
// false or "not-compared" (quotes included).
std::string TierAnchorsVerdict(const std::string& fragment) {
  const std::string key = "\"anchors_bit_identical\": ";
  const size_t at = fragment.find(key);
  AVT_CHECK_MSG(at != std::string::npos,
                "tier fragment lacks anchors_bit_identical");
  const size_t begin = at + key.size();
  return fragment.substr(begin, fragment.find_first_of(",\n}", begin) - begin);
}

void RunChild(const std::string& command) {
  std::printf("+ %s\n", command.c_str());
  std::fflush(stdout);
  const int rc = std::system(command.c_str());
  AVT_CHECK_MSG(rc == 0, "tier child process failed");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  if (flags.GetBool("tier-child", false)) return RunTierChild(flags);

  const std::string out = flags.GetString("out", "BENCH_PR10.json");
  const std::string workdir = flags.GetString("workdir", "scale_work");
  const VertexId n1 =
      static_cast<VertexId>(flags.GetInt("n1", 1000000));
  const VertexId n10 =
      static_cast<VertexId>(flags.GetInt("n10", 10000000));
  const size_t T = static_cast<size_t>(flags.GetInt("t", 8));
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 3));
  const uint32_t l = static_cast<uint32_t>(flags.GetInt("l", 3));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const uint64_t events_per_vertex =
      static_cast<uint64_t>(flags.GetInt("events-per-vertex", 4));
  const uint32_t churn =
      static_cast<uint32_t>(flags.GetInt("churn", 3000));
  const bool full = flags.GetBool("full", false) ||
                    std::getenv("AVT_SCALE_10M") != nullptr;

  std::error_code ec;
  std::filesystem::create_directories(workdir, ec);
  AVT_CHECK_MSG(!ec, "cannot create the scalability workdir");
  const std::string self = argv[0];

  // --- Tier 1: n = 1M, text vs binlog --------------------------------
  const std::string text_path = workdir + "/scale_1m.txt";
  const std::string binlog_1m = workdir + "/scale_1m.avtb";
  std::printf("generating %s (n=%u, %" PRIu64 " events)...\n",
              text_path.c_str(), n1, events_per_vertex * n1);
  WriteSyntheticTemporal(text_path, n1, events_per_vertex * n1, T, seed);
  {
    auto converted = ConvertTemporalToEdgeLog(text_path, T, kWindowTicks,
                                              binlog_1m);
    AVT_CHECK_MSG(converted.ok(), "convert to binary edge log failed");
    std::printf("converted -> %s (%" PRIu64 " deltas, %" PRIu64 " bytes)\n",
                binlog_1m.c_str(), converted.value().deltas,
                converted.value().bytes);
  }

  // Ingestion gate: pure drains, then a side-by-side equality pull.
  DrainResult text_drain;
  {
    Timer open_and_drain;
    auto source = MustOpenText(text_path, T, kWindowTicks);
    text_drain = DrainSource(*source);
    // Open (the metadata pre-scan + G_0 window) is part of the cost
    // the binary header eliminates, so the gate times it too.
    text_drain.millis = open_and_drain.ElapsedMillis();
  }
  DrainResult binlog_drain;
  {
    Timer open_and_drain;
    auto source = MustOpenBinlog(binlog_1m);
    binlog_drain = DrainSource(*source);
    binlog_drain.millis = open_and_drain.ElapsedMillis();
  }
  AVT_CHECK_MSG(text_drain.deltas == binlog_drain.deltas &&
                    text_drain.edges == binlog_drain.edges,
                "text and binlog streams disagree on shape");
  {
    auto text_source = MustOpenText(text_path, T, kWindowTicks);
    auto bin_source = MustOpenBinlog(binlog_1m);
    AVT_CHECK_MSG(DiffGraphs(text_source->InitialGraph(),
                             bin_source->InitialGraph())
                      .Empty(),
                  "text and binlog initial graphs differ");
    EdgeDelta from_text, from_bin;
    for (;;) {
      StatusOr<bool> t_more = text_source->NextDelta(&from_text);
      StatusOr<bool> b_more = bin_source->NextDelta(&from_bin);
      AVT_CHECK(t_more.ok() && b_more.ok());
      AVT_CHECK_MSG(t_more.value() == b_more.value(),
                    "streams end at different deltas");
      if (!t_more.value()) break;
      AVT_CHECK_MSG(from_text.insertions == from_bin.insertions &&
                        from_text.deletions == from_bin.deletions,
                    "a converted delta is not bit-identical to the "
                    "text-streamed delta");
    }
  }
  const double speedup =
      binlog_drain.millis > 0 ? text_drain.millis / binlog_drain.millis
                              : 0.0;
  std::printf("ingest n=%u: text %.1f ms, binlog %.1f ms -> %.2fx "
              "(bound %.1fx)\n",
              n1, text_drain.millis, binlog_drain.millis, speedup,
              kIngestSpeedupBound);
  AVT_CHECK_MSG(speedup >= kIngestSpeedupBound,
                "scalability gate violated: binary ingestion is not >= "
                "1.5x faster than the text streamer at n=1M");

  // Pipeline tier 1M in a child process (see peak-RSS methodology).
  const std::string tier1_out = workdir + "/tier_1m.json";
  RunChild(self + " --tier-child --binlog=" + binlog_1m +
           " --text=" + text_path + " --t=" + std::to_string(T) +
           " --window=" + std::to_string(kWindowTicks) +
           " --k=" + std::to_string(k) + " --l=" + std::to_string(l) +
           " --tier-out=" + tier1_out);

  // --- Tier 2: n = 10M, binlog only ----------------------------------
  std::string tier10_fragment;
  if (full) {
    const std::string binlog_10m = workdir + "/scale_10m.avtb";
    std::printf("generating %s (n=%u, direct to binary)...\n",
                binlog_10m.c_str(), n10);
    {
      // Generation scratch lives and dies in this scope; the pipeline
      // itself runs in the child with a clean RSS slate anyway.
      Rng rng(seed + 1);
      Graph initial = ErdosRenyi(
          n10, static_cast<uint64_t>(n10) * 3 / 2, rng);
      ChurnOptions options;
      options.num_snapshots = T;
      options.min_churn = churn;
      options.max_churn = churn + churn / 2;
      ChurnSource source(std::move(initial), options, rng);
      auto written = WriteEdgeLog(source, binlog_10m);
      AVT_CHECK_MSG(written.ok(), "10M edge-log generation failed");
      std::printf("wrote %s (%" PRIu64 " deltas, %" PRIu64 " bytes)\n",
                  binlog_10m.c_str(), written.value().deltas,
                  written.value().bytes);
    }
    const std::string tier10_out = workdir + "/tier_10m.json";
    RunChild(self + " --tier-child --binlog=" + binlog_10m +
             " --k=" + std::to_string(k) + " --l=" + std::to_string(l) +
             " --tier-out=" + tier10_out);
    tier10_fragment = Slurp(tier10_out);
  } else {
    std::printf("10M tier skipped (enable with --full or "
                "AVT_SCALE_10M=1)\n");
  }

  // --- Emit BENCH_PR10.json ------------------------------------------
  std::FILE* f = std::fopen(out.c_str(), "w");
  AVT_CHECK_MSG(f != nullptr, "cannot open bench output file");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"scalability\",\n");
  std::fprintf(f, "  \"pr\": 10,\n");
  std::fprintf(
      f,
      "  \"config\": {\"n1\": %u, \"n10\": %u, \"t\": %zu, \"k\": %u, "
      "\"l\": %u, \"window_ticks\": %u, \"events_per_vertex\": %" PRIu64
      ", \"churn\": %u, \"seed\": %" PRIu64 ", \"ten_m_tier_run\": %s},\n",
      n1, n10, T, k, l, kWindowTicks, events_per_vertex, churn, seed,
      full ? "true" : "false");
  std::fprintf(f, "  \"ingest_1m\": {\n");
  std::fprintf(f,
               "    \"text\": {\"wall_ms\": %.1f, \"deltas\": %" PRIu64
               ", \"edges\": %" PRIu64 "},\n",
               text_drain.millis, text_drain.deltas, text_drain.edges);
  std::fprintf(f,
               "    \"binlog\": {\"wall_ms\": %.1f, \"deltas\": %" PRIu64
               ", \"edges\": %" PRIu64 "},\n",
               binlog_drain.millis, binlog_drain.deltas,
               binlog_drain.edges);
  std::fprintf(f, "    \"speedup\": %.2f,\n", speedup);
  std::fprintf(f, "    \"speedup_bound\": %.1f,\n", kIngestSpeedupBound);
  std::fprintf(f, "    \"streams_bit_identical\": true\n");
  std::fprintf(f, "  },\n");
  // The top-level flag is the conjunction over the tiers that compared
  // anything, and "not-compared" when none did.
  const std::string tier1_fragment = Slurp(tier1_out);
  std::string anchors_verdict = "\"not-compared\"";
  for (const std::string& fragment : {tier1_fragment, tier10_fragment}) {
    if (fragment.empty()) continue;
    const std::string verdict = TierAnchorsVerdict(fragment);
    if (verdict == "\"not-compared\"" || anchors_verdict == "false") continue;
    anchors_verdict = verdict;
  }
  std::fprintf(f, "  \"tiers\": [\n");
  std::fprintf(f, "    %s", tier1_fragment.c_str());
  if (!tier10_fragment.empty()) {
    std::fprintf(f, ",\n    %s\n", tier10_fragment.c_str());
  } else {
    std::fprintf(f, "\n");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"anchors_bit_identical\": %s\n",
               anchors_verdict.c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());

  if (!flags.GetBool("keep-artifacts", false)) {
    std::filesystem::remove_all(workdir, ec);
  }
  return 0;
}
