// avt_perfbench: the C++ half of the AVT stream benchmark.
//
//   avt_perfbench gen --workload=NAME --seed=N --out=LOG [--tiny]
//       Generates the workload's stream from the seed and writes it as a
//       binary edge log.
//
//   avt_perfbench run --workload=NAME --log=LOG --seconds=S --trace=0|1
//                     --work=DIR [--seed=N] [--tiny]
//       Streams the log through AvtEngine + IncAVT, repeating whole
//       passes (set-up, then every transaction) until S seconds have
//       gone by, checks the answers, and prints one JSON object. With
//       --trace=1 passes alternate between plain and traced, and the
//       per-layer replays run after them; spans go to DIR.
//
// perfbench/run.py drives both and reads the JSON; see README.md.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/avt.h"
#include "core/engine.h"
#include "core/run_summary.h"
#include "durability/wal.h"
#include "graph/edge_log.h"
#include "replay.h"
#include "tracing.h"
#include "util/flags.h"
#include "util/mem.h"
#include "util/timer.h"
#include "workloads.h"

namespace avt::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr size_t kMinPasses = 2;
/// Set-up is sampled at least kMinSetupSamples times per run, and until
/// the samples cover kMinSetupSeconds (at most kMaxSetupSamples); extra
/// set-up-only passes make up the difference. setup_s is their median.
constexpr size_t kMinSetupSamples = 3;
constexpr size_t kMaxSetupSamples = 50;
constexpr double kMinSetupSeconds = 1.0;

// ---------------------------------------------------------------- JSON

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + Quote(key) + ": " + json;
    return *this;
  }
  JsonObject& Num(const std::string& key, double value) {
    return Raw(key, Number(value));
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, Quote(value));
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// A metric with its unit, the way run.py prints and forwards it.
/// `samples` is the number of values the figure summarizes.
std::string Metric(double value, const std::string& unit,
                   uint64_t samples = 1) {
  return JsonObject()
      .Num("value", value)
      .Str("unit", unit)
      .Num("samples", static_cast<double>(samples))
      .Done();
}

/// Checks are tri-state: a check that compared nothing says so.
enum class Check { kPass, kFail, kNotCompared };

std::string CheckJson(Check check) {
  switch (check) {
    case Check::kPass: return "true";
    case Check::kFail: return "false";
    case Check::kNotCompared: return "\"not-compared\"";
  }
  return "false";
}

Check FromBool(bool ok) { return ok ? Check::kPass : Check::kFail; }

// --------------------------------------------------------------- stats

/// Linear-interpolated percentile (q in [0, 1]) of unsorted samples.
double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - lo);
}

double Sum(const std::vector<double>& samples) {
  double total = 0;
  for (double s : samples) total += s;
  return total;
}

/// FNV-1a over every snapshot's t and anchor set.
uint64_t AnchorDigest(const std::vector<AvtSnapshotResult>& snapshots) {
  uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 1099511628211ULL;
    }
  };
  for (const AvtSnapshotResult& snap : snapshots) {
    mix(snap.t);
    mix(snap.anchors.size());
    for (VertexId a : snap.anchors) mix(a);
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

// ---------------------------------------------------------------- runs

struct RunContext {
  WorkloadSpec spec;
  uint64_t seed = 0;
  std::string log_path;
  std::string work_dir;
};

std::unique_ptr<AvtTracker> NewTracker(const WorkloadSpec& spec) {
  return MakeTracker(AvtAlgorithm::kIncAvt, spec.k, spec.l, spec.threads);
}

EngineOptions NewEngineOptions(const WorkloadSpec& spec) {
  EngineOptions options;
  options.audit.every = spec.audit_every;
  options.audit.sample = spec.audit_sample;
  return options;
}

DurabilityOptions NewDurabilityOptions(const RunContext& ctx,
                                       const std::string& dir) {
  DurabilityOptions durability;
  durability.dir = dir;
  durability.checkpoint_every = ctx.spec.checkpoint_every;
  durability.fsync = FsyncPolicy::kNever;
  durability.config_extra = "perfbench;workload=" + ctx.spec.name +
                            ";seed=" + std::to_string(ctx.seed);
  return durability;
}

struct PassResult {
  double setup_s = 0;
  double rss_after_setup_mib = 0;
  double peak_rss_mib = 0;
  std::vector<double> txn_ms;  // wall time of each delta Step
  double steady_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;
  std::vector<AvtSnapshotResult> snapshots;
  RunSummary summary;
  uint64_t digest = 0;
  std::string durable_dir;  // kept for Recover on the first pass
};

/// One pass: open the log, build the engine, take G_0 (set-up), then
/// Step through every transaction. `recorder` non-null makes it a traced
/// pass; `setup_only` stops after G_0.
PassResult RunPass(const RunContext& ctx, size_t index,
                   SpanRecorder* recorder, bool setup_only,
                   bool keep_durable_dir) {
  const WorkloadSpec& spec = ctx.spec;
  PassResult pass;
  const std::string dir =
      ctx.work_dir + "/durable-pass" + std::to_string(index);
  if (spec.durable) fs::remove_all(dir);

  std::unique_ptr<AvtEngine> engine;
  {
    Timer setup;
    ScopedSpan setup_span(recorder, "engine.setup", 0);
    StatusOr<std::unique_ptr<MmapEdgeLogSource>> opened =
        Status::Internal("unopened");
    {
      ScopedSpan open_span(recorder, "graph.open");
      opened = MmapEdgeLogSource::Open(ctx.log_path);
    }
    if (!opened.ok()) {
      pass.error = opened.status().ToString();
      return pass;
    }
    std::unique_ptr<DeltaSource> source = std::move(opened).value();
    std::unique_ptr<AvtTracker> tracker = NewTracker(spec);
    if (recorder != nullptr) {
      source = std::make_unique<TracingSource>(std::move(source), recorder);
      tracker = std::make_unique<TracingTracker>(std::move(tracker), recorder);
    }
    engine = std::make_unique<AvtEngine>(std::move(tracker), std::move(source),
                                         NewEngineOptions(spec));
    engine->SetTrackerFactory([&spec] { return NewTracker(spec); });
    if (spec.durable) {
      Status armed = engine->EnableDurability(NewDurabilityOptions(ctx, dir));
      if (!armed.ok()) {
        pass.error = armed.ToString();
        return pass;
      }
    }
    StatusOr<bool> first = engine->Step();
    if (!first.ok() || !first.value()) {
      pass.error = first.ok() ? "empty stream" : first.status().ToString();
      return pass;
    }
    pass.setup_s = setup.ElapsedSeconds();
  }
  pass.rss_after_setup_mib = CurrentRssBytes() / kMiB;

  if (!setup_only) {
    Timer steady;
    for (uint64_t txn = 1;; ++txn) {
      Timer step;
      StatusOr<bool> stepped = Status::Internal("not stepped");
      {
        ScopedSpan span(recorder, "engine.step", txn);
        stepped = engine->Step();
      }
      const double ms = step.ElapsedMillis();
      if (!stepped.ok()) {
        ++pass.attempted;
        ++pass.failed;
        pass.error = stepped.status().ToString();
        break;
      }
      if (!stepped.value()) break;
      ++pass.attempted;
      pass.txn_ms.push_back(ms);
    }
    pass.steady_s = steady.ElapsedSeconds();
    pass.peak_rss_mib = PeakRssBytes() / kMiB;
  }

  pass.summary = engine->Summary();
  pass.failed += pass.summary.deltas_quarantined + pass.summary.audits_failed;
  if (engine->health().halted()) ++pass.failed;
  pass.snapshots = engine->TakeResult().snapshots;
  pass.digest = AnchorDigest(pass.snapshots);
  engine.reset();
  if (spec.durable) {
    if (keep_durable_dir && !setup_only) {
      pass.durable_dir = dir;
    } else {
      fs::remove_all(dir);
    }
  }
  return pass;
}

struct RecoveryResult {
  double recover_s = 0;
  uint64_t replayed_txns = 0;
  uint64_t wal_bytes = 0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
  std::string mismatch;  // empty when the recovered engine agrees
};

/// Times AvtEngine::Recover over the first pass's durability dir with a
/// fresh tracker and source, and compares what the recovered engine
/// reports with the uninterrupted pass.
StatusOr<RecoveryResult> RecoverAndCompare(const RunContext& ctx,
                                           const PassResult& pass) {
  RecoveryResult out;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(pass.durable_dir)) {
    const std::string name = entry.path().filename().string();
    if (name == DeltaWal::kFileName) out.wal_bytes = entry.file_size();
    if (name.rfind("checkpoint-", 0) == 0) {
      ++out.checkpoints;
      out.checkpoint_bytes += entry.file_size();
    }
  }

  auto counting =
      std::make_unique<TracingTracker>(NewTracker(ctx.spec), nullptr);
  TracingTracker* counter = counting.get();
  Timer timer;
  auto source = MmapEdgeLogSource::Open(ctx.log_path);
  if (!source.ok()) return source.status();
  auto recovered = AvtEngine::Recover(
      std::move(counting), std::move(source).value(),
      NewEngineOptions(ctx.spec),
      NewDurabilityOptions(ctx, pass.durable_dir));
  if (!recovered.ok()) return recovered.status();
  out.recover_s = timer.ElapsedSeconds();
  out.replayed_txns = counter->deltas_processed();

  const AvtEngine& engine = *recovered.value();
  const RunSummary got = engine.Summary();
  const RunSummary& want = pass.summary;
  if (engine.last().anchors != pass.snapshots.back().anchors) {
    out.mismatch = "recovered last() anchors differ";
  } else if (got.snapshots != want.snapshots ||
             got.total_candidates != want.total_candidates ||
             got.total_followers != want.total_followers ||
             got.anchor_stability != want.anchor_stability ||
             got.anchor_changes != want.anchor_changes ||
             got.memo_hits != want.memo_hits ||
             got.memo_misses != want.memo_misses ||
             got.memo_peak_bytes != want.memo_peak_bytes) {
    out.mismatch = "recovered Summary() differs";
  }
  return out;
}

int RunWorkload(const Flags& flags) {
  const bool tiny = flags.GetBool("tiny", false);
  const std::string name = flags.GetString("workload", "");
  std::optional<WorkloadSpec> spec = FindWorkload(name, tiny);
  RunContext ctx;
  ctx.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  ctx.log_path = flags.GetString("log", "");
  ctx.work_dir = flags.GetString("work", "");
  const double seconds = flags.GetDouble("seconds", 10);
  const bool trace = flags.GetInt("trace", 0) != 0;
  if (!spec || ctx.log_path.empty() || ctx.work_dir.empty()) {
    std::fprintf(stderr,
                 "error: run needs --workload (one of churn-200k, "
                 "window-pl50k, durable-1m), --log and --work\n");
    return 2;
  }
  ctx.spec = *spec;
  fs::create_directories(ctx.work_dir);

  StatusOr<std::vector<uint64_t>> sizes = ReadDeltaSizes(ctx.log_path);
  if (!sizes.ok()) {
    std::fprintf(stderr, "error: %s\n", sizes.status().ToString().c_str());
    return 1;
  }
  const std::vector<uint64_t>& delta_sizes = sizes.value();
  uint64_t stream_edges = 0;
  for (uint64_t s : delta_sizes) stream_edges += s;

  // Whole passes until the time is up, and at least two, so that every
  // run compares the anchor digests of two passes and durable-1m (one
  // pass takes about ten seconds) pools two samples per transaction.
  // Traced runs alternate plain and traced passes, so the tracing
  // overhead is measured within one process on one input.
  SpanRecorder recorder;
  std::vector<PassResult> passes;
  Timer run_timer;
  for (size_t index = 0;; ++index) {
    const bool traced = trace && index % 2 == 1;
    passes.push_back(RunPass(ctx, index, traced ? &recorder : nullptr,
                             /*setup_only=*/false,
                             /*keep_durable_dir=*/index == 0));
    if (!passes.back().error.empty()) break;
    if (passes.size() >= kMinPasses && run_timer.ElapsedSeconds() >= seconds) {
      break;
    }
  }
  const PassResult& first = passes.front();

  std::vector<double> setup_samples;
  std::vector<double> plain_txn_ms;
  std::vector<double> traced_txn_ms;
  double steady_s = 0;
  uint64_t steady_edges = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;
  bool digests_agree = true;
  size_t digest_passes = 0;
  for (size_t i = 0; i < passes.size(); ++i) {
    const PassResult& pass = passes[i];
    attempted += pass.attempted;
    failed += pass.failed;
    if (!pass.error.empty()) {
      error = pass.error;
      continue;
    }
    setup_samples.push_back(pass.setup_s);
    digests_agree = digests_agree && pass.digest == first.digest;
    ++digest_passes;
    const bool traced = trace && i % 2 == 1;
    std::vector<double>& txn = traced ? traced_txn_ms : plain_txn_ms;
    txn.insert(txn.end(), pass.txn_ms.begin(), pass.txn_ms.end());
    if (!traced) {
      steady_s += pass.steady_s;
      steady_edges += stream_edges;
    }
  }
  for (size_t extra = 0;
       error.empty() && setup_samples.size() < kMaxSetupSamples &&
       (setup_samples.size() < kMinSetupSamples ||
        Sum(setup_samples) < kMinSetupSeconds);
       ++extra) {
    PassResult pass = RunPass(ctx, passes.size() + extra, nullptr,
                              /*setup_only=*/true, false);
    if (!pass.error.empty()) error = pass.error;
    setup_samples.push_back(pass.setup_s);
  }
  if (attempted == 0) attempted = 1;  // a run that failed before any txn

  std::map<std::string, Check> checks;
  std::string detail;
  auto note = [&detail](const std::string& what) {
    if (detail.empty()) detail = what;
  };
  if (!error.empty()) note("stream error: " + error);

  // Answer certificate on G_T and the non-triviality guard.
  double followers_mean = 0;
  uint32_t final_kcore = 0;
  if (!first.snapshots.empty()) {
    for (const AvtSnapshotResult& snap : first.snapshots) {
      followers_mean += snap.num_followers;
    }
    followers_mean /= static_cast<double>(first.snapshots.size());
    final_kcore = first.snapshots.back().kcore_size;
    StatusOr<Graph> final_graph = RebuildFinalGraph(ctx.log_path);
    if (!final_graph.ok()) {
      checks["certificate_final"] = Check::kFail;
      note(final_graph.status().ToString());
    } else {
      const std::string failure = CertifySnapshot(
          final_graph.value(), ctx.spec.k, first.snapshots.back());
      checks["certificate_final"] = FromBool(failure.empty());
      if (!failure.empty()) note("certificate: " + failure);
    }
    const bool nontrivial = final_kcore > 0 && followers_mean > 0;
    checks["nontrivial"] = FromBool(nontrivial);
    if (!nontrivial) note("trivial answer: kcore_size or followers_mean is 0");
  } else {
    checks["certificate_final"] = Check::kFail;
    checks["nontrivial"] = Check::kFail;
  }
  checks["digest_repeat"] = digest_passes < 2 ? Check::kNotCompared
                                              : FromBool(digests_agree);
  if (!digests_agree) note("anchor digest differs between passes");

  // Recovery over the first pass's durability dir.
  std::optional<RecoveryResult> recovery;
  checks["recovery_match"] = Check::kNotCompared;
  if (ctx.spec.durable && !first.durable_dir.empty()) {
    StatusOr<RecoveryResult> recovered = RecoverAndCompare(ctx, first);
    if (!recovered.ok()) {
      checks["recovery_match"] = Check::kFail;
      note("recover: " + recovered.status().ToString());
    } else {
      recovery = recovered.value();
      checks["recovery_match"] = FromBool(recovery->mismatch.empty());
      if (!recovery->mismatch.empty()) note(recovery->mismatch);
    }
    fs::remove_all(first.durable_dir);
  }

  JsonObject e2e;
  e2e.Raw("setup_s", Metric(Percentile(setup_samples, 0.5), "s",
                            setup_samples.size()))
      .Raw("txn_ms_p50", Metric(Percentile(plain_txn_ms, 0.5), "ms",
                                plain_txn_ms.size()))
      .Raw("txn_ms_p90", Metric(Percentile(plain_txn_ms, 0.9), "ms",
                                plain_txn_ms.size()))
      .Raw("edges_per_s",
           Metric(steady_s > 0 ? steady_edges / steady_s : 0, "edges/s",
                  plain_txn_ms.size()))
      .Raw("peak_rss_mib", Metric(first.peak_rss_mib, "MiB"))
      .Raw("followers_mean", Metric(followers_mean, "vertices",
                                    first.snapshots.size()))
      .Raw("failed_ratio",
           Metric(static_cast<double>(failed) / attempted, "fraction",
                  attempted));
  if (recovery) e2e.Raw("recover_s", Metric(recovery->recover_s, "s"));

  JsonObject layers;
  if (trace && error.empty()) {
    const size_t traced_passes = passes.size() / 2;
    const double per_pass = 1.0 / static_cast<double>(traced_passes);
    const auto total = recorder.TotalMillisByName();
    const auto self = recorder.SelfMillisByName();
    auto span_ms = [&](const std::map<std::string, double>& by_name,
                       const char* span) {
      auto it = by_name.find(span);
      return it == by_name.end() ? 0.0 : it->second * per_pass;
    };
    std::vector<double> process_delta_ms;
    for (const Span& span : recorder.spans()) {
      if (std::string(span.name) == "core.process_delta") {
        process_delta_ms.push_back(span.Millis());
      }
    }
    fs::create_directories(ctx.work_dir + "/replay");
    StatusOr<LayerReplay> replayed = ReplayLayers(
        ctx.spec, ctx.log_path, first.snapshots,
        std::max<size_t>(1, delta_sizes.size() / 4), ctx.work_dir + "/replay");
    fs::remove_all(ctx.work_dir + "/replay");
    if (!replayed.ok()) {
      checks["certificate_sampled"] = Check::kFail;
      note("replay: " + replayed.status().ToString());
    } else {
      const LayerReplay& r = replayed.value();
      checks["certificate_sampled"] =
          r.certified == 0 ? Check::kNotCompared
                           : FromBool(r.certificate_failure.empty());
      if (!r.certificate_failure.empty()) {
        note("sampled certificate: " + r.certificate_failure);
      }
      checks["first_anchors_match_greedy_1t"] =
          FromBool(r.first_anchors_match_1t);
      checks["first_anchors_match_greedy_threads"] =
          FromBool(r.first_anchors_match_threads);
      if (!r.first_anchors_match_1t || !r.first_anchors_match_threads) {
        note("first anchors differ from GreedySolver");
      }

      uint64_t full = 0, probes = 0;
      for (size_t i = 1; i < first.snapshots.size(); ++i) {
        full += first.snapshots[i].candidates_visited;
        probes += first.snapshots[i].bound_probes;
      }
      const double delta_ms = span_ms(total, "core.process_delta");
      const double apply_ms = Sum(r.apply_ms);
      const uint64_t lookups =
          first.summary.memo_hits + first.summary.memo_misses;
      const size_t txns = delta_sizes.size();
      layers
          .Raw("graph.open_ms", Metric(span_ms(total, "graph.open"), "ms",
                                       traced_passes))
          .Raw("graph.pull_ms", Metric(span_ms(total, "graph.next_delta"),
                                       "ms", traced_passes))
          .Raw("graph.delta_edges",
               Metric(txns ? static_cast<double>(stream_edges) / txns : 0,
                      "count/txn", txns))
          .Raw("corelib.decompose_ms", Metric(r.decompose_ms, "ms"))
          .Raw("maint.reset_ms", Metric(r.reset_ms, "ms"))
          .Raw("maint.apply_ms", Metric(apply_ms, "ms", r.apply_ms.size()))
          .Raw("maint.apply_ms_p50", Metric(Percentile(r.apply_ms, 0.5), "ms",
                                            r.apply_ms.size()))
          .Raw("maint.impacted", Metric(r.impacted, "count", txns))
          .Raw("maint.visited", Metric(r.visited, "count", txns))
          .Raw("maint.promotions", Metric(r.promotions, "count", txns))
          .Raw("maint.demotions", Metric(r.demotions, "count", txns))
          .Raw("anchor.first_solve_ms", Metric(r.first_solve_ms, "ms"))
          .Raw("anchor.first_solve_1t_ms", Metric(r.first_solve_1t_ms, "ms"))
          .Raw("anchor.first_full_queries",
               Metric(first.snapshots[0].candidates_visited, "count"))
          .Raw("anchor.first_bound_probes",
               Metric(first.snapshots[0].bound_probes, "count"))
          .Raw("anchor.full_queries", Metric(full, "count", txns))
          .Raw("anchor.bound_probes", Metric(probes, "count", txns))
          .Raw("anchor.resolve_ratio",
               Metric(probes ? static_cast<double>(full) / probes : 0,
                      "ratio", probes))
          .Raw("core.first_ms", Metric(span_ms(total, "core.process_first"),
                                       "ms", traced_passes))
          .Raw("core.delta_ms", Metric(delta_ms, "ms", traced_passes))
          .Raw("core.delta_ms_p50", Metric(Percentile(process_delta_ms, 0.5),
                                           "ms", process_delta_ms.size()))
          .Raw("core.search_ms", Metric(delta_ms - apply_ms, "ms"))
          .Raw("core.step_ms", Metric(span_ms(total, "engine.step"), "ms",
                                      traced_passes))
          .Raw("core.engine_self_ms", Metric(span_ms(self, "engine.step"),
                                             "ms", traced_passes))
          .Raw("core.memo_hit_ratio",
               Metric(lookups ? static_cast<double>(first.summary.memo_hits) /
                                    lookups
                              : 0,
                      "ratio", lookups))
          .Raw("core.memo_lookups", Metric(lookups, "count"))
          .Raw("core.memo_peak_bytes",
               Metric(first.summary.memo_peak_bytes, "bytes"))
          .Raw("core.audits_run", Metric(r.audits_run, "count"))
          .Raw("core.audit_ms", Metric(r.audit_ms, "ms", r.audits_run))
          .Raw("durability.wal_append_ms", Metric(r.wal_append_ms, "ms"))
          .Raw("durability.wal_bytes",
               Metric(recovery ? recovery->wal_bytes : 0, "bytes"))
          .Raw("durability.checkpoints",
               Metric(recovery ? recovery->checkpoints : 0, "count"))
          .Raw("durability.checkpoint_bytes",
               Metric(recovery ? recovery->checkpoint_bytes : 0, "bytes"))
          .Raw("durability.replayed_txns",
               Metric(recovery ? recovery->replayed_txns : 0, "count"))
          .Raw("durability.recover_s",
               Metric(recovery ? recovery->recover_s : 0, "s"))
          .Raw("util.rss_after_setup_mib",
               Metric(first.rss_after_setup_mib, "MiB"))
          .Raw("trace_overhead",
               Metric(Percentile(traced_txn_ms, 0.5) -
                          Percentile(plain_txn_ms, 0.5),
                      "ms", traced_txn_ms.size()));
    }
    const std::string spans_path = ctx.work_dir + "/spans-" + ctx.spec.name +
                                   "-s" + std::to_string(ctx.seed) + ".jsonl";
    Status written = recorder.WriteJsonLines(spans_path);
    if (!written.ok()) note(written.ToString());
  }

  bool correct = error.empty();
  JsonObject check_json;
  for (const auto& [check, value] : checks) {
    check_json.Raw(check, CheckJson(value));
    correct = correct && value != Check::kFail;
  }

  JsonObject out;
  out.Str("workload", ctx.spec.name)
      .Num("seed", static_cast<double>(ctx.seed))
      .Str("size", tiny ? "tiny" : "full")
      .Num("trace", trace ? 1 : 0)
      .Raw("correct", correct ? "true" : "false")
      .Str("detail", detail)
      .Num("attempted", static_cast<double>(attempted))
      .Num("failed", static_cast<double>(failed))
      .Num("passes", static_cast<double>(passes.size()))
      .Str("digest", Hex(first.digest))
      .Raw("checks", check_json.Done())
      .Raw("descriptors",
           JsonObject()
               .Num("n", ctx.spec.n)
               .Num("transactions", static_cast<double>(delta_sizes.size()))
               .Num("delta_edges", static_cast<double>(stream_edges))
               .Num("kcore_size", final_kcore)
               .Num("k", ctx.spec.k)
               .Num("l", ctx.spec.l)
               .Num("threads", ctx.spec.threads)
               .Raw("durable", ctx.spec.durable ? "true" : "false")
               .Num("audit_every", static_cast<double>(ctx.spec.audit_every))
               .Done())
      .Raw("build",
           JsonObject()
               .Str("type", AVT_PERFBENCH_BUILD_TYPE)
               .Str("compiler", AVT_PERFBENCH_COMPILER)
#ifdef NDEBUG
               .Raw("ndebug", "true")
#else
               .Raw("ndebug", "false")
#endif
               .Done())
      .Raw("end_to_end", e2e.Done())
      .Raw("per_layer", layers.Done());
  std::printf("%s\n", out.Done().c_str());
  return correct ? 0 : 1;
}

int Generate(const Flags& flags) {
  std::optional<WorkloadSpec> spec =
      FindWorkload(flags.GetString("workload", ""), flags.GetBool("tiny", false));
  const std::string out = flags.GetString("out", "");
  if (!spec || out.empty()) {
    std::fprintf(stderr, "error: gen needs --workload and --out\n");
    return 2;
  }
  Timer timer;
  Status status = GenerateEdgeLog(
      *spec, static_cast<uint64_t>(flags.GetInt("seed", 1)), out);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "generated %s in %.2f s\n", out.c_str(),
               timer.ElapsedSeconds());
  return 0;
}

}  // namespace
}  // namespace avt::perfbench

int main(int argc, char** argv) {
  using namespace avt::perfbench;
  avt::Flags flags = avt::Flags::Parse(argc, argv);
  const std::string command =
      flags.positional().empty() ? "" : flags.positional()[0];
  if (!flags.errors().empty()) {
    std::fprintf(stderr, "error: %s\n", flags.errors()[0].c_str());
    return 2;
  }
  if (command == "gen") return Generate(flags);
  if (command == "run") return RunWorkload(flags);
  std::fprintf(stderr, "usage: avt_perfbench gen|run --workload=NAME ...\n");
  return 2;
}
