#!/usr/bin/env python3
"""AVT stream benchmark: build, make inputs, run one workload, report.

Run from the repository root:

    python3 perfbench/run.py --workload churn-200k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

The first call builds perfbench/ (the library plus the avt_perfbench
binary) into .bench_build/ (or $CARGO_TARGET_DIR). Each call then makes
or reuses the workload's edge log for the seed, runs the workload in a
child process, prints every metric by name with its unit and sample
count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and writes spans under .bench_build/trace/. The exit code is non-zero
when the build, the input or any answer check fails. --smoke runs all
three workloads at a tiny size, both ways, and validates the output.
See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("churn-200k", "window-pl50k", "durable-1m")

# Metric name -> unit, in print order. The final JSON line carries exactly
# these (BENCHMARK.json lists the same names); the child reports a few
# more, which are printed only.
END_TO_END = {
    "setup_s": "s",
    "txn_ms_p50": "ms",
    "txn_ms_p90": "ms",
    "edges_per_s": "edges/s",
    "peak_rss_mib": "MiB",
    "followers_mean": "vertices",
}
PRINTED_ONLY = {"failed_ratio": "fraction", "recover_s": "s"}
PER_LAYER = {
    "graph.open_ms": "ms",
    "graph.pull_ms": "ms",
    "graph.delta_edges": "count/txn",
    "corelib.decompose_ms": "ms",
    "maint.reset_ms": "ms",
    "maint.apply_ms": "ms",
    "maint.apply_ms_p50": "ms",
    "maint.impacted": "count",
    "maint.visited": "count",
    "maint.promotions": "count",
    "maint.demotions": "count",
    "anchor.first_solve_ms": "ms",
    "anchor.first_solve_1t_ms": "ms",
    "anchor.first_full_queries": "count",
    "anchor.first_bound_probes": "count",
    "anchor.full_queries": "count",
    "anchor.bound_probes": "count",
    "anchor.resolve_ratio": "ratio",
    "core.first_ms": "ms",
    "core.delta_ms": "ms",
    "core.delta_ms_p50": "ms",
    "core.search_ms": "ms",
    "core.step_ms": "ms",
    "core.engine_self_ms": "ms",
    "core.memo_hit_ratio": "ratio",
    "core.memo_lookups": "count",
    "core.memo_peak_bytes": "bytes",
    "core.audits_run": "count",
    "core.audit_ms": "ms",
    "durability.wal_append_ms": "ms",
    "durability.wal_bytes": "bytes",
    "durability.checkpoints": "count",
    "durability.checkpoint_bytes": "bytes",
    "durability.replayed_txns": "count",
    "durability.recover_s": "s",
    "util.rss_after_setup_mib": "MiB",
    "trace_overhead": "ms",
}

# One invocation must end within 180 s once built; leave room to report.
RUN_BUDGET_S = 170
MAX_CACHED_INPUTS = 10  # per workload and size


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures and builds perfbench/ in Release; returns the binary."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise RuntimeError("run from the repository root: src/ not found")
    cmake_dir = os.path.join(build_dir(), "cmake")
    binary = os.path.join(cmake_dir, "avt_perfbench")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return binary


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise RuntimeError("time budget exhausted")
    return left


def ensure_input(binary, workload, seed, tiny, deadline):
    """Returns (edge log path, generation seconds or None when cached)."""
    inputs = os.path.join(build_dir(), "inputs")
    os.makedirs(inputs, exist_ok=True)
    stem = workload + ("-tiny" if tiny else "")
    path = os.path.join(inputs, "%s-s%d.avtb" % (stem, seed))
    if os.path.isfile(path):
        os.utime(path)
        return path, None
    start = time.monotonic()
    cmd = [binary, "gen", "--workload=" + workload, "--seed=%d" % seed,
           "--out=" + path] + (["--tiny"] if tiny else [])
    subprocess.run(cmd, check=True, timeout=remaining(deadline),
                   stdout=sys.stderr)
    generated = time.monotonic() - start
    cached = sorted((os.path.join(inputs, f) for f in os.listdir(inputs)
                     if f.startswith(stem + "-s") and f.endswith(".avtb")),
                    key=os.path.getmtime)
    for old in cached[:-MAX_CACHED_INPUTS]:
        os.remove(old)
    return path, generated


def host_stamp(seed, threads, build_info):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": cpu,
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("type", "unknown"),
        "ndebug": build_info.get("ndebug", False),
        "commit": commit,
        "seed": seed,
        "tracker_threads": threads,
    }


def check_digest(key, digest):
    """Compares the anchor digest with an earlier run of the same input."""
    path = os.path.join(build_dir(), "digests.json")
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    if key not in seen:
        seen[key] = digest
        with open(path + ".tmp", "w") as f:
            json.dump(seen, f, indent=1, sort_keys=True)
        os.replace(path + ".tmp", path)
        return "not-compared"
    return seen[key] == digest


def fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def run_workload(binary, workload, seed, seconds, trace, tiny, deadline):
    """Runs one workload; returns (final JSON object, exit code)."""
    log_path, generated = ensure_input(binary, workload, seed, tiny, deadline)
    stem = "%s%s-s%d" % (workload, "-tiny" if tiny else "", seed)
    work = os.path.join(build_dir(), "work", stem)
    cmd = [binary, "run", "--workload=" + workload, "--seed=%d" % seed,
           "--log=" + log_path, "--seconds=%g" % seconds,
           "--trace=%d" % trace, "--work=" + work] + (["--tiny"] if tiny else [])
    child = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=remaining(deadline))
    sys.stderr.write(child.stderr)
    lines = child.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("avt_perfbench exited %d without a result"
                           % child.returncode)
    res = json.loads(lines[-1])
    desc = res["descriptors"]
    stamp = host_stamp(seed, desc["threads"], res["build"])
    checks = dict(res["checks"])
    key = "%s-%s-s%d" % (workload, res["size"], seed)
    checks["digest_cross_run"] = check_digest(key, res["digest"])

    print("# avt perfbench: workload=%s seed=%d trace=%d size=%s passes=%d"
          % (workload, seed, trace, res["size"], res["passes"]))
    print("# host: " + " ".join("%s=%s" % (k, json.dumps(v))
                                for k, v in stamp.items()))
    if stamp["build_type"] != "Release" or not stamp["ndebug"]:
        print("# WARNING: not a Release build; timings are not comparable")
    if (stamp["nproc"] or 1) < desc["threads"]:
        print("# WARNING: %s CPUs for %d tracker threads"
              % (stamp["nproc"], desc["threads"]))
    print("# input: n=%d transactions=%d delta_edges=%d kcore_size=%d "
          "k=%d l=%d durable=%s audit_every=%d (%s)"
          % (desc["n"], desc["transactions"], desc["delta_edges"],
             desc["kcore_size"], desc["k"], desc["l"], desc["durable"],
             desc["audit_every"],
             "cached" if generated is None
             else "generated in %.1f s" % generated))
    reported = res["per_layer"] if trace else res["end_to_end"]
    names = dict(PER_LAYER) if trace else dict(END_TO_END, **PRINTED_ONLY)
    for name in names:
        if name not in reported:
            continue
        m = reported[name]
        extra = "n=%d" % m["samples"]
        if name.endswith("_p90"):
            extra += ", %d beyond" % (
                m["samples"] - 1 - math.floor(0.9 * (m["samples"] - 1)))
        print("%-28s %14s %-10s (%s)" % (name, fmt(m["value"]), m["unit"],
                                          extra))
    print("checks: " + " ".join("%s=%s" % (k, json.dumps(v))
                                for k, v in sorted(checks.items())))
    print("digest: " + res["digest"])
    if res["detail"]:
        print("detail: " + res["detail"])
    if trace:
        os.makedirs(os.path.join(build_dir(), "trace"), exist_ok=True)
        out = os.path.join(build_dir(), "trace", stem)
        spans = os.path.join(work, "spans-%s-s%d.jsonl" % (workload, seed))
        if os.path.isfile(spans):
            os.replace(spans, out + ".spans.jsonl")
        with open(out + ".layers.json", "w") as f:
            json.dump({"stamp": stamp, "result": res}, f, indent=1)
        print("trace: %s.spans.jsonl %s.layers.json" % (out, out))

    correct = res["correct"] and all(v is not False for v in checks.values())
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit in wanted.items():
        m = reported.get(name)
        if m is None or m["unit"] != unit or m["value"] is None:
            correct = False
            continue
        metrics[name] = {"value": m["value"], "unit": unit}
    final = {"correct": bool(correct), "attempted": int(res["attempted"]),
             "failed": int(res["failed"]), "metrics": metrics}
    code = 0 if correct and child.returncode == 0 else 1
    return final, code


def smoke(binary):
    """Runs every workload at the tiny size, plain and traced, and checks
    the output against BENCHMARK.json's metric lists."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = ({m["name"]: m["unit"] for m in bench["end_to_end"]},
                {m["name"]: m["unit"] for m in bench["per_layer"]})
    problems = []
    if declared != (END_TO_END, PER_LAYER):
        problems.append("BENCHMARK.json metric lists differ from run.py")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            deadline = time.monotonic() + RUN_BUDGET_S
            final, code = run_workload(binary, workload, 1, 0.5, trace, True,
                                       deadline)
            print(json.dumps(final))
            wanted = PER_LAYER if trace else END_TO_END
            label = "%s trace=%d" % (workload, trace)
            if code != 0 or not final["correct"]:
                problems.append(label + ": run reported incorrect")
            if set(final["metrics"]) != set(wanted):
                problems.append(label + ": metric set differs")
            if final["attempted"] < 100 or final["failed"] != 0:
                problems.append(label + ": attempted/failed unexpected")
            for name, m in final["metrics"].items():
                if not math.isfinite(m["value"]):
                    problems.append("%s: %s not finite" % (label, name))
                if not trace and m["value"] <= 0:
                    problems.append("%s: %s not positive" % (label, name))
    for problem in problems:
        print("SMOKE FAIL: " + problem)
    print("smoke: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-size run of every workload, validated")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    try:
        binary = build()
        if args.smoke:
            return smoke(binary)
        deadline = time.monotonic() + RUN_BUDGET_S
        final, code = run_workload(binary, args.workload, args.seed,
                                   args.seconds, args.trace, False, deadline)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log("error: %s" % error)
        return 2
    print(json.dumps(final), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
