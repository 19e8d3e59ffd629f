#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --test      # build and run the helper tests

The last stdout line is the result object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones,
with peak_rss_mb taken here from the finished process's rusage; with
--trace 1 they are the per-layer ones and the spans are written to
<build dir>/work/trace_<workload>_<seed>.jsonl.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the repository root, as an optimized (RelWithDebInfo) CMake build.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1995   # the seed tuning ran on
HELD_OUT_SEED = 2024  # kept aside to confirm a claimed gain
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    """Configures (once) and builds target; build chatter goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no hgmine sources next to perfbench/ "
                 "(expected src/CMakeLists.txt)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out


def run(cmd):
    """Runs cmd to completion; returns (exit code, stdout, peak RSS in KiB)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            env=dict(os.environ, HGMINE_THREADS="1",
                                     MALLOC_ARENA_MAX="2"))
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss


# The per-layer metrics each workload measures.  A traced run must report
# exactly these; the other per-layer metrics of BENCHMARK.json read 0 on it.
THEORY = ["bitset.and_count_ns_per_word", "apriori_gen.ms",
          "apriori_gen.candidates", "count.ms", "count.us_per_query",
          "maximize.ms", "queries", "theory.th", "theory.bd_pos",
          "theory.bd_neg", "trace_overhead_frac"]
BATCH = THEORY + [
    "load.ms", "index.ms", "apriori.sweep_ms", "apriori.coverage",
    "levelwise.oracle_ms", "levelwise.driver_ms", "partition.split_ms",
    "partition.union_size", "partition.phase2_evaluations",
    "partition.phase2_reused",
    "self_ms.common", "self_ms.mining", "self_ms.core", "self_ms.hypergraph"]
SERVE = THEORY + [
    "serve.parse_us_per_kb", "serve.support_ms_p50", "serve.push_ms_p50",
    "serve.mine_hit_ms_p50", "serve.mine_miss_ms_p50",
    "serve.mine_cache_hit_frac", "serve.exec_ms_p50.support",
    "serve.exec_ms_p50.push", "serve.exec_ms_p50.mine_hit",
    "serve.exec_ms_p50.mine_miss", "serve.shed_frac",
    "self_ms.common", "self_ms.mining", "self_ms.hypergraph", "self_ms.serve"]
EXPECTED = {
    "batch_quest": BATCH,
    "stream_window": THEORY + [
        "stream.push_us_per_row", "stream.evaluations", "stream.reused_frac",
        "stream.remine_ms_p50",
        "self_ms.common", "self_ms.mining", "self_ms.hypergraph"],
    "serve_mixed": SERVE + [
        "serve.queue_wait_ms_p99", "serve.gen_late_ms_max",
        "serve.drain_lag_ms"],
    "serve_replay": SERVE,
    "dualize_planted": THEORY + [
        "dualize.oracle_ms", "dualize.queries", "dualize.iterations",
        "dualize.enum_ms", "dualize.enum_next_calls",
        "self_ms.common", "self_ms.mining", "self_ms.core",
        "self_ms.hypergraph"],
}


def complete(workload, metrics, traced):
    """Orders metrics as BENCHMARK.json lists them.  Every end-to-end metric,
    and every per-layer metric in EXPECTED[workload], must be measured;
    the other per-layer metrics read 0.  Unknown names, unexpected
    per-layer metrics and wrong units are errors."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if traced else "end_to_end"]
    expected = set(EXPECTED[workload]) if traced else {m["name"] for m in spec}
    out = {}
    for m in spec:
        got = metrics.pop(m["name"], None)
        if got is None and m["name"] in expected:
            raise ValueError("metric %s was not measured" % m["name"])
        if got is not None and m["name"] not in expected:
            raise ValueError("metric %s is not expected on %s"
                             % (m["name"], workload))
        if got is not None and got["unit"] != m["unit"]:
            raise ValueError("metric %s has unit %s, expected %s"
                             % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = got or {"value": 0, "unit": m["unit"]}
    if metrics:
        raise ValueError("unexpected metrics: %s" % ", ".join(sorted(metrics)))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(EXPECTED))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=38)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the helper tests instead")
    args = ap.parse_args()

    if args.test:
        out = build("perfbench_test")
        return subprocess.run([os.path.join(out, "perfbench_test")]).returncode
    if args.workload is None:
        ap.error("--workload is required")

    out = build("perfbench")
    workdir = os.path.join(out, "work")
    code, stdout, rss_kib = run([
        os.path.join(out, "perfbench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", workdir])
    lines = stdout.splitlines()
    if code != 0 or not lines:
        sys.stderr.write("perfbench: %s exited with %d\n"
                         % (args.workload, code))
        return code or 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if args.trace == 0:
        metrics["peak_rss_mb"] = {"value": rss_kib / 1024.0, "unit": "MB"}
    try:
        result["metrics"] = complete(args.workload, metrics,
                                     args.trace == 1)
    except ValueError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
