#!/usr/bin/env python3
"""The OO7 end-to-end benchmark for BeSS: builds perfbench/ (which builds the
library from src/), runs one workload, checks its outputs, and prints every
metric by name with its unit. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload oo7_read --seed 1 --seconds 15 --trace 0

Run it from the root of the repository. Builds go to $CARGO_TARGET_DIR when
set, else .bench_build/. --trace 1 prints the per-layer metrics instead of
the end-to-end ones and writes a merged chrome://tracing file to
<build dir>/trace/<workload>.trace.json. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import analysis  # noqa: E402

WORKLOADS = ["oo7_read", "oo7_update", "crash_restart", "node_read"]
DEADLINE_S = 170  # the whole run, build included, ends before 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir, deadline):
    """Configures and builds oo7bench; False if the sources are missing or do
    not compile."""
    cmd_cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    cmd_build = ["cmake", "--build", build_dir, "--target", "oo7bench",
                 "-j", str(os.cpu_count() or 2)]
    for cmd in ([] if os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
                else [cmd_cfg]) + [cmd_build]:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build: {e}")
            return False
        if r.returncode != 0:
            return False
    return True


def provenance(root):
    """Where the numbers come from: git sha when the tree is a checkout, and
    always a digest of the sources the binary was built from."""
    sha = None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            sha = r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".cc", ".h", ".py", ".txt")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, root).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return {"git_sha": sha, "source_sha256": h.hexdigest()[:16]}


def merge_trace(raw_path, out_path):
    """Merges the benchmark's spans and the program's obs spans into one
    chrome://tracing file; returns the spans."""
    spans_file = raw_path + ".spans.json"
    parts = [spans_file] if os.path.exists(spans_file) else []
    d = os.path.dirname(raw_path)
    base = os.path.basename(raw_path)
    parts += sorted(os.path.join(d, f) for f in os.listdir(d)
                    if f.startswith(base + ".obs"))
    events = []
    for p in parts:
        with open(p) as f:
            events.extend(json.load(f).get("traceEvents", []))
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump({"traceEvents": events}, f)
    spans = []
    for p in parts:
        spans.extend(analysis.load_trace_events(p))
    return spans


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir, deadline):
        log("build failed: perfbench needs the repository's src/ next to it")
        return 1
    binary = os.path.join(build_dir, "oo7bench")

    run_dir = os.path.join(build_dir, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    raw_path = os.path.join(run_dir, "raw.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", os.path.join(run_dir, "work"), "--out", raw_path]
    log("running: " + " ".join(cmd))
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=max(1, deadline - time.monotonic()))
        code = r.returncode
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        code = "timeout"
    if code != 0 or not os.path.exists(raw_path):
        log(f"oo7bench failed (exit {code}); "
            + ("the watchdog found a hang, see the phases above" if code == 3 else ""))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        shutil.rmtree(run_dir, ignore_errors=True)
        return 1
    with open(raw_path) as f:
        raw = json.load(f)

    windows = raw["windows"]
    attempted = sum(w["attempted"] for w in windows)
    failed = sum(w["failed"] for w in windows) + raw.get("verify_mismatches", 0)
    correct = (not raw["error"] and failed == 0 and attempted > 0
               and len(raw["restart_ms"]) == raw["config"]["restart_copies"])

    e2e, lat = analysis.end_to_end(raw)
    prov = dict(raw["provenance"], **provenance(root), seed=args.seed,
                workload=args.workload)
    jiffies = analysis.merge_windows(windows)["cpu_jiffies"]
    prov["steal_pct"] = analysis.steal_pct(jiffies)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"# {raw['config']}")
    checks = sum(w["check_failed"] for w in windows) + raw.get("verify_mismatches", 0)
    print(f"transactions: attempted={attempted} failed={failed} output-check failures={checks} "
          f"failed_ratio={analysis.ratio(failed, attempted):.6g} "
          f"latency samples={lat['count']} p99={fmt(lat['p99_ms'])} ms "
          f"(beyond p99: {lat['beyond_p99']})")
    if raw.get("verify_first"):
        print(f"output check: {raw['verify_first']}")

    if args.trace:
        trace_path = os.path.join(build_dir, "trace", f"{args.workload}.trace.json")
        spans = merge_trace(raw_path, trace_path)
        layers = analysis.per_layer(raw, spans)
        print(f"trace: {trace_path}")
        print(f"{'span':<28} {'count':>8} {'total ms':>12} {'self ms':>12} {'self ms/txn':>12}")
        n = max(1, sum(w["committed"] for w in windows if w["traced"]))
        for name, st in sorted(analysis.self_times(spans).items()):
            print(f"{name:<28} {st['count']:>8} {st['total_us'] / 1e3:>12.3f} "
                  f"{st['self_us'] / 1e3:>12.3f} {st['self_us'] / 1e3 / n:>12.4f}")
        share, self_us = analysis.unattributed([s for s in spans if s["pid"] == 0])
        print(f"unattributed: {100 * share:.2f}% of transaction wall time "
              f"({self_us / 1e3 / n:.4f} ms/txn)")
        print(f"{'layer metric':<34} {'value':>14} unit")
        metrics = {}
        for name, unit, _ in analysis.PER_LAYER:
            print(f"{name:<34} {fmt(layers[name]):>14} {unit}")
            metrics[name] = {"value": layers[name], "unit": unit}
    else:
        print(f"{'metric':<14} {'value':>14} unit")
        metrics = {}
        for name, unit in analysis.END_TO_END:
            print(f"{name:<14} {fmt(e2e[name]):>14} {unit}")
            metrics[name] = {"value": e2e[name], "unit": unit}

    os.makedirs(os.path.join(build_dir, "last"), exist_ok=True)
    shutil.copy(raw_path, os.path.join(build_dir, "last",
                                       f"{args.workload}.trace{args.trace}.raw.json"))
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
