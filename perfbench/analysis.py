"""Arithmetic of the OO7 benchmark: percentiles, counter-delta normalisation,
span self time and the unattributed remainder, and the reduction of one raw
oo7bench result into the named metrics of BENCHMARK.json.

Everything here is a pure function of its arguments, so test_analysis.py can
check it on synthetic inputs without a server.
"""

import json
import math

# End-to-end metrics: (name, unit). Printed for every untraced run.
END_TO_END = [
    ("txn_per_s", "1/s"),
    ("txn_p50_ms", "ms"),
    ("txn_p90_ms", "ms"),
    ("restart_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics: (name, unit, better). Printed for every traced run;
# README.md maps each to its layer and the end-to-end metric it should move.
PER_LAYER = [
    ("server.rpc_per_txn", "count", "lower"),
    ("server.fetch_per_txn", "count", "lower"),
    ("server.rpc_wait_ms_per_txn", "ms", "lower"),
    ("server.handler_ms_per_txn", "ms", "lower"),
    ("server.transport_us_per_rpc", "us", "lower"),
    ("server.commit_kb_per_txn", "KB", "lower"),
    ("node.hit_ratio", "ratio", "higher"),
    ("node.upstream_per_txn", "count", "lower"),
    ("vm.faults_per_txn", "count", "lower"),
    ("vm.swizzles_per_txn", "count", "lower"),
    ("vm.write_faults_per_txn", "count", "lower"),
    ("vm.traverse_self_ms_per_txn", "ms", "lower"),
    ("vm.deref_self_ms_per_txn", "ms", "lower"),
    ("vm.update_self_ms_per_txn", "ms", "lower"),
    ("txn.lock_rpc_per_txn", "count", "lower"),
    ("txn.lock_cache_hit_ratio", "ratio", "higher"),
    ("txn.lock_waits_per_txn", "count", "lower"),
    ("txn.lock_wait_ms_per_txn", "ms", "lower"),
    ("txn.callbacks_per_txn", "count", "lower"),
    ("txn.commit_self_ms_per_txn", "ms", "lower"),
    ("wal.kb_per_txn", "KB", "lower"),
    ("wal.records_per_txn", "count", "lower"),
    ("wal.fpi_per_txn", "count", "lower"),
    ("wal.fsync_per_txn", "count", "lower"),
    ("wal.fsync_ms_per_txn", "ms", "lower"),
    ("wal.group_commit_mean", "count", "higher"),
    ("wal.checkpoint_ms_per_s", "ms/s", "lower"),
    ("recovery.analysis_ms", "ms", "lower"),
    ("recovery.redo_ms", "ms", "lower"),
    ("recovery.undo_ms", "ms", "lower"),
    ("recovery.records", "count", "lower"),
    ("recovery.redo_pages", "count", "lower"),
    ("object.db_commit_ms_per_txn", "ms", "lower"),
    ("object.sync_ms_per_txn", "ms", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions_per_txn", "count", "lower"),
    ("cache.bgwriter_flushed_per_txn", "count", "lower"),
    ("cache.sync_writebacks", "count", "lower"),
    ("index.get_self_ms_per_txn", "ms", "lower"),
    ("index.maint_self_ms_per_txn", "ms", "lower"),
    ("index.smo_per_ktxn", "count", "lower"),
    ("proc.cpu_ms_per_txn", "ms", "lower"),
    ("proc.ctx_switches_per_txn", "count", "lower"),
    ("proc.steal_pct", "%", "lower"),
    ("trace.txn_per_s", "1/s", "higher"),
    ("trace.untraced_txn_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed_pct", "%", "lower"),
    ("trace.txn_samples", "count", "higher"),
]

# Bench span name -> per-layer metric holding its self time per transaction.
SPAN_SELF_METRICS = {
    "client.traverse": "vm.traverse_self_ms_per_txn",
    "client.deref": "vm.deref_self_ms_per_txn",
    "client.update": "vm.update_self_ms_per_txn",
    "client.commit": "txn.commit_self_ms_per_txn",
    "db.commit": "object.db_commit_ms_per_txn",
    "client.index_get": "index.get_self_ms_per_txn",
    "client.index_maint": "index.maint_self_ms_per_txn",
}

# The root span of one transaction: its self time is what no span covers.
TXN_SPAN = "txn"


# ---- samples --------------------------------------------------------------------


def percentile(samples, q):
    """The q-quantile (0 <= q <= 1) of `samples`, interpolating linearly
    between the two nearest ranks. None when there are no samples."""
    if not samples:
        return None
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_summary(samples_us):
    """p50, p90 and p99 in ms with the sample count behind them, and how
    many samples lie above the p99 (a p99 wants at least ten)."""
    out = {"count": len(samples_us)}
    for name, q in (("p50_ms", 0.50), ("p90_ms", 0.90), ("p99_ms", 0.99)):
        v = percentile(samples_us, q)
        out[name] = None if v is None else v / 1e3
    p99 = percentile(samples_us, 0.99)
    out["beyond_p99"] = 0 if p99 is None else sum(1 for s in samples_us if s > p99)
    return out


def median(values):
    return percentile(values, 0.5)


# ---- counters ---------------------------------------------------------------------


def ratio(num, den):
    """num / den, 0 when the denominator is 0 (nothing happened)."""
    return num / den if den else 0.0


def counter(window, name):
    return window["counters"].get(name, 0)


def hist_count(window, name):
    return window["histograms"].get(name, {}).get("count", 0)


def hist_sum_ms(window, name):
    """Exact sum of a nanosecond histogram, in ms (never its quantiles)."""
    return window["histograms"].get(name, {}).get("sum", 0) / 1e6


def steal_pct(jiffies):
    """Host CPU steal share from a /proc/stat "cpu" delta: user nice system
    idle iowait irq softirq steal [guest guest_nice]. Guest time is already
    inside user time, so it is not added to the total."""
    if len(jiffies) < 8:
        return 0.0
    return 100.0 * ratio(jiffies[7], sum(jiffies[:8]))


def merge_windows(windows):
    """Sums windows field by field (counters, histogram count and sum, the
    node server's tallies, latencies)."""
    out = {"attempted": 0, "committed": 0, "failed": 0, "check_failed": 0,
           "shipped_bytes": 0, "latency_us": [], "wall_s": 0.0, "cpu_ms": 0.0,
           "ctx_switches": 0, "cpu_jiffies": [], "counters": {},
           "histograms": {}, "node": {}}
    for w in windows:
        for k in ("attempted", "committed", "failed", "check_failed",
                  "shipped_bytes", "wall_s", "cpu_ms", "ctx_switches"):
            out[k] += w[k]
        out["latency_us"].extend(w["latency_us"])
        j = w["cpu_jiffies"]
        if not out["cpu_jiffies"]:
            out["cpu_jiffies"] = list(j)
        else:
            out["cpu_jiffies"] = [a + b for a, b in zip(out["cpu_jiffies"], j)]
        for k, v in w["counters"].items():
            out["counters"][k] = out["counters"].get(k, 0) + v
        for k, h in w["histograms"].items():
            cur = out["histograms"].setdefault(k, {"count": 0, "sum": 0})
            cur["count"] += h["count"]
            cur["sum"] += h["sum"]
        for k, v in w["node"].items():
            out["node"][k] = out["node"].get(k, 0) + v
    return out


# ---- spans ------------------------------------------------------------------------


def _parents(spans):
    """Parent index of every span. Spans that carry an explicit parent
    (args.parent, an index into the same list's ids) keep it; the others are
    nested by containment among spans of the same (pid, tid)."""
    parent = [None] * len(spans)
    by_id = {}
    for i, s in enumerate(spans):
        sid = s.get("id")
        if sid is not None:
            by_id[(s["pid"], sid)] = i
    lanes = {}
    for i, s in enumerate(spans):
        p = s.get("parent")
        if p is not None:
            parent[i] = by_id.get((s["pid"], p)) if p >= 0 else None
        else:
            lanes.setdefault((s["pid"], s["tid"]), []).append(i)
    for idxs in lanes.values():
        idxs.sort(key=lambda i: (spans[i]["ts"], -spans[i]["dur"]))
        stack = []
        for i in idxs:
            start = spans[i]["ts"]
            end = start + spans[i]["dur"]
            while stack and spans[stack[-1]]["ts"] + spans[stack[-1]]["dur"] < end:
                stack.pop()
            if stack and spans[stack[-1]]["ts"] <= start:
                parent[i] = stack[-1]
            stack.append(i)
    return parent


def self_times(spans):
    """Per span name: count, total duration and self time (duration minus
    what its direct children cover), all in microseconds. A span is a dict
    with name, ts, dur (us), pid, tid and optionally id and parent."""
    parent = _parents(spans)
    child_us = [0.0] * len(spans)
    for i, p in enumerate(parent):
        if p is not None:
            child_us[p] += spans[i]["dur"]
    out = {}
    for i, s in enumerate(spans):
        e = out.setdefault(s["name"], {"count": 0, "total_us": 0.0, "self_us": 0.0})
        e["count"] += 1
        e["total_us"] += s["dur"]
        e["self_us"] += max(0.0, s["dur"] - child_us[i])
    return out


def unattributed(spans, root=TXN_SPAN):
    """Share (0..1) of transaction wall time that no child span covers, and
    that time in microseconds."""
    st = self_times(spans).get(root)
    if st is None or st["total_us"] == 0:
        return 0.0, 0.0
    return st["self_us"] / st["total_us"], st["self_us"]


def load_trace_events(path):
    """Complete ("X") events of a chrome://tracing file, flattened to span
    dicts with the benchmark's id/parent/txn args lifted up."""
    with open(path) as f:
        doc = json.load(f)
    spans = []
    for e in doc.get("traceEvents", []):
        if e.get("ph") != "X":
            continue
        s = {"name": e["name"], "ts": float(e["ts"]), "dur": float(e["dur"]),
             "pid": e.get("pid", 0), "tid": e.get("tid", 0)}
        args = e.get("args") or {}
        if "id" in args:
            s["id"] = args["id"]
            s["parent"] = args.get("parent", -1)
            s["txn"] = args.get("txn")
        spans.append(s)
    return spans


# ---- reduction --------------------------------------------------------------------


def end_to_end(raw):
    """The end-to-end metrics of an untraced run (all of its windows)."""
    w = merge_windows(raw["windows"])
    lat = latency_summary(w["latency_us"])
    return {
        "txn_per_s": ratio(w["committed"], w["wall_s"]),
        "txn_p50_ms": lat["p50_ms"] or 0.0,
        "txn_p90_ms": lat["p90_ms"] or 0.0,
        "restart_ms": median(raw["restart_ms"]) or 0.0,
        "setup_s": median(raw["setup_s"]) or 0.0,
        "peak_rss_mb": raw["peak_rss_mb"],
    }, lat


def per_layer(raw, spans=None):
    """The per-layer metrics of a traced run. Counters come from the traced
    window only and are normalised per committed transaction there; the
    untraced windows give the throughput the tracing overhead is measured
    against."""
    traced = merge_windows([x for x in raw["windows"] if x["traced"]])
    untraced = merge_windows([x for x in raw["windows"] if not x["traced"]])
    n = traced["committed"]

    def per_txn(v):
        return ratio(v, n)

    rpcs = counter(traced, "rpc.call")
    rpc_wait_ms = hist_sum_ms(traced, "rpc.call.latency")
    handler_ms = hist_sum_ms(traced, "srv.request.latency")
    lock_hits = counter(traced, "rpc.lock.cache_hit")
    lock_rpcs = counter(traced, "rpc.lock")
    node = traced["node"]
    rec = raw.get("recovery", {})
    trace_rate = ratio(traced["committed"], traced["wall_s"])
    plain_rate = ratio(untraced["committed"], untraced["wall_s"])

    m = {
        "server.rpc_per_txn": per_txn(rpcs),
        "server.fetch_per_txn": per_txn(counter(traced, "rpc.fetch_slotted")
                                        + counter(traced, "rpc.fetch_pages")),
        "server.rpc_wait_ms_per_txn": per_txn(rpc_wait_ms),
        "server.handler_ms_per_txn": per_txn(handler_ms),
        "server.transport_us_per_rpc": 1e3 * ratio(rpc_wait_ms - handler_ms, rpcs),
        "server.commit_kb_per_txn": per_txn(traced["shipped_bytes"] / 1024.0),
        "node.hit_ratio": ratio(node.get("cache_hits", 0),
                                node.get("cache_hits", 0) + node.get("upstream_fetches", 0)),
        "node.upstream_per_txn": per_txn(node.get("upstream_fetches", 0)),
        "vm.faults_per_txn": per_txn(counter(traced, "vm.fault.slotted")
                                     + counter(traced, "vm.fault.data")),
        "vm.swizzles_per_txn": per_txn(counter(traced, "vm.ref.swizzle")),
        "vm.write_faults_per_txn": per_txn(counter(traced, "vm.fault.detect")),
        "txn.lock_rpc_per_txn": per_txn(lock_rpcs),
        "txn.lock_cache_hit_ratio": ratio(lock_hits, lock_hits + lock_rpcs),
        "txn.lock_waits_per_txn": per_txn(counter(traced, "txn.lock.wait")),
        "txn.lock_wait_ms_per_txn": per_txn(hist_sum_ms(traced, "txn.lock.wait.latency")),
        "txn.callbacks_per_txn": per_txn(counter(traced, "srv.callback.sent")),
        "wal.kb_per_txn": per_txn(counter(traced, "wal.append.bytes") / 1024.0),
        "wal.records_per_txn": per_txn(counter(traced, "wal.append.records")),
        "wal.fpi_per_txn": per_txn(counter(traced, "wal.fpi.records")),
        "wal.fsync_per_txn": per_txn(hist_count(traced, "wal.fsync")),
        "wal.fsync_ms_per_txn": per_txn(hist_sum_ms(traced, "wal.fsync")),
        "wal.group_commit_mean": ratio(
            traced["histograms"].get("wal.group_commit.batch_size", {}).get("sum", 0),
            hist_count(traced, "wal.group_commit.batch_size")),
        "wal.checkpoint_ms_per_s": ratio(hist_sum_ms(traced, "db.checkpoint"), traced["wall_s"]),
        "recovery.analysis_ms": rec.get("analysis_ms", 0.0),
        "recovery.redo_ms": rec.get("redo_ms", 0.0),
        "recovery.undo_ms": rec.get("undo_ms", 0.0),
        "recovery.records": rec.get("records", 0),
        "recovery.redo_pages": rec.get("redo_pages", 0),
        "object.sync_ms_per_txn": per_txn(hist_sum_ms(traced, "storage.sync")),
        "cache.hit_ratio": ratio(counter(traced, "cache.hit"),
                                 counter(traced, "cache.hit") + counter(traced, "cache.miss")),
        "cache.evictions_per_txn": per_txn(counter(traced, "cache.eviction")),
        "cache.bgwriter_flushed_per_txn": per_txn(counter(traced, "cache.bgwriter.flushed")),
        "cache.sync_writebacks": counter(traced, "cache.evict.sync_writeback"),
        "index.smo_per_ktxn": 1e3 * per_txn(counter(traced, "index.smo")),
        "proc.cpu_ms_per_txn": per_txn(traced["cpu_ms"]),
        "proc.ctx_switches_per_txn": per_txn(traced["ctx_switches"]),
        "proc.steal_pct": steal_pct(traced["cpu_jiffies"]),
        "trace.txn_per_s": trace_rate,
        "trace.untraced_txn_per_s": plain_rate,
        "trace.overhead_pct": 100.0 * ratio(plain_rate - trace_rate, plain_rate),
        "trace.txn_samples": len(traced["latency_us"]),
    }
    spans = spans or []
    st = self_times([s for s in spans if s["pid"] == 0])
    for span_name, metric in SPAN_SELF_METRICS.items():
        m[metric] = per_txn(st.get(span_name, {}).get("self_us", 0.0) / 1e3)
    share, _ = unattributed([s for s in spans if s["pid"] == 0])
    m["trace.unattributed_pct"] = 100.0 * share
    return m
