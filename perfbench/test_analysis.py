"""Tests for the benchmark's own arithmetic, on synthetic inputs (no server).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import tempfile
import unittest

import analysis


def span(name, ts, dur, tid=1, pid=7, sid=None, parent=None):
    s = {"name": name, "ts": float(ts), "dur": float(dur), "pid": pid, "tid": tid}
    if sid is not None:
        s["id"] = sid
        s["parent"] = parent
    return s


def window(traced=False, committed=10, wall_s=2.0, counters=None, hists=None, **kw):
    w = {"traced": traced, "attempted": committed, "committed": committed, "failed": 0,
         "check_failed": 0, "shipped_bytes": 0, "latency_us": [1000.0] * committed,
         "wall_s": wall_s, "cpu_ms": 0.0, "ctx_switches": 0,
         "cpu_jiffies": [0] * 10, "counters": counters or {}, "histograms": hists or {},
         "node": {}}
    w.update(kw)
    return w


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = [10, 20, 30, 40]
        self.assertEqual(analysis.percentile(xs, 0.0), 10)
        self.assertEqual(analysis.percentile(xs, 1.0), 40)
        self.assertAlmostEqual(analysis.percentile(xs, 0.5), 25)
        self.assertAlmostEqual(analysis.percentile(xs, 0.99), 39.7)

    def test_order_does_not_matter_and_empty_is_none(self):
        self.assertEqual(analysis.percentile([3, 1, 2], 0.5), 2)
        self.assertIsNone(analysis.percentile([], 0.5))

    def test_summary_reports_counts_beside_percentiles(self):
        samples = [float(i) for i in range(1, 2001)]  # 1..2000 us
        s = analysis.latency_summary(samples)
        self.assertEqual(s["count"], 2000)
        self.assertAlmostEqual(s["p50_ms"], 1000.5 / 1e3)
        self.assertAlmostEqual(s["p90_ms"], 1800.1 / 1e3)
        self.assertAlmostEqual(s["p99_ms"], 1980.01 / 1e3)
        self.assertEqual(s["beyond_p99"], 20)  # a p99 with >= 10 behind it

    def test_summary_of_nothing(self):
        s = analysis.latency_summary([])
        self.assertEqual((s["count"], s["p50_ms"], s["beyond_p99"]), (0, None, 0))


class CounterDeltaTest(unittest.TestCase):
    def test_merge_adds_counters_histograms_and_tallies(self):
        a = window(committed=4, wall_s=1.0, counters={"rpc.call": 40},
                   hists={"wal.fsync": {"count": 2, "sum": 3_000_000}},
                   node={"cache_hits": 3}, cpu_jiffies=[1, 0, 0, 7, 0, 0, 0, 2])
        b = window(committed=6, wall_s=1.5, counters={"rpc.call": 60, "vm.fault.data": 5},
                   hists={"wal.fsync": {"count": 1, "sum": 1_000_000}},
                   node={"cache_hits": 1}, cpu_jiffies=[1, 0, 0, 5, 0, 0, 0, 2])
        m = analysis.merge_windows([a, b])
        self.assertEqual(m["committed"], 10)
        self.assertEqual(m["wall_s"], 2.5)
        self.assertEqual(m["counters"], {"rpc.call": 100, "vm.fault.data": 5})
        self.assertEqual(m["histograms"]["wal.fsync"], {"count": 3, "sum": 4_000_000})
        self.assertEqual(m["node"], {"cache_hits": 4})
        self.assertEqual(m["cpu_jiffies"], [2, 0, 0, 12, 0, 0, 0, 4])
        self.assertEqual(len(m["latency_us"]), 10)

    def test_ratio_of_nothing_is_zero(self):
        self.assertEqual(analysis.ratio(5, 0), 0.0)
        self.assertEqual(analysis.ratio(1, 4), 0.25)

    def test_steal_share_excludes_guest_time(self):
        # user nice system idle iowait irq softirq steal guest guest_nice
        self.assertAlmostEqual(analysis.steal_pct([30, 0, 10, 40, 0, 0, 0, 20, 30, 0]), 20.0)
        self.assertEqual(analysis.steal_pct([]), 0.0)

    def test_per_layer_normalises_the_traced_window_only(self):
        plain = window(committed=30, wall_s=1.0, counters={"rpc.call": 999})
        traced = window(
            traced=True, committed=20, wall_s=1.0,
            counters={"rpc.call": 200, "rpc.lock": 10, "rpc.lock.cache_hit": 30,
                      "wal.append.bytes": 20 * 2048, "index.smo": 2},
            hists={"rpc.call.latency": {"count": 200, "sum": 40_000_000},
                   "srv.request.latency": {"count": 200, "sum": 30_000_000},
                   "wal.fsync": {"count": 10, "sum": 5_000_000},
                   "db.checkpoint": {"count": 1, "sum": 7_000_000}},
            node={"cache_hits": 3, "upstream_fetches": 1})
        raw = {"windows": [plain, traced, plain], "recovery": {"redo_ms": 4.5}}
        m = analysis.per_layer(raw)
        self.assertEqual(m["server.rpc_per_txn"], 10)
        self.assertEqual(m["server.rpc_wait_ms_per_txn"], 2.0)
        self.assertEqual(m["server.handler_ms_per_txn"], 1.5)
        # (40 ms waited - 30 ms handled) over 200 RPCs = 50 us each.
        self.assertAlmostEqual(m["server.transport_us_per_rpc"], 50.0)
        self.assertEqual(m["txn.lock_cache_hit_ratio"], 0.75)
        self.assertEqual(m["wal.kb_per_txn"], 2.0)
        self.assertEqual(m["wal.fsync_per_txn"], 0.5)
        self.assertEqual(m["wal.fsync_ms_per_txn"], 0.25)
        self.assertEqual(m["wal.checkpoint_ms_per_s"], 7.0)
        self.assertEqual(m["index.smo_per_ktxn"], 100.0)
        self.assertEqual(m["node.hit_ratio"], 0.75)
        self.assertEqual(m["recovery.redo_ms"], 4.5)
        self.assertEqual(m["trace.txn_per_s"], 20.0)
        self.assertEqual(m["trace.untraced_txn_per_s"], 30.0)
        self.assertAlmostEqual(m["trace.overhead_pct"], 100.0 / 3)
        self.assertEqual(set(m), {name for name, _, _ in analysis.PER_LAYER})


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_explicit_children(self):
        spans = [span("txn", 0, 100, sid=0, parent=-1),
                 span("client.deref", 10, 20, sid=1, parent=0),
                 span("client.traverse", 30, 50, sid=2, parent=0),
                 span("client.fault", 40, 5, sid=3, parent=2)]
        st = analysis.self_times(spans)
        self.assertEqual(st["txn"]["self_us"], 30)
        self.assertEqual(st["client.traverse"]["self_us"], 45)
        self.assertEqual(st["client.fault"]["self_us"], 5)
        self.assertEqual(st["txn"]["total_us"], 100)

    def test_self_time_nests_by_containment_on_one_thread(self):
        spans = [span("srv.request.latency", 0, 100, tid=1),
                 span("wal.fsync", 20, 30, tid=1),
                 span("wal.fsync", 60, 10, tid=1),
                 span("wal.fsync", 0, 500, tid=2),        # another thread
                 span("srv.request.latency", 150, 40, tid=1)]
        st = analysis.self_times(spans)
        self.assertEqual(st["srv.request.latency"]["self_us"], 60 + 40)
        self.assertEqual(st["wal.fsync"]["self_us"], 540)
        self.assertEqual(st["srv.request.latency"]["count"], 2)

    def test_overlapping_spans_do_not_nest(self):
        spans = [span("a", 0, 10), span("b", 5, 10)]
        st = analysis.self_times(spans)
        self.assertEqual((st["a"]["self_us"], st["b"]["self_us"]), (10, 10))

    def test_unattributed_remainder(self):
        spans = [span("txn", 0, 100, sid=0, parent=-1),
                 span("client.commit", 0, 70, sid=1, parent=0),
                 span("txn", 200, 100, sid=2, parent=-1),
                 span("client.commit", 200, 90, sid=3, parent=2)]
        share, self_us = analysis.unattributed(spans)
        self.assertAlmostEqual(share, 40 / 200)
        self.assertEqual(self_us, 40)
        self.assertEqual(analysis.unattributed([]), (0.0, 0.0))

    def test_trace_events_round_trip(self):
        doc = {"traceEvents": [
            {"name": "txn", "ph": "X", "pid": 0, "tid": 1, "ts": 1.5, "dur": 9.0,
             "args": {"id": 0, "parent": -1, "txn": 4}},
            {"name": "wal.fsync", "ph": "X", "pid": 9, "tid": 3, "ts": 2.0, "dur": 1.0},
            {"name": "meta", "ph": "M"}]}
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "trace.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            spans = analysis.load_trace_events(path)
        self.assertEqual(len(spans), 2)
        self.assertEqual((spans[0]["id"], spans[0]["parent"], spans[0]["txn"]), (0, -1, 4))
        self.assertNotIn("id", spans[1])


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_names_what_analysis_reports(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                            "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         analysis.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         analysis.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
