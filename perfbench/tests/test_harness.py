"""Self-tests of the perfbench harness math. run.py runs them before every
benchmark run; run them alone with

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import harness  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_exact_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(harness.percentile(samples, 50), 50)
        self.assertEqual(harness.percentile(samples, 99), 99)
        self.assertEqual(harness.percentile(samples, 100), 100)
        self.assertEqual(harness.percentile([7.0], 99), 7.0)

    def test_p99_needs_ten_samples_beyond(self):
        # p99.5 of 1000 leaves only 5 beyond it; p99 leaves exactly 10.
        p, value, n = harness.tail_percentile(list(range(1, 1001)))
        self.assertEqual((p, value, n), (99.0, 990, 1000))
        p, value, n = harness.tail_percentile(list(range(1, 2001)))
        self.assertEqual((p, value, n), (99.5, 1990, 2000))
        # 999 samples leave only 9 beyond p99: fall back to p98.
        p, value, n = harness.tail_percentile(list(range(1, 1000)),
                                              ceiling=99.0)
        self.assertEqual((p, n), (98.0, 999))
        self.assertEqual(value, 980)

    def test_too_few_samples(self):
        p, value, n = harness.tail_percentile([3.0, 1.0, 2.0])
        self.assertIsNone(p)
        self.assertEqual((value, n), (3.0, 3))

    def test_refusals_miss_every_limit(self):
        samples = harness.with_misses([1.0] * 990, 10)
        p, value, _ = harness.tail_percentile(samples, ceiling=99.0)
        self.assertEqual(p, 99.0)
        self.assertEqual(value, 1.0)
        samples = harness.with_misses([1.0] * 989, 11)
        self.assertTrue(math.isinf(
            harness.tail_percentile(samples, ceiling=99.0)[1]))


class OpenLoopTest(unittest.TestCase):
    def test_lateness_within_gap(self):
        late = harness.lateness_summary([0.1] * 995 + [5.0] * 5, rate=50)
        self.assertEqual(late["p"], 99.0)
        self.assertAlmostEqual(late["p_ms"], 0.1)
        self.assertAlmostEqual(late["gap_ms"], 20.0)
        self.assertFalse(late["behind"])

    def test_generator_behind(self):
        late = harness.lateness_summary([0.1] * 900 + [30.0] * 100, rate=50)
        self.assertTrue(late["behind"])

    def test_backlog_detector(self):
        # Little's-law occupancy at the rung's start and end: no growth.
        self.assertFalse(harness.backlog_grew(6, 9, rows=1000))
        # Twenty rows more at the end of a 1000-row rung: below 2%.
        self.assertFalse(harness.backlog_grew(5, 25, rows=1000))
        self.assertTrue(harness.backlog_grew(5, 26, rows=1000))
        # Short rungs use the absolute slack.
        self.assertFalse(harness.backlog_grew(1, 9, rows=100))
        self.assertTrue(harness.backlog_grew(1, 10, rows=100))

    def test_drain_rate_ignores_ramp_and_tail(self):
        # 100 rows completing every 10 ms, then one straggler at 5 s.
        completions = [10.0 * (i + 1) for i in range(100)] + [5000.0]
        self.assertAlmostEqual(harness.drain_rate(completions), 100.0)
        self.assertEqual(harness.drain_rate([1.0]), 0.0)

    def test_max_sustained_rate(self):
        rungs = [
            {"rate": 30, "tail_ms": 20.0, "grew": False},
            {"rate": 45, "tail_ms": 40.0, "grew": False},
            {"rate": 60, "tail_ms": 90.0, "grew": True},
            {"rate": 75, "tail_ms": 300.0, "grew": True},
        ]
        self.assertEqual(harness.max_sustained_rate(rungs, 100.0), 45)
        self.assertEqual(harness.max_sustained_rate(rungs, 10.0), 0.0)


class RssTest(unittest.TestCase):
    STATUS = "VmHWM:\t   43084 kB\nVmRSS:\t   38808 kB\n"

    def test_parse(self):
        self.assertEqual(harness.parse_status_kb(self.STATUS, "VmHWM"), 43084)
        self.assertEqual(harness.parse_status_kb(self.STATUS, "VmRSS"), 38808)

    def test_missing_field(self):
        with self.assertRaises(ValueError):
            harness.parse_status_kb("VmRSS: 1 kB\n", "VmHWM")

    def test_peak_is_median_of_segments(self):
        segments = [f"VmHWM:\t{kb} kB\nVmRSS:\t1 kB\n"
                    for kb in (10240, 20480, 307200)]
        self.assertAlmostEqual(harness.peak_rss_mb(segments), 20.0)

    def test_reads_this_process(self):
        with open("/proc/self/status") as f:
            text = f.read()
        hwm = harness.parse_status_kb(text, "VmHWM")
        rss = harness.parse_status_kb(text, "VmRSS")
        self.assertGreater(rss, 0)
        self.assertGreaterEqual(hwm, rss)


def span(name, ts, dur, tid=1):
    return {"name": name, "cat": name.split(".")[0], "ph": "X", "ts": ts,
            "dur": dur, "pid": 1, "tid": tid}


class FoldTest(unittest.TestCase):
    def test_self_time_and_identity(self):
        events = [
            span("eval.run", 0, 1000),
            span("eval.cell", 100, 400),
            span("pipeline.transform_all", 150, 300),
            span("serve.batch", 200, 100),
            span("eval.cell", 600, 300),
            # A retroactive wait overlapping everything on its thread.
            span("serve.queue_wait", 50, 900),
            {"name": "serve.request", "ph": "b", "ts": 0, "pid": 1, "tid": 1,
             "cat": "serve", "id": 1},
        ]
        fold = harness.fold_trace(events)
        self.assertAlmostEqual(fold["self_s"]["eval"], (300 + 100 + 300) / 1e6)
        self.assertAlmostEqual(fold["self_s"]["pipeline"], 200 / 1e6)
        self.assertAlmostEqual(fold["self_s"]["serve"], 100 / 1e6)
        self.assertAlmostEqual(fold["waits_s"]["serve.queue_wait"], 900 / 1e6)
        self.assertAlmostEqual(sum(fold["self_s"].values()),
                               sum(fold["roots_s"].values()))

    def test_threads_fold_separately(self):
        events = [span("eval.run", 0, 1000, tid=1),
                  span("eval.cell", 0, 500, tid=2),
                  span("eval.cell", 500, 400, tid=2)]
        fold = harness.fold_trace(events)
        self.assertAlmostEqual(fold["roots_s"]["eval.run"], 1000 / 1e6)
        self.assertAlmostEqual(fold["roots_s"]["eval.cell"], 900 / 1e6)

    def test_coverage_of_grid_wall(self):
        # The grid's root span accounts for the traced wall within the
        # stated share (5%), measured by the harness around the same pass.
        fold = harness.fold_trace([span("eval.run", 10, 990_000)])
        self.assertAlmostEqual(
            harness.fold_coverage(fold, "eval.run", 1.0), 0.99)
        self.assertGreaterEqual(
            harness.fold_coverage(fold, "eval.run", 1.0),
            harness.FOLD_MIN_COVERAGE)
        self.assertEqual(harness.fold_coverage(fold, "missing", 1.0), 0.0)


if __name__ == "__main__":
    unittest.main()
