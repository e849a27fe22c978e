"""Tests of the benchmark's own arithmetic and wrapper lifecycle.

Run from the repository root::

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
from stats import Checks, fast_percentile, median, percentile, tail_percentile  # noqa: E402


def _spans(rows, names):
    """``rows`` of (name, parent, start, end) -> the arrays layer_metrics reads."""
    ids = {n: i for i, n in enumerate(names)}
    return {
        "name_id": np.array([ids[r[0]] for r in rows], dtype=np.int32),
        "parent": np.array([r[1] for r in rows], dtype=np.int32),
        "round": np.zeros(len(rows), dtype=np.int32),
        "start": np.array([r[2] for r in rows], dtype=np.float64),
        "end": np.array([r[3] for r in rows], dtype=np.float64),
    }


class SelfTimeTest(unittest.TestCase):
    def test_nested_children_are_subtracted_once(self):
        # root [0,10] > a [1,4] > b [2,3];  root > c [5,7]
        parent = np.array([-1, 0, 1, 0])
        start = np.array([0.0, 1.0, 2.0, 5.0])
        end = np.array([10.0, 4.0, 3.0, 7.0])
        own = spans.self_times(parent, start, end)
        np.testing.assert_allclose(own, [5.0, 2.0, 1.0, 2.0])
        # self times partition the root's interval
        self.assertAlmostEqual(own.sum(), 10.0)

    def test_contexts_follow_the_innermost_context_span(self):
        names = ["x", spans.REGION, spans.ROUND, spans.CHECKPOINT, "comm.recv"]
        name_id = np.array([0, 1, 2, 4, 3, 4, 4])
        parent = np.array([-1, -1, 1, 2, 1, 4, -1])
        ctx = spans.span_contexts(names, name_id, parent)
        self.assertEqual(ctx, [None, spans.REGION, spans.ROUND, spans.ROUND,
                               spans.CHECKPOINT, spans.CHECKPOINT, None])

    def test_layer_metrics_per_round_and_coverage(self):
        names = [spans.REGION, spans.ROUND, "comm.upload", "fl.local_compute",
                 "nn.forward", "telemetry.flush", spans.CHECKPOINT,
                 "service.write", spans.AUDIT, "ledger.verify",
                 "population.materialize"]
        ms = 1e-3
        rows = [
            (spans.REGION, -1, 0 * ms, 30 * ms),            # 0
            (spans.ROUND, 0, 0 * ms, 10 * ms),              # 1
            ("fl.local_compute", 1, 1 * ms, 5 * ms),        # 2
            ("nn.forward", 2, 2 * ms, 3 * ms),
            ("comm.upload", 1, 6 * ms, 8 * ms),
            ("telemetry.flush", 0, 10 * ms, 11 * ms),       # between rounds
            (spans.ROUND, 0, 11 * ms, 19 * ms),             # 6
            ("comm.upload", 6, 12 * ms, 13 * ms),
            ("population.materialize", 6, 14 * ms, 15 * ms),  # a worker build
            (spans.CHECKPOINT, 0, 20 * ms, 29 * ms),        # 9 inside region
            ("service.write", 9, 21 * ms, 25 * ms),
            ("telemetry.flush", 9, 25 * ms, 26 * ms),       # not a round cost
            (spans.AUDIT, -1, 40 * ms, 50 * ms),            # 12
            ("ledger.verify", 12, 41 * ms, 45 * ms),
            ("ledger.verify", 12, 45 * ms, 47 * ms),
        ]
        agg = spans.layer_metrics(names, _spans(rows, names), checkout_ids=8)
        m = agg["metrics"]
        self.assertEqual((agg["rounds"], agg["checkpoints"], agg["audits"]), (2, 1, 1))
        self.assertAlmostEqual(m["fl.round_self_ms"], (10 - 4 - 2 + 8 - 1 - 1) / 2)
        self.assertAlmostEqual(m["fl.local_compute_ms"], 3 / 2)
        self.assertAlmostEqual(m["nn.forward_ms"], 1 / 2)
        self.assertAlmostEqual(m["comm.upload_ms"], 3 / 2)
        self.assertAlmostEqual(m["comm.upload_calls"], 1.0)
        self.assertAlmostEqual(m["telemetry.flush_ms"], 1 / 2)
        self.assertAlmostEqual(m["service.write_ms"], 4.0)
        self.assertAlmostEqual(m["ledger.verify_ms"], 6.0)
        self.assertAlmostEqual(m["ledger.verify_calls"], 2.0)
        self.assertAlmostEqual(m["population.checkout_ms"], 1 / 2)
        self.assertAlmostEqual(m["population.materialized"], 1 / 2)
        self.assertAlmostEqual(m["population.cache_hit_share"], 1 - 1 / 8)
        # region wall minus the checkpoint, per round; 2 ms of it unwrapped
        self.assertAlmostEqual(agg["wall_ms"], (30 - 9) / 2)
        self.assertAlmostEqual(agg["between_ms"], (30 - 10 - 1 - 8 - 9) / 2)
        self.assertAlmostEqual(agg["covered_ms"] + agg["between_ms"], agg["wall_ms"])

    def test_tracer_records_nesting(self):
        tracer = spans.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        arr = tracer.arrays()
        self.assertEqual(arr["parent"].tolist(), [-1, 0])
        self.assertTrue((arr["end"] >= arr["start"]).all())
        self.assertLessEqual(arr["end"][1], arr["end"][0])


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(median([3, 1, 2]), 2.0)
        self.assertEqual(median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            median([])

    def test_percentile_matches_numpy(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
        for q in (0, 10, 50, 90, 100):
            self.assertAlmostEqual(percentile(values, q), float(np.percentile(values, q)))
        with self.assertRaises(ValueError):
            percentile(values, 101)

    def test_tail_percentile_leaves_ten_samples_beyond(self):
        values = list(range(1000))
        q = tail_percentile(len(values))
        self.assertAlmostEqual(q, 99.0)
        self.assertEqual(sum(v > percentile(values, q) for v in values), 10)
        with self.assertRaises(ValueError):
            tail_percentile(10)

    def test_failure_counting(self):
        checks = Checks()
        checks.add("a", True)
        checks.add("b", False, "went wrong")
        other = Checks()
        other.add("c", 0, "zero is a failure")
        checks.extend(other)
        self.assertEqual((checks.attempted, checks.failed), (3, 2))
        self.assertEqual(checks.failures(), ["b: went wrong", "c: zero is a failure"])

    def test_fast_percentile(self):
        values = [4.0, 1.0, 3.0, 2.0, 5.0]
        self.assertAlmostEqual(fast_percentile(values), 1.2)
        self.assertAlmostEqual(fast_percentile(values, higher_is_better=True), 4.8)

    def test_windows_skip_the_head_and_drop_a_short_tail(self):
        from workloads import Episode

        ep = Episode(setup_s=[0.1], round_ms=[9.0, 1.0, 3.0, 2.0, 2.0, 7.0],
                     marks=[0.0, 1.0, 1.5, 2.0, 4.0, 4.5, 5.0], digest="d",
                     checks=Checks(), checkpoint_ms=[], audit_s=[],
                     window=2, window_start=1)
        # rounds 1-2 over [1, 2), rounds 3-4 over [2, 4.5); round 5 is a tail
        self.assertEqual(ep.windows(), [(2.0, 2.0), (0.8, 2.0)])

    def test_end_to_end_takes_fast_percentiles_over_pooled_samples(self):
        from workloads import Episode

        eps = [
            Episode(setup_s=s, round_ms=r, marks=m, digest="d", checks=Checks(),
                    checkpoint_ms=c, audit_s=a, window=2)
            for s, r, m, c, a in [
                ([0.1, 0.4], [1.0, 3.0, 9.0, 9.0], [0.0, 1.0, 2.0, 3.0, 6.0], [5.0], [0.2, 0.4]),
                ([0.3], [2.0, 2.0, 4.0, 4.0], [0.0, 0.25, 0.5, 2.0, 2.5], [6.0, 7.0], [0.3]),
                ([0.2, 0.25], [5.0, 5.0], [0.0, 1.0, 2.0], [8.0], [0.5]),
            ]
        ]
        e2e = run.end_to_end(eps)
        # windows (rate, median ms): (1, 2), (0.5, 9), (4, 2), (1, 4), (1, 5)
        self.assertAlmostEqual(e2e["setup_s"], 0.25)
        self.assertAlmostEqual(e2e["rounds_per_s"], 3.4)
        self.assertAlmostEqual(e2e["round_p50_ms"], 2.0)
        # audits 0.2, 0.4, 0.3, 0.5
        self.assertAlmostEqual(e2e["audit_verify_s"], 0.215)
        self.assertNotIn("checkpoint_p50_ms", e2e)
        self.assertGreater(e2e["peak_rss_mb"], 0.0)


class WrapperLifecycleTest(unittest.TestCase):
    def _attrs(self):
        import inspect

        return [inspect.getattr_static(owner, attr) for owner, attr, _ in spans._sites()]

    def test_wrappers_removed_after_traced_block(self):
        import repro.fl.trainer as trainer

        before = self._attrs()
        self.assertEqual(spans.installed_sites(), [])
        tracer = spans.Tracer()
        with spans.installed(tracer):
            self.assertEqual(len(spans.installed_sites()), len(before))
            trainer.fedavg([np.ones(3), np.zeros(3)], [1, 1])
        self.assertIn("fl.aggregate", tracer.names)
        self.assertEqual(len(tracer), 1)
        self.assertEqual(spans.installed_sites(), [])
        for old, new in zip(before, self._attrs()):
            self.assertIs(old, new)

    def test_wrappers_removed_when_the_block_raises(self):
        before = self._attrs()
        with self.assertRaises(RuntimeError):
            with spans.installed(spans.Tracer()):
                raise RuntimeError("episode failed")
        self.assertEqual(spans.installed_sites(), [])
        for old, new in zip(before, self._attrs()):
            self.assertIs(old, new)

    def test_classmethod_stays_a_classmethod(self):
        from repro.core.engine import RoundBatch

        with spans.installed(spans.Tracer()):
            self.assertIsInstance(vars(RoundBatch)["from_context"], classmethod)
        self.assertIsInstance(vars(RoundBatch)["from_context"], classmethod)


if __name__ == "__main__":
    unittest.main()
