"""Tests for the attack detection module (paper S4.1).

Equation-level checks run against the batched kernel
``detection_scores_matrix`` through a dict adapter; partial delivery,
``classify`` and ``AttackDetector`` exist only in the per-worker oracle
(``tests/core/reference.py``) and are checked there.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DetectionConfig, detection_scores_matrix

from tests.core import reference
from tests.core.reference import AttackDetector, classify


def detection_scores(slices, benchmarks, mode="cosine"):
    """Eq. 6 through the batched kernel, in the oracle's dict form.

    ``benchmarks`` maps each server rank to its own slice; the slots are
    the servers' positions in rank order, as in the round engine.
    """
    ranks = sorted(benchmarks)
    ids = sorted(slices)
    if not ids:
        return {}
    rows = [np.concatenate([slices[w][r] for r in ranks]) for w in ids]
    sizes = [len(benchmarks[r]) for r in ranks]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    scores = detection_scores_matrix(
        np.asarray(ids), np.vstack(rows), offsets, np.asarray(ranks),
        np.arange(len(ranks)), [np.asarray(benchmarks[r]) for r in ranks],
        mode,
    )
    return dict(zip(ids, scores.tolist()))


def server_score(benchmark, candidate, mode="cosine"):
    """One server's score S_i^j: a non-server worker seen by one server."""
    benchmark, candidate = np.asarray(benchmark), np.asarray(candidate)
    return detection_scores_matrix(
        np.array([99]), candidate[None, :], np.array([0, candidate.size]),
        np.array([0]), np.array([0]), [benchmark], mode,
    )[0]


class TestServerScore:
    def test_raw_is_inner_product(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        assert server_score(a, b, "raw") == pytest.approx(11.0)

    def test_cosine_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.normal(size=(2, 8))
            s = server_score(a, b, "cosine")
            assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12

    def test_cosine_self_is_one(self):
        a = np.array([1.0, -2.0, 3.0])
        assert server_score(a, a, "cosine") == pytest.approx(1.0)

    def test_sign_flip_gives_minus_one(self):
        a = np.array([1.0, -2.0, 3.0])
        assert server_score(a, -4.0 * a, "cosine") == pytest.approx(-1.0)

    def test_zero_candidate_scores_zero(self):
        a = np.array([1.0, 2.0])
        assert server_score(a, np.zeros(2), "cosine") == 0.0

    def test_cosine_scale_free_raw_not(self):
        a = np.array([1.0, 1.0])
        b = np.array([2.0, 0.0])
        assert server_score(a, b, "cosine") == pytest.approx(
            server_score(a, 100 * b, "cosine")
        )
        assert server_score(a, 100 * b, "raw") == 100 * server_score(a, b, "raw")

    def test_validation(self):
        with pytest.raises(ValueError):
            server_score(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            server_score(np.zeros(2), np.zeros(2), "bogus")


class TestDetectionScores:
    def _setup(self, mode):
        # two servers (ranks 0, 1); worker 2 honest, worker 3 flipped
        bench = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
        slices = {
            0: {0: bench[0], 1: np.array([0.1, 0.9])},
            2: {0: np.array([0.9, 0.1]), 1: np.array([0.2, 0.8])},
            3: {0: -np.array([0.9, 0.1]), 1: -np.array([0.2, 0.8])},
        }
        return detection_scores(slices, bench, mode)

    def test_honest_positive_attacker_negative(self):
        scores = self._setup("cosine")
        assert scores[2] > 0 > scores[3]

    def test_raw_sums_cosine_averages(self):
        raw = self._setup("raw")
        cos = self._setup("cosine")
        assert abs(cos[2]) <= 1.0
        assert raw[2] > 0

    def test_missing_slice_scaled_in_raw_mode(self):
        # partial delivery only exists in the per-worker oracle (the
        # trainer routes partial uploads to the uncertain set); worker
        # id 5 is NOT a server, so no self-scoring exclusion applies
        bench = {0: np.array([2.0]), 1: np.array([2.0])}
        full = {5: {0: np.array([1.0]), 1: np.array([1.0])}}
        partial = {5: {0: np.array([1.0])}}
        oracle = reference.detection_scores
        assert oracle(partial, bench, "raw")[5] == pytest.approx(
            oracle(full, bench, "raw")[5]
        )

    def test_server_never_scores_itself_with_peers(self):
        # server 0's own slice matches its benchmark exactly (cosine 1);
        # with a peer server present, only the peer's view counts
        bench = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
        slices = {0: {0: bench[0], 1: -bench[1]}}
        scores = detection_scores(slices, bench, "cosine")
        assert scores[0] == pytest.approx(-1.0)

    def test_single_server_keeps_self_score(self):
        bench = {0: np.array([1.0, 0.0])}
        slices = {0: {0: np.array([1.0, 0.0])}}
        assert detection_scores(slices, bench, "cosine")[0] == pytest.approx(1.0)

    def test_no_benchmark_raises(self):
        with pytest.raises(ValueError):
            detection_scores_matrix(
                np.array([0]), np.zeros((1, 2)), np.array([0, 2]),
                np.array([], dtype=int), np.array([], dtype=int), [],
            )

    def test_worker_with_no_delivered_slices_raises(self):
        bench = {0: np.array([1.0])}
        with pytest.raises(ValueError):
            reference.detection_scores({5: {}}, bench)


class TestClassify:
    def test_threshold_boundary_inclusive(self):
        r = classify({0: 0.1, 1: 0.0999}, threshold=0.1)
        assert r[0] is True and r[1] is False

    def test_all_types(self):
        r = classify({0: -5.0, 1: 5.0}, threshold=0.0)
        assert r == {0: False, 1: True}


class TestAttackDetector:
    def test_end_to_end_separates_attackers(self):
        rng = np.random.default_rng(0)
        honest_dir = rng.normal(size=10)
        bench_slices = {0: honest_dir[:5], 1: honest_dir[5:]}
        slices = {}
        truth = {}
        for wid in range(8):
            noise = 0.2 * rng.normal(size=10)
            if wid % 3 == 0 and wid > 0:  # attackers
                g = -4.0 * (honest_dir + noise)
                truth[wid] = False
            else:
                g = honest_dir + noise
                truth[wid] = True
            slices[wid] = {0: g[:5], 1: g[5:]}
        det = AttackDetector(DetectionConfig(threshold=0.1, mode="cosine"))
        _, r = det.detect(slices, bench_slices)
        assert r == truth

    def test_default_config(self):
        det = AttackDetector()
        assert det.config.mode == "cosine"
        assert det.config.threshold == 0.0

    def test_invalid_mode_rejected_at_config(self):
        with pytest.raises(ValueError):
            DetectionConfig(mode="euclidean")

    @settings(max_examples=25, deadline=None)
    @given(p_s=st.floats(1.0, 16.0), seed=st.integers(0, 500))
    def test_property_sign_flip_always_caught_cosine(self, p_s, seed):
        # A sign-flipped gradient has cosine exactly -1 against the honest
        # direction regardless of intensity -> always below any S_y >= 0.
        rng = np.random.default_rng(seed)
        g = rng.normal(size=12)
        bench = {0: g[:6], 1: g[6:]}
        flipped = -p_s * g
        slices = {1: {0: flipped[:6], 1: flipped[6:]}}
        det = AttackDetector(DetectionConfig(threshold=0.0, mode="cosine"))
        _, r = det.detect(slices, bench)
        assert r[1] is False
