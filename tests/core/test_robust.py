"""Tests for the robust-aggregation comparison defences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    KrumMechanism,
    MedianMechanism,
    coordinate_median,
    krum,
    trimmed_mean,
)
from repro.fl import FederatedTrainer, SignFlippingWorker
from repro.fl.workers import WorkerUpdate
from repro.nn import build_logreg
from repro.population import WorkerPopulation

from tests.helpers import (
    N_CLASSES,
    N_FEATURES,
    make_federation,
    round_context,
    stack_updates,
)


class TestCoordinateMedian:
    def test_matches_numpy_median(self):
        grads = [np.array([1.0, 5.0]), np.array([2.0, 6.0]), np.array([3.0, 4.0])]
        np.testing.assert_array_equal(coordinate_median(grads), [2.0, 5.0])

    def test_robust_to_one_outlier(self):
        grads = [np.ones(3), np.ones(3), np.full(3, 1e9)]
        np.testing.assert_array_equal(coordinate_median(grads), np.ones(3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coordinate_median([])


class TestTrimmedMean:
    def test_no_trim_is_mean(self):
        grads = [np.array([0.0]), np.array([2.0]), np.array([4.0])]
        assert trimmed_mean(grads, 0)[0] == pytest.approx(2.0)

    def test_trim_removes_extremes(self):
        grads = [np.array([0.0]), np.array([2.0]), np.array([1000.0])]
        assert trimmed_mean(grads, 1)[0] == pytest.approx(2.0)

    def test_validation(self):
        grads = [np.zeros(2)] * 3
        with pytest.raises(ValueError):
            trimmed_mean(grads, -1)
        with pytest.raises(ValueError):
            trimmed_mean(grads, 2)


class TestKrum:
    def test_selects_cluster_member(self):
        rng = np.random.default_rng(0)
        center = rng.normal(size=8)
        honest = [center + 0.1 * rng.normal(size=8) for _ in range(5)]
        byzantine = [-10 * center, 10 * center + rng.normal(size=8)]
        grads = honest + byzantine
        winner = krum(grads, num_byzantine=2)
        assert winner < 5  # one of the honest cluster

    def test_validation(self):
        grads = [np.zeros(2)] * 4
        with pytest.raises(ValueError):
            krum(grads, num_byzantine=-1)
        with pytest.raises(ValueError):
            krum(grads, num_byzantine=3)  # n - f - 2 = -1

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500), n_honest=st.integers(4, 8))
    def test_property_never_picks_the_flipped_outlier(self, seed, n_honest):
        rng = np.random.default_rng(seed)
        center = rng.normal(size=6)
        grads = [center + 0.05 * rng.normal(size=6) for _ in range(n_honest)]
        grads.append(-8.0 * center)  # the Byzantine upload is last
        assert krum(grads, num_byzantine=1) != n_honest


def _attacked_trainer(mechanism, num_workers=6, p_s=8.0, seed=0):
    workers, _, test = make_federation(num_workers=num_workers, seed=seed)
    workers[0] = make_federation(
        num_workers=num_workers, seed=seed,
        worker_cls=SignFlippingWorker, worker_kwargs={"p_s": p_s},
    )[0][0]
    model = build_logreg(N_FEATURES, N_CLASSES, seed=seed)
    return FederatedTrainer(
        model, WorkerPopulation.from_workers(workers), [1, 2], test_data=test,
        mechanism=mechanism, server_lr=0.1,
    )


class TestKrumMechanism:
    def test_accepts_exactly_one_worker(self):
        trainer = _attacked_trainer(KrumMechanism(num_byzantine=1))
        rec = trainer.run_round(0)
        assert sum(rec.accepted.values()) == 1

    def test_never_selects_the_attacker(self):
        trainer = _attacked_trainer(KrumMechanism(num_byzantine=1))
        for t in range(5):
            rec = trainer.run_round(t)
            assert rec.accepted[0] is False

    def test_protects_accuracy(self):
        defended = _attacked_trainer(KrumMechanism(num_byzantine=1))
        acc_krum = defended.run(25, eval_every=25).final_accuracy()
        undefended = _attacked_trainer(None)
        acc_none = undefended.run(25, eval_every=25).final_accuracy()
        assert acc_krum > acc_none

    def test_validation(self):
        with pytest.raises(ValueError):
            KrumMechanism(num_byzantine=-1)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_too_few_uploads_accept_nobody(self, n):
        # n < f + 3 leaves Krum no n - f - 2 >= 1 neighbours to score
        updates = stack_updates({
            w: WorkerUpdate(w, np.full(4, float(w + 1)), 10) for w in range(n)
        }, dim=4)
        ctx = round_context(0, np.zeros(4), [0], updates)
        decision = KrumMechanism(num_byzantine=1).process_round(ctx)
        assert decision.accept == dict.fromkeys(range(n), False)
        assert decision.records == {"krum_selected": None}
        if n:
            with pytest.raises(ValueError):
                krum(ctx.uploads, num_byzantine=1)

    def test_lossy_rounds_with_too_few_uploads_leave_the_model(self):
        # two servers and a 30% drop rate: most rounds deliver fewer
        # than f + 3 = 4 whole uploads
        workers, _, test = make_federation(num_workers=6)
        trainer = FederatedTrainer(
            build_logreg(N_FEATURES, N_CLASSES, seed=0),
            WorkerPopulation.from_workers(workers), [0, 1], test_data=test,
            mechanism=KrumMechanism(num_byzantine=1), server_lr=0.1,
            drop_prob=0.3, seed=3,
        )
        short = 0
        for t in range(10):
            theta = trainer.model.get_flat_params().copy()
            rec = trainer.run_round(t)
            if rec.mechanism_records["krum_selected"] is None:
                short += 1
                assert not any(rec.accepted.values())
                assert np.array_equal(trainer.model.get_flat_params(), theta)
        assert 0 < short < 10

    def test_single_worker_federation_trains_nothing(self):
        workers, _, test = make_federation(num_workers=1)
        trainer = FederatedTrainer(
            build_logreg(N_FEATURES, N_CLASSES, seed=0),
            WorkerPopulation.from_workers(workers), [0], test_data=test,
            mechanism=KrumMechanism(num_byzantine=0), server_lr=0.1,
        )
        theta = trainer.model.get_flat_params()
        history = trainer.run(2)
        assert [r.accepted for r in history.rounds] == [{0: False}] * 2
        assert np.array_equal(trainer.model.get_flat_params(), theta)


class TestMedianMechanism:
    def test_rejects_the_attacker(self):
        trainer = _attacked_trainer(MedianMechanism(keep_fraction=0.5))
        rec = trainer.run_round(0)
        assert rec.accepted[0] is False
        assert sum(rec.accepted.values()) == 3  # half of six

    def test_keep_fraction_one_accepts_all(self):
        trainer = _attacked_trainer(MedianMechanism(keep_fraction=1.0))
        rec = trainer.run_round(0)
        assert all(rec.accepted.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            MedianMechanism(keep_fraction=0.0)
        with pytest.raises(ValueError):
            MedianMechanism(keep_fraction=1.5)
