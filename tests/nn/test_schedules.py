"""Tests for learning-rate schedules."""

import numpy as np
import pytest

from repro.nn import ConstantLR, CosineLR, StepLR
from repro.population import WorkerPopulation


class TestConstantLR:
    def test_constant(self):
        s = ConstantLR(0.1)
        assert s(0) == s(100) == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantLR(0.0)


class TestStepLR:
    def test_halves_every_step(self):
        s = StepLR(1.0, step_size=10, gamma=0.5)
        assert s(0) == 1.0
        assert s(9) == 1.0
        assert s(10) == 0.5
        assert s(25) == 0.25

    def test_gamma_one_is_constant(self):
        s = StepLR(0.3, step_size=5, gamma=1.0)
        assert s(100) == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            StepLR(0.0, 1)
        with pytest.raises(ValueError):
            StepLR(1.0, 0)
        with pytest.raises(ValueError):
            StepLR(1.0, 1, gamma=0.0)
        with pytest.raises(ValueError):
            StepLR(1.0, 1)(-1)


class TestCosineLR:
    def test_endpoints(self):
        s = CosineLR(1.0, total_rounds=100, min_lr=0.1)
        assert s(0) == pytest.approx(1.0)
        assert s(100) == pytest.approx(0.1)
        assert s(200) == pytest.approx(0.1)  # clamped past the horizon

    def test_midpoint(self):
        s = CosineLR(1.0, total_rounds=10, min_lr=0.0)
        assert s(5) == pytest.approx(0.5)

    def test_monotone_decreasing(self):
        s = CosineLR(0.5, total_rounds=50)
        vals = [s(t) for t in range(51)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            CosineLR(0.0, 10)
        with pytest.raises(ValueError):
            CosineLR(1.0, 0)
        with pytest.raises(ValueError):
            CosineLR(1.0, 10, min_lr=2.0)


class TestTrainerIntegration:
    def test_scheduled_server_lr(self):
        from repro.fl import FederatedTrainer
        from repro.nn import build_logreg

        from tests.helpers import N_CLASSES, N_FEATURES, make_federation

        workers, _, test = make_federation(num_workers=3)
        model = build_logreg(N_FEATURES, N_CLASSES, seed=0)
        trainer = FederatedTrainer(
            model, WorkerPopulation.from_workers(workers), [0], test_data=test,
            server_lr=StepLR(0.2, step_size=5, gamma=0.5),
        )
        assert trainer._round_lr(0) == 0.2
        assert trainer._round_lr(5) == 0.1
        history = trainer.run(10, eval_every=10)
        assert history.final_accuracy() > 0.5

    def test_bad_schedule_raises(self):
        from repro.fl import FederatedTrainer
        from repro.nn import build_logreg

        from tests.helpers import N_CLASSES, N_FEATURES, make_federation

        workers, _, test = make_federation(num_workers=3)
        model = build_logreg(N_FEATURES, N_CLASSES, seed=0)
        trainer = FederatedTrainer(
            model, WorkerPopulation.from_workers(workers), [0], test_data=test,
            server_lr=lambda t: -1.0,
        )
        with pytest.raises(ValueError):
            trainer.run_round(0)
