"""Tests for the sample-inflation fraud worker."""

import numpy as np
import pytest

from repro.core import individual_weights, union_weights
from repro.fl import SampleInflationWorker
from repro.nn import build_logreg

from tests.helpers import N_CLASSES, N_FEATURES, local_update, make_federation, model_fn


class TestSampleInflation:
    def test_claims_inflated_count(self):
        worker = make_federation(
            num_workers=2, worker_cls=SampleInflationWorker,
            worker_kwargs={"inflation": 5.0},
        )[0][0]
        assert worker.num_samples == 5 * len(worker.dataset)

    def test_gradient_is_honest(self):
        theta = build_logreg(N_FEATURES, N_CLASSES, seed=0).get_flat_params()
        honest = make_federation(num_workers=2, seed=3)[0][0]
        liar = make_federation(
            num_workers=2, seed=3, worker_cls=SampleInflationWorker,
            worker_kwargs={"inflation": 5.0},
        )[0][0]
        np.testing.assert_allclose(
            local_update(honest, theta).gradient,
            local_update(liar, theta).gradient,
        )
        assert not local_update(liar, theta).attacked

    def test_inflation_boosts_baseline_weights(self):
        true_counts = np.array([100.0, 100.0, 100.0])
        claimed = np.array([100.0, 1000.0, 100.0])
        for fn in (individual_weights, union_weights):
            honest = fn(true_counts); honest = honest / honest.sum()
            lied = fn(claimed); lied = lied / lied.sum()
            assert lied[1] > honest[1]

    def test_validation(self):
        _, shards, _ = make_federation(num_workers=1)
        with pytest.raises(ValueError):
            SampleInflationWorker(0, shards[0], model_fn(), inflation=0.5)
