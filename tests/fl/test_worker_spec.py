"""Declarative worker registry: roles, specs, roster construction."""

import numpy as np
import pytest

from repro.datasets import make_blobs
from repro.fl import (
    WORKER_ROLES,
    DataPoisonWorker,
    HonestWorker,
    SignFlippingWorker,
    Worker,
    WorkerSpec,
    make_worker,
    register_worker_role,
)

from ..helpers import N_CLASSES, N_FEATURES, model_fn


def dataset(seed=0):
    return make_blobs(
        n_samples=40, n_features=N_FEATURES, num_classes=N_CLASSES, seed=seed
    )


class TestRegistry:
    def test_builtin_roles_present(self):
        for role in ("honest", "sign", "poison", "free", "prob"):
            assert role in WORKER_ROLES
        assert WORKER_ROLES["honest"] is HonestWorker
        assert WORKER_ROLES["sign"] is SignFlippingWorker

    def test_register_requires_worker_subclass(self):
        with pytest.raises(TypeError, match="not a Worker subclass"):
            register_worker_role("bogus", dict)

    def test_register_and_use_custom_role(self):
        class QuietWorker(HonestWorker):
            pass

        register_worker_role("quiet", QuietWorker)
        try:
            w = make_worker(WorkerSpec("quiet"), 0, dataset(), model_fn())
            assert isinstance(w, QuietWorker)
        finally:
            del WORKER_ROLES["quiet"]


class TestWorkerSpec:
    def test_unknown_role_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown worker role"):
            WorkerSpec("nonexistent")

    def test_is_malicious_static_labels(self):
        assert WorkerSpec("honest").is_malicious is False
        assert WorkerSpec("sign", {"p_s": 2.0}).is_malicious is True
        assert WorkerSpec("free").is_malicious is True
        # poison is parameter-dependent: p_d == 0 is merely clean data
        assert WorkerSpec("poison", {"p_d": 0.0}).is_malicious is False
        assert WorkerSpec("poison", {"p_d": 0.7}).is_malicious is True

    def test_is_malicious_matches_constructed_worker(self):
        for spec in (
            WorkerSpec("honest"),
            WorkerSpec("sign", {"p_s": 2.0}),
            WorkerSpec("poison", {"p_d": 0.5}),
            WorkerSpec("poison", {"p_d": 0.0}),
        ):
            w = make_worker(spec, 0, dataset(), model_fn())
            assert spec.is_malicious == w.is_malicious, spec


class TestMakeWorker:
    def test_params_and_common_kwargs_flow_through(self):
        w = make_worker(
            WorkerSpec("sign", {"p_s": 3.0}), 5, dataset(), model_fn(),
            seed=9, lr=0.05, batch_size=16,
        )
        assert w.worker_id == 5
        assert w.p_s == 3.0
        assert w.lr == 0.05

    def test_poison_seed_defaults_to_worker_seed(self):
        a = make_worker(
            WorkerSpec("poison", {"p_d": 0.5}), 0, dataset(), model_fn(),
            seed=7,
        )
        b = DataPoisonWorker(
            0, dataset(), model_fn(), seed=7, p_d=0.5, poison_seed=7
        )
        assert np.array_equal(a.dataset.y, b.dataset.y)
