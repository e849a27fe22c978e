"""Tests for non-trainable buffer plumbing (FedAvg-BN support)."""

import numpy as np
import pytest

from repro.nn import BatchNorm, Dense, ReLU, Sequential, build_mini_resnet
from repro.population import WorkerPopulation

from tests.helpers import local_update


def bn_model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(4, 6, rng), BatchNorm(6), ReLU(), Dense(6, 2, rng)])


class TestBufferVector:
    def test_buffer_count(self):
        model = bn_model()
        # one BatchNorm(6): running_mean + running_var
        assert model.num_buffer_values == 12

    def test_no_buffers_for_plain_models(self):
        rng = np.random.default_rng(0)
        model = Sequential([Dense(4, 2, rng)])
        assert model.num_buffer_values == 0
        assert model.get_flat_buffers().size == 0

    def test_roundtrip(self):
        model = bn_model()
        vec = np.arange(12.0)
        model.set_flat_buffers(vec)
        np.testing.assert_array_equal(model.get_flat_buffers(), vec)

    def test_initial_values(self):
        model = bn_model()
        buf = model.get_flat_buffers()
        # sorted keys: running_mean (zeros) then running_var (ones)
        np.testing.assert_array_equal(buf[:6], 0.0)
        np.testing.assert_array_equal(buf[6:], 1.0)

    def test_set_rejects_wrong_size(self):
        model = bn_model()
        with pytest.raises(ValueError):
            model.set_flat_buffers(np.zeros(5))

    def test_buffers_not_in_param_vector(self):
        model = bn_model()
        n_params = model.num_params
        model.set_flat_buffers(np.full(12, 7.0))
        assert model.num_params == n_params
        assert not np.isin(7.0, model.get_flat_params())

    def test_training_updates_buffers(self):
        model = bn_model()
        before = model.get_flat_buffers()
        x = np.random.default_rng(1).normal(loc=3.0, size=(32, 4))
        model.forward(x, training=True)
        after = model.get_flat_buffers()
        assert not np.allclose(before, after)

    def test_eval_uses_loaded_buffers(self):
        model = bn_model()
        x = np.random.default_rng(2).normal(size=(8, 4))
        out_default = model.predict(x)
        model.set_flat_buffers(np.concatenate([np.full(6, 5.0), np.full(6, 2.0)]))
        out_loaded = model.predict(x)
        assert not np.allclose(out_default, out_loaded)

    def test_resnet_has_buffers(self):
        model = build_mini_resnet(width=4, num_blocks=1, seed=0)
        # stem BN + 2 block BNs, 4 channels each, 2 stats each
        assert model.num_buffer_values == 3 * 4 * 2


class TestFederatedBufferSync:
    def test_worker_returns_buffers_for_bn_models(self):
        from repro.datasets import make_blobs
        from repro.fl import HonestWorker

        data = make_blobs(n_samples=40, n_features=4, num_classes=2, seed=0)
        worker = HonestWorker(0, data, lambda: bn_model(), lr=0.1, seed=0)
        theta = bn_model().get_flat_params()
        upd = local_update(worker, theta)
        assert upd.buffers is not None
        assert upd.buffers.size == 12

    def test_worker_loads_global_buffers(self):
        from repro.datasets import make_blobs
        from repro.fl import HonestWorker

        data = make_blobs(n_samples=40, n_features=4, num_classes=2, seed=0)
        worker = HonestWorker(0, data, lambda: bn_model(), lr=0.1, seed=0)
        theta = bn_model().get_flat_params()
        fancy = np.concatenate([np.full(6, 9.0), np.full(6, 4.0)])
        got = local_update(worker, theta, fancy).buffers
        # after one small batch the worker's running stats moved FROM the
        # loaded global stats, not from the init stats
        assert np.abs(got[:6] - 9.0).max() < 5.0  # near the loaded mean

    def test_global_model_buffers_updated_by_trainer(self):
        from repro.datasets import iid_partition, make_blobs, train_test_split
        from repro.fl import FederatedTrainer, HonestWorker

        data = make_blobs(n_samples=200, n_features=4, num_classes=2, seed=0)
        train, test = train_test_split(data, 0.2, seed=0)
        shards = iid_partition(train, 3, seed=0)
        workers = [
            HonestWorker(i, shards[i], lambda: bn_model(), lr=0.1, seed=i)
            for i in range(3)
        ]
        global_model = bn_model()
        before = global_model.get_flat_buffers()
        trainer = FederatedTrainer(
            global_model, WorkerPopulation.from_workers(workers), [0], test_data=test,
        )
        trainer.run(3, eval_every=3)
        after = global_model.get_flat_buffers()
        assert not np.allclose(before, after)
