"""Worker-shard streaming: row windows, RoundBatch shards, differentials."""

import numpy as np
import pytest

from repro.core import FIFLConfig, FIFLMechanism
from repro.fl import FederatedTrainer, FleetLocalEngine
from repro.fl.gradients import slice_offsets
from repro.core.engine import RoundBatch
from repro.population.sharding import (
    SharedGradientBuffer,
    iter_row_shards,
)

from ..helpers import make_federation, model_fn


class TestIterRowShards:
    def test_none_yields_single_full_window(self):
        assert list(iter_row_shards(10, None)) == [(0, 10)]
        assert list(iter_row_shards(10, 10)) == [(0, 10)]
        assert list(iter_row_shards(10, 99)) == [(0, 10)]

    def test_chunked_windows_cover_all_rows(self):
        windows = list(iter_row_shards(10, 4))
        assert windows == [(0, 4), (4, 8), (8, 10)]

    def test_zero_rows_yields_nothing(self):
        assert list(iter_row_shards(0, 4)) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            list(iter_row_shards(-1, 4))
        with pytest.raises(ValueError):
            list(iter_row_shards(10, 0))


def toy_batch(n=6, dim=8, servers=2, seed=0):
    rng = np.random.default_rng(seed)
    return RoundBatch(
        worker_ids=np.arange(n, dtype=np.int64),
        gradients=rng.normal(size=(n, dim)),
        offsets=slice_offsets(dim, servers),
        server_ranks=np.arange(servers, dtype=np.int64),
        sample_counts=np.full(n, 10.0),
    )


class TestRoundBatchShards:
    def test_shard_is_a_view(self):
        batch = toy_batch()
        sub = batch.shard(2, 5)
        assert sub.num_workers == 3
        assert sub.gradients.base is batch.gradients
        assert sub.worker_ids.tolist() == [2, 3, 4]

    def test_shard_slices_sqnorm_cache(self):
        batch = toy_batch()
        full = batch.row_sqnorms
        sub = batch.shard(1, 4)
        assert np.array_equal(sub.row_sqnorms, full[1:4])

    def test_shard_window_validation(self):
        batch = toy_batch()
        for start, stop in ((-1, 2), (3, 3), (0, 7)):
            with pytest.raises(ValueError):
                batch.shard(start, stop)

    def test_iter_shards_full_window_yields_self(self):
        batch = toy_batch()
        assert list(batch.iter_shards(None)) == [batch]
        shards = list(batch.iter_shards(4))
        assert [s.num_workers for s in shards] == [4, 2]

    def test_sharded_rows_reassemble_exactly(self):
        batch = toy_batch(n=9)
        rows = np.vstack([s.gradients for s in batch.iter_shards(2)])
        assert np.array_equal(rows, batch.gradients)


class TestSharedGradientBuffer:
    def test_shared_allocation_and_close(self):
        with SharedGradientBuffer(4, 8, shared=True) as buf:
            buf.array[:] = 1.5
            assert buf.array.shape == (4, 8)
            # shared segments expose a name; the fallback path does not
            if buf.is_shared:
                assert buf.name
        # after close the data survives in the (copied) array
        assert buf.array[0, 0] == 1.5
        assert not buf.is_shared

    def test_validation(self):
        with pytest.raises(ValueError):
            SharedGradientBuffer(0, 8)


class TestFleetShardDifferential:
    def test_sharded_fleet_matches_unsharded(self):
        workers, _, _ = make_federation(num_workers=7, seed=2)
        theta = model_fn(seed=2)().get_flat_params()
        sharded = FleetLocalEngine(workers, shard_size=3)
        plain = FleetLocalEngine(make_federation(num_workers=7, seed=2)[0])
        a = sharded.compute_updates(theta)
        b = plain.compute_updates(theta)
        assert a.keys() == b.keys()
        for wid in a:
            assert np.array_equal(a[wid].gradient, b[wid].gradient), (
                f"worker {wid} diverged"
            )


class TestMechanismShardDifferential:
    @pytest.mark.parametrize("shard_size", [2, 3])
    def test_fifl_rounds_identical_under_sharding(self, shard_size):
        def run(shard):
            workers, _, test = make_federation(num_workers=6, seed=4)
            mech = FIFLMechanism(FIFLConfig(shard_size=shard))
            trainer = FederatedTrainer(
                model_fn(seed=4)(), workers=workers, server_ranks=[0, 1],
                test_data=test, mechanism=mech, seed=4,
            )
            records = [trainer._run_round(r) for r in range(4)]
            return records, trainer.model.get_flat_params()

        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            rec_a, params_a = run(shard_size)
            rec_b, params_b = run(None)
        assert np.array_equal(params_a, params_b)
        for ra, rb in zip(rec_a, rec_b):
            assert ra.accepted == rb.accepted
            assert ra.grad_norm == rb.grad_norm
