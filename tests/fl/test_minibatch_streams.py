"""Fleet-owned minibatch streams against each worker's own ``integers`` calls.

The oracle is the per-worker loop the fleet kernel replaced,
:func:`per_worker_draws`. Every clause of the contract in
:mod:`repro.fl.streams` is pinned against it: the drawn rows, and the
whole ``bit_generator.state`` (``has_uint32``/``uinteger`` included)
after a step; the hand-back through ``Worker.rng`` for attacker draws,
snapshot capture and population eviction; the Lemire rejection fallback;
and serial, thread-backend and ``shard_size`` engines.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import Dataset
from repro.fl import FleetLocalEngine, HonestWorker, WorkerSpec
from repro.fl.streams import MinibatchStreams
from repro.parallel import ThreadBackend
from repro.population import WorkerPopulation

from tests.fl.scalar_sgd import scalar_update
from tests.helpers import N_CLASSES, N_FEATURES, LogregFactory, stack_updates

TOL = 1e-8
#: feature rows shared (as views) by every test dataset
_X = np.random.default_rng(7).normal(size=(60_000, N_FEATURES))
_Y = np.arange(60_000) % N_CLASSES


def per_worker_draws(generators, sizes, batch, idx):
    """The oracle: one ``integers`` call per worker's generator, in worker
    order — the loop the fleet kernel replaced."""
    for i, (g, size) in enumerate(zip(generators, sizes)):
        idx[i] = g.integers(0, size, size=batch)


def _dataset(size):
    return Dataset(_X[:size], _Y[:size], N_CLASSES)


def _worker(wid, size, seed):
    return HonestWorker(wid, _dataset(size), LogregFactory(), seed=seed)


def _state(worker):
    return worker.rng.bit_generator.state


sizes_st = st.lists(
    st.one_of(st.just(1), st.just(2), st.integers(2, 60_000)),
    min_size=1, max_size=8,
)
#: between two steps: (action, worker position)
actions_st = st.lists(
    st.tuples(st.sampled_from(["coin", "noise", "capture", "evict"]),
              st.integers(0, 7)),
    max_size=4,
)


class TestKernelDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        sizes=sizes_st,
        batch=st.integers(1, 9),
        buffered=st.lists(st.booleans(), min_size=8, max_size=8),
        steps=st.lists(st.tuples(actions_st, st.booleans()), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draws_and_states_match_per_worker_calls(
        self, sizes, batch, buffered, steps, seed
    ):
        """Values after every step; full generator state wherever a step
        reads it, and at the end. Attacker draws, captures and evictions
        between steps go through ``Worker.rng`` on the fleet side."""
        n = len(sizes)
        fleet = [_worker(i, s, seed + i) for i, s in enumerate(sizes)]
        oracle = [np.random.default_rng(seed + i) for i in range(n)]
        for i in range(n):
            if buffered[i]:  # one 32-bit draw leaves the high half buffered
                fleet[i].rng.integers(0, 7)
                oracle[i].integers(0, 7)
        streams = MinibatchStreams(sizes, batch)
        got = np.empty((n, batch), dtype=np.int64)
        want = np.empty((n, batch), dtype=np.int64)
        for actions, check_state in steps:
            streams.draw(fleet, got)
            per_worker_draws(oracle, sizes, batch, want)
            np.testing.assert_array_equal(got, want)
            if check_state:
                for w, g in zip(fleet, oracle):
                    assert _state(w) == g.bit_generator.state
            for action, pos in actions:
                i = pos % n
                if action == "coin":  # ProbabilisticAttacker.finalize_update
                    assert fleet[i].rng.random() == oracle[i].random()
                elif action == "noise":  # GaussianNoiseAttacker.finalize_update
                    np.testing.assert_array_equal(
                        fleet[i].rng.normal(size=3), oracle[i].normal(size=3)
                    )
                elif action == "capture":
                    assert _state(fleet[i]) == oracle[i].bit_generator.state
                else:
                    # evicted, revived as a new object, and a new engine
                    # claims the cohort from the old one
                    saved = _state(fleet[i])
                    fleet[i] = _worker(i, sizes[i], seed + i)
                    fleet[i].rng.bit_generator.state = saved
                    streams = MinibatchStreams(sizes, batch)
        for w, g in zip(fleet, oracle):
            assert _state(w) == g.bit_generator.state

    @pytest.mark.parametrize("batch", [1, 2, 7, 8])
    def test_forced_rejection_falls_back_to_the_worker(self, batch):
        """A range of 2^31 + 1 rejects about half of all draws, so nearly
        every step of every row takes the per-worker fallback, then the
        next step re-claims the stream."""
        size = (1 << 31) + 1
        n = 6
        fleet = [_worker(i, 4, 100 + i) for i in range(n)]
        oracle = [np.random.default_rng(100 + i) for i in range(n)]
        streams = MinibatchStreams([size] * n, batch)
        got = np.empty((n, batch), dtype=np.int64)
        want = np.empty((n, batch), dtype=np.int64)
        for _ in range(5):
            streams.draw(fleet, got)
            per_worker_draws(oracle, [size] * n, batch, want)
            np.testing.assert_array_equal(got, want)
        for w, g in zip(fleet, oracle):
            assert _state(w) == g.bit_generator.state

    def test_size_one_draws_nothing(self):
        fleet = [_worker(0, 1, 3), _worker(1, 5, 4)]
        before = _state(fleet[0])
        streams = MinibatchStreams([1, 5], 1)
        idx = np.empty((2, 1), dtype=np.int64)
        streams.draw(fleet, idx)
        assert idx[0, 0] == 0
        assert _state(fleet[0]) == before

    def test_oversized_range_is_refused(self):
        with pytest.raises(ValueError, match="2\\^32"):
            MinibatchStreams([(1 << 32) + 1], 4)


_ROLES = {
    "honest": WorkerSpec(),
    "prob": WorkerSpec("prob", {"p_a": 0.5}),
    "noise": WorkerSpec("noise"),
}


class _SizedData:
    """Per-worker dataset sizes for a lazy population."""

    def __init__(self, sizes):
        self.sizes = sizes

    def __call__(self, worker_id):
        return _dataset(self.sizes[worker_id])


def _population(sizes, roles, batch, local_iters):
    return WorkerPopulation(
        len(sizes),
        data_fn=_SizedData(sizes),
        model_fn=LogregFactory(),
        spec_fn={i: _ROLES[r] for i, r in enumerate(roles)},
        seed=11,
        worker_kwargs={"lr": 0.1, "batch_size": batch, "local_iters": local_iters},
        cache_size=3,
    )


@pytest.fixture(scope="module")
def thread_backend():
    backend = ThreadBackend(2)
    yield backend
    backend.close()


class TestEngineDifferential:
    """Whole rounds through :class:`FleetLocalEngine` in three layouts,
    against every worker training alone (``tests/fl/scalar_sgd.py``).
    Cohorts change each
    round, so engines are rebuilt and a small cache evicts workers."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        sizes=st.lists(st.integers(1, 300), min_size=3, max_size=20),
        roles=st.lists(st.sampled_from(sorted(_ROLES)), min_size=20, max_size=20),
        batch=st.integers(1, 9),
        local_iters=st.integers(1, 3),
        rounds=st.lists(
            st.tuples(st.lists(st.integers(0, 19), min_size=1, max_size=20),
                      st.booleans()),
            min_size=1, max_size=3,
        ),
    )
    def test_uploads_and_streams_match(
        self, thread_backend, sizes, roles, batch, local_iters, rounds
    ):
        n = len(sizes)
        roles = roles[:n]
        theta = LogregFactory()().get_flat_params()
        layouts = {
            "serial": {},
            "thread": {"backend": thread_backend},
            "shard_size=2": {"shard_size": 2},
        }
        pops = {k: _population(sizes, roles, batch, local_iters) for k in layouts}
        oracle = _population(sizes, roles, batch, local_iters)
        for cohort, capture in rounds:
            ids = sorted({i % n for i in cohort})
            want = stack_updates({
                w.worker_id: scalar_update(w, theta) for w in oracle.checkout(ids)
            }, theta.size)
            got = {}
            for name, kwargs in layouts.items():
                engine = FleetLocalEngine(pops[name].checkout(ids), **kwargs)
                got[name] = engine.compute_updates(theta)
            for name, local in got.items():
                np.testing.assert_array_equal(local.worker_ids, want.worker_ids)
                np.testing.assert_array_equal(local.attacked, want.attacked)
                np.testing.assert_allclose(
                    local.gradients, want.gradients, atol=TOL, rtol=0
                )
                np.testing.assert_array_equal(
                    local.gradients, got["serial"].gradients, err_msg=name
                )
                assert pops[name]._rng_states == oracle._rng_states, name
            if capture:  # a snapshot reads every cached worker's stream
                for name, pop in pops.items():
                    for wid, w in pop._cache.items():
                        assert _state(w) == _state(oracle._cache[wid]), (name, wid)
        for name, pop in pops.items():
            for wid, w in pop._cache.items():
                assert _state(w) == _state(oracle._cache[wid]), (name, wid)
