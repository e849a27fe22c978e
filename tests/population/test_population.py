"""WorkerPopulation: lazy materialization, eviction, churn, from_workers."""

import numpy as np
import pytest

from repro.datasets import make_blobs
from repro.fl import HonestWorker, WorkerSpec
from repro.nn import build_logreg
from repro.population import WorkerPopulation

N_FEATURES, N_CLASSES = 6, 3


def model_fn():
    return build_logreg(N_FEATURES, N_CLASSES, seed=0)


def data_fn(wid):
    return make_blobs(
        n_samples=30, n_features=N_FEATURES, num_classes=N_CLASSES, seed=wid
    )


def lazy_population(size=100, **kwargs):
    kwargs.setdefault("data_fn", data_fn)
    kwargs.setdefault("model_fn", model_fn)
    return WorkerPopulation(size, **kwargs)


class TestValidation:
    def test_bad_size(self):
        with pytest.raises(ValueError):
            WorkerPopulation(0)

    def test_bad_availability(self):
        with pytest.raises(ValueError):
            WorkerPopulation(10, availability=0.0)
        with pytest.raises(ValueError):
            WorkerPopulation(10, availability=1.5)

    def test_bad_churn(self):
        with pytest.raises(ValueError):
            WorkerPopulation(10, churn=((0, 10, "leave"),))
        with pytest.raises(ValueError):
            WorkerPopulation(10, churn=((0, 1, "explode"),))


class TestDerivedState:
    def test_seed_convention(self):
        pop = lazy_population(seed=42)
        assert pop.seed_for(7) == 42 + 1000 + 7

    def test_default_spec_is_honest(self):
        pop = lazy_population()
        assert pop.spec(3).role == "honest"

    def test_spec_mapping(self):
        pop = lazy_population(
            spec_fn={5: WorkerSpec("sign", {"p_s": 2.0})}
        )
        assert pop.spec(5).role == "sign"
        assert pop.spec(6).role == "honest"

    def test_spec_callable(self):
        pop = lazy_population(
            spec_fn=lambda wid: WorkerSpec("free" if wid % 2 else "honest")
        )
        assert pop.spec(1).role == "free"
        assert pop.spec(2).role == "honest"


class TestMaterialization:
    def test_materialize_builds_correct_worker(self):
        pop = lazy_population(
            seed=3, spec_fn={2: WorkerSpec("sign", {"p_s": 4.0})}
        )
        w = pop.materialize(2)
        assert w.worker_id == 2
        assert w.is_malicious
        assert pop.materialize(1).is_malicious is False

    def test_materialize_is_cached(self):
        pop = lazy_population()
        assert pop.materialize(4) is pop.materialize(4)

    def test_checkout_orders_and_marks_seen(self):
        pop = lazy_population()
        cohort = pop.checkout([9, 2, 5])
        assert [w.worker_id for w in cohort] == [2, 5, 9]
        assert pop.seen_count == 3
        assert pop.coverage() == pytest.approx(3 / 100)

    def test_checkout_rejects_duplicate_ids(self):
        """A repeated id would hand out one Worker twice (and train it twice)."""
        pop = lazy_population()
        with pytest.raises(ValueError, match=r"duplicate worker ids in cohort: \[3\]"):
            pop.checkout([3, 3, 5])
        assert pop.seen_count == 0

    def test_cache_trimmed_to_cohort(self):
        pop = lazy_population(cache_size=4)
        pop.checkout(range(10))
        assert pop.cached_count == 10  # cohort itself always fits
        pop.checkout([0, 1])
        assert pop.cached_count == 4

    def test_eviction_rng_roundtrip(self):
        """Evict + re-materialize == never evicted, draw-for-draw."""
        pop_a = lazy_population(cache_size=1, seed=0)
        pop_b = lazy_population(cache_size=100, seed=0)
        wa, wb = pop_a.materialize(7), pop_b.materialize(7)
        draws_a = wa.rng.integers(0, 1000, size=5)
        draws_b = wb.rng.integers(0, 1000, size=5)
        assert np.array_equal(draws_a, draws_b)
        # force 7 out of pop_a's tiny cache, keep pop_b's worker alive
        pop_a.checkout([8])
        assert 7 not in pop_a._cache
        revived = pop_a.materialize(7)
        assert revived is not wa
        assert np.array_equal(
            revived.rng.integers(0, 1000, size=5),
            wb.rng.integers(0, 1000, size=5),
        )

    def test_no_recipes_raises(self):
        pop = WorkerPopulation(10)
        with pytest.raises(RuntimeError, match="no data_fn/model_fn"):
            pop.materialize(0)


class TestChurnAvailability:
    def test_churn_schedule(self):
        pop = lazy_population(churn=((2, 5, "leave"), (4, 5, "join")))
        pop.begin_round(0)
        assert pop.is_live(5)
        pop.begin_round(2)
        assert not pop.is_live(5)
        assert not pop.is_available(5, 2)
        pop.begin_round(4)
        assert pop.is_live(5)

    def test_availability_draw_is_order_independent(self):
        pop = lazy_population(availability=0.5, seed=1)
        first = [pop.is_available(w, 3) for w in range(20)]
        second = [pop.is_available(w, 3) for w in reversed(range(20))]
        assert first == list(reversed(second))

    @pytest.mark.parametrize("availability", [1.0, 0.5])
    def test_available_ids_match_scalar_queries(self, availability):
        pop = lazy_population(
            availability=availability, seed=1,
            churn=((1, 3, "leave"), (1, 7, "leave")),
        )
        pop.begin_round(2)
        required = [0, 3]
        expected = [
            w for w in range(20)
            if (pop.is_live(w) if w in required else pop.is_available(w, 2))
        ]
        got = pop.available_ids(np.arange(20), 2, required=required)
        assert got.tolist() == expected
        assert 3 not in expected and 7 not in expected

    def test_full_availability_no_draws(self):
        pop = lazy_population(availability=1.0)
        assert all(pop.is_available(w, 0) for w in range(20))


class TestFromWorkers:
    def make_workers(self, n=4):
        return [
            HonestWorker(i, data_fn(i), model_fn, seed=1000 + i)
            for i in range(n)
        ]

    def test_roundtrip_same_objects(self):
        workers = self.make_workers()
        pop = WorkerPopulation.from_workers(workers)
        assert pop.size == 4
        got = pop.checkout(range(4))
        assert all(a is b for a, b in zip(got, workers))

    def test_pinned_roster_never_evicts(self):
        workers = self.make_workers(6)
        pop = WorkerPopulation.from_workers(workers)
        for _ in range(3):
            pop.checkout([0])
        assert pop.cached_count == 6

    def test_validation_matches_legacy_messages(self):
        with pytest.raises(ValueError, match="need at least one worker"):
            WorkerPopulation.from_workers([])
        workers = self.make_workers(3)
        workers[0].worker_id = 7
        with pytest.raises(ValueError, match="exactly 0..N-1"):
            WorkerPopulation.from_workers(workers)


class TestReputationWriteback:
    def test_write_and_read(self):
        pop = lazy_population()
        assert pop.write_reputations({3: 0.8, 9: -0.1}) == 2
        assert pop.reputation_store.get(3) == 0.8
        assert pop.reputation_store.get(9) == -0.1
