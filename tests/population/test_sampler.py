"""Cohort samplers: determinism (incl. process restarts), differentials."""

import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.population import (
    AvailabilityAwareSampler,
    CohortSampler,
    ReputationWeightedSampler,
    UniformSampler,
    WorkerPopulation,
    make_sampler,
)

from .reference import reputation_weighted_reference


def make_population(size=1000, **kwargs):
    return WorkerPopulation(size, **kwargs)


class TestUniform:
    def test_sorted_unique_correct_size(self):
        pop = make_population()
        cohort = UniformSampler(seed=1).sample(0, pop, 32, required=(0, 1))
        assert len(cohort) == 32
        assert len(set(cohort.tolist())) == 32
        assert cohort.tolist() == sorted(cohort.tolist())
        assert {0, 1} <= set(cohort.tolist())

    def test_deterministic_per_round(self):
        pop = make_population()
        s = UniformSampler(seed=5)
        a = s.sample(3, pop, 16)
        b = UniformSampler(seed=5).sample(3, pop, 16)
        assert np.array_equal(a, b)
        # different rounds draw different cohorts
        c = s.sample(4, pop, 16)
        assert not np.array_equal(a, c)

    def test_full_cohort_is_identity(self):
        pop = make_population(size=10)
        cohort = UniformSampler(seed=0).sample(0, pop, 10, required=(0,))
        assert cohort.tolist() == list(range(10))

    def test_near_full_cohort_dense_fallback(self):
        pop = make_population(size=20)
        cohort = UniformSampler(seed=0).sample(0, pop, 18, required=(3,))
        assert len(cohort) == 18
        assert len(set(cohort.tolist())) == 18

    def test_dense_fallback_is_random(self):
        """With 2k >= available the permutation order survives the exclusion.

        The fallback used to sort its pool, so it always returned the
        lowest ids.
        """
        pop = make_population(size=20)
        sampler = UniformSampler(seed=0)
        cohorts = [sampler.sample(rnd, pop, 12, required=(3,)) for rnd in range(20)]
        assert len({c.tobytes() for c in cohorts}) > 1
        drawn = set(np.concatenate(cohorts).tolist())
        assert drawn == set(range(20))
        for c in cohorts:
            assert len(c) == 12 and 3 in c.tolist()

    def test_required_out_of_range(self):
        pop = make_population(size=10)
        with pytest.raises(ValueError):
            UniformSampler(seed=0).sample(0, pop, 5, required=(10,))

    def test_protocol_conformance(self):
        assert isinstance(UniformSampler(), CohortSampler)
        assert isinstance(ReputationWeightedSampler(), CohortSampler)
        assert isinstance(AvailabilityAwareSampler(), CohortSampler)


class TestRestartDeterminism:
    def test_cohorts_survive_process_restart(self):
        """A fresh interpreter replays the identical cohort sequence."""
        script = (
            "import numpy as np\n"
            "from repro.population import WorkerPopulation, make_sampler\n"
            "pop = WorkerPopulation(1000)\n"
            "pop.reputation_store.write_round({3: 0.9, 700: 0.5})\n"
            "for name in ('uniform', 'reputation', 'available'):\n"
            "    s = make_sampler(name, seed=7)\n"
            "    for rnd in (0, 5, 11):\n"
            "        ids = s.sample(rnd, pop, 12, required=(0, 1))\n"
            "        print(name, rnd, ','.join(map(str, ids.tolist())))\n"
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert "uniform 0 " in runs[0]

    def test_mid_run_resume_matches_fresh_sampler(self):
        """Round t's cohort does not depend on rounds 0..t-1 being drawn."""
        pop = make_population()
        warm = UniformSampler(seed=2)
        for rnd in range(5):
            warm.sample(rnd, pop, 8)
        cold = UniformSampler(seed=2)
        assert np.array_equal(warm.sample(5, pop, 8), cold.sample(5, pop, 8))


class TestReputationWeighted:
    def test_differential_vs_scalar_reference(self):
        """Streamed top-k == per-worker Python-loop oracle, many rounds."""
        pop = make_population(size=700)
        rng = np.random.default_rng(0)
        pop.reputation_store.write_round(
            {int(w): float(r) for w, r in zip(
                rng.choice(700, size=200, replace=False), rng.random(200)
            )}
        )
        sampler = ReputationWeightedSampler(seed=3)
        for rnd in range(8):
            fast = sampler.sample(rnd, pop, 25, required=(0, 1))
            ref = reputation_weighted_reference(
                3, rnd, pop, 25, required=(0, 1)
            )
            assert np.array_equal(fast, ref), f"diverged at round {rnd}"

    def test_differential_across_chunk_boundaries(self):
        pop = WorkerPopulation(300, reputation_chunk=64)
        pop.reputation_store.write_round({10: 5.0, 100: 3.0, 299: 1.0})
        sampler = ReputationWeightedSampler(seed=9)
        for rnd in range(4):
            fast = sampler.sample(rnd, pop, 40)
            ref = reputation_weighted_reference(9, rnd, pop, 40)
            assert np.array_equal(fast, ref)

    def test_nan_reputation_never_chosen_over_finite_keys(self):
        """NaN keys rank last: a NaN-reputation worker is only drawn when
        fewer than k finite-key workers remain."""
        pop = WorkerPopulation(500, reputation_chunk=37)
        nan_ids = list(range(0, 500, 3))
        pop.reputation_store.write_round({w: float("nan") for w in nan_ids})
        finite = sorted(set(range(500)) - set(nan_ids))
        sampler = ReputationWeightedSampler(seed=4)
        for rnd in range(6):
            cohort = sampler.sample(rnd, pop, 60, required=(1,))
            assert not set(cohort.tolist()) & set(nan_ids)
            # k above the finite count: every finite worker, topped up
            full = sampler.sample(rnd, pop, len(finite) + 5)
            assert set(finite) <= set(full.tolist())
            assert len(full) == len(finite) + 5

    def test_high_reputation_oversampled(self):
        pop = make_population(size=400)
        # one block of workers with overwhelming reputation weight
        pop.reputation_store.write_round({w: 50.0 for w in range(20)})
        sampler = ReputationWeightedSampler(seed=1)
        hits = sum(
            np.isin(np.arange(20), sampler.sample(rnd, pop, 20)).sum()
            for rnd in range(20)
        )
        # 20 heavy workers out of 400: uniform would give ~1/round
        assert hits > 10 * 20 * 0.5

    def test_negative_reputation_clamped_not_fatal(self):
        pop = make_population(size=50)
        pop.reputation_store.write_round({w: -1.0 for w in range(50)})
        cohort = ReputationWeightedSampler(seed=0).sample(0, pop, 10)
        assert len(cohort) == 10

    def test_floor_validation(self):
        with pytest.raises(ValueError):
            ReputationWeightedSampler(floor=0.0)


_REPUTATIONS = st.sampled_from([0.0, -2.5, 0.3, 0.3, 7.0, 1e300, float("inf")])


@st.composite
def weighted_cases(draw):
    n = draw(st.integers(1, 3000))
    written = draw(
        st.dictionaries(st.integers(0, n - 1), _REPUTATIONS, max_size=min(n, 64))
    )
    required = draw(st.lists(st.integers(0, n - 1), max_size=4))
    if draw(st.booleans()):
        required.append(n - 1)  # a required id in the (partial) last chunk
    return dict(
        n=n,
        chunk=draw(st.integers(1, 257)),
        memmap=draw(st.booleans()),
        initial=draw(_REPUTATIONS),
        written=written,
        required=tuple(required),
        k=draw(st.integers(0, n)),
        seed=draw(st.integers(0, 2**16)),
        round_idx=draw(st.integers(0, 50)),
    )


class TestPrunedTopKProperty:
    @settings(max_examples=60, deadline=None)
    @given(case=weighted_cases())
    def test_matches_scalar_reference(self, case):
        with tempfile.TemporaryDirectory() as tmp:
            pop = WorkerPopulation(
                case["n"],
                reputation_chunk=case["chunk"],
                initial_reputation=case["initial"],
                reputation_path=(
                    os.path.join(tmp, "rep.npy") if case["memmap"] else None
                ),
            )
            pop.reputation_store.write_round(case["written"])
            fast = ReputationWeightedSampler(seed=case["seed"]).sample(
                case["round_idx"], pop, case["k"], required=case["required"]
            )
            ref = reputation_weighted_reference(
                case["seed"], case["round_idx"], pop, case["k"],
                required=case["required"],
            )
            del pop  # release the memmap before the directory goes
        assert np.array_equal(fast, ref)


class TestAvailabilityAware:
    def test_only_available_ids_chosen(self):
        pop = make_population(size=500, availability=0.5)
        sampler = AvailabilityAwareSampler(seed=4)
        for rnd in range(3):
            cohort = sampler.sample(rnd, pop, 20, required=(0,))
            for wid in cohort.tolist():
                if wid != 0:
                    assert pop.is_available(wid, rnd)

    def test_churned_workers_never_sampled(self):
        pop = make_population(size=50, churn=((0, 7, "leave"),))
        pop.begin_round(0)
        sampler = AvailabilityAwareSampler(seed=0)
        for rnd in range(5):
            assert 7 not in sampler.sample(rnd, pop, 20).tolist()

    def test_mostly_offline_population_yields_short_cohort(self):
        pop = make_population(size=60, availability=0.05)
        cohort = AvailabilityAwareSampler(seed=0).sample(1, pop, 40)
        assert len(cohort) < 40  # short, not a livelock


class TestFactory:
    def test_known_names(self):
        assert make_sampler("uniform", seed=1).name == "uniform"
        assert make_sampler("reputation", seed=1).name == "reputation"
        assert make_sampler("available", seed=1).name == "available"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown sampler"):
            make_sampler("bogus")
