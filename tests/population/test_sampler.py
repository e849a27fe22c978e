"""Cohort samplers: determinism (incl. process restarts), differentials."""

import math
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

import repro.population.sampler as sampler_module
from repro.population.sampler import (
    _SCRATCH_BYTES,
    _prefilter_threshold,
    _round_rng,
)

from .reference import (
    _chunk_uniforms,
    availability_aware_oracle,
    reputation_weighted_oracle,
    reputation_weighted_reference,
)


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

    @pytest.mark.parametrize(
        "key", [(0x4E57, 0, 0, 0), (1, 2**32 - 1, 7, 4096), (1, 2**40, 7, 4096)]
    )
    def test_round_rng_is_the_int_tuple_seed(self, key):
        """The sampler's round stream is ``default_rng`` of the int tuple."""
        got = _round_rng(*key).random(8)
        assert got.tobytes() == np.random.default_rng(key).random(8).tobytes()

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
# NaN, -inf, the smallest subnormal and -0.0 on top: NaN reputations make
# NaN keys, which the scalar oracle cannot sort, so only the byte oracle
# draws from this set.
_WIDE_REPUTATIONS = st.one_of(
    _REPUTATIONS, st.sampled_from([float("nan"), float("-inf"), 5e-324, -0.0])
)
# Floors down to 1e-300 drive keys to 0 (tau == 0) or into the subnormal
# range; 1e300 and inf reputations push the slack past its limit.
_FLOORS = st.one_of(
    st.just(0.05),
    st.sampled_from([1e-300, 1e-9, 2e-3, 3.0]),
    st.floats(1e-300, 10.0),
)


@st.composite
def weighted_cases(draw, reputations=_REPUTATIONS):
    n = draw(st.integers(1, 3000))
    written = draw(
        st.dictionaries(st.integers(0, n - 1), reputations, max_size=min(n, 64))
    )
    required = draw(st.lists(st.integers(0, n - 1), max_size=4))
    if draw(st.booleans()):
        required.append(n - 1)  # a required id in the (partial) last chunk
    return dict(
        n=n,
        chunk=draw(st.integers(1, 257)),
        memmap=draw(st.booleans()),
        initial=draw(reputations),
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


class TestPrefilterByteOracle:
    """The prefiltered sampler returns the full-key loop's exact bytes."""

    @settings(max_examples=60, deadline=None)
    @given(case=weighted_cases(_WIDE_REPUTATIONS), floor=_FLOORS)
    def test_matches_full_key_oracle(self, case, floor):
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
            fast = ReputationWeightedSampler(seed=case["seed"], floor=floor).sample(
                case["round_idx"], pop, case["k"], required=case["required"]
            )
            oracle = reputation_weighted_oracle(
                case["seed"], case["round_idx"], pop, case["k"],
                required=case["required"], floor=floor,
            )
            del pop  # release the memmap before the directory goes
        assert fast.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize(
        "regime, floor, written, k",
        [
            # every chunk holds a NaN reputation: no chunk max to bound by
            ("nan-max", 0.05, {w: float("nan") for w in range(0, 2000, 50)}, 40),
            # a 1e300 weight in every chunk: slack far past 2**18
            ("slack", 0.05, {w: 1e300 for w in range(7, 2000, 100)}, 40),
            # keys u**1e300 are all 0.0, so tau is 0
            ("zero-tau", 1e-300, {}, 40),
            # keys u**500 put the k-th key among the subnormals
            ("subnormal-tau", 2e-3, {}, 1530),
        ],
    )
    def test_fallback_regimes_match_oracle(self, regime, floor, written, k):
        pop = WorkerPopulation(2000, reputation_chunk=100)
        pop.reputation_store.write_round(written)
        if regime.endswith("tau"):
            keys = np.concatenate([
                _chunk_uniforms(5, 2, start, reps.size)
                ** (1.0 / (floor + np.maximum(reps, 0.0)))
                for start, reps in pop.reputation_store.iter_chunks()
            ])
            kth = np.sort(keys)[-k]
            assert (kth == 0.0) if regime == "zero-tau" else (
                0.0 < kth < sys.float_info.min
            )
        fast = ReputationWeightedSampler(seed=5, floor=floor).sample(2, pop, k)
        oracle = reputation_weighted_oracle(5, 2, pop, k, floor=floor)
        assert fast.tobytes() == oracle.tobytes()


class TestSmallBlocksByteOracle:
    """The byte-oracle property with blocks of 1 to 4 chunks. Real blocks
    hold up to 16383 rows, more than these populations, so only smaller
    blocks run the prefilter and the per-block merge here."""

    @settings(max_examples=80, deadline=None)
    @given(
        case=weighted_cases(_WIDE_REPUTATIONS),
        floor=_FLOORS,
        per_block=st.integers(1, 4),
    )
    def test_matches_full_key_oracle(self, case, floor, per_block):
        pop = WorkerPopulation(
            case["n"],
            reputation_chunk=case["chunk"],
            initial_reputation=case["initial"],
        )
        pop.reputation_store.write_round(case["written"])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                sampler_module, "_SCRATCH_BYTES", 8 * case["chunk"] * per_block + 1
            )
            fast = ReputationWeightedSampler(seed=case["seed"], floor=floor).sample(
                case["round_idx"], pop, case["k"], required=case["required"]
            )
        oracle = reputation_weighted_oracle(
            case["seed"], case["round_idx"], pop, case["k"],
            required=case["required"], floor=floor,
        )
        assert fast.tobytes() == oracle.tobytes()


# The sampler draws, prefilters and merges a block of chunks at a time;
# with 1024-row chunks a block is B chunks.
_CHUNK = 1024
_B = (_SCRATCH_BYTES - 1) // (8 * _CHUNK)


class TestBlockBoundaries:
    """Cases placed on the sampler's block edges, against the byte oracle,
    which draws and merges one chunk at a time."""

    @pytest.mark.parametrize(
        "chunks, written, required, k",
        [
            # a NaN-reputation chunk in the middle of an otherwise finite
            # block, once tau is set and before
            pytest.param(2 * _B, {w: float("nan") for w in range(
                (_B + 1) * _CHUNK, (_B + 2) * _CHUNK, 7)}, (), 40, id="nan-chunk"),
            pytest.param(_B, {_CHUNK + 3: float("nan"), 5: 2.0}, (), 40,
                         id="nan-row-first-block"),
            # required ids on the first row of a block (and of the first)
            pytest.param(2 * _B + 1, {}, (0, _B * _CHUNK, 2 * _B * _CHUNK), 40,
                         id="required-block-start"),
            # the top-k fills in the third chunk of the first block
            pytest.param(_B + 1, {}, (), 2 * _CHUNK + 10, id="tau-mid-block"),
            # NaN keys fill the top-k through the first block, so tau is
            # first set by the second block's first chunk
            pytest.param(2 * _B, {w: float("nan") for w in range(_B * _CHUNK)},
                         (), 40, id="tau-after-nan-block"),
            pytest.param(1, {3: 1.5}, (1,), 40, id="one-chunk"),
            pytest.param(_B, {3: 1.5}, (1,), 40, id="B-chunks"),
            pytest.param(_B + 1, {3: 1.5, _B * _CHUNK: 9.0}, (1,), 40,
                         id="B+1-chunks"),
        ],
    )
    def test_matches_full_key_oracle(self, chunks, written, required, k):
        pop = WorkerPopulation(chunks * _CHUNK, reputation_chunk=_CHUNK)
        pop.reputation_store.write_round(written)
        for rnd in range(3):
            fast = ReputationWeightedSampler(seed=6).sample(
                rnd, pop, k, required=required
            )
            oracle = reputation_weighted_oracle(6, rnd, pop, k, required=required)
            assert fast.tobytes() == oracle.tobytes()

    def test_partial_last_chunk_in_a_partial_block(self):
        pop = WorkerPopulation(_B * _CHUNK + 17, reputation_chunk=_CHUNK)
        pop.reputation_store.write_round({_B * _CHUNK + 16: 4.0})
        fast = ReputationWeightedSampler(seed=2).sample(1, pop, 30)
        assert fast.tobytes() == reputation_weighted_oracle(2, 1, pop, 30).tobytes()


class TestPrefilterThreshold:
    def test_fallbacks_let_every_row_through(self):
        assert _prefilter_threshold(0.0, 1.0) == 0.0
        assert _prefilter_threshold(1e-310, 1.0) == 0.0  # subnormal tau
        assert _prefilter_threshold(0.5, float("nan")) == 0.0
        assert _prefilter_threshold(0.5, float("inf")) == 0.0
        assert _prefilter_threshold(1.0, 2.0**18) == 0.0  # slack at the limit
        assert 0.0 < _prefilter_threshold(0.5, 1.0) < 0.5

    @settings(max_examples=300, deadline=None)
    @given(
        neg_log_tau=st.floats(0.0, 708.0),
        log_w_max=st.floats(-8.0, 13.0),
        frac=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    )
    def test_no_key_above_tau_below_the_threshold(self, neg_log_tau, log_w_max, frac):
        """Draws packed around the exact boundary ``u = tau**w``: every one
        whose computed key beats tau clears the threshold. Large
        ``w * |ln tau|`` is where ``fl(1/w)`` moves keys by many ULP."""
        tau, w_max = math.exp(-neg_log_tau), math.exp(log_w_max)
        w = max(w_max * frac, 1e-300)  # a weight the floor allows, <= w_max
        thr = _prefilter_threshold(tau, w_max)
        edge = tau**w
        u = np.concatenate([
            edge * (1.0 + np.linspace(-1e-9, 1e-9, 101)),
            edge + np.arange(-200, 201) * np.spacing(edge),
            thr + np.arange(-50, 51) * np.spacing(max(thr, 1e-300)),
        ])
        u = u[(u >= 0.0) & (u < 1.0)]
        keys = u ** (1.0 / np.full(u.size, w))
        assert (u[keys > tau] >= thr).all()


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

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 400),
        k=st.integers(0, 60),
        availability=st.one_of(st.just(1.0), st.floats(0.02, 1.0)),
        left=st.lists(st.integers(0, 399), max_size=20),
        required=st.lists(st.integers(0, 399), max_size=3),
        seed=st.integers(0, 2**16),
        round_idx=st.integers(0, 40),
    )
    def test_matches_per_candidate_oracle(
        self, n, k, availability, left, required, seed, round_idx
    ):
        """Batched check-ins keep the per-candidate loop's cohort."""
        pop = make_population(
            size=n, availability=availability, seed=seed + 1,
            churn=tuple((0, w, "leave") for w in left if w < n),
        )
        pop.begin_round(round_idx)
        required = tuple(r for r in required if r < n)
        fast = AvailabilityAwareSampler(seed=seed).sample(
            round_idx, pop, k, required=required
        )
        oracle = availability_aware_oracle(seed, round_idx, pop, k, required=required)
        assert fast.tobytes() == oracle.tobytes()

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
