"""Tests for the reputation table: SLM counts, time decay, and Theorem 1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DecayReputation, theorem1_fixed_point


def slm_table(alphas=(1.0, 1.0, 1.0)):
    """A reputation table that keeps the Eq. 8-9 period counts."""
    return DecayReputation(slm_alphas=alphas)


class TestSLM:
    def test_trust_scores_eq8(self):
        slm = slm_table()
        for _ in range(3):
            slm.update(0, True)
        slm.update(0, False)
        st_, sn, su = slm.trust_scores(0)
        assert su == 0.0
        assert st_ == pytest.approx(0.75)
        assert sn == pytest.approx(0.25)

    def test_uncertainty_mass(self):
        slm = slm_table()
        slm.update(0, True)
        slm.update(0, None)
        st_, sn, su = slm.trust_scores(0)
        assert su == pytest.approx(0.5)
        assert st_ == pytest.approx(0.5)  # (1-0.5) * 1/1

    def test_reputation_eq9_weighting(self):
        slm = slm_table(alphas=(2.0, 1.0, 0.5))
        slm.update(0, True)
        slm.update(0, False)
        st_, sn, su = slm.trust_scores(0)
        assert slm.slm_reputation(0) == pytest.approx(2 * st_ - sn - 0.5 * su)

    def test_unknown_worker_neutral(self):
        slm = slm_table()
        assert slm.slm_reputation(42) == 0.0

    def test_reset_period(self):
        slm = slm_table()
        slm.update(0, True)
        slm.reset_period()
        assert slm.trust_scores(0) == (0.0, 0.0, 0.0)

    def test_all_positive_full_trust(self):
        slm = slm_table()
        for _ in range(10):
            slm.update(1, True)
        assert slm.slm_reputation(1) == pytest.approx(1.0)


class TestDecayReputation:
    def test_eq10_recursion(self):
        rep = DecayReputation(gamma=0.25, initial=0.0)
        assert rep.update(0, True) == pytest.approx(0.25)
        assert rep.update(0, True) == pytest.approx(0.4375)
        assert rep.update(0, False) == pytest.approx(0.328125)

    def test_uncertain_event_freezes(self):
        rep = DecayReputation(gamma=0.5)
        rep.update(0, True)
        before = rep.reputation(0)
        assert rep.update(0, None) == before
        assert rep.reputation(0) == before

    def test_initial_value(self):
        rep = DecayReputation(gamma=0.1, initial=0.7)
        assert rep.reputation(99) == 0.7

    def test_update_all(self):
        rep = DecayReputation(gamma=0.5)
        out = rep.update_all([0, 1, 2], [True, False, None])
        assert out[0] == 0.5 and out[1] == 0.0 and out[2] == 0.0

    def test_bounded_in_unit_interval(self):
        rep = DecayReputation(gamma=0.3)
        rng = np.random.default_rng(0)
        for _ in range(500):
            rep.update(0, bool(rng.random() < 0.5))
            assert 0.0 <= rep.reputation(0) <= 1.0

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            DecayReputation(gamma=0.0)
        with pytest.raises(ValueError):
            DecayReputation(gamma=1.0)

    def test_reputations_snapshot(self):
        rep = DecayReputation(gamma=0.5)
        rep.update(0, True)
        rep.update(1, False)
        assert rep.reputations() == {0: 0.5, 1: 0.0}


class TestTheorem1:
    """Reputation converges to the honesty probability 1 - p."""

    def test_fixed_point_function(self):
        assert theorem1_fixed_point(0.3) == pytest.approx(0.7)
        with pytest.raises(ValueError):
            theorem1_fixed_point(1.5)

    @settings(max_examples=15, deadline=None)
    @given(
        p_evil=st.floats(0.0, 1.0),
        gamma=st.floats(0.05, 0.5),
        seed=st.integers(0, 10_000),
    )
    def test_property_convergence(self, p_evil, gamma, seed):
        rng = np.random.default_rng(seed)
        rep = DecayReputation(gamma=gamma, initial=0.0)
        burn = int(np.ceil(40 / gamma))
        vals = []
        for t in range(burn + 400):
            honest = rng.random() >= p_evil
            rep.update(0, honest)
            if t >= burn:
                vals.append(rep.reputation(0))
        mean = float(np.mean(vals))
        # EMA of Bernoulli(1-p) has mean 1-p and std <= sqrt(gamma/(2-gamma))/2
        tol = 3.5 * np.sqrt(gamma / (2 - gamma)) / 2 / np.sqrt(len(vals) * gamma) + 0.05
        assert mean == pytest.approx(theorem1_fixed_point(p_evil), abs=max(tol, 0.08))

    def test_deterministic_worker_converges_exactly(self):
        rep = DecayReputation(gamma=0.2)
        for _ in range(200):
            rep.update(0, True)
        assert rep.reputation(0) == pytest.approx(1.0, abs=1e-10)

    def test_initial_condition_forgotten(self):
        # (1-gamma)^t R(0) -> 0: two different initializations converge
        rep_a = DecayReputation(gamma=0.2, initial=0.0)
        rep_b = DecayReputation(gamma=0.2, initial=1.0)
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(300):
            rep_a.update(0, bool(rng_a.random() < 0.5))
            rep_b.update(0, bool(rng_b.random() < 0.5))
        assert rep_a.reputation(0) == pytest.approx(rep_b.reputation(0), abs=1e-10)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestTableMatchesScalarOracle:
    """The array table against the literal per-worker Eq. 8-10, bit for bit:
    cohorts change between rounds, workers leave and re-enter, some only
    ever have uncertain events, and SLM periods reset."""

    @settings(max_examples=60, deadline=None)
    @given(
        rounds=st.lists(
            st.dictionaries(
                st.integers(0, 11),
                st.sampled_from([True, False, None]),
                max_size=8,
            ),
            min_size=1,
            max_size=25,
        ),
        gamma=st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5, 0.7]),
        initial=st.sampled_from([0.0, 0.5, 1.0]),
        slm=st.booleans(),
        alphas=st.sampled_from([(1.0, 1.0, 1.0), (2.0, 1.0, 0.5)]),
        period=st.integers(1, 4),
        as_array=st.booleans(),
        data=st.data(),
    )
    def test_rounds_match_the_oracle(
        self, rounds, gamma, initial, slm, alphas, period, as_array, data
    ):
        from repro.core import FIFLConfig, FIFLMechanism

        from tests.core.reference import ScalarDecay, ScalarSLM

        table = DecayReputation(gamma, initial, alphas if slm else None)
        decay, period_slm = ScalarDecay(gamma, initial), ScalarSLM(*alphas)
        for t, outcomes in enumerate(rounds, start=1):
            ids = list(outcomes)
            got = table.update_all(
                np.array(ids, dtype=np.int64) if as_array else ids,
                list(outcomes.values()),
            )
            want = [decay.update(w, o) for w, o in outcomes.items()]
            if slm:
                for w, o in outcomes.items():
                    period_slm.record(w, o)
                want = [period_slm.reputation(w) for w in ids]
                if t % period == 0:
                    table.reset_period()
                    period_slm.reset_period()
            assert _bits(got) == _bits(want)
            reps = decay.reputations()
            assert table.reputations() == reps
            assert list(table.reputations()) == sorted(reps)
            for w in range(12):
                assert _bits(table.reputation(w)) == _bits(decay.reputation(w))
                counted = period_slm.counts(w) if slm else (0, 0, 0)
                assert table.counts(w) == counted

        # S4.5 re-selection ranks the table by (-reputation, id)
        mech = FIFLMechanism(FIFLConfig(gamma=gamma))
        mech.reputation = table
        exclude = data.draw(st.sets(st.integers(0, 11)), label="exclude")
        eligible = {w: r for w, r in reps.items() if w not in exclude}
        for m in range(1, len(eligible) + 1):
            ranked = sorted(eligible, key=lambda w: (-eligible[w], w))
            assert mech.recommend_servers(m, exclude=exclude) == sorted(ranked[:m])
