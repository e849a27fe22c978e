"""Tests for the incentive module, including Theorem 2 (fairness = 1).

Eq. 15 runs through ``reward_shares_array``; ``allocate_rewards`` (the
budget scaling) exists only in the per-worker oracle
(``tests/core/reference.py``) and is checked there.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fairness_coefficient, reward_shares_array

from tests.core.reference import allocate_rewards


def reward_shares(reputations, contribs, punish_mode="contribution"):
    """Eq. 15 through ``reward_shares_array``, keyed like its inputs."""
    ids = list(contribs)
    values = reward_shares_array(
        [reputations[w] for w in ids], [contribs[w] for w in ids], punish_mode
    )
    return dict(zip(ids, values.tolist()))


class TestRewardShares:
    def test_eq15(self):
        reps = {0: 1.0, 1: 0.5}
        contribs = {0: 3.0, 1: 1.0}
        shares = reward_shares(reps, contribs)
        assert shares[0] == pytest.approx(0.75)
        assert shares[1] == pytest.approx(0.125)

    def test_punishment_sign(self):
        reps = {0: 1.0, 1: 0.8}
        contribs = {0: 2.0, 1: -1.0}
        shares = reward_shares(reps, contribs)
        assert shares[1] < 0

    def test_monotone_in_reputation(self):
        contribs = {0: 1.0, 1: 1.0}
        a = reward_shares({0: 0.9, 1: 0.1}, contribs)
        assert a[0] > a[1]

    def test_monotone_in_contribution(self):
        reps = {0: 0.5, 1: 0.5}
        a = reward_shares(reps, {0: 3.0, 1: 1.0})
        assert a[0] > a[1]

    def test_key_mismatch(self):
        # the kernel's form of a key mismatch: unaligned vectors
        with pytest.raises(ValueError):
            reward_shares_array(np.ones(1), np.ones(2))


class TestAllocate:
    def test_scales_by_budget(self):
        out = allocate_rewards({0: 0.25, 1: -0.5}, 100.0)
        assert out == {0: 25.0, 1: -50.0}

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            allocate_rewards({0: 1.0}, -1.0)


class TestFairnessCoefficient:
    def test_perfectly_linear_is_one(self):
        x = np.array([1.0, 2.0, 3.0])
        assert fairness_coefficient(x, 5 * x) == pytest.approx(1.0)

    def test_anti_correlated_is_minus_one(self):
        x = np.array([1.0, 2.0, 3.0])
        assert fairness_coefficient(x, -x) == pytest.approx(-1.0)

    def test_constant_vector_returns_zero(self):
        assert fairness_coefficient(np.ones(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fairness_coefficient(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            fairness_coefficient(np.zeros(1), np.zeros(1))


class TestTheorem2:
    """With equal reputations, rewards are perfectly correlated with
    contributions: the fairness coefficient is exactly 1 (Eq. 17)."""

    @settings(max_examples=40, deadline=None)
    @given(
        contribs=st.lists(
            st.floats(0.01, 100.0, allow_nan=False), min_size=2, max_size=20
        ),
        reputation=st.floats(0.1, 1.0),
    )
    def test_property_fairness_is_one(self, contribs, reputation):
        # skip degenerate all-equal contribution vectors (zero variance)
        if max(contribs) - min(contribs) < 1e-9:
            return
        workers = dict(enumerate(contribs))
        reps = {w: reputation for w in workers}
        shares = reward_shares(reps, workers)
        x = np.array([workers[w] for w in sorted(workers)])
        y = np.array([shares[w] for w in sorted(workers)])
        assert fairness_coefficient(x, y) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        reps=st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=2, max_size=20),
        contribution=st.floats(0.1, 10.0),
    )
    def test_property_reputation_fairness_is_one(self, reps, contribution):
        # symmetric claim: equal contributions -> rewards track reputation
        if max(reps) - min(reps) < 1e-9:
            return
        workers = dict(enumerate(reps))
        contribs = {w: contribution for w in workers}
        shares = reward_shares(workers, contribs)
        x = np.array([workers[w] for w in sorted(workers)])
        y = np.array([shares[w] for w in sorted(workers)])
        assert fairness_coefficient(x, y) == pytest.approx(1.0, abs=1e-9)
