"""Tests for the contribution module (Eq. 13-14).

The dict-form ``sliced_distance`` / ``reference_baseline`` live in the
per-worker oracle (``tests/core/reference.py``) and are checked there;
everything else runs against the kernels the mechanism uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    contributions_array,
    gradient_distance,
    normalized_shares_array,
    zero_baseline,
)
from repro.fl import split_gradient

from tests.core.reference import reference_baseline, sliced_distance


def contributions(distances, b_h):
    """Eq. 14 through ``contributions_array``, keyed like its input."""
    ids = list(distances)
    values = contributions_array([distances[w] for w in ids], b_h)
    return dict(zip(ids, values.tolist()))


def normalized_shares(contribs):
    """Eq. 15's weights through ``normalized_shares_array``."""
    ids = list(contribs)
    values = normalized_shares_array([contribs[w] for w in ids])
    return dict(zip(ids, values.tolist()))


class TestGradientDistance:
    def test_squared_euclidean(self):
        assert gradient_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 25.0

    def test_identical_is_zero(self):
        g = np.arange(5.0)
        assert gradient_distance(g, g) == 0.0

    def test_symmetry(self):
        a, b = np.array([1.0, 2.0]), np.array([-1.0, 4.0])
        assert gradient_distance(a, b) == gradient_distance(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gradient_distance(np.zeros(2), np.zeros(3))


class TestSlicedDistance:
    @settings(max_examples=30, deadline=None)
    @given(length=st.integers(2, 100), m=st.integers(1, 8), seed=st.integers(0, 999))
    def test_property_equals_full_distance(self, length, m, seed):
        # Eq. 13's per-server sum == full-vector distance, exactly.
        if m > length:
            return
        rng = np.random.default_rng(seed)
        g_global = rng.normal(size=length)
        g_worker = rng.normal(size=length)
        gs = dict(enumerate(split_gradient(g_global, m)))
        ws = dict(enumerate(split_gradient(g_worker, m)))
        assert sliced_distance(gs, ws) == pytest.approx(
            gradient_distance(g_global, g_worker), rel=1e-12
        )

    def test_mismatched_servers(self):
        with pytest.raises(ValueError):
            sliced_distance({0: np.zeros(2)}, {1: np.zeros(2)})

    def test_empty(self):
        with pytest.raises(ValueError):
            sliced_distance({}, {})


class TestBaselines:
    def test_zero_baseline_is_global_norm(self):
        g = np.array([3.0, 4.0])
        assert zero_baseline(g) == 25.0

    def test_reference_baseline(self):
        g = np.array([1.0, 1.0])
        ref = np.array([0.0, 0.0])
        assert reference_baseline(g, ref) == 2.0


class TestContributions:
    def test_eq14(self):
        c = contributions({0: 5.0, 1: 20.0}, b_h=10.0)
        assert c[0] == pytest.approx(0.5)
        assert c[1] == pytest.approx(-1.0)

    def test_zero_gradient_worker_contributes_zero(self):
        # free-rider uploading G_0 = 0 has b_i = ||G||^2 = b_h -> C = 0
        g = np.array([1.0, 2.0])
        b_h = zero_baseline(g)
        b_freerider = gradient_distance(g, np.zeros(2))
        c = contributions({0: b_freerider}, b_h)
        assert c[0] == pytest.approx(0.0)

    def test_perfect_worker_contributes_one(self):
        c = contributions({0: 0.0}, b_h=7.0)
        assert c[0] == 1.0

    def test_monotone_in_quality(self):
        # smaller distance -> larger contribution
        c = contributions({0: 1.0, 1: 2.0, 2: 3.0}, b_h=4.0)
        assert c[0] > c[1] > c[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            contributions({0: 1.0}, b_h=0.0)
        with pytest.raises(ValueError):
            contributions({0: -1.0}, b_h=1.0)


class TestNormalizedShares:
    def test_positive_shares_sum_to_one(self):
        shares = normalized_shares({0: 3.0, 1: 1.0, 2: -2.0})
        assert shares[0] + shares[1] == pytest.approx(1.0)
        assert shares[2] == pytest.approx(-0.5)

    def test_all_negative_gives_zero(self):
        shares = normalized_shares({0: -1.0, 1: -2.0})
        assert shares == {0: 0.0, 1: 0.0}

    @settings(max_examples=30, deadline=None)
    @given(
        contribs=st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=1, max_size=12
        )
    )
    def test_property_positive_mass_conserved(self, contribs):
        d = dict(enumerate(contribs))
        shares = normalized_shares(d)
        pos = sum(v for v in shares.values() if v > 0)
        if any(c > 0 for c in contribs):
            assert pos == pytest.approx(1.0)
        else:
            assert pos == 0.0
