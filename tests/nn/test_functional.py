"""Unit tests for repro.nn.functional primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(7, 5))
        s = F.softmax(x, axis=1)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)

    def test_invariant_to_shift(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3))
        np.testing.assert_allclose(F.softmax(x), F.softmax(x + 100.0), atol=1e-12)

    def test_large_logits_stable(self):
        x = np.array([[1000.0, 0.0, -1000.0]])
        s = F.softmax(x)
        assert np.isfinite(s).all()
        assert s[0, 0] == pytest.approx(1.0)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 4))
        np.testing.assert_allclose(F.log_softmax(x), np.log(F.softmax(x)), atol=1e-10)


class TestReluSigmoid:
    def test_relu_values(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(F.relu(x), [0.0, 0.0, 3.0])


class TestConvOutSize:
    def test_known_values(self):
        assert F.conv_out_size(28, 5, 1, 2) == 28
        assert F.conv_out_size(28, 2, 2, 0) == 14
        assert F.conv_out_size(10, 5, 1, 0) == 6

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            F.conv_out_size(3, 5, 1, 0)


def _naive_im2col(x, kh, kw, stride, pad):
    n, c, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    rows = []
    for b in range(n):
        for i in range(oh):
            for j in range(ow):
                patch = xp[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                rows.append(patch.ravel())
    return np.array(rows)


class TestIm2Col:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 2), (2, 0), (2, 1)])
    def test_matches_naive(self, stride, pad):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 8, 8))
        got = F.im2col(x, 3, 3, stride, pad)
        want = _naive_im2col(x, 3, 3, stride, pad)
        np.testing.assert_allclose(got, want)

    def test_col2im_adjoint_of_im2col(self):
        # <im2col(x), y> == <x, col2im(y)> : the scatter must be the exact
        # adjoint of the gather for backprop to be correct.
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 6, 6))
        cols = F.im2col(x, 3, 3, stride=1, pad=1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = F.col2im(y, x.shape, 3, 3, stride=1, pad=1)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        size=st.integers(4, 9),
        k=st.integers(1, 3),
        stride=st.integers(1, 2),
        pad=st.integers(0, 2),
    )
    def test_property_shapes(self, n, c, size, k, stride, pad):
        if size + 2 * pad < k:
            return
        x = np.arange(n * c * size * size, dtype=float).reshape(n, c, size, size)
        oh = (size + 2 * pad - k) // stride + 1
        cols = F.im2col(x, k, k, stride, pad)
        assert cols.shape == (n * oh * oh, c * k * k)
        np.testing.assert_allclose(cols, _naive_im2col(x, k, k, stride, pad))


class TestIm2ColPlanCache:
    def test_plan_is_reused_for_same_geometry(self):
        F._IM2COL_PLANS.clear()
        first = F._im2col_plan(3, 8, 8, 3, 3, 1, 1)
        second = F._im2col_plan(3, 8, 8, 3, 3, 1, 1)
        assert first is second  # cached object, not a rebuild
        assert len(F._IM2COL_PLANS) == 1

    def test_plan_is_batch_size_independent(self):
        F._IM2COL_PLANS.clear()
        rng = np.random.default_rng(5)
        F.im2col(rng.normal(size=(2, 2, 6, 6)), 3, 3, 1, 1)
        F.im2col(rng.normal(size=(7, 2, 6, 6)), 3, 3, 1, 1)
        assert len(F._IM2COL_PLANS) == 1  # one plan serves every batch size

    def test_cache_is_bounded(self):
        F._IM2COL_PLANS.clear()
        for i in range(F._MAX_PLANS + 3):
            F._im2col_plan(1, 8 + i, 8 + i, 3, 3, 1, 0)
        assert len(F._IM2COL_PLANS) <= F._MAX_PLANS

    def test_cached_results_stay_correct(self):
        F._IM2COL_PLANS.clear()
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 7, 7))
        for _ in range(2):  # second call hits the cache
            np.testing.assert_allclose(
                F.im2col(x, 3, 3, 2, 1), _naive_im2col(x, 3, 3, 2, 1)
            )
