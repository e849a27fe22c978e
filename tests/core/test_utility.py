"""Tests for the data-utility function Ψ(n) = log(1 + n)."""

import numpy as np
import pytest

from repro.core import utility


class TestUtility:
    def test_log_form(self):
        assert utility(0) == 0.0
        assert utility(np.e - 1) == pytest.approx(1.0)

    def test_vectorized(self):
        np.testing.assert_allclose(utility(np.array([0.0, 1.0])), [0.0, np.log(2)])

    def test_monotone_concave(self):
        n = np.arange(0, 100, 5, dtype=float)
        psi = utility(n)
        assert (np.diff(psi) > 0).all()
        assert (np.diff(np.diff(psi)) < 0).all()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            utility(-1)
