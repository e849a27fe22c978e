"""Tests for the pluggable latency models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    ConstantLatency,
    LatencyConfig,
    LognormalLatency,
    PerLinkLatency,
    UniformLatency,
    make_latency,
)


def rng():
    return np.random.default_rng(0)


class TestConstant:
    def test_fixed_delay(self):
        m = ConstantLatency(0.2)
        assert m.sample(rng(), 0, 1, 10**6) == 0.2

    def test_per_byte_term(self):
        m = ConstantLatency(0.1, per_byte_s=1e-6)
        assert m.sample(rng(), 0, 1, 100_000) == pytest.approx(0.2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-0.1)


class TestUniform:
    def test_within_band(self):
        m = UniformLatency(0.1, 0.3)
        r = rng()
        samples = [m.sample(r, 0, 1, 0) for _ in range(200)]
        assert all(0.1 <= s <= 0.3 for s in samples)
        assert len(set(samples)) > 1

    def test_degenerate_band_draws_nothing(self):
        # low == high must not consume an RNG draw (determinism contract)
        r1, r2 = rng(), rng()
        m = UniformLatency(0.2, 0.2)
        assert m.sample(r1, 0, 1, 0) == 0.2
        assert r1.random() == r2.random()

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformLatency(0.3, 0.1)


class TestLognormal:
    def test_positive_and_heavy_tailed(self):
        m = LognormalLatency(0.1, sigma=1.0)
        r = rng()
        samples = np.array([m.sample(r, 0, 1, 0) for _ in range(2000)])
        assert (samples > 0).all()
        assert np.median(samples) == pytest.approx(0.1, rel=0.2)
        assert samples.max() > 10 * np.median(samples)  # the tail exists

    def test_validation(self):
        with pytest.raises(ValueError):
            LognormalLatency(0.0, sigma=1.0)


class TestPerLink:
    def test_override_selected_by_directed_link(self):
        m = PerLinkLatency(
            ConstantLatency(0.1), {(0, 1): ConstantLatency(9.0)}
        )
        assert m.sample(rng(), 0, 1, 0) == 9.0
        assert m.sample(rng(), 1, 0, 0) == 0.1  # direction matters
        assert m.sample(rng(), 2, 3, 0) == 0.1


# -- vector draws ------------------------------------------------------------

messages = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 10**6)),
    max_size=40,
)
seeds = st.integers(0, 2**32 - 1)


def assert_matches_scalar_loop(model, seed, batch):
    """``sample_many`` == one ``sample`` per message, in value and in the
    generator state it leaves."""
    srcs, dsts, nbytes = (
        np.array([msg[k] for msg in batch], dtype=np.int64) for k in range(3)
    )
    vec_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = model.sample_many(vec_rng, srcs, dsts, nbytes)
    want = [model.sample(loop_rng, s, d, b) for s, d, b in batch]
    assert np.asarray(got, dtype=np.float64).tolist() == want
    assert vec_rng.bit_generator.state == loop_rng.bit_generator.state


class TestVectorDraws:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=seeds,
        batch=messages,
        delay=st.sampled_from([0.0, 0.01, 2.5]),
        per_byte=st.sampled_from([0.0, 1e-6, 3e-9]),
    )
    def test_constant(self, seed, batch, delay, per_byte):
        assert_matches_scalar_loop(
            ConstantLatency(delay, per_byte_s=per_byte), seed, batch
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=seeds,
        batch=messages,
        band=st.sampled_from([(0.0, 0.1), (0.01, 0.3), (0.2, 0.2), (0.0, 0.0)]),
        per_byte=st.sampled_from([0.0, 1e-6]),
    )
    def test_uniform(self, seed, batch, band, per_byte):
        assert_matches_scalar_loop(
            UniformLatency(*band, per_byte_s=per_byte), seed, batch
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=seeds,
        batch=messages,
        median=st.sampled_from([0.001, 0.05, 1.0]),
        sigma=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        per_byte=st.sampled_from([0.0, 1e-6]),
    )
    def test_lognormal(self, seed, batch, median, sigma, per_byte):
        assert_matches_scalar_loop(
            LognormalLatency(median, sigma, per_byte_s=per_byte), seed, batch
        )

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, batch=messages, overridden=st.booleans())
    def test_per_link_with_overrides_keeps_message_order(
        self, seed, batch, overridden
    ):
        overrides = {
            (0, 1): ConstantLatency(9.0),
            (1, 0): UniformLatency(0.0, 0.5),
            (2, 3): LognormalLatency(0.2, 1.0),
        } if overridden else {}
        assert_matches_scalar_loop(
            PerLinkLatency(LognormalLatency(0.01, 1.0), overrides), seed, batch
        )


class TestLatencyConfig:
    def test_make_latency_by_kind(self):
        assert make_latency(None) is None
        assert isinstance(
            make_latency(LatencyConfig(kind="constant", a=0.1)), ConstantLatency
        )
        assert isinstance(
            make_latency(LatencyConfig(kind="uniform", a=0.1, b=0.2)),
            UniformLatency,
        )
        assert isinstance(
            make_latency(LatencyConfig(kind="lognormal", a=0.1, b=0.5)),
            LognormalLatency,
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LatencyConfig(kind="gaussian")
