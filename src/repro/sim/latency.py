"""Pluggable per-link latency models for the simulated network.

A latency model answers one question: how many virtual seconds does a
message of ``nbytes`` take from ``src`` to ``dst``? Three families cover
the literature's usual assumptions:

* :class:`ConstantLatency` — fixed propagation delay (plus an optional
  per-byte transfer term, i.e. finite bandwidth);
* :class:`UniformLatency` — jitter in a ``[low, high]`` band;
* :class:`LognormalLatency` — heavy-tailed WAN-style delay
  (``median * exp(sigma * N(0,1))``), the distribution under which
  stragglers and deadline misses actually happen.

:class:`PerLinkLatency` overlays per-directed-link overrides on any
default model (e.g. one slow cross-region link). Models are sampled
with an explicit ``rng`` owned by the network, so the latency stream is
seeded and independent of the drop stream — adding latency to a
scenario never perturbs which messages drop.

Every model also draws a whole batch at once: ``sample_many(rng, srcs,
dsts, nbytes)`` returns the delays of messages ``i = 0..k-1`` on links
``(srcs[i], dsts[i])`` and equals ``k`` scalar :meth:`sample` calls in
message order, value for value and in the generator state it leaves
(``tests/sim/test_latency.py`` pins each model to its loop).

:func:`make_latency` builds a model from the declarative
:class:`LatencyConfig` that experiment configs embed (kind + params),
keeping :class:`~repro.sim.faults.FaultScenario` JSON-friendly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LognormalLatency",
    "PerLinkLatency",
    "LatencyConfig",
    "make_latency",
]


class LatencyModel(Protocol):
    """One-way delay for a message on a directed link."""

    def sample(
        self, rng: np.random.Generator, src: int, dst: int, nbytes: int
    ) -> float: ...

    def sample_many(
        self,
        rng: np.random.Generator,
        srcs: np.ndarray,
        dsts: np.ndarray,
        nbytes: np.ndarray,
    ) -> np.ndarray: ...


class ConstantLatency:
    """Fixed delay plus an optional per-byte (bandwidth) term."""

    def __init__(self, delay_s: float, per_byte_s: float = 0.0):
        if delay_s < 0 or per_byte_s < 0:
            raise ValueError("latency terms must be non-negative")
        self.delay_s = float(delay_s)
        self.per_byte_s = float(per_byte_s)

    def sample(
        self, rng: np.random.Generator, src: int, dst: int, nbytes: int
    ) -> float:
        return self.delay_s + self.per_byte_s * nbytes

    def sample_many(self, rng, srcs, dsts, nbytes) -> np.ndarray:
        return self.delay_s + self.per_byte_s * np.asarray(nbytes)


class UniformLatency:
    """Uniform jitter in ``[low_s, high_s]`` plus optional per-byte term."""

    def __init__(self, low_s: float, high_s: float, per_byte_s: float = 0.0):
        if not 0 <= low_s <= high_s:
            raise ValueError("need 0 <= low_s <= high_s")
        if per_byte_s < 0:
            raise ValueError("per_byte_s must be non-negative")
        self.low_s = float(low_s)
        self.high_s = float(high_s)
        self.per_byte_s = float(per_byte_s)

    def sample(
        self, rng: np.random.Generator, src: int, dst: int, nbytes: int
    ) -> float:
        base = (
            self.low_s
            if self.high_s == self.low_s
            else float(rng.uniform(self.low_s, self.high_s))
        )
        return base + self.per_byte_s * nbytes

    def sample_many(self, rng, srcs, dsts, nbytes) -> np.ndarray:
        nbytes = np.asarray(nbytes)
        base = (
            self.low_s
            if self.high_s == self.low_s
            else rng.uniform(self.low_s, self.high_s, nbytes.size)
        )
        return base + self.per_byte_s * nbytes


class LognormalLatency:
    """Heavy-tailed delay: ``median_s * exp(sigma * N(0, 1))``."""

    def __init__(self, median_s: float, sigma: float, per_byte_s: float = 0.0):
        if median_s <= 0:
            raise ValueError("median_s must be positive")
        if sigma < 0 or per_byte_s < 0:
            raise ValueError("sigma and per_byte_s must be non-negative")
        self.median_s = float(median_s)
        self.sigma = float(sigma)
        self.per_byte_s = float(per_byte_s)

    def sample(
        self, rng: np.random.Generator, src: int, dst: int, nbytes: int
    ) -> float:
        base = self.median_s * float(np.exp(self.sigma * rng.standard_normal()))
        return base + self.per_byte_s * nbytes

    def sample_many(self, rng, srcs, dsts, nbytes) -> np.ndarray:
        nbytes = np.asarray(nbytes)
        base = self.median_s * np.exp(
            self.sigma * rng.standard_normal(nbytes.size)
        )
        return base + self.per_byte_s * nbytes


class PerLinkLatency:
    """A default model with per-directed-link overrides."""

    def __init__(
        self,
        default: LatencyModel,
        overrides: dict[tuple[int, int], LatencyModel] | None = None,
    ):
        self.default = default
        self.overrides = dict(overrides or {})

    def sample(
        self, rng: np.random.Generator, src: int, dst: int, nbytes: int
    ) -> float:
        model = self.overrides.get((src, dst), self.default)
        return model.sample(rng, src, dst, nbytes)

    def sample_many(self, rng, srcs, dsts, nbytes) -> np.ndarray:
        if not self.overrides:
            return self.default.sample_many(rng, srcs, dsts, nbytes)
        # overrides interleave models draw by draw: keep message order
        return np.array(
            [
                self.sample(rng, src, dst, size)
                for src, dst, size in zip(
                    np.asarray(srcs).tolist(),
                    np.asarray(dsts).tolist(),
                    np.asarray(nbytes).tolist(),
                )
            ],
            dtype=np.float64,
        )


@dataclass(frozen=True)
class LatencyConfig:
    """Declarative latency spec embedded in :class:`FaultScenario`.

    ``kind``: ``"constant"`` (uses ``a`` = delay), ``"uniform"``
    (``a`` = low, ``b`` = high) or ``"lognormal"`` (``a`` = median,
    ``b`` = sigma). ``per_byte_s`` adds a bandwidth term to any kind.
    """

    kind: str = "constant"
    a: float = 0.0
    b: float = 0.0
    per_byte_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "uniform", "lognormal"):
            raise ValueError(f"unknown latency kind {self.kind!r}")


def make_latency(spec: LatencyConfig | None) -> LatencyModel | None:
    """Instantiate the model a :class:`LatencyConfig` describes."""
    if spec is None:
        return None
    if spec.kind == "constant":
        return ConstantLatency(spec.a, per_byte_s=spec.per_byte_s)
    if spec.kind == "uniform":
        return UniformLatency(spec.a, spec.b, per_byte_s=spec.per_byte_s)
    return LognormalLatency(spec.a, spec.b, per_byte_s=spec.per_byte_s)
