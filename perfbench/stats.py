"""Small, tested arithmetic: medians, percentiles, failure counts."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

__all__ = ["Checks", "FAST_PERCENT", "fast_percentile", "median", "percentile",
           "tail_percentile"]

#: share of samples, in percent, on the fast side of the reported value
FAST_PERCENT = 5.0


def median(values) -> float:
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    values = list(values)
    if not values:
        raise ValueError("median of an empty sequence")
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile, ``0 <= q <= 100``.

    Same convention as ``numpy.percentile``'s default: rank
    ``q/100 * (n-1)`` into the sorted values.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    rank = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def fast_percentile(values, higher_is_better: bool = False) -> float:
    """The value ``FAST_PERCENT`` percent of ``values`` beat: that
    percentile of times, or ``100 - FAST_PERCENT`` of rates when
    ``higher_is_better``."""
    return percentile(values, 100.0 - FAST_PERCENT if higher_is_better else FAST_PERCENT)


def tail_percentile(n: int, beyond: int = 10) -> float:
    """The highest percentile of ``n`` samples with ``beyond`` samples above it."""
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    return 100.0 * (1.0 - beyond / n)


@dataclass
class Checks:
    """Named correctness checks; a failed check is a failed operation."""

    results: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    def extend(self, other: "Checks") -> None:
        self.results.extend(other.results)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.results)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.results if not ok]
