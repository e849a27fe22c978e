"""Mechanism factory: every round mechanism behind one construction API.

Drivers, examples, and ablation benches historically each hand-rolled
their mechanism construction (``FIFLMechanism(FIFLConfig(
detection=DetectionConfig(...), ...))``, ``KrumMechanism(1)``, ...).
This module gives each mechanism a keyword-consistent config dataclass
and one entry point:

    make_mechanism("fifl", threshold=0.1, gamma=0.3)
    make_mechanism("krum", num_byzantine=2)
    make_mechanism("median", keep_fraction=0.6)
    make_mechanism("accept_all")          # the undefended baseline

FIFL's nested ``DetectionConfig`` is flattened: ``threshold`` and
``mode`` route into the detection sub-config, every other keyword into
:class:`~repro.core.fifl.FIFLConfig` — so callers never juggle two
config objects. Passing a ready-made config object via ``config=`` skips
the keyword mapping entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from ..fl.trainer import AcceptAllMechanism
from .detection import DetectionConfig
from .fifl import FIFLConfig, FIFLMechanism
from .robust import KrumMechanism, MedianMechanism

__all__ = [
    "AcceptAllConfig",
    "AcceptAllMechanism",
    "KrumConfig",
    "MedianConfig",
    "MECHANISM_NAMES",
    "make_mechanism",
]


@dataclass(frozen=True)
class AcceptAllConfig:
    """The undefended baseline has nothing to configure."""


@dataclass(frozen=True)
class KrumConfig:
    """Krum comparator settings (assumed Byzantine count ``f``)."""

    num_byzantine: int = 1

    def __post_init__(self) -> None:
        if self.num_byzantine < 0:
            raise ValueError("num_byzantine must be non-negative")


@dataclass(frozen=True)
class MedianConfig:
    """Median-filtering comparator settings."""

    keep_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")


_DETECTION_FIELDS = {f.name for f in fields(DetectionConfig)}
_FIFL_FIELDS = {f.name for f in fields(FIFLConfig)}


def _make_fifl_config(overrides: dict) -> FIFLConfig:
    """Flat keywords -> nested FIFLConfig (+DetectionConfig)."""
    detection_kw = {
        k: overrides.pop(k) for k in list(overrides) if k in _DETECTION_FIELDS
    }
    unknown = set(overrides) - _FIFL_FIELDS
    if unknown:
        raise TypeError(
            f"unknown FIFL config keywords: {sorted(unknown)}; "
            f"valid: {sorted((_FIFL_FIELDS | _DETECTION_FIELDS) - {'detection'})}"
        )
    detection = overrides.pop("detection", None)
    if detection is None:
        detection = DetectionConfig(**detection_kw)
    elif detection_kw:
        detection = replace(detection, **detection_kw)
    return FIFLConfig(detection=detection, **overrides)


def _build_fifl(overrides: dict, ledger) -> FIFLMechanism:
    return _build_fifl_variant(overrides, ledger)


def _build_fifl_variant(overrides: dict, ledger, **preset) -> FIFLMechanism:
    merged = {**preset, **overrides}
    return FIFLMechanism(_make_fifl_config(merged), ledger=ledger)


def _build_simple(mechanism_cls, config_cls):
    def build(overrides: dict, ledger) -> object:
        cfg = overrides.pop("config", None)
        if cfg is None:
            cfg = config_cls(**overrides)
        elif overrides:
            cfg = replace(cfg, **overrides)
        kwargs = {
            f.name: getattr(cfg, f.name) for f in fields(cfg)
        }
        return mechanism_cls(**kwargs) if kwargs else mechanism_cls()

    return build


#: name -> builder(overrides, ledger). The FIFL ablations are presets of
#: the same config (reputation estimator / detection-score mode).
_BUILDERS = {
    "fifl": _build_fifl,
    "fifl-slm": lambda ov, led: _build_fifl_variant(ov, led, reputation_mode="slm"),
    "fifl-raw": lambda ov, led: _build_fifl_variant(ov, led, mode="raw"),
    "krum": _build_simple(KrumMechanism, KrumConfig),
    "median": _build_simple(MedianMechanism, MedianConfig),
    "accept_all": _build_simple(AcceptAllMechanism, AcceptAllConfig),
    "none": _build_simple(AcceptAllMechanism, AcceptAllConfig),
}

#: Public mechanism names, in a stable order for CLIs and benches.
MECHANISM_NAMES = tuple(_BUILDERS)


def make_mechanism(name: str, *, ledger=None, **overrides):
    """Construct any round mechanism by name with flat keyword overrides.

    ``config=<dataclass>`` passes a pre-built config (remaining keywords
    are applied on top of it via ``dataclasses.replace`` for the simple
    mechanisms, or merged into the nested config for FIFL). ``ledger``
    is forwarded to mechanisms that support audit logging.

    FIFL has one round engine. ``engine="vectorized"`` is still accepted
    (and dropped) so existing callers keep working; any other engine
    raises ``ValueError``.
    """
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ValueError(
            f"unknown mechanism {name!r}; available: {', '.join(MECHANISM_NAMES)}"
        )
    if name.startswith("fifl"):
        engine = overrides.pop("engine", "vectorized")
        if engine != "vectorized":
            raise ValueError(
                f"engine={engine!r}: FIFL has a single round engine; the "
                f"per-worker reference pipeline is the test oracle in "
                f"tests/core/reference.py"
            )
        cfg = overrides.pop("config", None)
        if cfg is not None:
            if overrides:
                raise TypeError(
                    "pass either config= or flat keywords for FIFL, not both"
                )
            return FIFLMechanism(cfg, ledger=ledger)
        return builder(dict(overrides), ledger)
    if ledger is not None:
        raise TypeError(f"mechanism {name!r} does not take a ledger")
    return builder(dict(overrides), ledger)
