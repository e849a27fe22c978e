"""repro — reproduction of "FIFL: A Fair Incentive Mechanism for
Federated Learning" (Gao et al., ICPP 2021).

Subpackages
-----------
``repro.nn``
    Pure-NumPy neural networks (the PyTorch substitution).
``repro.datasets``
    Synthetic datasets, partitioners, label poisoning.
``repro.comm``
    In-process lossy message passing and FL topologies.
``repro.fl``
    Federated substrate: workers, attackers, trainer.
``repro.core``
    The FIFL mechanism, its four modules, baselines, robust-aggregation
    comparisons, and server selection.
``repro.ledger``
    Blockchain audit substrate.
``repro.market``
    Worker-market simulation for the incentive comparison.
``repro.metrics``
    Detection and reporting metrics.
``repro.telemetry``
    Always-on spans, per-phase timers/counters and metrics for the round engine.
``repro.experiments``
    One driver per paper figure plus a CLI runner.

Quick start: see ``examples/quickstart.py`` or README.md.
"""

from . import comm, core, datasets, fl, ledger, market, metrics, nn, telemetry

__version__ = "1.0.0"

__all__ = [
    "nn",
    "datasets",
    "comm",
    "fl",
    "core",
    "ledger",
    "market",
    "metrics",
    "telemetry",
    "__version__",
]
