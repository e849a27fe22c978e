"""Streaming health monitoring for the FIFL reproduction.

``repro.monitor`` watches the telemetry event stream online: a hard
invariant watchdog (budget conservation, reputation bounds, worker-set
partition, comm byte accounting, ledger chain/audit integrity),
deterministic EWMA anomaly detectors (detection-margin collapse,
reward-Gini spikes, sim SLO rate, per-worker reputation drift), and a
flight recorder that dumps a post-mortem JSONL when something fires.

The :class:`Monitor` attaches to a :class:`repro.telemetry.Telemetry`
hub as a sink; ``python -m repro.trace scan`` replays recorded traces
offline through the identical rule engine. See DESIGN.md §12.
"""

from .alerts import Alert, MonitorConfig, MonitorError
from .detectors import EwmaDetector, RateWindow
from .monitor import Monitor, scan_events
from .recorder import FlightRecorder
from .rules import RuleEngine

__all__ = [
    "Alert",
    "MonitorConfig",
    "MonitorError",
    "Monitor",
    "scan_events",
    "EwmaDetector",
    "RateWindow",
    "FlightRecorder",
    "RuleEngine",
]
