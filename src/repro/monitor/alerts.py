"""Alert records and monitor configuration.

An :class:`Alert` is one structured finding of the health-monitoring
layer: a named rule, the sequence number and round of the event that
triggered it, a human-readable message, and a payload of plain JSON
types. Alerts are deliberately *not* telemetry events — they live on a
separate stream (the :class:`~repro.monitor.Monitor`'s alert list and
its post-mortem dumps), so attaching a monitor never changes the bytes
of a v1 trace.

Determinism contract: every field of every alert is a pure function of
the event stream and the :class:`MonitorConfig` — no wall-clock reads,
no randomness — so replaying a recorded trace offline through
``python -m repro.trace scan`` reproduces the live run's alerts
exactly (see ``tests/monitor/test_monitor.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Alert", "MonitorConfig", "MonitorError"]


class MonitorError(RuntimeError):
    """Raised in strict mode when an invariant or detector fires."""

    def __init__(self, alerts: list["Alert"]):
        self.alerts = list(alerts)
        first = alerts[0] if alerts else None
        detail = f": {first.rule}: {first.message}" if first else ""
        super().__init__(f"{len(alerts)} monitor alert(s){detail}")


@dataclass(frozen=True)
class Alert:
    """One monitor finding (invariant violation or statistical anomaly)."""

    rule: str  # rule catalogue name, e.g. "budget-conservation"
    kind: str  # "invariant" | "anomaly"
    message: str
    seq: int | None = None  # seq of the triggering trace event
    round: int | None = None
    data: dict = field(default_factory=dict)  # plain JSON types only

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "kind": self.kind,
            "message": self.message,
            "seq": self.seq,
            "round": self.round,
            "data": dict(self.data),
        }


@dataclass(frozen=True)
class MonitorConfig:
    """All watchdog tolerances and detector thresholds in one place.

    Every threshold is a fixed constant — detectors adapt their internal
    EWMA state to the stream, but the decision boundaries are config, so
    two replays of the same event stream produce identical alerts.
    """

    #: raise :class:`MonitorError` from the sink on the first alert
    strict: bool = False

    # -- invariant watchdog tolerances --------------------------------------
    #: relative slack on the reward-budget conservation law
    budget_tolerance: float = 1e-6
    #: allowed closed interval for reputations (decay mode: [0, 1])
    reputation_bounds: tuple[float, float] = (0.0, 1.0)
    #: slack on "a flagged worker's reputation must not increase"
    reputation_tolerance: float = 1e-9
    #: slack on cumulative comm counters (they are exact integers)
    comm_tolerance: float = 0.0

    # -- anomaly detectors --------------------------------------------------
    #: hard floor for the per-round minimum detection margin: a score
    #: this far below S_y is adversarial, not noise (sign-flip sits ~ -1)
    margin_floor: float = -0.5
    #: EWMA smoothing for the drift detectors (margin, reward Gini)
    ewma_alpha: float = 0.25
    #: z-score boundary for EWMA drift alerts
    z_threshold: float = 4.0
    #: observations before a drift detector may fire
    warmup_rounds: int = 5
    #: standard-deviation floor so quiet series don't amplify jitter
    min_std: float = 0.05
    #: absolute ceiling for the per-round positive-reward Gini
    gini_cap: float = 0.9
    #: deviation floor for the Gini EWMA specifically: clean runs swing
    #: the per-round Gini by several tenths (contribution-proportional
    #: rewards are noisy), so the generic ``min_std`` would alert on
    #: healthy variation
    gini_min_std: float = 0.15
    #: absolute ceiling for the *cumulative* positive-reward Gini — the
    #: run-so-far concentration FIFL's fairness claim is about. Clean
    #: runs settle well below this (per-round noise averages out of the
    #: cumulative sum); a sustained breach means rewards are pooling on
    #: a few workers
    cumulative_gini_cap: float = 0.85
    #: evaluate the cumulative-fairness scan every this-many mechanism
    #: rounds (it is a slow signal, like the reputation drift scan)
    fairness_check_stride: int = 8
    #: leave-one-out cohort z-score for per-worker cumulative
    #: reputation drift (each worker is compared against the mean/σ of
    #: the *other* workers, so one drifter in a small cohort is visible)
    drift_sigma: float = 3.0
    #: minimum absolute reputation gap below the rest-of-cohort mean
    drift_min_gap: float = 0.25
    #: evaluate the cohort drift scan every this-many accumulated rounds
    #: (cumulative drift is a slow signal; a stride keeps the per-round
    #: cost down without changing what can be detected)
    drift_check_stride: int = 8
    #: a parallel shard is a straggler when its wall time exceeds this
    #: multiple of the dispatch's median shard time...
    shard_straggler_factor: float = 4.0
    #: ...and is at least this many seconds (filters micro-dispatch noise,
    #: where scheduler jitter alone spans orders of magnitude)
    shard_straggler_min_s: float = 0.05
    #: sliding window (rounds) for the sim SLO rate
    slo_window: int = 8
    #: sim rounds observed before the SLO detector may fire
    slo_min_rounds: int = 4
    #: alert when more than this fraction of windowed rounds degraded
    slo_max_degraded_frac: float = 0.25

    # -- resource probes (repro.perf side stream) ---------------------------
    #: rss-growth leak watchdog: alert when RSS exceeds this multiple of
    #: the baseline (the minimum over the warmup samples)...
    rss_growth_factor: float = 1.5
    #: ...and has grown by at least this many bytes — allocator noise on
    #: a small process can easily double RSS without meaning anything
    rss_growth_min_bytes: int = 256 * 1024 * 1024
    #: resource samples observed before the leak watchdog may fire
    rss_warmup_samples: int = 3
    #: gc-pause SLO: alert when a sampling window's longest collector
    #: pause exceeds this many seconds
    gc_pause_slo_s: float = 0.05

    # -- round wall-time degradation (trainer.round spans) ------------------
    #: rounds/sec degradation: alert when the sliding-window median round
    #: wall time exceeds this multiple of the warmup baseline median...
    round_time_factor: float = 2.5
    #: ...and is at least this many seconds (micro-round scheduler jitter
    #: spans orders of magnitude and means nothing)
    round_time_min_s: float = 0.005
    #: rounds forming the baseline median (the warmup prefix)
    round_time_warmup: int = 8
    #: sliding-window length for the degraded median
    round_time_window: int = 8

    # -- flight recorder ----------------------------------------------------
    #: events retained in the post-mortem ring
    ring_size: int = 512
    #: directory for ``postmortem-<run>.jsonl`` dumps (None = no dumps)
    postmortem_dir: str | None = None
    #: run identifier stamped into the post-mortem file name
    run_id: str = "run"
