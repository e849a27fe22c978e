"""The live monitor: a telemetry sink wrapping the rule engine.

:class:`Monitor` subscribes to a :class:`~repro.telemetry.Telemetry`
hub like any other sink. Each flushed batch is walked in ``seq`` order:
every event is recorded into the flight-recorder ring and run through
the :class:`RuleEngine`; alerts accumulate on :attr:`Monitor.alerts` (a
separate stream — the monitor never emits back into the hub, so
attaching it cannot change a trace's bytes). The first alert triggers a
post-mortem dump when a dump directory is configured; in strict mode it
also raises :class:`MonitorError` out of the flush boundary that
materialized the offending event.

``scan_events`` is the offline entry point: the same engine replayed
over a decoded trace, used by ``python -m repro.trace scan`` and the
offline/online differential tests.
"""

from __future__ import annotations

from typing import Iterable

from ..telemetry.sinks import FIELD_ERRORS, malformed
from .alerts import Alert, MonitorConfig, MonitorError
from .recorder import FlightRecorder
from .rules import RuleEngine

__all__ = ["Monitor", "scan_events"]


class Monitor:
    """Streaming health monitor (telemetry sink)."""

    def __init__(self, config: MonitorConfig | None = None):
        self.config = config if config is not None else MonitorConfig()
        self.engine = RuleEngine(self.config)
        self.recorder = FlightRecorder(
            ring_size=self.config.ring_size,
            out_dir=self.config.postmortem_dir,
            run_id=self.config.run_id,
        )
        self.alerts: list[Alert] = []
        self._hub = None

    # -- sink protocol -----------------------------------------------------------

    def emit(self, events: list[dict]) -> None:
        """Record and check one flushed batch, event by event in order.

        Spans other than ``trainer.round`` carry no rule, so they go to
        the ring without a dispatch. In strict mode the first alerting
        event raises after it was recorded; the rest of the batch is
        neither recorded nor checked.
        """
        record = self.recorder.ring.append
        process = self.engine.process
        for event in events:
            record(event)
            if (event.get("type") == "span"
                    and event.get("name") != "trainer.round"):
                continue
            fired = process(event)
            if fired:
                self.alerts.extend(fired)
                self.recorder.dump("alert", self.alerts)
                if self.config.strict:
                    raise MonitorError(fired)

    def close(self) -> None:
        pass

    def observe_resource(self, sample: dict) -> None:
        """Feed one :class:`~repro.perf.ResourceProbe` sample to the rules.

        Resource samples travel on a side stream — they are handed to the
        monitor directly (never emitted into the hub), so the leak and
        GC-pause watchdogs run without changing a seeded trace's bytes.
        The wrapped event lands in the flight-recorder ring like any
        other, so post-mortems show the resource history too.
        """
        self.emit([{"type": "resource.sample", "data": dict(sample)}])

    # -- hub wiring --------------------------------------------------------------

    def install(self, hub) -> "Monitor":
        """Attach to a telemetry hub as an additional sink."""
        if self not in hub.sinks:
            hub.sinks.append(self)
        self._hub = hub
        return self

    def uninstall(self) -> None:
        """Detach from the hub installed via :meth:`install`."""
        hub = self._hub
        if hub is not None and self in hub.sinks:
            hub.sinks.remove(self)
        self._hub = None

    # -- queries / post-mortem ---------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.alerts

    def alerts_summary(self) -> dict:
        """Aggregate block for run metadata: counts per rule + details."""
        by_rule: dict[str, int] = {}
        for a in self.alerts:
            by_rule[a.rule] = by_rule.get(a.rule, 0) + 1
        return {
            "total": len(self.alerts),
            "by_rule": dict(sorted(by_rule.items())),
            "alerts": [a.to_dict() for a in self.alerts],
        }

    def dump_postmortem(
        self, reason: str, context: dict | None = None
    ) -> str | None:
        """Force a post-mortem dump (e.g. from a trainer crash handler).

        ``context`` is an optional caller-supplied block for the dump
        header — e.g. the execution-backend summary at crash time.
        """
        return self.recorder.dump(reason, self.alerts, context=context)


def scan_events(
    events: Iterable[dict], config: MonitorConfig | None = None
) -> list[Alert]:
    """Replay decoded trace events through a fresh rule engine.

    An event with a missing or ill-typed field raises
    :class:`~repro.telemetry.sinks.TraceError` naming that event.
    """
    engine = RuleEngine(config if config is not None else MonitorConfig())
    alerts: list[Alert] = []
    for event in events:
        try:
            alerts.extend(engine.process(event))
        except FIELD_ERRORS as exc:
            raise malformed(event, exc) from exc
    return alerts
