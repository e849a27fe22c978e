"""Per-layer spans recorded from outside the program.

The benchmark wraps the public entry points of each ``src/repro`` layer
for the duration of a traced episode and restores them afterwards; no
program file is changed. Each call of a wrapped function records one
span — name, start, end, parent span and the round it ran in — in
compact arrays that stay in memory until the run ends.

Wrappers are installed where the caller looks the name up: methods on
their class, and functions in the namespace of the module that imported
them by name (``trainer.py``, ``fifl.py`` and ``service.py`` bind their
kernels at import time). They must be in place before the federation is
built, because the telemetry hub caches each sink's bound ``emit``.

A span's *self time* is its duration minus the durations of the spans
nested directly in it. Spans are attributed by the context they ran in:
a round, a checkpoint (``service.save``) or the operator's audit
(``bench.audit``).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import inspect
import time
from array import array

import numpy as np

__all__ = [
    "CHECKPOINT",
    "AUDIT",
    "REGION",
    "ROUND",
    "ROUND_LAYER_METRICS",
    "Tracer",
    "installed",
    "installed_sites",
    "layer_metrics",
    "self_times",
    "span_contexts",
]

#: the benchmark's own span around an episode's rounds
REGION = "bench.rounds"
#: the benchmark's own span around the operator's audit
AUDIT = "bench.audit"
#: one ``FederatedTrainer.run_round`` call
ROUND = "fl.round"
#: one durable checkpoint (``FederationService.save`` or the benchmark's
#: checkpoint of a bare trainer)
CHECKPOINT = "service.save"

_CONTEXTS = (ROUND, CHECKPOINT, AUDIT, REGION)


class Tracer:
    """Span recorder: parallel arrays, one entry per wrapped call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.round = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.round_idx = -1
        #: gen-2 collections seen while installed: count and pause seconds
        self.gen2_count = 0
        self.gen2_pause_s = 0.0
        self._gc_t0 = 0.0
        #: worker ids checked out of the population inside rounds
        self.checkout_ids = 0

    def __len__(self) -> int:
        return len(self.start)

    def name_of(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.round.append(self.round_idx)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_of(name))
        try:
            yield
        finally:
            self.close(idx)

    def _on_gc(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gen2_count += 1
            self.gen2_pause_s += time.perf_counter() - self._gc_t0

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy arrays (what :func:`layer_metrics` reads)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "round": np.frombuffer(self.round, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span out (numpy ``.npz`` plus the name table)."""
        np.savez(path, names=np.asarray(self.names), **self.arrays())


# -- span arithmetic -----------------------------------------------------------


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    Spans of one thread nest strictly, so the children's durations are
    exactly the part of the parent's interval they cover.
    """
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent)
    covered = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(covered, parent[nested], dur[nested])
    return dur - covered


def span_contexts(names: list[str], name_id, parent) -> list[str | None]:
    """The innermost context span (round, checkpoint, audit, region) of
    each span, itself included; ``None`` outside every context."""
    ctx: list[str | None] = [None] * len(name_id)
    for i, (nid, par) in enumerate(zip(name_id.tolist(), parent.tolist())):
        name = names[nid]
        if name in _CONTEXTS:
            ctx[i] = name
        elif par >= 0:
            ctx[i] = ctx[par]
    return ctx


# -- wrappers ------------------------------------------------------------------


def _wrapper(tracer: Tracer, name: str, fn):
    nid = tracer.name_of(name)
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = open_(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            close(idx)

    return traced


def _round_wrapper(tracer: Tracer, fn):
    nid = tracer.name_of(ROUND)

    @functools.wraps(fn)
    def traced(self, round_idx, *args, **kwargs):
        tracer.round_idx = int(round_idx)
        idx = tracer.open(nid)
        try:
            return fn(self, round_idx, *args, **kwargs)
        finally:
            tracer.close(idx)
            tracer.round_idx = -1

    return traced


def _checkout_wrapper(tracer: Tracer, fn):
    """``WorkerPopulation.checkout``, counting the ids asked for in rounds."""
    traced_fn = _wrapper(tracer, "population.checkout", fn)

    @functools.wraps(fn)
    def traced(self, ids, *args, **kwargs):
        if tracer.round_idx >= 0:
            ids = list(ids)
            tracer.checkout_ids += len(ids)
        return traced_fn(self, ids, *args, **kwargs)

    return traced


def _send_wrapper(tracer: Tracer, fn):
    """``Network.send``, named by the protocol step its tag belongs to."""
    upload = tracer.name_of("comm.upload")
    broadcast = tracer.name_of("comm.broadcast")
    other = tracer.name_of("comm.other")

    @functools.wraps(fn)
    def traced(self, src, dst, tag, payload):
        nid = (upload if tag.startswith("slice:")
               else broadcast if tag.startswith("global:") else other)
        idx = tracer.open(nid)
        try:
            return fn(self, src, dst, tag, payload)
        finally:
            tracer.close(idx)

    return traced


def _sites():
    """(owner, attribute, span name) for every wrapped entry point."""
    import repro.audit as audit
    import repro.core.fifl as fifl
    import repro.fl.trainer as trainer
    import repro.population.population as population
    import repro.service.service as service
    import repro.service.snapshot as snapshot
    import repro.telemetry.sinks as sinks
    from repro.comm import Network
    from repro.core.engine import RoundBatch
    from repro.core.reputation import DecayReputation
    from repro.fl.fleet_compute import FleetLocalEngine
    from repro.ledger import Blockchain
    from repro.monitor import Monitor
    from repro.nn.fleet import FleetSequential
    from repro.population import WorkerPopulation
    from repro.population.sampler import (
        AvailabilityAwareSampler,
        ReputationWeightedSampler,
        UniformSampler,
    )
    from repro.sim import SimRoundRunner, Simulator
    from repro.telemetry import Telemetry

    return [
        (trainer.FederatedTrainer, "run_round", ROUND),
        (FleetLocalEngine, "compute_updates", "fl.local_compute"),
        (trainer, "fedavg", "fl.aggregate"),
        (trainer, "recombine", "fl.aggregate"),
        (trainer, "split_views", "fl.aggregate"),
        (trainer, "evaluate", "fl.evaluate"),
        (FleetSequential, "forward", "nn.forward"),
        (FleetSequential, "backward", "nn.backward"),
        (Network, "send", "comm.send"),
        (Network, "recv", "comm.recv"),
        (Network, "cancel_tag", "comm.other"),
        (fifl.FIFLMechanism, "process_round", "core.mechanism"),
        (RoundBatch, "from_context", "core.batch"),
        (fifl, "detection_scores_matrix", "core.detect"),
        (fifl, "gradient_distances_matrix", "core.contribution"),
        (DecayReputation, "update_all", "core.reputation"),
        (fifl, "reward_shares_array", "core.incentive"),
        (Blockchain, "append", "ledger.append"),
        (Blockchain, "verify", "ledger.verify"),
        (UniformSampler, "sample", "population.sample"),
        (ReputationWeightedSampler, "sample", "population.sample"),
        (AvailabilityAwareSampler, "sample", "population.sample"),
        (WorkerPopulation, "checkout", "population.checkout"),
        (population, "make_worker", "population.materialize"),
        (WorkerPopulation, "write_reputations", "population.write"),
        (SimRoundRunner, "begin_round", "sim.begin"),
        (SimRoundRunner, "collect", "sim.collect"),
        (Simulator, "run", "sim.run"),
        (service.FederationService, "save", CHECKPOINT),
        (service, "capture_state", "service.capture"),
        (service, "encode_snapshot_blobs", "service.encode"),
        (service, "write_snapshot", "service.write"),
        (snapshot, "capture_state", "service.capture"),
        (snapshot, "encode_snapshot_blobs", "service.encode"),
        (snapshot, "write_snapshot", "service.write"),
        (Telemetry, "flush", "telemetry.flush"),
        (Telemetry, "_flush_pending", "telemetry.flush"),
        (Monitor, "emit", "monitor.emit"),
        (snapshot, "verify_snapshot", "audit.verify_snapshot"),
        (sinks, "read_trace", "audit.read"),
        (audit, "verify_trace", "audit.verify_trace"),
        (audit, "verify_service", "audit.verify_service"),
    ]


def _wrap(tracer: Tracer, owner, attr: str, name: str):
    raw = inspect.getattr_static(owner, attr)
    kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
    fn = raw.__func__ if kind else raw
    if name == ROUND:
        wrapped = _round_wrapper(tracer, fn)
    elif name == "comm.send":
        wrapped = _send_wrapper(tracer, fn)
    elif name == "population.checkout":
        wrapped = _checkout_wrapper(tracer, fn)
    else:
        wrapped = _wrapper(tracer, name, fn)
    wrapped.span_name = name
    return kind(wrapped) if kind else wrapped


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every site for the duration of the block, then restore each
    attribute exactly as it was (inherited ones are deleted again)."""
    restore: list[tuple[object, str, object, bool]] = []
    try:
        for owner, attr, name in _sites():
            own = attr in vars(owner)
            restore.append((owner, attr, vars(owner).get(attr), own))
            setattr(owner, attr, _wrap(tracer, owner, attr, name))
        gc.callbacks.append(tracer._on_gc)
        yield tracer
    finally:
        if tracer._on_gc in gc.callbacks:
            gc.callbacks.remove(tracer._on_gc)
        for owner, attr, original, own in reversed(restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def installed_sites() -> list[str]:
    """Sites whose current attribute is a benchmark wrapper (expected: none
    outside :func:`installed`)."""
    left = []
    for owner, attr, _ in _sites():
        raw = inspect.getattr_static(owner, attr)
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if hasattr(fn, "span_name"):
            left.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return left


# -- per-layer metrics ---------------------------------------------------------

#: span name -> per-layer metric its self time adds to, by context
_ROUND_METRICS = {
    ROUND: "fl.round_self_ms",
    "fl.local_compute": "fl.local_compute_ms",
    "fl.aggregate": "fl.aggregate_ms",
    "fl.evaluate": "fl.evaluate_ms",
    "nn.forward": "nn.forward_ms",
    "nn.backward": "nn.backward_ms",
    "comm.upload": "comm.upload_ms",
    "comm.broadcast": "comm.broadcast_ms",
    "comm.recv": "comm.recv_ms",
    "comm.other": "comm.other_ms",
    "core.mechanism": "core.mechanism_self_ms",
    "core.batch": "core.batch_ms",
    "core.detect": "core.detect_ms",
    "core.contribution": "core.contribution_ms",
    "core.reputation": "core.reputation_ms",
    "core.incentive": "core.incentive_ms",
    "ledger.append": "ledger.append_ms",
    "population.sample": "population.sample_ms",
    "population.checkout": "population.checkout_ms",
    "population.materialize": "population.checkout_ms",
    "population.write": "population.write_ms",
    "sim.begin": "sim.begin_ms",
    "sim.collect": "sim.collect_ms",
    "telemetry.flush": "telemetry.flush_ms",
    "monitor.emit": "monitor.emit_ms",
}
#: the per-round self-time metrics (fl.round_self_ms included)
ROUND_LAYER_METRICS = frozenset(_ROUND_METRICS.values())
#: calls per round
_ROUND_CALLS = {
    "comm.upload": "comm.upload_calls",
    "comm.broadcast": "comm.broadcast_calls",
    "comm.recv": "comm.recv_calls",
    "population.materialize": "population.materialized",
}
#: per checkpoint (ms)
_CHECKPOINT_METRICS = {
    "service.capture": "service.capture_ms",
    "service.encode": "service.encode_ms",
    "service.write": "service.write_ms",
    "sim.run": "sim.drain_ms",
}
#: per audit (seconds, except ledger.verify_ms)
_AUDIT_METRICS = {
    "audit.read": "audit.read_s",
    "audit.verify_trace": "audit.verify_trace_s",
    "audit.verify_service": "audit.verify_service_s",
    "audit.verify_snapshot": "audit.verify_snapshot_s",
    "ledger.verify": "ledger.verify_ms",
}


def layer_metrics(names: list[str], spans: dict[str, np.ndarray],
                  checkout_ids: int = 0) -> dict:
    """Per-layer self times and call counts from recorded spans.

    Round metrics are per round over every span of the rounds region
    outside checkpoints: the service's per-round flush runs between
    ``run_round`` calls, not inside them. Checkpoint metrics are per
    checkpoint and audit metrics per audit. ``checkout_ids`` is the number
    of worker ids checked out of the population inside rounds, against
    which worker builds give the population cache's hit share.

    Besides ``metrics`` the result carries the coverage check:
    ``covered_ms`` (the round metrics summed, ``fl.round_self_ms``
    included) against ``wall_ms`` (the rounds region's wall per round,
    checkpoints excluded); ``between_ms`` is the part no wrapper saw.
    """
    name_id, parent = spans["name_id"], spans["parent"]
    own = self_times(parent, spans["start"], spans["end"])
    dur = spans["end"] - spans["start"]
    ctx = span_contexts(names, name_id, parent)
    count = {n: int((name_id == i).sum()) for i, n in enumerate(names)}
    rounds = max(count.get(ROUND, 0), 1)
    checkpoints = max(count.get(CHECKPOINT, 0), 1)
    audits = max(count.get(AUDIT, 0), 1)

    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    region_wall = between = 0.0
    for i, (nid, c, par) in enumerate(zip(name_id.tolist(), ctx, parent.tolist())):
        name = names[nid]
        if name == REGION:
            region_wall += dur[i]
            between += own[i]
        elif name == CHECKPOINT and par >= 0 and ctx[par] in (ROUND, REGION):
            region_wall -= dur[i]
        if c in (ROUND, REGION):
            metric = _ROUND_METRICS.get(name)
            if metric is not None:
                totals[metric] = totals.get(metric, 0.0) + own[i]
            call = _ROUND_CALLS.get(name)
            if call is not None:
                calls[call] = calls.get(call, 0) + 1
        elif c == CHECKPOINT and name in _CHECKPOINT_METRICS:
            metric = _CHECKPOINT_METRICS[name]
            totals[metric] = totals.get(metric, 0.0) + own[i]
        elif c == AUDIT and name in _AUDIT_METRICS:
            metric = _AUDIT_METRICS[name]
            totals[metric] = totals.get(metric, 0.0) + own[i]
            if name == "ledger.verify":
                calls["ledger.verify_calls"] = calls.get("ledger.verify_calls", 0) + 1

    metrics = {}
    for metric in dict.fromkeys(_ROUND_METRICS.values()):
        metrics[metric] = totals.get(metric, 0.0) * 1e3 / rounds
    covered = sum(metrics.values())
    for metric in _ROUND_CALLS.values():
        metrics[metric] = calls.get(metric, 0) / rounds
    for metric in _CHECKPOINT_METRICS.values():
        metrics[metric] = totals.get(metric, 0.0) * 1e3 / checkpoints
    for name, metric in _AUDIT_METRICS.items():
        scale = 1e3 if name == "ledger.verify" else 1.0
        metrics[metric] = totals.get(metric, 0.0) * scale / audits
    metrics["ledger.verify_calls"] = calls.get("ledger.verify_calls", 0) / audits
    builds = calls.get("population.materialized", 0)
    metrics["population.cache_hit_share"] = (
        1.0 - builds / checkout_ids if checkout_ids else 1.0
    )
    return {
        "metrics": metrics,
        "rounds": count.get(ROUND, 0),
        "checkpoints": count.get(CHECKPOINT, 0),
        "audits": count.get(AUDIT, 0),
        "covered_ms": covered,
        "wall_ms": region_wall * 1e3 / rounds,
        "between_ms": between * 1e3 / rounds,
    }
