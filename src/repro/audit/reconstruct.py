"""Rebuild decision lineage offline from a JSONL telemetry trace.

The ``fifl.round`` event is the mechanism's per-round choke point; with
``FIFLConfig.audit`` (the default) it carries the complete attribution
payload — scores, flagged set, absolute reputations, contributions,
shares, rewards, ``b_h``, threshold, budget and the initial reputation —
so the full per-worker decision lineage is a pure function of the trace.
JSON round-trips every float exactly (``repr`` digits), and the
reconstruction funnels through the same :class:`LineageBuilder` as the
live collector, so offline lineage equals live lineage byte-for-byte.

Traces may be concatenations of several process lifetimes (a killed run
plus its resume): rounds are deduplicated by index. Duplicate rounds
with *differing* payloads mean two process lifetimes disagreed about
the same round — a lineage fork — and raise :class:`AuditError`
(``verify`` reports it as a failed check instead of crashing).

An event with a missing or ill-typed field raises
:class:`~repro.telemetry.sinks.TraceError` naming that event.
"""

from __future__ import annotations

from ..telemetry.sinks import FIELD_ERRORS, malformed
from .records import AuditError, Decision, LineageBuilder, RoundInputs

__all__ = [
    "round_payloads",
    "inputs_from_payload",
    "decisions_from_trace",
    "ledger_commits",
    "skipped_rounds",
    "cohort_samples",
]


def _int_keys(mapping: dict) -> dict:
    """Worker-keyed maps come back from JSON with string keys."""
    return {int(k): v for k, v in mapping.items()}


def _same_payload(a: dict, b: dict) -> bool:
    """Duplicate-round equality over the canonical wire encoding.

    In-memory traces (MemorySink) still hold numpy arrays in side
    channels like the delta vectors; raw dict ``==`` on those is
    ambiguous, and what the contract cares about is the serialized
    payload anyway.
    """
    from ..telemetry.sinks import encode_event

    return encode_event(a) == encode_event(b)


def round_payloads(events: list[dict]) -> tuple[dict[int, dict], list[int]]:
    """``{round: fifl.round data}`` plus the rounds with forked payloads.

    First occurrence wins: a deterministic re-run of a round (resume
    from an older snapshot) reproduces the original payload, so a
    conflicting duplicate is evidence of divergence, not of replay.
    """
    rounds: dict[int, dict] = {}
    forks: list[int] = []
    for ev in events:
        if ev.get("type") != "fifl.round":
            continue
        try:
            data = ev["data"]
            t = int(data["round"])
        except FIELD_ERRORS as exc:
            raise malformed(ev, exc) from exc
        if t in rounds:
            if t not in forks and not _same_payload(rounds[t], data):
                forks.append(t)
            continue
        rounds[t] = data
    return rounds, forks


def inputs_from_payload(data: dict) -> RoundInputs:
    """Normalize one ``fifl.round`` event payload into :class:`RoundInputs`."""
    if "reputations" not in data:
        raise AuditError(
            f"round {data.get('round')}: fifl.round event carries no "
            f"attribution payload (trace recorded with FIFLConfig.audit=False)"
        )
    scores = _int_keys(data.get("scores", {}))
    flagged = {int(w) for w in data.get("flagged", ())}
    return RoundInputs(
        round_idx=int(data["round"]),
        scores=scores,
        accepted={w: w not in flagged for w in scores},
        uncertain=tuple(sorted(int(w) for w in data.get("uncertain", ()))),
        reputations=_int_keys(data["reputations"]),
        contributions=_int_keys(data.get("contributions", {})),
        shares=_int_keys(data.get("shares", {})),
        rewards=_int_keys(data.get("rewards", {})),
        b_h=data.get("b_h"),
        threshold=data["threshold"],
        budget=data["budget"],
        initial_reputation=data.get("initial_reputation", 0.0),
    )


def decisions_from_trace(
    events: list[dict], *, builder: LineageBuilder | None = None
) -> list[Decision]:
    """Full decision lineage from a trace's ``fifl.round`` events.

    Rounds fold in ascending order regardless of file order, so
    concatenated kill/resume trace segments reconstruct the same lineage
    as the uninterrupted run. Pass an existing ``builder`` to continue a
    fold (e.g. lineage across separately-read trace segments).
    """
    rounds, forks = round_payloads(events)
    if forks:
        raise AuditError(
            f"lineage fork: rounds {forks} appear with conflicting payloads"
        )
    builder = builder if builder is not None else LineageBuilder()
    decisions: list[Decision] = []
    for t in sorted(rounds):
        try:
            decisions.extend(builder.fold(inputs_from_payload(rounds[t])))
        except FIELD_ERRORS as exc:
            raise malformed(rounds[t], exc) from exc
    return decisions


def ledger_commits(events: list[dict]) -> list[dict]:
    """``ledger.commit`` payloads in stream order, deduplicated by index.

    As with rounds, the first occurrence of a block index wins and the
    caller (``verify``) checks that duplicates agree.
    """
    seen: dict[int, dict] = {}
    for ev in events:
        if ev.get("type") != "ledger.commit":
            continue
        try:
            seen.setdefault(int(ev["data"]["index"]), ev["data"])
        except FIELD_ERRORS as exc:
            raise malformed(ev, exc) from exc
    return [seen[i] for i in sorted(seen)]


def skipped_rounds(events: list[dict]) -> dict[int, str]:
    """``{round: reason}`` for rounds the trainer skipped entirely."""
    out: dict[int, str] = {}
    for ev in events:
        if ev.get("type") == "trainer.skipped_round":
            try:
                data = ev["data"]
                out.setdefault(int(data["round"]), str(data.get("reason")))
            except FIELD_ERRORS as exc:
                raise malformed(ev, exc) from exc
    return out


def cohort_samples(events: list[dict]) -> dict[int, dict]:
    """``{round: population.cohort data}`` (population mode only)."""
    out: dict[int, dict] = {}
    for ev in events:
        if ev.get("type") == "population.cohort":
            try:
                data = ev["data"]
                out.setdefault(int(data["round"]), data)
            except FIELD_ERRORS as exc:
                raise malformed(ev, exc) from exc
    return out
