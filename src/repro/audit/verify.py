"""Cross-check reconstructed lineage against ledger, store, and snapshots.

``verify_trace`` needs only the JSONL events and proves the trace is
*internally* sound: every ``fifl.round`` carries the attribution
payload, derived quantities obey the mechanism's own arithmetic
(``reward = share x budget`` exactly — both engines compute it as one
multiply), the emitted reputation-delta vectors match the absolute
reputations, and — when the run kept a ledger — the block committed for
each round hashes to *exactly* the payload the trace reconstructs
(JSON round-trips every float bit-for-bit, so the SHA-256 digests must
be equal, not merely close).

``verify_service`` additionally resumes the service from its snapshot
directory and proves lineage *continuity across process lifetimes*: the
snapshot manifest's audit block matches the recomputed rolling
history/reputation digests, the resumed reputation store and cumulative
rewards equal the trace-reconstructed values, the durable ledger equals
the trace's commit stream block-for-block, and replaying the paper's
S4.5 reputation audit over the chain comes back clean. The trace's
lineage is folded once and the chain verified once per pass.

Every check lands in a :class:`VerifyReport` as pass / fail / skipped
(prerequisite absent — e.g. no ledger configured); ``--strict`` treats
skips as failures so CI can demand the full cross-check actually ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ledger.audit import audit_reputations
from ..ledger.blockchain import GENESIS_HASH, payload_digest
from ..telemetry.sinks import FIELD_ERRORS, malformed
from .records import AuditError, LineageBuilder
from .reconstruct import (
    decisions_from_trace,
    inputs_from_payload,
    ledger_commits,
    round_payloads,
    skipped_rounds,
)

__all__ = ["Check", "VerifyReport", "verify_trace", "verify_service"]


@dataclass(frozen=True)
class Check:
    """One cross-check outcome."""

    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str

    @property
    def ok(self) -> bool:
        return self.status != "fail"


@dataclass
class VerifyReport:
    """All checks of one verification run."""

    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append(Check(name, "pass" if ok else "fail", detail))

    def skip(self, name: str, detail: str) -> None:
        self.checks.append(Check(name, "skip", detail))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def ok_strict(self) -> bool:
        """Strict: skipped checks count as failures."""
        return all(c.status == "pass" for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == "fail"]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "ok_strict": self.ok_strict(),
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
        }

    def lines(self) -> list[str]:
        mark = {"pass": "ok  ", "fail": "FAIL", "skip": "skip"}
        rows = [
            f"  [{mark[c.status]}] {c.name:<22} {c.detail}" for c in self.checks
        ]
        rows.append(
            f"verify: {sum(c.status == 'pass' for c in self.checks)} passed, "
            f"{len(self.failures())} failed, "
            f"{sum(c.status == 'skip' for c in self.checks)} skipped"
        )
        return rows


def _ledger_payload(inputs) -> dict:
    """The exact payload shape the mechanism commits per round (S4.5)."""
    outcomes: dict[int, bool | None] = {
        w: inputs.accepted[w] for w in inputs.scores
    }
    for w in inputs.uncertain:
        outcomes[w] = None
    return {
        "round": inputs.round_idx,
        "scores": inputs.scores,
        "accepted": outcomes,
        "reputations": inputs.reputations,
        "contributions": inputs.contributions,
        "rewards": inputs.rewards,
    }


def verify_trace(events: list[dict]) -> VerifyReport:
    """Internal-consistency checks over one (possibly concatenated) trace."""
    report = VerifyReport()
    rounds, forks = round_payloads(events)
    report.add(
        "lineage-fork",
        not forks,
        "no conflicting duplicate rounds" if not forks
        else f"rounds with conflicting payloads: {forks}",
    )
    if not rounds:
        report.skip("audit-payload", "trace contains no fifl.round events")
        return report

    inputs_by_round = {}
    missing = []
    for t in sorted(rounds):
        try:
            inputs_by_round[t] = inputs_from_payload(rounds[t])
        except AuditError:
            missing.append(t)
        except FIELD_ERRORS as exc:
            raise malformed(rounds[t], exc) from exc
    report.add(
        "audit-payload",
        not missing,
        f"{len(inputs_by_round)} rounds carry the attribution payload"
        if not missing
        else f"rounds without attribution payload: {missing[:5]}",
    )
    if missing:
        return report

    skipped = skipped_rounds(events)
    lo, hi = min(rounds), max(rounds)
    gaps = [
        t for t in range(lo, hi + 1) if t not in rounds and t not in skipped
    ]
    report.add(
        "round-coverage",
        not gaps,
        f"rounds {lo}..{hi} covered ({len(skipped)} trainer-skipped)"
        if not gaps
        else f"rounds missing from the trace: {gaps[:10]}",
    )

    bad_partition = []
    bad_reward = []
    bad_delta = []
    prev_tele: dict[int, float] = {}
    t = None
    try:
        for t in sorted(inputs_by_round):
            inp = inputs_by_round[t]
            data = rounds[t]
            accepted_count = int(data.get("accepted", -1))
            flagged = data.get("flagged", ())
            if (
                accepted_count != len(inp.scores) - len(flagged)
                or set(inp.uncertain) & set(inp.scores)
            ):
                bad_partition.append(t)
            for w, r in inp.rewards.items():
                share = inp.shares.get(w)
                if share is None or r != share * inp.budget:
                    bad_reward.append(t)
                    break
            # the emitted delta vector must equal the absolute reputations
            # minus the previous event's (initial value on first appearance),
            # computed with the same single IEEE subtraction the hub used
            delta = data.get("reputation_delta") or {}
            workers = [int(w) for w in delta.get("workers", ())]
            dvals = delta.get("delta", ())
            for w, dv in zip(workers, dvals):
                prev = prev_tele.get(w, inp.initial_reputation)
                if inp.reputations.get(w, prev) - prev != dv:
                    bad_delta.append(t)
                    break
            prev_tele = dict(inp.reputations)
    except FIELD_ERRORS as exc:
        raise malformed(rounds[t], exc) from exc
    report.add(
        "worker-partition",
        not bad_partition,
        "accepted/flagged/uncertain partition the scored set"
        if not bad_partition
        else f"partition violated in rounds {bad_partition[:10]}",
    )
    report.add(
        "reward-arithmetic",
        not bad_reward,
        "reward == share x budget bit-exactly in every round"
        if not bad_reward
        else f"reward != share x budget in rounds {bad_reward[:10]}",
    )
    report.add(
        "reputation-delta",
        not bad_delta,
        "emitted delta vectors match the absolute reputation path"
        if not bad_delta
        else f"delta/absolute mismatch in rounds {bad_delta[:10]}",
    )

    commits = ledger_commits(events)
    if not commits:
        report.skip("ledger-digest", "trace contains no ledger.commit events")
        report.skip("ledger-chain", "trace contains no ledger.commit events")
    else:
        by_round = {
            int(c["round"]): c for c in commits if c.get("round") is not None
        }
        bad_digest = []
        unmatched = []
        for t, inp in inputs_by_round.items():
            commit = by_round.get(t)
            if commit is None:
                unmatched.append(t)
                continue
            try:
                if (payload_digest(_ledger_payload(inp))
                        != commit["payload_digest"]):
                    bad_digest.append(t)
            except FIELD_ERRORS as exc:
                raise malformed(commit, exc) from exc
        ok = not bad_digest and not unmatched
        report.add(
            "ledger-digest",
            ok,
            f"{len(inputs_by_round)} round payloads hash to their "
            f"committed block digests"
            if ok
            else f"digest mismatch in rounds {bad_digest[:10]}, "
            f"rounds without a commit: {unmatched[:10]}",
        )
        prev_hash = GENESIS_HASH
        bad_chain = []
        for i, c in enumerate(commits):
            try:
                if int(c["index"]) != i or c["prev_hash"] != prev_hash:
                    bad_chain.append(i)
                prev_hash = c["hash"]
            except FIELD_ERRORS as exc:
                raise malformed(c, exc) from exc
        report.add(
            "ledger-chain",
            not bad_chain,
            f"{len(commits)} commits chain contiguously from genesis"
            if not bad_chain
            else f"linkage broken at block indices {bad_chain[:10]}",
        )
    return report


def verify_service(
    events: list[dict], snapshot_dir, report: VerifyReport | None = None
) -> VerifyReport:
    """Continuity checks between a trace and the resumed durable state.

    Expects ``events`` to cover the service's whole life (concatenate
    the trace segments of killed + resumed processes); a partial trace
    fails the cumulative checks by construction.
    """
    from ..service.service import FederationService
    from ..service.snapshot import latest_snapshot, read_manifest

    report = report if report is not None else VerifyReport()
    snap = latest_snapshot(snapshot_dir)
    if snap is None:
        report.skip("snapshot-manifest", f"no snapshots under {snapshot_dir}")
        return report
    service = FederationService.resume(snapshot_dir)
    manifest = read_manifest(snap)

    audit_block = manifest.get("audit")
    if audit_block is None:
        report.skip(
            "snapshot-manifest", f"{snap.name} predates the audit manifest block"
        )
    else:
        expected = {
            "history_digest": service.history_digest(),
            "reputation_digest": service.reputation_digest(),
        }
        if service.ledger is not None:
            expected["ledger_head"] = service.ledger.head_hash()
        bad = [
            k for k, v in expected.items() if audit_block.get(k) != v
        ]
        report.add(
            "snapshot-manifest",
            not bad,
            f"{snap.name} audit digests match the resumed state"
            if not bad
            else f"{snap.name} digests diverge from resumed state: {bad}",
        )

    builder = LineageBuilder()
    try:
        decisions = decisions_from_trace(events, builder=builder)
    except AuditError as exc:
        report.add("reputation-store", False, str(exc))
        return report
    if not decisions:
        report.skip("reputation-store", "trace reconstructs no decisions")
        return report

    mech = service.mechanism
    if mech is None:
        report.skip("reputation-store", "service runs without a mechanism")
    else:
        final = {}
        for d in decisions:
            final[d.worker] = d.reputation
        bad_rep = [
            w for w, r in sorted(final.items())
            if mech.reputation.reputation(w) != r
        ]
        report.add(
            "reputation-store",
            not bad_rep,
            f"{len(final)} workers' final trace reputations equal the "
            f"resumed store"
            if not bad_rep
            else f"reputation store diverges for workers {bad_rep[:10]}",
        )

        cum = builder.cumulative_rewards()
        live = mech.cumulative_rewards()
        bad_cum = [
            w for w in sorted(set(cum) | set(live))
            if cum.get(w) != live.get(w)
        ]
        report.add(
            "cumulative-rewards",
            not bad_cum,
            "trace-folded reward totals equal the live accumulator "
            "bit-for-bit"
            if not bad_cum
            else f"cumulative rewards diverge for workers {bad_cum[:10]}",
        )

    if service.ledger is None:
        report.skip("ledger-durable", "service runs without a ledger")
        report.skip("reputation-replay", "service runs without a ledger")
        return report

    # the S4.5 replay verifies the chain; its verdict also serves the
    # durable-ledger check, so one pass verifies the chain once
    audits = audit_reputations(
        service.ledger, sorted({d.worker for d in decisions}),
        gamma=service.config.fed.gamma, initial=0.0,
    )
    intact = audits[0].chain_intact
    commits = ledger_commits(events)
    blocks = service.ledger.blocks
    bad_blocks = []
    for i, c in enumerate(commits):
        try:
            if i >= len(blocks) or blocks[i].hash != c["hash"]:
                bad_blocks.append(i)
        except FIELD_ERRORS as exc:
            raise malformed(c, exc) from exc
    ok = len(commits) == len(blocks) and not bad_blocks and intact
    report.add(
        "ledger-durable",
        ok,
        f"durable chain ({len(blocks)} blocks) equals the trace commit "
        f"stream and verifies"
        if ok
        else f"durable ledger diverges (trace commits={len(commits)}, "
        f"blocks={len(blocks)}, mismatched={bad_blocks[:10]}, "
        f"intact={intact})",
    )

    unclean = [a.worker for a in audits if not a.clean]
    checked = sum(a.rounds_checked for a in audits)
    report.add(
        "reputation-replay",
        not unclean,
        f"S4.5 replay clean for every worker ({checked} round-checks)"
        if not unclean
        else f"S4.5 replay implicates records for workers {unclean[:10]}",
    )
    return report
