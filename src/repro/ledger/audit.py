"""The paper's audit protocol (S4.5) over the blockchain ledger.

When worker ``i`` suspects its reputation was manipulated, the task
publisher replays the detection outcomes recorded on the chain through an
independent reputation calculator and compares each round's recomputed
value with the value the server committed. A mismatch pinpoints the round
and — via the block signature — the server that signed the bad record,
which is then removed from the cluster.

Records are the dictionaries :class:`repro.core.FIFLMechanism` commits:
``{"round": t, "accepted": {worker: bool}, "reputations": {worker: float}, ...}``.

:func:`audit_reputations` audits many workers in one pass: it verifies
the chain once and replays every worker's trajectory in a single scan of
the blocks. :func:`audit_reputation` is its one-worker case. Nothing is
cached between calls, so every audit re-reads the chain it checks.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..core.reputation import DecayReputation
from .blockchain import Blockchain

__all__ = ["AuditFinding", "AuditReport", "audit_reputation", "audit_reputations"]


@dataclass(frozen=True)
class AuditFinding:
    """One inconsistent ledger entry."""

    block_index: int
    round_idx: int
    signer: str
    recorded: float
    recomputed: float


@dataclass
class AuditReport:
    """Outcome of replaying one worker's reputation from the chain."""

    worker: int
    findings: list[AuditFinding] = field(default_factory=list)
    chain_intact: bool = True
    rounds_checked: int = 0

    @property
    def clean(self) -> bool:
        """True iff the chain verifies and every round matches."""
        return self.chain_intact and not self.findings

    def implicated_signers(self) -> set[str]:
        """Servers whose signed records disagree with the recomputation."""
        return {f.signer for f in self.findings}


def _event_float(x: float) -> float | str:
    """``x``, or its repr when non-finite (trace lines are strict JSON)."""
    return x if math.isfinite(x) else repr(x)


def audit_reputations(
    chain: Blockchain,
    workers: Iterable[int],
    gamma: float,
    initial: float = 0.0,
    tolerance: float = 1e-9,
) -> list[AuditReport]:
    """Recompute each worker's reputation trajectory from the ledger.

    Verifies the chain once and replays every worker in one block scan;
    returns one report per entry of ``workers``, in order, each equal to
    what :func:`audit_reputation` gives for that worker alone. A recorded
    value counts as consistent only if it lies within ``tolerance`` of
    the recomputation, so a NaN record is a finding. Parameters mirror
    the mechanism's reputation config; the auditor must use the same
    ``gamma`` and initial value the federation declared.
    """
    workers = list(workers)
    keys = [str(w) for w in workers]  # canonical payloads have string keys
    checked = dict.fromkeys(keys, 0)
    findings: dict[str, list[AuditFinding]] = {key: [] for key in checked}
    intact = not chain.verify()
    replay = DecayReputation(gamma=gamma, initial=initial)
    for blk in chain.blocks:
        payload = blk.payload
        if not isinstance(payload, dict) or "reputations" not in payload:
            continue  # not a FIFL round record
        accepted = payload.get("accepted", {})
        reputations = payload["reputations"]
        present = [key for key in findings if key in reputations]
        # one replay step over this block's audited workers; a missing
        # outcome is an uncertain event
        recomputed = replay.update_all(
            [int(key) for key in present], [accepted.get(key) for key in present]
        )
        for key, value in zip(present, recomputed.tolist()):
            recorded = float(reputations[key])
            checked[key] += 1
            if not abs(recorded - value) <= tolerance:
                findings[key].append(
                    AuditFinding(
                        block_index=blk.index,
                        round_idx=int(payload.get("round", -1)),
                        signer=blk.signer,
                        recorded=recorded,
                        recomputed=value,
                    )
                )
    from ..telemetry.core import get_telemetry

    telemetry = get_telemetry()
    reports = []
    for worker, key in zip(workers, keys):
        report = AuditReport(
            worker=worker,
            findings=list(findings[key]),
            chain_intact=intact,
            rounds_checked=checked[key],
        )
        telemetry.event(
            "ledger.audit",
            {
                "worker": worker,
                "rounds_checked": report.rounds_checked,
                "chain_intact": report.chain_intact,
                "clean": report.clean,
                "findings": [
                    {
                        "block_index": f.block_index,
                        "round": f.round_idx,
                        "signer": f.signer,
                        "recorded": _event_float(f.recorded),
                        "recomputed": _event_float(f.recomputed),
                    }
                    for f in report.findings
                ],
            },
        )
        reports.append(report)
    return reports


def audit_reputation(
    chain: Blockchain,
    worker: int,
    gamma: float,
    initial: float = 0.0,
    tolerance: float = 1e-9,
) -> AuditReport:
    """Recompute worker ``i``'s reputation trajectory from the ledger.

    The one-worker case of :func:`audit_reputations`.
    """
    return audit_reputations(chain, [worker], gamma, initial, tolerance)[0]
