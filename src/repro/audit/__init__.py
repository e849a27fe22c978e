"""Incentive attribution and audit: queryable per-worker decision lineage.

FIFL's fairness claim is only auditable if every outcome — why worker
``w`` earned reward ``r``, why it was flagged in round ``t`` — can be
decomposed into the causal inputs the mechanism actually used. This
package reconstructs that **decision lineage** from the canonical
telemetry stream (``fifl.round`` attribution payloads), cross-checks it
against the blockchain ledger, the reputation store and the service's
rolling history-digest chain, and renders it via ``python -m
repro.trace`` (``explain`` / ``worker`` / ``round`` / ``fairness`` /
``verify``).

Determinism contract: the offline reconstruction and the live
collection share one fold (:class:`LineageBuilder`), so they agree
byte-for-byte on seeded runs — including across kill/resume boundaries
(concatenate the trace segments). See DESIGN.md §17.
"""

from .explain import (
    explain_decision,
    explain_lines,
    find_decision,
    round_decisions,
    round_lines,
    worker_lines,
    worker_timeline,
)
from .fairness import cumulative_fairness, cumulative_gini, fairness_report
from .records import (
    AuditError,
    Decision,
    LineageBuilder,
    RoundInputs,
    collect_decisions,
    encode_decision,
)
from .reconstruct import (
    cohort_samples,
    decisions_from_trace,
    inputs_from_payload,
    ledger_commits,
    round_payloads,
    skipped_rounds,
)
from .verify import Check, VerifyReport, verify_service, verify_trace

__all__ = [
    "AuditError",
    "Decision",
    "RoundInputs",
    "LineageBuilder",
    "collect_decisions",
    "encode_decision",
    "decisions_from_trace",
    "inputs_from_payload",
    "round_payloads",
    "ledger_commits",
    "skipped_rounds",
    "cohort_samples",
    "find_decision",
    "worker_timeline",
    "round_decisions",
    "explain_decision",
    "explain_lines",
    "worker_lines",
    "round_lines",
    "cumulative_gini",
    "cumulative_fairness",
    "fairness_report",
    "Check",
    "VerifyReport",
    "verify_trace",
    "verify_service",
]
