"""The FIFL mechanism: detection → reputation → contribution → incentive.

:class:`FIFLMechanism` plugs into :class:`repro.fl.FederatedTrainer` as its
round mechanism and implements the full S4 pipeline each communication
round:

1. **Attack detection** — each server scores every delivered slice against
   its own local slice ``g_j^j``; the summed score is thresholded by
   ``S_y`` into ``r_i`` (Eq. 5-7). Rejected gradients never enter the
   aggregate.
2. **Reputation** — detection outcomes (and uncertain events for lost
   uploads) feed the time-decayed reputation ``R_i`` (Eq. 10).
3. **Contribution** — gradient distances to the filtered global gradient
   give ``C_i`` against a baseline ``b_h`` (Eq. 13-14).
4. **Incentive** — reward shares ``I_i = R_i · C_i / ΣC⁺`` (Eq. 15),
   scaled by the round budget; punishments are negative rewards.

The round's uploads arrive as one :class:`~repro.core.engine.RoundBatch`
matrix (the trainer's upload matrix, not a copy) and every phase runs as
batched NumPy ops: one GEMM per server for detection, one broadcasted
reduction for distances, masked arithmetic for rewards. Per-worker dicts
are built once per result, for the record, the ledger payload and the
``fifl.round`` event, with the keys, values and order they always had.
The literal per-worker pipeline lives in ``tests/core/reference.py`` as
the test oracle; the two agree to < 1e-8 on every per-round output (see
``tests/core/test_engine.py``).

The trainer admits only finite uploads, for every mechanism: a NaN or
±inf upload (e.g. from blown-up local training) arrives in
``ctx.rejected``, outside the batch. FIFL records it as flagged, scored
:data:`NON_FINITE_SCORE`, with reputation outcome ``False``.

Phase wall-clock lands in :mod:`repro.telemetry` spans under ``fifl.*``
keys (the legacy ``snapshot()`` phase table still sees them). Each
round additionally emits one ``fifl.round`` trace event — flagged
workers, detection margins against ``S_y``, reputation deltas, rewards,
and the reward-fairness gauges (Gini, normalized share entropy) — plus,
with ``FIFLConfig.audit`` (the default), the full attribution payload
(absolute reputations, contributions, shares, ``b_h``) so a JSONL trace
reconstructs every decision the mechanism made (see :mod:`repro.audit`).

Every round's intermediate results can be committed to a blockchain ledger
(S4.5) for the audit protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..fl.gradients import slice_offsets
from ..fl.trainer import RoundContext, RoundDecision
from ..metrics.fairness import reward_fairness
from ..telemetry import Telemetry, get_telemetry
from .contribution import (
    contributions_array,
    gradient_distances_matrix,
    zero_baseline,
)
from .detection import DetectionConfig, detection_scores_matrix
from .engine import RoundBatch, stack_benchmarks
from .incentive import reward_shares_array
from .reputation import DecayReputation, SLMReputation

__all__ = ["FIFLRoundRecord", "FIFLMechanism", "NON_FINITE_SCORE"]

#: Detection score recorded for a non-finite upload: the lowest finite
#: float64, so its margin sits below any threshold and every record,
#: ledger block and trace event stays finite (JSON-compliant).
NON_FINITE_SCORE = float(np.finfo(np.float64).min)


@dataclass
class FIFLRoundRecord:
    """All per-round FIFL outputs, kept for experiments and audit."""

    round_idx: int
    scores: dict[int, float]
    accepted: dict[int, bool]
    reputations: dict[int, float]
    distances: dict[int, float]
    b_h: float | None
    contribs: dict[int, float]
    shares: dict[int, float]
    rewards: dict[int, float]
    # workers whose upload was lost this round (uncertain outcome); kept on
    # the record so decision lineage (repro.audit) needs no TrainingHistory
    uncertain: tuple[int, ...] = ()


@dataclass
class FIFLConfig:
    """FIFL hyperparameters."""

    detection: DetectionConfig = field(default_factory=DetectionConfig)
    gamma: float = 0.1  # reputation time-decay factor (Eq. 10)
    initial_reputation: float = 0.0
    contribution_baseline: str = "zero"  # "zero" | "reference"
    reference_worker: int | None = None  # required for "reference"
    budget_per_round: float = 1.0  # I_sum(t)
    punish_mode: str = "contribution"  # see incentive.reward_shares
    # Two-pass contribution scoring: first-pass negative contributors are
    # dropped from the aggregate and everyone is re-scored (S4.3's guard
    # against low-quality gradients biasing the reference point).
    contribution_filter: bool = False
    # Reputation estimator: "decay" is the paper's Eq. 10 extension
    # (FIFL's default); "slm" is the classic period-based subjective
    # logic model of Eq. 8-9, with counts reset every slm_period rounds.
    reputation_mode: str = "decay"
    slm_period: int = 10
    slm_alphas: tuple[float, float, float] = (1.0, 1.0, 1.0)
    # What G̃ in Eq. 13 is measured against: "aggregate" (the literal
    # filtered global gradient) or "server_mean" (the mean of the trusted
    # server cluster's own gradients, S4.5). With low-rate label noise on
    # near-linear models the *norm* of a poisoned gradient shrinks, which
    # drags the contaminated aggregate toward mid-poison workers and breaks
    # the quality ordering; the trusted server mean does not have this
    # failure mode (see EXPERIMENTS.md, Figs. 12-13).
    contribution_reference: str = "aggregate"
    # Worker-shard streaming for the vectorized kernels: detection scores
    # and gradient distances are per-row reductions, so processing row
    # blocks of at most ``shard_size`` workers bounds kernel temporaries
    # by shard size at identical results (None = whole cohort at once).
    shard_size: int | None = None
    # Emit the full attribution payload (absolute reputations, contribution
    # shares, baseline b_h) on every ``fifl.round`` event so an offline
    # trace reconstructs the complete decision lineage (repro.audit). Off
    # only to A/B the emission cost (benchmarks/bench_overhead.py).
    audit: bool = True

    def __post_init__(self) -> None:
        if self.shard_size is not None and self.shard_size <= 0:
            raise ValueError("shard_size must be positive (or None)")
        if self.contribution_baseline not in ("zero", "reference"):
            raise ValueError(
                "contribution_baseline must be 'zero' or 'reference'"
            )
        if self.contribution_baseline == "reference" and self.reference_worker is None:
            raise ValueError("reference baseline needs reference_worker")
        if self.budget_per_round < 0:
            raise ValueError("budget_per_round must be non-negative")
        if self.contribution_reference not in ("aggregate", "server_mean"):
            raise ValueError(
                "contribution_reference must be 'aggregate' or 'server_mean'"
            )
        if self.reputation_mode not in ("decay", "slm"):
            raise ValueError("reputation_mode must be 'decay' or 'slm'")
        if self.slm_period <= 0:
            raise ValueError("slm_period must be positive")


class FIFLMechanism:
    """Stateful FIFL round mechanism (implements ``RoundMechanism``)."""

    def __init__(
        self,
        config: FIFLConfig | None = None,
        ledger=None,
        profiler: Telemetry | None = None,
    ):
        self.config = config if config is not None else FIFLConfig()
        self.reputation = DecayReputation(
            gamma=self.config.gamma, initial=self.config.initial_reputation
        )
        a_t, a_n, a_u = self.config.slm_alphas
        self.slm = SLMReputation(alpha_t=a_t, alpha_n=a_n, alpha_u=a_u)
        self._rounds_seen = 0
        self.ledger = ledger
        self.profiler = profiler if profiler is not None else get_telemetry()
        self.records: list[FIFLRoundRecord] = []
        self._cumulative_rewards: dict[int, float] = {}
        # previous round's reputation vector, for per-round delta telemetry
        self._prev_rep_ids: tuple = ()
        self._prev_rep_vals = np.zeros(0)
        # detection margins (score - S_y) live on the cosine scale; the
        # reputation delta per round is bounded by the decay factor
        self.profiler.register_histogram(
            "fifl.detect_margin",
            (-4.0, -2.0, -1.0, -0.5, -0.2, -0.1, -0.05, 0.0,
             0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0),
        )

    # -- helpers ---------------------------------------------------------------

    def _detection_scores_sharded(
        self, batch: RoundBatch, ranks, slots, bench_slices
    ) -> np.ndarray:
        """Detection scores, streamed over worker shards when configured.

        The score kernel is a pure per-row reduction, so concatenating
        per-shard results equals the one-shot call exactly (bit-for-bit:
        each row's GEMV and normalization touch only that row).
        """
        mode = self.config.detection.mode
        return np.concatenate(
            [
                detection_scores_matrix(
                    sh.worker_ids,
                    sh.gradients,
                    sh.offsets,
                    ranks,
                    slots,
                    bench_slices,
                    mode,
                )
                for sh in batch.iter_shards(self.config.shard_size)
            ]
        )

    def _gradient_distances_sharded(
        self, reference_grad: np.ndarray, batch: RoundBatch
    ) -> np.ndarray:
        """Gradient distances, streamed over worker shards when configured.

        Same contract as detection: per-row kernel, shard-order
        concatenation, byte-identical to the one-shot call.
        """
        return np.concatenate(
            [
                gradient_distances_matrix(
                    reference_grad, sh.gradients, row_sqnorms=sh.row_sqnorms
                )
                for sh in batch.iter_shards(self.config.shard_size)
            ]
        )

    def _score_contributions_batch(
        self, reference_grad: np.ndarray, batch: RoundBatch
    ) -> tuple[np.ndarray, float | None, np.ndarray]:
        """Distances, baseline b_h and contributions against one G̃."""
        dist_vec = self._gradient_distances_sharded(reference_grad, batch)
        ref_worker = self.config.reference_worker
        b_h: float | None
        if (
            self.config.contribution_baseline == "reference"
            and ref_worker is not None
            and (batch.worker_ids == ref_worker).any()
        ):
            idx = int(np.searchsorted(batch.worker_ids, ref_worker))
            b_h = float(dist_vec[idx])
        else:
            b_h = zero_baseline(reference_grad)
        if b_h > 0.0:
            return dist_vec, b_h, contributions_array(dist_vec, b_h)
        return dist_vec, None, np.zeros_like(dist_vec)

    def _update_reputations(
        self, ctx: RoundContext, accepted: dict[int, bool]
    ) -> tuple[dict[int, bool | None], dict[int, float]]:
        """Fold detection outcomes (plus uncertain events) into reputations.

        The SLM period counts are kept only in ``"slm"`` mode, the one
        mode that reads them.
        """
        outcomes: dict[int, bool | None] = dict(accepted)
        for w in ctx.uncertain:
            outcomes[w] = None
        decayed = self.reputation.update_all(outcomes)
        self._rounds_seen += 1
        if self.config.reputation_mode != "slm":
            return outcomes, decayed
        for w, outcome in outcomes.items():
            self.slm.record(w, outcome)
        reputations = {w: self.slm.reputation(w) for w in outcomes}
        if self._rounds_seen % self.config.slm_period == 0:
            self.slm.reset_period()
        return outcomes, reputations

    # -- main entry point --------------------------------------------------------

    def process_round(self, ctx: RoundContext) -> RoundDecision:
        """Batched pipeline over the round's ``(N, D)`` gradient matrix."""
        prof = self.profiler
        cfg = self.config

        with prof.phase("fifl.batch"):
            batch = RoundBatch.from_context(ctx)
            offsets = (
                batch.offsets
                if batch is not None
                else slice_offsets(ctx.global_params.size, len(ctx.server_ranks))
            )

        # 1) attack detection: one GEMM per server over the slice blocks.
        #    A rejected (non-finite) upload is flagged unscored, in id order.
        with prof.phase("fifl.detect"):
            ranks, slots, bench_slices = stack_benchmarks(ctx, offsets)
            score_vec = np.zeros(0)
            accept_vec = None
            scores, accepted = {}, {}
            if batch is not None:
                score_vec = self._detection_scores_sharded(
                    batch, ranks, slots, bench_slices
                )
                accept_vec = score_vec >= cfg.detection.threshold
                scores = batch.to_dict(score_vec)
                accepted = batch.to_dict(accept_vec)
            if ctx.rejected:
                scores.update(dict.fromkeys(ctx.rejected, NON_FINITE_SCORE))
                accepted.update(dict.fromkeys(ctx.rejected, False))
                scores = dict(sorted(scores.items()))
                accepted = dict(sorted(accepted.items()))
            prof.count("fifl.workers_scored", len(scores))

        # 2) reputation (stateful EMA/SLM; O(N) dict update, not a hot path)
        with prof.phase("fifl.reputation"):
            outcomes, reputations = self._update_reputations(ctx, accepted)

        # 3) contributions: masked row-average for G̃, one batched reduction
        #    for all distances
        with prof.phase("fifl.contribution"):
            distances: dict[int, float] = {}
            contribs: dict[int, float] = {}
            b_h: float | None = None
            contrib_vec = None
            global_grad = None
            if batch is not None:
                global_grad = batch.weighted_average(accept_vec)
            if global_grad is not None:
                reference_grad = global_grad
                if cfg.contribution_reference == "server_mean":
                    # the trusted reference (S4.5): the mean of the full
                    # gradients of the servers that hold a benchmark
                    local = ctx.updates
                    reference_grad = local.gradients[
                        np.searchsorted(local.worker_ids, ranks)
                    ].mean(axis=0)
                dist_vec, b_h, contrib_vec = self._score_contributions_batch(
                    reference_grad, batch
                )
                if (
                    cfg.contribution_filter
                    and cfg.contribution_reference == "aggregate"
                    and (contrib_vec < 0.0).any()
                ):
                    # Second pass (S4.3's free-rider guard, closed loop): the
                    # first pass's negative contributors are below the
                    # quality bar, so their gradients leave the aggregate
                    # and everyone is re-scored against the cleaned G̃. This
                    # keeps low-quality gradients from biasing the reference
                    # point that scores everyone else.
                    cleaned = batch.weighted_average(
                        accept_vec & (contrib_vec >= 0.0)
                    )
                    if cleaned is not None:
                        dist_vec, b_h, contrib_vec = (
                            self._score_contributions_batch(cleaned, batch)
                        )
                distances = batch.to_dict(dist_vec)
                contribs = batch.to_dict(contrib_vec)

        # 4) incentive: masked share arithmetic, budget scaling
        with prof.phase("fifl.incentive"):
            reward_vec = None
            shares, rewards = {}, {}
            if contrib_vec is not None:
                rep_vec = np.fromiter(
                    map(reputations.__getitem__, batch.worker_ids.tolist()),
                    np.float64,
                    batch.num_workers,
                )
                share_vec = reward_shares_array(
                    rep_vec, contrib_vec, punish_mode=cfg.punish_mode
                )
                reward_vec = share_vec * cfg.budget_per_round
                shares = batch.to_dict(share_vec)
                rewards = batch.to_dict(reward_vec)

        return self._finalize(
            ctx, scores, accepted, outcomes, reputations, distances, b_h,
            contribs, shares, rewards, score_vec, reward_vec,
        )

    def _finalize(
        self,
        ctx: RoundContext,
        scores: dict[int, float],
        accepted: dict[int, bool],
        outcomes: dict[int, bool | None],
        reputations: dict[int, float],
        distances: dict[int, float],
        b_h: float | None,
        contribs: dict[int, float],
        shares: dict[int, float],
        rewards: dict[int, float],
        score_vec: np.ndarray,
        reward_vec: np.ndarray | None = None,
    ) -> RoundDecision:
        """Shared bookkeeping: cumulative rewards, records, ledger, verdict.

        Also the mechanism's telemetry choke point: flagged workers,
        detection margins, reputation deltas and the reward-fairness
        gauges are emitted here once per round. ``score_vec`` holds the
        admitted uploads' detection scores in id order (the rejected
        ones have no margin); ``reward_vec`` is the reward vector aligned
        with ``rewards`` (``None`` rebuilds it from the dict).
        """
        for w, amount in rewards.items():
            self._cumulative_rewards[w] = self._cumulative_rewards.get(w, 0.0) + amount

        prof = self.profiler
        if prof.enabled:
            # Per-round mechanism telemetry (flagged workers, detection
            # margins, reputation deltas, reward fairness) involves a
            # sort and several reductions — deferred off the hot path.
            # All referenced dicts/vectors are freshly built this round
            # and never mutated afterwards, so the thunk sees exactly
            # the state it captured.
            prof.defer(
                self._round_telemetry,
                (ctx.round_idx, ctx.uncertain, ctx.rejected, scores, accepted,
                 reputations, rewards, contribs, shares, b_h,
                 score_vec, reward_vec),
                4,
            )

        record = FIFLRoundRecord(
            round_idx=ctx.round_idx,
            scores=scores,
            accepted=accepted,
            reputations=dict(reputations),
            distances=distances,
            b_h=b_h,
            contribs=contribs,
            shares=shares,
            rewards=rewards,
            uncertain=tuple(sorted(int(w) for w in ctx.uncertain)),
        )
        self.records.append(record)
        if self.ledger is not None:
            with self.profiler.phase("fifl.ledger"):
                self.ledger.append(
                    {
                        "round": ctx.round_idx,
                        "scores": scores,
                        # full outcome map: True/False detection results plus
                        # None for uncertain (lost-upload) events, so the audit
                        # protocol can replay reputations exactly (S4.5)
                        "accepted": outcomes,
                        "reputations": dict(reputations),
                        "contributions": contribs,
                        "rewards": rewards,
                    },
                    signer="server-cluster",
                )

        return RoundDecision(
            accept=accepted,
            records={
                "scores": scores,
                "reputations": dict(reputations),
                "contributions": contribs,
                "rewards": rewards,
            },
        )

    def _round_telemetry(
        self,
        tele,
        round_idx: int,
        uncertain,
        rejected,
        scores: dict[int, float],
        accepted: dict[int, bool],
        reputations: dict[int, float],
        rewards: dict[int, float],
        contribs: dict[int, float],
        shares: dict[int, float],
        b_h: float | None,
        score_vec: np.ndarray,
        reward_vec: np.ndarray | None,
    ) -> list[dict]:
        """Deferred emitter for one round's mechanism telemetry.

        Runs at the hub's next flush boundary (see ``Telemetry.defer``),
        in emission order, and returns the three fairness/flagging gauge
        events plus the ``fifl.round`` record. The previous-reputation
        state advances here, which is safe exactly because flushes
        preserve round order.
        """
        threshold = self.config.detection.threshold
        flagged = [w for w, ok in accepted.items() if not ok]
        flagged.sort()
        margins = score_vec - threshold
        # a rejected upload has no margin to bucket, but its recorded
        # sentinel score bounds the round's margins from below
        if margins.size:
            tele.observe_many("fifl.detect_margin", margins)
        if rejected:
            margins = np.append(margins, NON_FINITE_SCORE - threshold)
        # Reputation deltas against last round's vector; the worker set
        # is stable between failures, so the common case is one array
        # subtraction (the dict rebuild only runs on reshapes).
        ids = tuple(reputations)
        rep_vals = np.fromiter(reputations.values(), np.float64, len(ids))
        if ids == self._prev_rep_ids:
            rep_delta = rep_vals - self._prev_rep_vals
        else:
            prev = dict(zip(self._prev_rep_ids, self._prev_rep_vals))
            init = self.config.initial_reputation
            rep_delta = rep_vals - np.fromiter(
                (prev.get(w, init) for w in ids), np.float64, len(ids)
            )
        self._prev_rep_ids = ids
        self._prev_rep_vals = rep_vals
        if reward_vec is None:
            reward_vec = np.fromiter(rewards.values(), np.float64, len(rewards))
        positive = np.maximum(reward_vec, 0.0)
        reward_gini, reward_entropy = reward_fairness(positive, validate=False)
        gauges = (
            ("fifl.flagged_workers", float(len(flagged))),
            ("fifl.reward_gini", reward_gini),
            ("fifl.share_entropy", reward_entropy),
        )
        tele._gauges.update(gauges)
        events = [
            {"type": "metric", "kind": "gauge", "name": name, "value": value}
            for name, value in gauges
        ]
        data = {
            "round": round_idx,
            "flagged": flagged,
            "accepted": len(accepted) - len(flagged),
            "uncertain": sorted(int(w) for w in uncertain),
            "threshold": threshold,
            "scores": scores,
            "margin_min": float(margins.min()) if margins.size else None,
            "margin_max": float(margins.max()) if margins.size else None,
            "reputation_delta": {"workers": ids, "delta": rep_delta},
            "rep_min": float(rep_vals.min()) if rep_vals.size else None,
            "rep_max": float(rep_vals.max()) if rep_vals.size else None,
            "budget": self.config.budget_per_round,
            "rewards": rewards,
            "reward_gini": reward_gini,
            "share_entropy": reward_entropy,
        }
        if self.config.audit:
            # Attribution payload: absolute reputations (deltas alone cannot
            # reconstruct state bit-exactly), contribution shares, and the
            # baseline b_h, so repro.audit rebuilds the full decision lineage
            # from the trace alone.
            data["reputations"] = reputations
            data["contributions"] = contribs
            data["shares"] = shares
            data["b_h"] = b_h
            data["initial_reputation"] = self.config.initial_reputation
        events.append({"type": "fifl.round", "data": data})
        return events

    # -- queries -----------------------------------------------------------------

    def cumulative_rewards(self) -> dict[int, float]:
        """Total rewards (negative = punishments) per worker so far."""
        return dict(self._cumulative_rewards)

    def reputation_history(self, worker: int) -> list[float]:
        """Reputation trajectory for one worker."""
        return self.reputation.history(worker)

    def recommend_servers(self, m: int, exclude: set[int] | None = None) -> list[int]:
        """Top-``m`` workers by current reputation (S4.5 re-selection).

        ``exclude`` removes candidates (e.g. crashed nodes) before
        ranking; raises RuntimeError if fewer than ``m`` remain.
        """
        if m <= 0:
            raise ValueError("m must be positive")
        reps = self.reputation.reputations()
        if exclude:
            reps = {w: r for w, r in reps.items() if w not in exclude}
        if len(reps) < m:
            raise RuntimeError(
                f"only {len(reps)} eligible workers tracked, need {m}"
            )
        ranked = sorted(reps, key=lambda w: (-reps[w], w))
        return sorted(ranked[:m])
