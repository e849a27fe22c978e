"""Per-worker reference FIFL pipeline: the oracle for the round engine.

:class:`repro.core.FIFLMechanism` runs every phase of the round (Eq.
5-15) as batched kernels over one ``(N, D)`` gradient matrix. This
module keeps the literal per-worker form of the same pipeline — dicts
keyed by worker id, one score / distance / share at a time — so the
differential tests in ``tests/core/test_engine.py`` can check the
kernels against an implementation that shares none of their array
code. The two agree to 1e-8 on every per-round output.

:class:`ReferenceFIFL` reuses only the mechanism's bookkeeping (records,
ledger, telemetry); detection, reputation, aggregation, contribution and
reward arithmetic are the dict-form functions and classes below. The
reputation oracle (:class:`ScalarDecay`, :class:`ScalarSLM`) is the
literal per-worker Eq. 8-10 that ``repro.core.reputation``'s table
must match bit for bit.
Uploads arrive screened by the trainer's admission rule: a non-finite
upload is in ``ctx.rejected``, not in ``ctx.slices``, and is recorded
as a rejection scored ``NON_FINITE_SCORE``. The oracle tests the
servers' own gradients for finiteness itself, so it still shares no
array code with the engine.
"""

from __future__ import annotations

import numpy as np

from repro.core import DetectionConfig, FIFLMechanism
from repro.core.contribution import gradient_distance, zero_baseline
from repro.core.fifl import NON_FINITE_SCORE
from repro.fl.gradients import fedavg, recombine, split_gradient
from repro.fl.trainer import RoundContext, RoundDecision

_MODES = ("raw", "cosine")


# -- detection (Eq. 5-7) --------------------------------------------------------


def server_score(
    benchmark: np.ndarray, candidate: np.ndarray, mode: str = "cosine"
) -> float:
    """One server's detection score ``S_i^j`` for a worker slice (Eq. 6)."""
    benchmark = np.asarray(benchmark, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    if benchmark.shape != candidate.shape:
        raise ValueError(
            f"slice shapes differ: {benchmark.shape} vs {candidate.shape}"
        )
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    inner = float(benchmark @ candidate)
    if mode == "raw":
        return inner
    denom = float(np.linalg.norm(benchmark) * np.linalg.norm(candidate))
    if denom == 0.0:
        # A zero slice carries no direction; it is neither aligned nor
        # opposed to the benchmark.
        return 0.0
    return inner / denom


def detection_scores(
    slices: dict[int, dict[int, np.ndarray]],
    benchmarks: dict[int, np.ndarray],
    mode: str = "cosine",
) -> dict[int, float]:
    """Global scores ``S_i = sum_j S_i^j`` for every worker (Eq. 6).

    Parameters
    ----------
    slices : ``worker_id -> {server_rank: slice}`` as delivered this round.
    benchmarks : ``server_rank -> benchmark slice`` (the server's own
        local gradient slice ``g_j^j``).
    mode : score mode; in ``"cosine"`` mode the per-server scores are
        averaged instead of summed so the global score stays in [-1, 1]
        regardless of the number of servers.
    """
    if not benchmarks:
        raise ValueError("need at least one server benchmark")
    scores: dict[int, float] = {}
    m = len(benchmarks)
    for wid, parts in slices.items():
        total = 0.0
        counted = 0
        for srv, bench in benchmarks.items():
            if srv not in parts:
                continue
            if srv == wid and m > 1:
                # A server never scores itself: its benchmark *is* its own
                # slice (cosine exactly 1), which would let a malicious
                # server vote itself honest. Peer servers score it instead;
                # only the degenerate single-server case keeps self-scoring
                # (the paper's M = 1 centralized setup trusts that server).
                continue
            total += server_score(bench, parts[srv], mode)
            counted += 1
        if counted == 0:
            raise ValueError(f"worker {wid} delivered no slices to any server")
        if mode == "cosine":
            scores[wid] = total / counted
        else:
            # Raw scores over missing slices cannot be imputed; scale up
            # so partial delivery is comparable to full delivery.
            scores[wid] = total * (m / counted)
    return scores


def classify(scores: dict[int, float], threshold: float) -> dict[int, bool]:
    """Eq. 7: ``r_i = 1`` (honest) iff ``S_i >= S_y``."""
    return {wid: s >= threshold for wid, s in scores.items()}


class AttackDetector:
    """Stateless detector bundling scoring + thresholding for one config."""

    def __init__(self, config: DetectionConfig | None = None):
        self.config = config if config is not None else DetectionConfig()

    def detect(
        self,
        slices: dict[int, dict[int, np.ndarray]],
        benchmarks: dict[int, np.ndarray],
    ) -> tuple[dict[int, float], dict[int, bool]]:
        """Return ``(scores, r)`` for the delivered slices."""
        scores = detection_scores(slices, benchmarks, self.config.mode)
        return scores, classify(scores, self.config.threshold)


# -- reputation (Eq. 8-10) --------------------------------------------------


class ScalarDecay:
    """Eq. 10 one event at a time: ``R <- (1-γ)R + γ r`` per worker.

    Uncertain events (None) leave the estimate unchanged and do not
    start tracking a worker.
    """

    def __init__(self, gamma: float = 0.1, initial: float = 0.0):
        self.gamma = gamma
        self.initial = initial
        self.values: dict[int, float] = {}

    def update(self, worker: int, outcome: bool | None) -> float:
        current = self.values.get(worker, self.initial)
        if outcome is not None:
            current = (1.0 - self.gamma) * current + self.gamma * float(outcome)
            self.values[worker] = current
        return current

    def reputation(self, worker: int) -> float:
        return self.values.get(worker, self.initial)

    def reputations(self) -> dict[int, float]:
        return dict(self.values)


class ScalarSLM:
    """Per-period subjective-logic reputation (Eq. 8-9) from count dicts."""

    def __init__(self, alpha_t=1.0, alpha_n=1.0, alpha_u=1.0):
        self.alphas = (alpha_t, alpha_n, alpha_u)
        self.positives: dict[int, int] = {}
        self.negatives: dict[int, int] = {}
        self.uncertains: dict[int, int] = {}

    def record(self, worker: int, outcome: bool | None) -> None:
        if outcome is None:
            self.uncertains[worker] = self.uncertains.get(worker, 0) + 1
        elif outcome:
            self.positives[worker] = self.positives.get(worker, 0) + 1
        else:
            self.negatives[worker] = self.negatives.get(worker, 0) + 1

    def counts(self, worker: int) -> tuple[int, int, int]:
        return (
            self.positives.get(worker, 0),
            self.negatives.get(worker, 0),
            self.uncertains.get(worker, 0),
        )

    def trust_scores(self, worker: int) -> tuple[float, float, float]:
        pt, pn, pu = self.counts(worker)
        total = pt + pn + pu
        su = pu / total if total else 0.0
        if pt + pn == 0:
            return 0.0, 0.0, su
        st = (1.0 - su) * pt / (pt + pn)
        sn = (1.0 - su) * pn / (pt + pn)
        return st, sn, su

    def reputation(self, worker: int) -> float:
        st, sn, su = self.trust_scores(worker)
        a_t, a_n, a_u = self.alphas
        return a_t * st - a_n * sn - a_u * su

    def reset_period(self) -> None:
        self.positives.clear()
        self.negatives.clear()
        self.uncertains.clear()


# -- contribution (Eq. 13-14) ------------------------------------------------


def sliced_distance(
    global_slices: dict[int, np.ndarray], worker_slices: dict[int, np.ndarray]
) -> float:
    """Eq. 13 as computed in the polycentric protocol: per-server distances
    summed over servers. Because slices partition the vector, this equals
    :func:`gradient_distance` on the recombined vectors exactly."""
    if set(global_slices) != set(worker_slices):
        raise ValueError("global and worker slices cover different servers")
    if not global_slices:
        raise ValueError("no slices")
    return sum(
        gradient_distance(global_slices[j], worker_slices[j]) for j in global_slices
    )



def reference_baseline(global_grad: np.ndarray, reference_grad: np.ndarray) -> float:
    """``b_h`` against a designated reference worker's gradient."""
    return gradient_distance(global_grad, reference_grad)



def contributions(distances: dict[int, float], b_h: float) -> dict[int, float]:
    """Eq. 14: ``C_i = 1 - b_i / b_h`` for every worker.

    Positive when the worker beats the baseline distance, negative when it
    is worse (free-riders and low-quality workers).
    """
    if b_h <= 0.0:
        raise ValueError(f"baseline distance b_h must be positive, got {b_h}")
    for wid, b in distances.items():
        if b < 0.0:
            raise ValueError(f"negative distance for worker {wid}")
    return {wid: 1.0 - b / b_h for wid, b in distances.items()}



def normalized_shares(contribs: dict[int, float]) -> dict[int, float]:
    """``C_i / sum_{C_j > 0} C_j`` — the contribution weight in Eq. 15.

    Negative contributions keep their sign (they become punishments);
    positive ones sum to exactly 1. If no contribution is positive every
    share is 0 (nothing to distribute this round).
    """
    positive_total = sum(c for c in contribs.values() if c > 0.0)
    if positive_total <= 0.0:
        return {wid: 0.0 for wid in contribs}
    return {wid: c / positive_total for wid, c in contribs.items()}


# -- incentive (Eq. 15) ------------------------------------------------------


def reward_shares(
    reputations: dict[int, float],
    contribs: dict[int, float],
    punish_mode: str = "contribution",
) -> dict[int, float]:
    """Eq. 15: ``I_i = R_i * C_i / sum_{C_j>0} C_j`` for rewards.

    Punishments (negative ``C_i``) are ambiguous in the paper: applied
    literally, Eq. 15 multiplies the negative share by the attacker's
    reputation, so a persistent attacker whose reputation has decayed to 0
    escapes punishment entirely — contradicting Figures 13-14, where
    punishment magnitude tracks attack intensity. Two modes:

    * ``"contribution"`` (default, matches the figures) — punishment is
      the worker's negative contribution normalized by the round's *total
      absolute* contribution, independent of reputation. This keeps each
      punishment bounded by the round budget (Eq. 15's ``ΣC⁺``
      denominator can be arbitrarily small, which would make a single
      round's punishment unbounded) while preserving the ordering by
      attack severity.
    * ``"eq15"`` — the literal formula, reputation-scaled both ways and
      ``ΣC⁺``-normalized.
    """
    if set(reputations) != set(contribs):
        raise ValueError("reputation and contribution cover different workers")
    if punish_mode not in ("contribution", "eq15"):
        raise ValueError(f"unknown punish_mode {punish_mode!r}")
    shares = normalized_shares(contribs)
    abs_total = sum(abs(c) for c in contribs.values())
    out: dict[int, float] = {}
    for wid, share in shares.items():
        if share >= 0.0 or punish_mode == "eq15":
            out[wid] = reputations[wid] * share
        else:
            out[wid] = contribs[wid] / abs_total if abs_total > 0 else 0.0
    return out


def allocate_rewards(
    shares: dict[int, float], total_budget: float
) -> dict[int, float]:
    """Scale shares by the round budget ``I_sum`` (Eq. 18's budget)."""
    if total_budget < 0:
        raise ValueError("budget must be non-negative")
    return {wid: s * total_budget for wid, s in shares.items()}


# -- the per-worker pipeline -----------------------------------------------------


def _finite(grad: np.ndarray) -> bool:
    grad = np.asarray(grad, dtype=np.float64)
    return bool(np.isfinite(grad @ grad))


def _filtered_global_gradient(
    ctx: RoundContext, workers: list[int], keep: dict[int, bool]
) -> np.ndarray | None:
    """Aggregate the kept slices into G̃ exactly as the trainer does."""
    kept = [w for w in workers if keep.get(w, False)]
    if not kept:
        return None
    counts = dict(zip(ctx.worker_ids.tolist(), ctx.sample_counts.tolist()))
    weights = [counts[w] for w in kept]
    return recombine([
        fedavg([ctx.slices[w][srv] for w in kept], weights)
        for srv in ctx.server_ranks
    ])


class ReferenceFIFL(FIFLMechanism):
    """FIFL with the dict-form, worker-by-worker round pipeline."""

    def __init__(self, config=None, ledger=None, profiler=None):
        super().__init__(config, ledger=ledger, profiler=profiler)
        self.reputation = ScalarDecay(
            self.config.gamma, self.config.initial_reputation
        )
        self.slm = ScalarSLM(*self.config.slm_alphas)

    def _reference_reputations(
        self, ctx: RoundContext, accepted: dict[int, bool]
    ) -> dict[int, float]:
        """Eq. 10 (or Eq. 8-9 in slm mode) worker by worker."""
        outcomes: dict[int, bool | None] = dict(accepted)
        for w in ctx.uncertain:
            outcomes[w] = None
        decayed = {w: self.reputation.update(w, o) for w, o in outcomes.items()}
        self._rounds_seen += 1
        cfg = self.config
        if cfg.reputation_mode != "slm":
            return decayed
        for w, outcome in outcomes.items():
            self.slm.record(w, outcome)
        reputations = {w: self.slm.reputation(w) for w in outcomes}
        if self._rounds_seen % cfg.slm_period == 0:
            self.slm.reset_period()
        return reputations

    def process_round(self, ctx: RoundContext) -> RoundDecision:
        cfg = self.config
        m = len(ctx.server_ranks)
        live = sorted(ctx.slices)
        full = {
            w: recombine([ctx.slices[w][srv] for srv in ctx.server_ranks])
            for w in live
        }
        recorded = sorted(set(live) | ctx.rejected)

        # 1) detection: each server's own slice g_j^j is its benchmark
        benchmarks = {}
        for j, srv in enumerate(ctx.server_ranks):
            upd = ctx.updates.get(srv)
            if upd is not None and _finite(upd.gradient):
                benchmarks[srv] = split_gradient(upd.gradient, m)[j]
        if not benchmarks:
            raise RuntimeError(
                "no server produced a finite local gradient; cannot detect"
            )
        live_scores, live_accepted = AttackDetector(cfg.detection).detect(
            {w: ctx.slices[w] for w in live}, benchmarks
        )
        scores = {w: live_scores.get(w, NON_FINITE_SCORE) for w in recorded}
        accepted = {w: live_accepted.get(w, False) for w in recorded}

        # 2) reputation
        reputations = self._reference_reputations(ctx, accepted)

        # 3) contributions against the filtered global gradient
        distances: dict[int, float] = {}
        contribs: dict[int, float] = {}
        b_h: float | None = None
        global_grad = _filtered_global_gradient(ctx, live, accepted)
        if global_grad is not None:
            live_grads = {w: full[w] for w in live}
            reference_grad = global_grad
            if cfg.contribution_reference == "server_mean":
                own = [
                    ctx.updates[srv].gradient
                    for srv in ctx.server_ranks
                    if srv in ctx.updates and _finite(ctx.updates[srv].gradient)
                ]
                if own:
                    reference_grad = np.mean(own, axis=0)
            distances, b_h, contribs = self._score(reference_grad, live_grads)
            if (
                cfg.contribution_filter
                and cfg.contribution_reference == "aggregate"
                and any(c < 0.0 for c in contribs.values())
            ):
                keep = {w: accepted[w] and contribs[w] >= 0.0 for w in live}
                cleaned = _filtered_global_gradient(ctx, live, keep)
                if cleaned is not None:
                    distances, b_h, contribs = self._score(cleaned, live_grads)

        # 4) incentive
        shares: dict[int, float] = {}
        if contribs:
            shares = reward_shares(
                {w: reputations[w] for w in contribs},
                contribs,
                punish_mode=cfg.punish_mode,
            )
        rewards = allocate_rewards(shares, cfg.budget_per_round)
        return self._finalize(
            ctx, scores, accepted, reputations, distances, b_h,
            contribs, shares, rewards,
            np.fromiter(live_scores.values(), np.float64, len(live_scores)),
        )

    def _score(
        self, global_grad: np.ndarray, grads: dict[int, np.ndarray]
    ) -> tuple[dict[int, float], float | None, dict[int, float]]:
        """Distances, baseline b_h and contributions against one G̃."""
        distances = {w: gradient_distance(global_grad, g) for w, g in grads.items()}
        ref = self.config.reference_worker
        if self.config.contribution_baseline == "reference" and ref in grads:
            b_h = reference_baseline(global_grad, grads[ref])
        else:
            b_h = zero_baseline(global_grad)
        if b_h > 0.0:
            return distances, b_h, contributions(distances, b_h)
        return distances, None, {w: 0.0 for w in distances}


def item_dict(worker_ids, values) -> dict:
    """``RoundBatch.to_dict`` as it once was: one ``item()`` per element."""
    return {
        int(w): v.item() if isinstance(v, np.generic) else v
        for w, v in zip(worker_ids, np.asarray(values))
    }
