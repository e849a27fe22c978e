"""Streaming rule engine: the invariant watchdog + anomaly detectors.

:class:`RuleEngine.process` consumes one materialized telemetry event
(v1 schema) and returns any alerts it triggers. The engine is shared
between the live :class:`~repro.monitor.Monitor` sink and the offline
``python -m repro.trace scan`` replay, so every check tolerates the
two spellings an event can arrive in:

* live (hub → sink): numpy scalars/arrays, int dict keys, tuples;
* replayed (JSONL → ``json.loads``): floats, string dict keys, lists.

Rules therefore depend only on event *content* — never on hub counters,
wall clocks or ambient state — which is the determinism contract that
makes the offline/online differential exact. Both spellings go through
bit-identical IEEE arithmetic, so detector state evolves identically.

The fifl.round path is hot (it runs inside the trainer's per-round
flush), so it is written as single passes over the event's mappings
with running aggregates — no intermediate dict rebuilds — and the
per-worker drift statistics are maintained incrementally instead of
recomputed over the cohort every round.

Rule catalogue (names appear in ``Alert.rule``):

Invariants (``fifl.round``):
  ``worker-partition``      flagged ⊆ scored, scored ∩ uncertain = ∅,
                            accepted + flagged = scored
  ``budget-conservation``   Σ positive rewards ≤ budget and
                            Σ punishments ≥ -budget (Eq. 15 bounds)
  ``reputation-bounds``     all reputations inside the configured range
  ``flagged-reputation-monotone``  a flagged worker's reputation never
                            increases that round (Eq. 10 direction)

Invariants (``sim.round`` / ledger):
  ``comm-accounting``       cumulative delivered+dropped ≤ sent, all
                            counters non-negative and monotone
  ``ledger-chain``          every commit links to a known parent block
  ``ledger-audit``          an audit report came back unclean

Anomalies:
  ``margin-collapse``       min detection margin EWMA down-drift, or
                            below the absolute adversarial floor
                            (edge-triggered: fires on the crossing and
                            re-arms once the margin recovers)
  ``reward-gini-spike``     reward Gini EWMA up-drift or above cap
                            (cap breach is edge-triggered likewise)
  ``fairness-drift``        *cumulative* positive-reward Gini (the
                            run-so-far concentration, computed exactly
                            as ``repro.audit.fairness.cumulative_gini``)
                            above the cap or EWMA up-drifting; scanned
                            every ``fairness_check_stride`` rounds
  ``slo-degraded``          windowed fraction of degraded sim rounds
                            (late/offline) above the SLO budget
  ``shard-straggler``       one parallel shard's wall time far above its
                            siblings' median in a ``parallel.round``
                            dispatch (load imbalance / a stalled pool
                            slot), gated by an absolute time floor
  ``reputation-drift``      one worker's cumulative reputation delta
                            falls ``drift_sigma`` leave-one-out cohort-σ
                            (and an absolute gap) below the mean of the
                            *other* workers; scanned every
                            ``drift_check_stride`` rounds
  ``non-finite-metric``     a metric event carries NaN/Inf
  ``round-time-degraded``   sliding-window median ``trainer.round`` span
                            wall time above ``round_time_factor x`` the
                            warmup-prefix baseline (rounds/sec SLO;
                            edge-triggered, re-arms on recovery)

Resource probes (``resource.sample`` — the :mod:`repro.perf` side
stream, routed through the monitor directly, never through the hub):
  ``rss-growth``            RSS above ``rss_growth_factor x`` the warmup
                            baseline *and* grown by an absolute floor —
                            the leak watchdog for long-lived services
  ``gc-pause``              a sampling window's longest measured GC
                            pause above the ``gc_pause_slo_s`` SLO

Invariants (``population.cohort``):
  ``cohort-coverage``       live ≤ sampled ≤ population, all counts
                            non-negative, coverage in [0, 1] and
                            non-decreasing across rounds
"""

from __future__ import annotations

import math

import numpy as np

from ..ledger.blockchain import GENESIS_HASH
from .alerts import Alert, MonitorConfig
from .detectors import EwmaDetector, RateWindow

__all__ = ["RuleEngine"]

_NO_ALERTS: tuple = ()


def _median(values: list[float]) -> float:
    """``float(np.median(values))`` by a sort: NaN when a value is NaN (or
    there is none), else the middle value or the mean of the middle two.
    A round-time window is a few entries, where numpy's per-call cost is
    most of the work."""
    if not values or any(v != v for v in values):
        return math.nan
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


class RuleEngine:
    """Stateful per-run rule evaluator (one engine per trace/run)."""

    def __init__(self, config: MonitorConfig | None = None):
        self.config = config if config is not None else MonitorConfig()
        cfg = self.config
        self._margin = EwmaDetector(
            alpha=cfg.ewma_alpha,
            z_threshold=cfg.z_threshold,
            warmup=cfg.warmup_rounds,
            min_std=cfg.min_std,
            direction="down",
        )
        self._gini = EwmaDetector(
            alpha=cfg.ewma_alpha,
            z_threshold=cfg.z_threshold,
            warmup=cfg.warmup_rounds,
            min_std=cfg.gini_min_std,
            direction="up",
        )
        self._slo = RateWindow(
            window=cfg.slo_window,
            min_count=cfg.slo_min_rounds,
            max_frac=cfg.slo_max_degraded_frac,
        )
        # cumulative reputation movement per cohort member, kept as a
        # vector aligned with the (usually stable) worker tuple so the
        # per-round update is one array add instead of a dict loop
        self._rep_workers: tuple = ()
        self._rep_raw = None  # last raw workers value, to skip renormalizing
        self._rep_cumvec = None
        self._rep_index: dict = {}
        self._rep_rounds = 0
        self._cum_gini = EwmaDetector(
            alpha=cfg.ewma_alpha,
            z_threshold=cfg.z_threshold,
            warmup=cfg.warmup_rounds,
            min_std=cfg.gini_min_std,
            direction="up",
        )
        # cumulative reward per worker, for the run-so-far fairness scan
        self._cum_reward: dict[int, float] = {}
        self._fairness_rounds = 0
        # level-alert latches: a persistently-collapsed signal fires once
        # at the crossing, not every round until it recovers
        self._margin_below = False
        self._gini_above = False
        self._cum_gini_above = False
        self._drift_fired: set[int] = set()
        # previous cumulative comm counters, for monotonicity
        self._prev_comm: dict[str, float] | None = None
        # last seen population coverage, for monotonicity
        self._prev_coverage: float | None = None
        # resource-probe state: RSS baseline over the warmup samples,
        # plus edge-trigger latches for the leak and gc-pause watchdogs
        self._rss_samples = 0
        self._rss_baseline: float | None = None
        self._rss_fired = False
        self._gc_pause_above = False
        # trainer.round wall-time state: warmup prefix -> baseline
        # median, then a bounded sliding window for the degraded median
        self._round_times: list[float] = []
        self._round_time_baseline: float | None = None
        self._round_time_fired = False
        # block hash -> index of every ledger commit seen, for linkage
        self._blocks: dict[str, int] = {GENESIS_HASH: -1}
        self._dispatch = {
            "fifl.round": self._on_fifl_round,
            "sim.round": self._on_sim_round,
            "ledger.commit": self._on_ledger_commit,
            "ledger.audit": self._on_ledger_audit,
            "population.cohort": self._on_population_cohort,
            "parallel.round": self._on_parallel_round,
            "resource.sample": self._on_resource_sample,
            "span": self._on_span,
            "metric": self._on_metric,
        }

    # -- dispatch ----------------------------------------------------------------

    def process(self, event: dict) -> list[Alert]:
        handler = self._dispatch.get(event.get("type"))
        if handler is None:
            return _NO_ALERTS  # shared empty: most events carry no rules
        return handler(event)

    # -- fifl.round --------------------------------------------------------------

    def _on_fifl_round(self, event: dict) -> list[Alert]:
        data = event.get("data") or {}
        seq = event.get("seq")
        rnd = data.get("round")
        cfg = self.config
        alerts: list[Alert] = []

        scores = data.get("scores", {})
        flagged = data.get("flagged", ())
        uncertain = data.get("uncertain", ())
        rewards = data.get("rewards", {})

        def alert(rule, kind, message, **payload):
            alerts.append(
                Alert(rule=rule, kind=kind, message=message, seq=seq,
                      round=rnd, data=payload)
            )

        # worker-partition: flagged ∪ accepted partitions the scored set,
        # and no scored worker is simultaneously an uncertain event.
        # flagged/uncertain are short lists, so membership is checked by
        # dict lookup against ``scores`` (keys are ints live, strings in
        # a replayed JSON trace — probe the spelling once).
        accepted_count = data.get("accepted")
        expect_accepted = len(scores) - len(flagged)
        # clean path: short-circuit membership checks, no list building
        ok = accepted_count is None or accepted_count == expect_accepted
        str_keys = bool(scores) and isinstance(next(iter(scores)), str)
        if ok and (flagged or uncertain):
            if scores:
                if str_keys:
                    ok = (
                        all(str(w) in scores for w in flagged)
                        and not any(str(w) in scores for w in uncertain)
                    )
                else:
                    ok = (
                        all(w in scores for w in flagged)
                        and not any(w in scores for w in uncertain)
                    )
            elif flagged:
                ok = False
        if not ok:
            if str_keys:
                bad_flagged = sorted(
                    int(w) for w in flagged if str(w) not in scores
                )
                overlap = sorted(int(w) for w in uncertain if str(w) in scores)
            else:
                bad_flagged = sorted(int(w) for w in flagged if w not in scores)
                overlap = sorted(int(w) for w in uncertain if w in scores)
            alert(
                "worker-partition", "invariant",
                f"round {rnd}: accepted/flagged/uncertain do not partition "
                f"the scored worker set",
                flagged_not_scored=bad_flagged,
                scored_and_uncertain=overlap,
                accepted=int(accepted_count) if accepted_count is not None else None,
                expected_accepted=expect_accepted,
            )

        # budget-conservation: Eq. 15 — positive shares sum to at most the
        # round budget (exactly it when every accepted worker contributes),
        # punishments are bounded by the budget in magnitude
        budget = data.get("budget")
        if budget is not None and rewards:
            budget = float(budget)
            tol = cfg.budget_tolerance * max(1.0, budget)
            pos = 0.0
            neg = 0.0
            for v in rewards.values():
                if v > 0.0:
                    pos += v
                elif v < 0.0:
                    neg += v
            if pos > budget + tol or neg < -(budget + tol):
                alert(
                    "budget-conservation", "invariant",
                    f"round {rnd}: rewards violate the budget bound "
                    f"(pos={pos:.6g}, neg={neg:.6g}, budget={budget:.6g})",
                    positive_sum=float(pos), negative_sum=float(neg),
                    budget=budget,
                )

        # reputation-bounds
        rep_min = data.get("rep_min")
        rep_max = data.get("rep_max")
        lo, hi = cfg.reputation_bounds
        rtol = cfg.reputation_tolerance
        if rep_min is not None and rep_max is not None:
            if rep_min < lo - rtol or rep_max > hi + rtol:
                alert(
                    "reputation-bounds", "invariant",
                    f"round {rnd}: reputation outside [{lo}, {hi}] "
                    f"(min={rep_min:.6g}, max={rep_max:.6g})",
                    rep_min=float(rep_min), rep_max=float(rep_max),
                    bounds=[lo, hi],
                )

        # Reputation-delta vector: one array add accumulates the cohort's
        # cumulative movement; flagged workers whose reputation *rose*
        # this round violate the Eq. 10 update direction.
        rep_delta = data.get("reputation_delta") or {}
        workers = rep_delta.get("workers", ())
        dvec = None
        if len(workers):
            dvec = np.asarray(rep_delta.get("delta", ()), dtype=np.float64)
            if workers is not self._rep_raw and workers != self._rep_raw:
                workers_t = tuple(int(w) for w in workers)
                if workers_t != self._rep_workers:
                    # cohort reshape (churn/failure): carry forward current
                    # members' movement, drop departed ones
                    old = (
                        dict(zip(self._rep_workers, self._rep_cumvec))
                        if self._rep_cumvec is not None else {}
                    )
                    self._rep_workers = workers_t
                    self._rep_cumvec = np.asarray(
                        [old.get(w, 0.0) for w in workers_t], dtype=np.float64
                    )
                    self._rep_index = {w: i for i, w in enumerate(workers_t)}
                self._rep_raw = workers
            self._rep_cumvec += dvec
            self._rep_rounds += 1
            if flagged:
                idx = self._rep_index
                grew: list[int] = []
                # flagged carries plain ints in both event spellings
                for w in flagged:
                    j = idx.get(w)
                    if j is not None and dvec[j] > rtol:
                        grew.append(int(w))
                if grew:
                    alert(
                        "flagged-reputation-monotone", "invariant",
                        f"round {rnd}: flagged worker(s) {grew} gained "
                        f"reputation",
                        workers=grew,
                        deltas={str(w): float(dvec[self._rep_index[w]])
                                for w in grew},
                    )

        # margin-collapse: absolute adversarial floor, then EWMA drift
        margin_min = data.get("margin_min")
        if margin_min is not None:
            if margin_min < cfg.margin_floor:
                if not self._margin_below:
                    self._margin_below = True
                    alert(
                        "margin-collapse", "anomaly",
                        f"round {rnd}: min detection margin {margin_min:.4f} "
                        f"below floor {cfg.margin_floor}",
                        margin_min=float(margin_min), floor=cfg.margin_floor,
                    )
            else:
                self._margin_below = False
                z = self._margin.update(margin_min)
                if z is not None:
                    alert(
                        "margin-collapse", "anomaly",
                        f"round {rnd}: min detection margin drifted down "
                        f"(z={z:.2f})",
                        margin_min=float(margin_min), z=float(z),
                    )

        # reward-gini-spike: absolute cap, then EWMA up-drift
        gini = data.get("reward_gini")
        if gini is not None:
            if gini > cfg.gini_cap:
                if not self._gini_above:
                    self._gini_above = True
                    alert(
                        "reward-gini-spike", "anomaly",
                        f"round {rnd}: reward Gini {gini:.4f} above cap "
                        f"{cfg.gini_cap}",
                        reward_gini=float(gini), cap=cfg.gini_cap,
                    )
            else:
                self._gini_above = False
                z = self._gini.update(gini)
                if z is not None:
                    alert(
                        "reward-gini-spike", "anomaly",
                        f"round {rnd}: reward Gini spiked (z={z:.2f})",
                        reward_gini=float(gini), z=float(z),
                    )

        # fairness-drift: the cumulative positive-reward Gini across the
        # whole run so far — the quantity FIFL's fairness claim is about.
        # Per-round Gini is noisy (reward-gini-spike covers spikes);
        # sustained concentration of the *cumulative* pot is the drift
        # signal. Per-worker-keyed accumulation, so live int keys and
        # replayed string keys fold to bit-identical state. Imported
        # lazily: audit pulls in the service layer, which imports this
        # package.
        if rewards:
            cum = self._cum_reward
            for w, v in rewards.items():
                k = int(w)
                cum[k] = cum.get(k, 0.0) + float(v)
            self._fairness_rounds += 1
            if (
                self._fairness_rounds >= cfg.warmup_rounds
                and self._fairness_rounds % cfg.fairness_check_stride == 0
                and len(cum) >= 2
            ):
                from ..audit.fairness import cumulative_gini

                cgini = cumulative_gini(cum)
                if cgini > cfg.cumulative_gini_cap:
                    if not self._cum_gini_above:
                        self._cum_gini_above = True
                        alert(
                            "fairness-drift", "anomaly",
                            f"round {rnd}: cumulative reward Gini "
                            f"{cgini:.4f} above cap "
                            f"{cfg.cumulative_gini_cap}",
                            cumulative_gini=float(cgini),
                            cap=cfg.cumulative_gini_cap,
                        )
                else:
                    self._cum_gini_above = False
                    z = self._cum_gini.update(cgini)
                    if z is not None:
                        alert(
                            "fairness-drift", "anomaly",
                            f"round {rnd}: cumulative reward Gini drifted "
                            f"up (z={z:.2f}, gini={cgini:.4f})",
                            cumulative_gini=float(cgini), z=float(z),
                        )

        # reputation-drift: any worker whose cumulative movement sits both
        # an absolute gap and drift_sigma leave-one-out cohort-σ below the
        # mean of the *other* workers. Leave-one-out matters: a single
        # drifter in a cohort of n can sit at most sqrt(n-1) plain-cohort
        # σ below the plain-cohort mean (it drags both estimates toward
        # itself), so small federations could never trip a whole-cohort
        # z-test. Everything is vectorized from one sum and one dot.
        cumvec = self._rep_cumvec
        if (
            cumvec is not None
            and self._rep_rounds >= cfg.warmup_rounds
            and self._rep_rounds % cfg.drift_check_stride == 0
            and cumvec.size >= 3
        ):
            n = cumvec.size
            total = float(cumvec.sum())
            sumsq = float(np.dot(cumvec, cumvec))
            mean_others = (total - cumvec) / (n - 1)
            var_others = (
                (sumsq - cumvec * cumvec) / (n - 1) - mean_others * mean_others
            )
            std_others = np.sqrt(np.maximum(var_others, 0.0))
            thr = mean_others - np.maximum(
                cfg.drift_min_gap, cfg.drift_sigma * std_others
            )
            low = np.nonzero(cumvec < thr)[0]
            if low.size:
                fired = self._drift_fired
                rep_workers = self._rep_workers
                for j in low:
                    w = rep_workers[j]
                    if w in fired:
                        continue
                    fired.add(w)
                    gap = float(mean_others[j]) - float(cumvec[j])
                    alert(
                        "reputation-drift", "anomaly",
                        f"round {rnd}: worker {w} reputation drifted "
                        f"{gap:.4f} below the rest of the cohort",
                        worker=int(w), gap=gap,
                        cohort_mean=float(mean_others[j]),
                        cohort_std=float(std_others[j]),
                    )
        return alerts

    # -- sim.round ---------------------------------------------------------------

    def _on_sim_round(self, event: dict) -> list[Alert]:
        data = event.get("data") or {}
        seq = event.get("seq")
        rnd = data.get("round")
        alerts: list[Alert] = []

        comm = data.get("comm")
        if comm is not None:
            sent = float(comm.get("messages_sent", 0))
            delivered = float(comm.get("delivered", 0))
            dropped = float(comm.get("dropped", 0))
            nbytes = float(comm.get("bytes_sent", 0))
            tol = self.config.comm_tolerance
            problems = []
            if min(sent, delivered, dropped, nbytes) < 0:
                problems.append("negative counter")
            if delivered + dropped > sent + tol:
                problems.append("delivered+dropped exceeds messages_sent")
            prev = self._prev_comm
            if prev is not None and (
                sent < prev["sent"] - tol
                or delivered < prev["delivered"] - tol
                or dropped < prev["dropped"] - tol
                or nbytes < prev["bytes"] - tol
            ):
                problems.append("cumulative counter decreased")
            self._prev_comm = {
                "sent": sent, "delivered": delivered,
                "dropped": dropped, "bytes": nbytes,
            }
            if problems:
                alerts.append(Alert(
                    rule="comm-accounting", kind="invariant",
                    message=f"round {rnd}: comm byte-accounting inconsistent "
                            f"({'; '.join(problems)})",
                    seq=seq, round=rnd,
                    data={"comm": {"messages_sent": sent,
                                   "delivered": delivered,
                                   "dropped": dropped,
                                   "bytes_sent": nbytes},
                          "problems": problems},
                ))

        degraded = bool(data.get("late")) or bool(data.get("offline"))
        frac = self._slo.update(degraded)
        if frac is not None:
            alerts.append(Alert(
                rule="slo-degraded", kind="anomaly",
                message=f"round {rnd}: {frac:.0%} of recent sim rounds "
                        f"degraded (late/offline uploads), SLO is "
                        f"{self.config.slo_max_degraded_frac:.0%}",
                seq=seq, round=rnd,
                data={"degraded_frac": frac,
                      "slo": self.config.slo_max_degraded_frac,
                      "window": self._slo.window},
            ))
        return alerts

    # -- ledger ------------------------------------------------------------------

    def _on_ledger_commit(self, event: dict) -> list[Alert]:
        data = event.get("data", {})
        index = int(data.get("index", -1))
        prev_hash = data.get("prev_hash")
        block_hash = data.get("hash")
        alerts: list[Alert] = []
        parent_index = self._blocks.get(prev_hash)
        if parent_index is None or parent_index != index - 1:
            alerts.append(Alert(
                rule="ledger-chain", kind="invariant",
                message=f"block {index}: prev_hash does not link to a "
                        f"known block at index {index - 1}",
                seq=event.get("seq"), round=data.get("round"),
                data={"index": index, "prev_hash": prev_hash,
                      "parent_index": parent_index},
            ))
        if block_hash:
            self._blocks[block_hash] = index
        return alerts

    def _on_ledger_audit(self, event: dict) -> list[Alert]:
        data = event.get("data", {})
        if data.get("clean", True):
            return []
        findings = list(data.get("findings", []))
        return [Alert(
            rule="ledger-audit", kind="invariant",
            message=f"audit of worker {data.get('worker')} unclean: "
                    f"{len(findings)} finding(s), chain_intact="
                    f"{data.get('chain_intact')}",
            seq=event.get("seq"), round=None,
            data={"worker": data.get("worker"),
                  "chain_intact": data.get("chain_intact"),
                  "findings": findings,
                  "rounds_checked": data.get("rounds_checked")},
        )]

    # -- population.cohort -------------------------------------------------------

    def _on_population_cohort(self, event: dict) -> list[Alert]:
        data = event.get("data") or {}
        rnd = data.get("round")
        pop = float(data.get("population_size", 0))
        sampled = float(data.get("sampled", 0))
        live = float(data.get("live", 0))
        coverage = data.get("coverage")
        problems: list[str] = []
        if min(pop, sampled, live) < 0:
            problems.append("negative count")
        if live > sampled:
            problems.append("live cohort exceeds sampled cohort")
        if sampled > pop:
            problems.append("sampled cohort exceeds population")
        if coverage is not None:
            coverage = float(coverage)
            if not 0.0 <= coverage <= 1.0:
                problems.append("coverage outside [0, 1]")
            prev = self._prev_coverage
            # coverage counts distinct workers ever sampled: it can only grow
            if prev is not None and coverage < prev - 1e-12:
                problems.append("coverage decreased")
            self._prev_coverage = coverage
        if not problems:
            return _NO_ALERTS
        return [Alert(
            rule="cohort-coverage", kind="invariant",
            message=f"round {rnd}: cohort accounting inconsistent "
                    f"({'; '.join(problems)})",
            seq=event.get("seq"), round=rnd,
            data={"population_size": pop, "sampled": sampled,
                  "live": live, "coverage": coverage,
                  "problems": problems},
        )]

    # -- parallel.round ----------------------------------------------------------

    def _on_parallel_round(self, event: dict) -> list[Alert]:
        """One shard running far longer than its dispatch siblings.

        Pure function of the event's own shard-time list (no cross-round
        state): a shard is a straggler when it exceeds ``factor x`` the
        dispatch median *and* an absolute floor — tiny dispatches see
        orders-of-magnitude scheduler jitter that means nothing.
        """
        data = event.get("data") or {}
        cfg = self.config
        max_s = data.get("max_shard_s")
        median_s = data.get("median_shard_s")
        if max_s is None or median_s is None:
            return _NO_ALERTS
        max_s = float(max_s)
        median_s = float(median_s)
        if max_s < cfg.shard_straggler_min_s:
            return _NO_ALERTS
        if max_s <= cfg.shard_straggler_factor * median_s:
            return _NO_ALERTS
        shard_s = [float(s) for s in data.get("shard_s", ())]
        worst = shard_s.index(max_s) if max_s in shard_s else None
        return [Alert(
            rule="shard-straggler", kind="anomaly",
            message=f"{data.get('phase')}: shard {worst} took {max_s:.3f}s, "
                    f"{max_s / median_s if median_s > 0 else float('inf'):.1f}x "
                    f"the dispatch median ({median_s:.3f}s) on backend "
                    f"{data.get('backend')!r}",
            seq=event.get("seq"), round=None,
            data={"phase": data.get("phase"),
                  "backend": data.get("backend"),
                  "pool_size": data.get("pool_size"),
                  "shard": worst,
                  "max_shard_s": max_s,
                  "median_shard_s": median_s,
                  "factor": cfg.shard_straggler_factor},
        )]

    # -- resource.sample (repro.perf side stream) --------------------------------

    def _on_resource_sample(self, event: dict) -> list[Alert]:
        """RSS leak watchdog + GC-pause SLO over probe samples.

        Samples arrive via :meth:`Monitor.observe_resource`, never via
        the hub, so these rules exist without perturbing seeded traces.
        The RSS baseline is the minimum over the first
        ``rss_warmup_samples`` samples (allocator warmup inflates early
        readings); both rules are edge-triggered latches that re-arm on
        recovery, matching the margin/gini level alerts.
        """
        data = event.get("data") or {}
        cfg = self.config
        rnd = data.get("round")
        seq = event.get("seq")
        alerts: list[Alert] = []

        rss = data.get("rss_bytes")
        if rss is not None and rss > 0:
            rss = float(rss)
            if self._rss_samples < cfg.rss_warmup_samples:
                self._rss_samples += 1
                base = self._rss_baseline
                self._rss_baseline = rss if base is None else min(base, rss)
            else:
                base = self._rss_baseline
                leaking = (
                    rss > cfg.rss_growth_factor * base
                    and rss - base > cfg.rss_growth_min_bytes
                )
                if leaking and not self._rss_fired:
                    self._rss_fired = True
                    alerts.append(Alert(
                        rule="rss-growth", kind="anomaly",
                        message=f"round {rnd}: RSS {rss / 2**20:.0f} MiB is "
                                f"{rss / base:.1f}x the warmup baseline "
                                f"({base / 2**20:.0f} MiB) — possible leak",
                        seq=seq, round=rnd,
                        data={"rss_bytes": rss, "baseline_bytes": base,
                              "factor": cfg.rss_growth_factor,
                              "min_growth_bytes": cfg.rss_growth_min_bytes},
                    ))
                elif not leaking:
                    self._rss_fired = False

        pause = data.get("gc_pause_max_s")
        if pause is not None:
            pause = float(pause)
            if pause > cfg.gc_pause_slo_s:
                if not self._gc_pause_above:
                    self._gc_pause_above = True
                    alerts.append(Alert(
                        rule="gc-pause", kind="anomaly",
                        message=f"round {rnd}: longest GC pause "
                                f"{pause * 1e3:.1f} ms exceeds the "
                                f"{cfg.gc_pause_slo_s * 1e3:.0f} ms SLO",
                        seq=seq, round=rnd,
                        data={"gc_pause_max_s": pause,
                              "slo_s": cfg.gc_pause_slo_s},
                    ))
            else:
                self._gc_pause_above = False
        return alerts if alerts else _NO_ALERTS

    # -- span --------------------------------------------------------------------

    def _on_span(self, event: dict) -> list[Alert]:
        """Rounds/sec degradation over ``trainer.round`` span wall times.

        Baseline = median of the first ``round_time_warmup`` round
        durations; alert (latched) when the sliding-window median
        exceeds ``round_time_factor x`` that baseline and the absolute
        floor. Spans carry durations, not timestamps, so this is a pure
        function of the stream — replays reproduce it exactly.
        """
        if event.get("name") != "trainer.round":
            return _NO_ALERTS
        dur = event.get("dur_s")
        if dur is None:
            return _NO_ALERTS
        cfg = self.config
        times = self._round_times
        times.append(float(dur))
        if self._round_time_baseline is None:
            if len(times) < cfg.round_time_warmup:
                return _NO_ALERTS
            self._round_time_baseline = _median(times)
            del times[:]
            return _NO_ALERTS
        if len(times) > cfg.round_time_window:
            del times[0]
        if len(times) < cfg.round_time_window:
            return _NO_ALERTS
        win_med = _median(times)
        base = self._round_time_baseline
        degraded = (
            win_med > cfg.round_time_factor * base
            and win_med > cfg.round_time_min_s
        )
        if not degraded:
            self._round_time_fired = False
            return _NO_ALERTS
        if self._round_time_fired:
            return _NO_ALERTS
        self._round_time_fired = True
        attrs = event.get("attrs") or {}
        return [Alert(
            rule="round-time-degraded", kind="anomaly",
            message=f"median round wall time {win_med * 1e3:.1f} ms over the "
                    f"last {cfg.round_time_window} rounds is "
                    f"{win_med / base:.1f}x the warmup baseline "
                    f"({base * 1e3:.1f} ms)",
            seq=event.get("seq"), round=attrs.get("round"),
            data={"window_median_s": win_med, "baseline_s": base,
                  "factor": cfg.round_time_factor,
                  "window": cfg.round_time_window},
        )]

    # -- metric ------------------------------------------------------------------

    def _on_metric(self, event: dict) -> list[Alert]:
        value = event.get("value")
        if value is None or math.isfinite(value):
            return _NO_ALERTS
        return [Alert(
            rule="non-finite-metric", kind="invariant",
            message=f"metric {event.get('name')!r} is non-finite",
            seq=event.get("seq"), round=None,
            data={"name": event.get("name"), "value": repr(value)},
        )]
