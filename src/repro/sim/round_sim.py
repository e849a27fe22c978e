"""Event-scheduled round execution for the federated trainer.

:class:`SimRoundRunner` owns the trainer's :class:`~repro.sim.Simulator`
and drives one communication round on the virtual clock:

1. **round start** — apply the scenario's churn schedule (join/leave,
   which is also worker/server crash + restart), install this round's
   link partitions, and draw the round's stragglers from the
   simulator's seeded stream over the round's cohort; the trainer then
   takes offline nodes down with the same node-level outage as a
   crashed node (:meth:`~repro.comm.Network.set_down_nodes`);
2. **upload** — each online worker becomes a process-style actor that
   fires at ``t0 + compute_time`` and sends its gradient slices; a
   dropped send is retried up to ``max_retries`` times with exponential
   backoff; each successful send arrives after its sampled latency;
3. **collection** — the server cluster drains arrivals in event order
   and closes the round when every slice has resolved (delivered or
   abandoned) or at the deadline ``t0 + round_timeout_s``, whichever
   comes first. Late or missing slices make that worker's round an
   *uncertain event* — exactly the reputation path instantaneous drops
   already take (S4.2), so SLM reputation and rewards respond to
   realistic failures with no mechanism changes.

The zero-fault, zero-latency scenario runs the same machinery (events,
virtual clock, collection loop) but makes exactly the same RNG draws in
exactly the same order as the direct loop — differential-tested to
reproduce ``FederatedTrainer`` histories bit-for-bit, and benchmarked
to stay within 5% of the direct loop (``benchmarks/bench_sim.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..fl.gradients import split_views
from .faults import FaultScenario
from .kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from ..fl.trainer import FederatedTrainer
    from ..fl.workers import WorkerUpdate

__all__ = ["SimRoundRunner"]

#: bucket edges (virtual seconds) for the sim.latency histogram
_LATENCY_EDGES = (
    0.0, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 60.0,
)


@dataclass
class _RoundState:
    """Mutable per-round collection state shared with upload actors."""

    tag: str
    closed: bool = False
    retries: int = 0
    #: slices that will never arrive (drop budget exhausted)
    abandoned: set[tuple[int, int]] = field(default_factory=set)


@dataclass(frozen=True)
class _RoundPlan:
    """What :meth:`SimRoundRunner.begin_round` decided for one round."""

    offline: frozenset[int]
    stragglers: tuple[int, ...]
    compute_s: dict[int, float]


_NULL_PLAN = _RoundPlan(offline=frozenset(), stragglers=(), compute_s={})


class SimRoundRunner:
    """Drives fault-scenario rounds for one :class:`FederatedTrainer`."""

    def __init__(self, trainer: "FederatedTrainer", scenario: FaultScenario):
        self.trainer = trainer
        self.scenario = scenario
        # The network schedules its deliveries on the same simulator the
        # runner drives — one event heap for the whole round. Its seeded
        # rng feeds the fault processes (stragglers, compute-time models),
        # independent of the network's drop and latency streams, so
        # adding faults never reshuffles other randomness.
        self.sim: Simulator = trainer.network.sim
        self.offline: set[int] = set()
        trainer.profiler.register_histogram("sim.latency", _LATENCY_EDGES)

    # -- round boundary --------------------------------------------------------

    def begin_round(self, round_idx: int, cohort) -> _RoundPlan:
        """Apply churn/partitions and draw this round's timing plan.

        ``cohort`` is the round's workers in ascending id order (failed
        nodes already gone); plan draws run over its online members.
        """
        scenario = self.scenario
        if scenario.is_null and all(
            getattr(w, "compute_time", None) is None for w in cohort
        ):
            # nothing to apply and nothing to draw
            return _NULL_PLAN
        trainer = self.trainer
        for wid, action in scenario.churn_at(round_idx):
            if not 0 <= wid < trainer.num_workers:
                raise ValueError(f"churn rank {wid} outside the federation")
            if action == "leave":
                self.offline.add(wid)
            else:
                self.offline.discard(wid)
        trainer.network.set_blocked_links(
            scenario.partition_links(round_idx, trainer.num_workers)
        )

        rng = self.sim.rng
        rate = scenario.straggler_rate
        stragglers: list[int] = []
        compute_s: dict[int, float] = {}
        for worker in cohort:
            wid = worker.worker_id
            if wid in self.offline:
                continue
            base = worker.local_compute_seconds(round_idx, rng)
            if base is None:
                base = scenario.base_compute_s
            if rate > 0.0 and rng.random() < rate:
                base *= scenario.straggler_slowdown
                stragglers.append(wid)
            compute_s[wid] = float(base)
        return _RoundPlan(
            offline=frozenset(self.offline),
            stragglers=tuple(stragglers),
            compute_s=compute_s,
        )

    # -- upload + collection ---------------------------------------------------

    def _upload_proc(
        self,
        wid: int,
        parts: list[np.ndarray],
        servers: list[int],
        state: _RoundState,
    ):
        """Actor: send every slice, retrying dropped sends with backoff."""
        net = self.trainer.network
        scenario = self.scenario
        pending = list(enumerate(servers))
        attempt = 0
        while True:
            failed = [
                (j, srv)
                for j, srv in pending
                if not net.send(wid, srv, state.tag, (j, parts[j]))
            ]
            if not failed:
                return
            if attempt >= scenario.max_retries:
                for _, srv in failed:
                    state.abandoned.add((wid, srv))
                return
            yield scenario.retry_delay(attempt)
            attempt += 1
            if state.closed:
                return  # the round deadline passed while backing off
            state.retries += len(failed)
            pending = failed

    def collect(
        self,
        updates: dict[int, "WorkerUpdate"],
        round_idx: int,
        plan: _RoundPlan,
    ) -> tuple[list[int], set[int], dict]:
        """Run the round's upload/collection on the virtual clock.

        ``updates`` iterate in the same order the direct path sends —
        with zero faults the event schedule replays exactly that order,
        draw for draw. Returns ``(delivered ids, uncertain ids, sim
        info)``: a worker is delivered once every slice arrived.
        """
        sim = self.sim
        trainer = self.trainer
        scenario = self.scenario
        servers = list(trainer.server_ranks)
        t0 = sim.now
        state = _RoundState(tag=f"slice:{round_idx}")
        deadline = (
            t0 + scenario.round_timeout_s
            if scenario.round_timeout_s is not None
            else None
        )

        # Degenerate rounds — no latency, no retries, no compute delay,
        # nothing already in flight — need no events at all: every send
        # resolves at t0, in exactly the order the actors would fire.
        # Replaying them synchronously keeps the zero-fault path within
        # the direct loop's budget (see benchmarks/bench_sim.py).
        if (
            scenario.max_retries == 0
            and trainer.network.latency is None
            and sim.idle()
            and all(v == 0.0 for v in plan.compute_s.values())
        ):
            return self._collect_fast(updates, round_idx, plan, state)

        for wid, upd in updates.items():
            sim.spawn(
                self._upload_proc(
                    wid, split_views(upd.gradient, len(servers)), servers, state
                ),
                delay=plan.compute_s.get(wid, 0.0),
            )

        outstanding = {(wid, srv) for wid in updates for srv in servers}
        got: dict[int, set[int]] = {wid: set() for wid in updates}
        resolve_at: dict[int, float] = {}
        while outstanding:
            outstanding -= state.abandoned
            if not outstanding:
                break
            t_next = sim.peek()
            if t_next is None:
                break  # nothing in flight: the rest will never arrive
            if deadline is not None and t_next > deadline:
                break  # deadline cut: whatever is left is late
            sim.run_batch()
            for wid, srv in sorted(outstanding):
                if trainer.network.recv(srv, wid, state.tag) is not None:
                    got[wid].add(srv)
                    resolve_at[wid] = sim.now
                    outstanding.discard((wid, srv))

        outstanding -= state.abandoned
        late_pairs = sorted(outstanding)
        state.closed = True
        if deadline is not None and late_pairs:
            sim.advance_to(deadline)
        duration = sim.now - t0

        delivered: list[int] = []
        uncertain: set[int] = set()
        for wid in updates:
            if len(got[wid]) == len(servers):
                delivered.append(wid)
            else:
                uncertain.add(wid)

        late_workers = sorted({wid for wid, _ in late_pairs})
        sim_info = {
            "t_start_s": t0,
            "duration_s": duration,
            "stragglers": list(plan.stragglers),
            "offline": sorted(plan.offline),
            "retries": state.retries,
            "late": late_workers,
            "worker_time_s": {
                wid: resolve_at[wid] - t0 for wid in sorted(resolve_at)
            },
        }
        self._emit_round_telemetry(round_idx, sim_info, uncertain)
        return delivered, uncertain, sim_info

    def _collect_fast(
        self,
        updates: dict[int, "WorkerUpdate"],
        round_idx: int,
        plan: _RoundPlan,
        state: _RoundState,
    ) -> tuple[list[int], set[int], dict]:
        """Synchronous replay of a zero-delay round.

        Every slice is sent and received at ``t0`` in the same order the
        upload actors would fire, making the same drop draws — the
        trainer's batched exchange, with each delivered slice received as
        soon as it is sent. Identical results to :meth:`collect`, minus
        the event heap. Per-round sim telemetry is skipped too: a
        degenerate round has nothing to report (zero duration, no
        faults), and the ``comm.*`` counters still account every byte
        and drop.
        """
        t0 = self.sim.now
        delivered, uncertain, mask = self.trainer._upload_slices(
            updates, round_idx, received="each"
        )
        resolved = [
            wid for wid, hit in zip(updates, mask.any(axis=1).tolist()) if hit
        ]
        state.closed = True
        sim_info = {
            "t_start_s": t0,
            "duration_s": 0.0,
            "stragglers": list(plan.stragglers),
            "offline": sorted(plan.offline),
            "retries": 0,
            "late": [],
            "worker_time_s": {wid: 0.0 for wid in sorted(resolved)},
        }
        return delivered, uncertain, sim_info

    # -- telemetry -------------------------------------------------------------

    def _emit_round_telemetry(
        self, round_idx: int, sim_info: dict, uncertain: set[int]
    ) -> None:
        tele = self.trainer.profiler
        if not tele.enabled:
            return
        if sim_info["stragglers"]:
            tele.count("sim.stragglers", len(sim_info["stragglers"]))
        if sim_info["retries"]:
            tele.count("sim.retries", sim_info["retries"])
        if sim_info["late"]:
            tele.count("sim.late_workers", len(sim_info["late"]))
        if sim_info["offline"]:
            tele.count("sim.offline_worker_rounds", len(sim_info["offline"]))
        tele.gauge("sim.round_duration_s", sim_info["duration_s"])
        # Cumulative comm counters ride along so the monitor's
        # byte-accounting invariant can audit the network per round:
        # delivered + dropped never exceeds attempts, and every counter
        # is monotone across the trace.
        net = self.trainer.network
        tele.event(
            "sim.round",
            {
                "round": round_idx,
                "duration_s": sim_info["duration_s"],
                "stragglers": sim_info["stragglers"],
                "offline": sim_info["offline"],
                "retries": sim_info["retries"],
                "late": sim_info["late"],
                "uncertain": sorted(int(w) for w in uncertain),
                "comm": {
                    "messages_sent": net.messages_sent,
                    "delivered": net.messages_delivered,
                    "dropped": len(net.drop_log.drops),
                    "bytes_sent": net.total_bytes(),
                },
            },
        )

