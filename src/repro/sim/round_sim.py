"""Event-scheduled round execution for the federated trainer.

:class:`SimRoundRunner` owns the trainer's :class:`~repro.sim.Simulator`
and drives one communication round on the virtual clock:

1. **round start** — apply the scenario's churn schedule (join/leave,
   which is also worker/server crash + restart), install this round's
   link partitions, and draw the round's stragglers from the
   simulator's seeded stream over the round's cohort; the trainer then
   takes offline nodes down with the same node-level outage as a
   crashed node (:meth:`~repro.comm.Network.set_down_nodes`);
2. **upload** — the online workers that finish local compute at the
   same virtual time ``t0 + compute_time`` form one *send group*: one
   simulator event that sends all their gradient slices with one
   :meth:`~repro.comm.Network.send_pairs`, in spawn order. The group's
   dropped slices go back on the clock as one retry group after the
   exponential backoff, up to ``max_retries`` times; each delivered
   slice arrives after its sampled latency;
3. **collection** — every ``(worker, server)`` slice resolves at its
   arrival time (delivered) or when its last send dropped (abandoned).
   The server cluster closes the round at the last resolution or at the
   deadline ``t0 + round_timeout_s``, whichever comes first, after
   running every event up to that time. Late or missing slices make
   that worker's round an *uncertain event* — exactly the reputation
   path instantaneous drops already take (S4.2), so SLM reputation and
   rewards respond to realistic failures with no mechanism changes.

A group that first fires after its round closed still sends (a
straggler finishing past the deadline); a retry group that fires after
the close sends nothing. Events left on the heap when a round closes —
those sends, retries and deliveries still in flight — run in the next
round's window, or when a checkpoint drains the heap.

Every group makes the draws of the per-message sends it batches, in
the same order (``tests/comm/per_message.py`` keeps the per-message
actors as the differential oracle). The zero-fault, zero-latency
scenario replays the direct loop draw for draw — differential-tested
to reproduce ``FederatedTrainer`` histories bit-for-bit, and
benchmarked to stay within 5% of the direct loop
(``benchmarks/bench_sim.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .faults import FaultScenario
from .kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from ..fl.trainer import FederatedTrainer

__all__ = ["SimRoundRunner"]

#: bucket edges (virtual seconds) for the sim.latency histogram
_LATENCY_EDGES = (
    0.0, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 60.0,
)


@dataclass
class _Round:
    """One round's slice exchange, with one entry per ``(worker, server)``.

    Slice ``i * M + j`` is the ``i``-th uploader's slice for server ``j``,
    so index order is the order the per-message sends take.
    """

    tag: str
    src: np.ndarray
    dst: np.ndarray
    nbytes: np.ndarray
    #: arrival time of each delivered slice (inf: not delivered)
    arrive: np.ndarray
    #: arrival or abandonment time (inf: not yet resolved)
    resolve: np.ndarray
    #: slices whose fate no send has decided yet
    undecided: int
    first_arrival: float = np.inf
    #: slices already counted as received by their server
    received: int = 0
    closed: bool = False
    retries: int = 0


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
        # fail at build, not in the round the entry fires: a service
        # could never get past that round, even after a resume
        for _, wid, _ in scenario.churn:
            if wid >= trainer.num_workers:
                raise ValueError(f"churn rank {wid} outside the federation")
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

    def _fire(self, rnd: _Round, idx: np.ndarray, attempt: int) -> None:
        """Send-group event: send slices ``idx``, then retry what dropped.

        ``attempt`` 0 is the group's first send, which goes out even
        after the round closed; a retry of a closed round sends nothing.
        """
        if attempt:
            if rnd.closed:
                return  # the round deadline passed while backing off
            rnd.retries += idx.size
        now = self.sim.now
        delays = self.trainer.network.send_pairs(
            rnd.src[idx], rnd.dst[idx], rnd.tag, rnd.nbytes[idx]
        )
        ok = ~np.isnan(delays)
        failed = idx[~ok]
        if ok.any():
            arrive = now + delays[ok]
            rnd.arrive[idx[ok]] = arrive
            rnd.resolve[idx[ok]] = arrive
            rnd.first_arrival = min(rnd.first_arrival, float(arrive.min()))
        if attempt >= self.scenario.max_retries:
            rnd.resolve[failed] = now  # abandoned: drop budget exhausted
            rnd.undecided -= idx.size
            return
        rnd.undecided -= idx.size - failed.size
        if failed.size:
            self.sim.schedule(
                self.scenario.retry_delay(attempt),
                self._fire, rnd, failed, attempt + 1,
            )

    def collect(
        self,
        ids: np.ndarray,
        dim: int,
        round_idx: int,
        plan: _RoundPlan,
    ) -> tuple[np.ndarray, dict]:
        """Run the round's upload/collection on the virtual clock.

        ``ids`` are the uploading workers in the order the direct path
        sends (ascending), each with a ``dim``-value gradient — with zero
        faults the event schedule replays exactly that order, draw for
        draw. Returns ``(complete, sim info)``: ``complete[i]`` is True
        once every slice of worker ``ids[i]`` arrived.
        """
        sim = self.sim
        trainer = self.trainer
        net = trainer.network
        scenario = self.scenario
        t0 = sim.now
        deadline = (
            t0 + scenario.round_timeout_s
            if scenario.round_timeout_s is not None
            else None
        )

        # Degenerate rounds — no latency, no retries, no compute delay,
        # nothing already in flight — need no events at all: every send
        # resolves at t0, in exactly the order the groups would fire.
        # Replaying them synchronously keeps the zero-fault path within
        # the direct loop's budget (see benchmarks/bench_sim.py).
        if (
            scenario.max_retries == 0
            and net.latency is None
            and sim.idle()
            and all(v == 0.0 for v in plan.compute_s.values())
        ):
            return self._collect_fast(ids, dim, round_idx, plan)

        ids = ids.tolist()
        servers = np.asarray(trainer.server_ranks, dtype=np.int64)
        m = servers.size
        total = len(ids) * m
        rnd = _Round(
            tag=f"slice:{round_idx}",
            src=np.repeat(np.asarray(ids, dtype=np.int64), m),
            dst=np.tile(servers, len(ids)),
            nbytes=np.tile(trainer._slice_nbytes(dim), len(ids)),
            arrive=np.full(total, np.inf),
            resolve=np.full(total, np.inf),
            undecided=total,
        )
        # one send group per distinct firing time, members in spawn order
        groups: dict[float, list[int]] = {}
        for i, wid in enumerate(ids):
            fire_at = t0 + float(plan.compute_s.get(wid, 0.0))
            groups.setdefault(fire_at, []).append(i)
        for fire_at, rows in groups.items():
            idx = (np.asarray(rows)[:, None] * m + np.arange(m)).reshape(-1)
            sim.schedule_at(fire_at, self._fire, rnd, idx, 0)

        # Run events in order until every slice is decided (or the
        # deadline passes), then on to the close: the last resolution,
        # or the deadline if a slice resolves after it.
        close = None
        while True:
            if close is None and not rnd.undecided:
                last = float(rnd.resolve.max(initial=t0))
                close = last if deadline is None or last <= deadline else deadline
            t = sim.peek()
            limit = deadline if close is None else close
            if t is None or (limit is not None and t > limit):
                break
            if not rnd.received and rnd.first_arrival < t:
                # a server first takes in slices before a later event,
                # which fixes where comm.messages_delivered first counts
                rnd.received = int(np.count_nonzero(rnd.arrive < t))
                net.mark_received(rnd.received)
            sim.step()
        if close is None:
            # undecided slices remain: the deadline cuts the round
            close = deadline if deadline is not None else sim.now
        got = rnd.arrive <= close
        more = int(np.count_nonzero(got)) - rnd.received
        if more:
            net.mark_received(more)
        rnd.closed = True
        sim.advance_to(close)

        got = got.reshape(len(ids), m)
        complete = got.all(axis=1)
        late = (rnd.resolve > close).reshape(len(ids), m).any(axis=1)
        last_arrival = np.where(got, rnd.arrive.reshape(len(ids), m), -np.inf)
        worker_time = {
            wid: t_last - t0
            for wid, t_last in zip(ids, last_arrival.max(axis=1).tolist())
            if t_last > -np.inf  # at least one slice arrived
        }
        sim_info = {
            "t_start_s": t0,
            "duration_s": close - t0,
            "stragglers": list(plan.stragglers),
            "offline": sorted(plan.offline),
            "retries": rnd.retries,
            "late": sorted(w for w, cut in zip(ids, late.tolist()) if cut),
            "worker_time_s": worker_time,
        }
        uncertain = [w for w, ok in zip(ids, complete.tolist()) if not ok]
        self._emit_round_telemetry(round_idx, sim_info, uncertain)
        return complete, sim_info

    def _collect_fast(
        self,
        ids: np.ndarray,
        dim: int,
        round_idx: int,
        plan: _RoundPlan,
    ) -> tuple[np.ndarray, dict]:
        """Synchronous replay of a zero-delay round.

        Every slice is sent and received at ``t0`` in the same order the
        send groups would fire, making the same drop draws — the
        trainer's batched exchange, with each delivered slice received as
        soon as it is sent. Identical results to :meth:`collect`, minus
        the event heap. Per-round sim telemetry is skipped too: a
        degenerate round has nothing to report (zero duration, no
        faults), and the ``comm.*`` counters still account every byte
        and drop.
        """
        t0 = self.sim.now
        mask = self.trainer._upload_slices(ids, dim, round_idx, received="each")
        resolved = ids[mask.any(axis=1)].tolist()
        sim_info = {
            "t_start_s": t0,
            "duration_s": 0.0,
            "stragglers": list(plan.stragglers),
            "offline": sorted(plan.offline),
            "retries": 0,
            "late": [],
            "worker_time_s": {wid: 0.0 for wid in resolved},
        }
        return mask.all(axis=1), sim_info

    # -- telemetry -------------------------------------------------------------

    def _emit_round_telemetry(
        self, round_idx: int, sim_info: dict, uncertain: list[int]
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

