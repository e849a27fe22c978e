"""Federated training loop over the polycentric protocol (paper S3.2).

One :class:`FederatedTrainer` drives all three architectures: M = 1 server
is centralized, 1 < M < N polycentric, M = N decentralized — exactly the
generalization the paper claims in S3.2. Gradient uploads travel over the
lossy :class:`~repro.comm.Network`; a lost slice makes that worker's round
an *uncertain event* (neither positive nor negative for reputation).

A pluggable mechanism (e.g. :class:`repro.core.FIFLMechanism`) inspects the
per-server slices each round and decides which workers' gradients enter the
aggregate; with no mechanism every delivered update is accepted, which is
the undefended baseline of Figures 7, 8 and 10.

Population-first surface (cross-device scale)
---------------------------------------------
The primary constructor takes a
:class:`~repro.population.WorkerPopulation` plus an optional cohort size
and :class:`~repro.population.CohortSampler`::

    FederatedTrainer(model, population=pop, cohort_size=64,
                     sampler="reputation", server_ranks=[0, 1], ...)

With a full-population cohort (or no sampler at all) the trainer runs in
**static** mode: every worker is materialized once and the round loop is
the classic cross-silo path. With a sampler or a sub-population cohort it
runs in **dynamic** mode: each round samples a cohort (server ranks
always included — they produce the detection benchmarks), materializes
only those workers, and trains. Per-round cost is O(cohort), never
O(population). In both modes the round's reputation verdicts are written
back into the population's out-of-core store.

A ready-made list of workers becomes a population through
:meth:`WorkerPopulation.from_workers`. Local training always runs
through :class:`~repro.fl.fleet_compute.FleetLocalEngine`, which batches
homogeneous workers and keeps the per-worker ``compute_update`` path for
the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..comm import Network, polycentric_topology, validate_roles
from ..datasets import Dataset
from ..nn import Sequential
from ..parallel.backend import ExecutionBackend, make_backend
from ..parallel.heap import retain_heap
from ..sim import FaultScenario, SimRoundRunner, Simulator, make_latency
from ..telemetry import get_telemetry, profile_delta
from .evaluation import evaluate
from .fleet_compute import FleetLocalEngine
# split_views stays in this namespace for profilers that wrap the
# trainer's kernels by name (perfbench/spans.py).
from .gradients import (  # noqa: F401
    fedavg,
    finite_sqnorm,
    recombine,
    slice_bounds,
    slice_offsets,
    split_views,
    stack_gradients,
)
from .workers import Worker, WorkerUpdate

__all__ = [
    "AcceptAllMechanism",
    "RoundContext",
    "RoundDecision",
    "RoundMechanism",
    "RoundRecord",
    "TrainingHistory",
    "FederatedTrainer",
]

@dataclass
class RoundContext:
    """Everything a mechanism may inspect in one communication round."""

    round_idx: int
    global_params: np.ndarray
    server_ranks: list[int]
    # worker_id -> {server_rank: delivered gradient slice}
    slices: dict[int, dict[int, np.ndarray]]
    # worker_id -> full update (for ground truth / full-vector scoring)
    updates: dict[int, WorkerUpdate]
    # workers whose upload was (partly) lost this round: uncertain events
    uncertain: set[int]
    sample_counts: dict[int, int]
    # delivered gradients stacked row-wise, row i from the i-th worker of
    # ``slices``, whose slices are column-block views of it. None in
    # hand-built contexts, where RoundBatch restacks the slices.
    uploads: np.ndarray | None = None


@dataclass
class RoundDecision:
    """A mechanism's verdict for one round."""

    # worker_id -> r_i (True = honest/accept, False = reject)
    accept: dict[int, bool]
    # free-form per-round records (scores, reputations, rewards, ...)
    records: dict = field(default_factory=dict)


class RoundMechanism(Protocol):
    """Protocol implemented by FIFL (and ablation mechanisms)."""

    def process_round(self, ctx: RoundContext) -> RoundDecision: ...


class AcceptAllMechanism:
    """Accept every delivered update: the undefended baseline of Figures
    7, 8 and 10, and the trainer's default mechanism."""

    def process_round(self, ctx: RoundContext) -> RoundDecision:
        return RoundDecision(accept={w: True for w in ctx.slices})


@dataclass
class RoundRecord:
    """Per-round training telemetry."""

    round_idx: int
    test_loss: float | None
    test_acc: float | None
    accepted: dict[int, bool]
    uncertain: set[int]
    mechanism_records: dict
    grad_norm: float
    #: virtual seconds the round took (0.0 outside fault scenarios)
    duration_s: float = 0.0
    #: simulation detail when running under a FaultScenario: stragglers,
    #: offline ranks, retries, late workers, per-worker wall-clock
    sim: dict | None = None
    #: True when the round produced no usable updates (e.g. every sampled
    #: cohort member was offline) and the global model was left untouched
    skipped: bool = False


@dataclass
class TrainingHistory:
    """Full training trace returned by :meth:`FederatedTrainer.run`."""

    rounds: list[RoundRecord] = field(default_factory=list)
    # per-phase wall-clock/counters for this run (see repro.telemetry):
    # {"timings": {phase: {"seconds", "calls"}}, "counters": {...}}
    profile: dict = field(default_factory=dict)
    # ResourceProbe summary for this run when a probe was attached
    # (see repro.perf.resources): rss start/peak/growth, GC pauses, ...
    resources: dict = field(default_factory=dict)

    def series(self, key: str) -> list:
        """Extract one telemetry field across rounds (None entries kept)."""
        return [getattr(r, key) for r in self.rounds]

    def final_accuracy(self) -> float | None:
        """Last recorded test accuracy."""
        for r in reversed(self.rounds):
            if r.test_acc is not None:
                return r.test_acc
        return None


class FederatedTrainer:
    """Drives synchronous federated rounds over a lossy network."""

    def __init__(
        self,
        model: Sequential,
        population,
        server_ranks: list[int] | None = None,
        test_data: Dataset | None = None,
        mechanism: RoundMechanism | None = None,
        server_lr: float | object = 0.1,
        drop_prob: float = 0.0,
        seed: int = 0,
        reselect_every: int = 0,
        scenario: FaultScenario | None = None,
        monitor=None,
        probe=None,
        *,
        cohort_size: int | None = None,
        sampler=None,
        fleet_shard_size: int | None = None,
        backend: str | ExecutionBackend = "serial",
        max_workers: int | None = None,
    ):
        # Break the repro.population -> repro.fl.workers -> repro.fl import
        # cycle: the population package imports worker classes at module
        # level, so the trainer must reach back lazily.
        from ..population import WorkerPopulation, make_sampler

        # Keep each round's (N, D) temporaries resident instead of letting
        # glibc trim them away and fault them back in every round.
        retain_heap()

        if not isinstance(population, WorkerPopulation):
            raise TypeError(
                f"population must be a WorkerPopulation, got "
                f"{type(population).__name__}; wrap a list of workers with "
                f"WorkerPopulation.from_workers(workers)"
            )
        self.population = population
        if server_ranks is None:
            raise ValueError("server_ranks is required")
        # Satellite bugfix: an oversized cohort used to surface only as a
        # cryptic sampler IndexError deep inside the first round.
        if cohort_size is not None:
            if cohort_size <= 0:
                raise ValueError("cohort_size must be positive")
            if cohort_size > population.size:
                raise ValueError(
                    f"cohort_size {cohort_size} exceeds population size "
                    f"{population.size}"
                )
        if isinstance(sampler, str):
            sampler = make_sampler(sampler, seed=seed)
        # server_lr may be a constant or a schedule (callable round -> lr)
        if callable(server_lr):
            self._lr_schedule = server_lr
        else:
            if server_lr <= 0:
                raise ValueError("server_lr must be positive")
            self._lr_schedule = None
        if reselect_every < 0:
            raise ValueError("reselect_every must be non-negative")
        self.model = model
        self.num_workers = population.size
        self.server_ranks = sorted(set(server_ranks))
        self.cohort_size = cohort_size
        self.sampler = sampler
        self.fleet_shard_size = fleet_shard_size
        # Dynamic (cross-device) mode: an explicit sampler or a
        # sub-population cohort means per-round sampling + lazy
        # materialization. Otherwise static mode keeps the classic
        # cross-silo loop, bit-for-bit.
        self._dynamic = sampler is not None or (
            cohort_size is not None and cohort_size < population.size
        )
        if self._dynamic:
            if scenario is not None:
                raise ValueError(
                    "cohort sampling and FaultScenario are mutually "
                    "exclusive; model device availability/churn on the "
                    "WorkerPopulation instead"
                )
            if self.sampler is None:
                self.sampler = make_sampler("uniform", seed=seed)
            if self.cohort_size is None:
                self.cohort_size = population.size
            bad = [r for r in self.server_ranks if not 0 <= r < self.num_workers]
            if bad or not self.server_ranks:
                raise ValueError(
                    f"server ranks {bad} outside [0, {self.num_workers})"
                )
            # polycentric_topology materializes an O(N·M) networkx graph —
            # at 10^6 workers that is neither affordable nor needed: the
            # round loop only ever touches cohort-sized structures.
            self.topology = None
            self.workers: list[Worker] = []
        else:
            self.workers = population.checkout(range(population.size))
            # Validate S ⊂ W via the topology module (raises on bad ranks).
            self.topology = polycentric_topology(
                self.num_workers, self.server_ranks
            )
            validate_roles(self.topology)
        self.test_data = test_data
        self.mechanism: RoundMechanism = (
            mechanism if mechanism is not None else AcceptAllMechanism()
        )
        self.server_lr = server_lr if not callable(server_lr) else None
        self.seed = seed
        # A FaultScenario moves the upload/collection phase onto the
        # discrete-event kernel: the network delivers through the
        # simulator's virtual clock and the round closes on a deadline.
        self.scenario = scenario
        self._sim_runner: SimRoundRunner | None = None
        if scenario is not None:
            sim = Simulator(seed=(seed, scenario.seed, 0x51D))
            self.network = Network(
                self.num_workers,
                drop_prob=drop_prob,
                seed=seed,
                latency=make_latency(scenario.latency),
                sim=sim,
            )
        else:
            self.network = Network(self.num_workers, drop_prob=drop_prob, seed=seed)
        # S4.5: re-form the server cluster from the highest-reputation
        # workers every ``reselect_every`` rounds (0 = static cluster).
        # Requires a mechanism exposing ``recommend_servers(m)``.
        self.reselect_every = reselect_every
        if reselect_every and not hasattr(self.mechanism, "recommend_servers"):
            raise ValueError(
                "reselect_every needs a mechanism with recommend_servers()"
            )
        self._failed: set[int] = set()
        self.profiler = get_telemetry()
        # Execution backend: one pool owned by the trainer for the fleet
        # engine's local-SGD shards. "serial" is the differential oracle
        # and the default.
        self.backend = make_backend(backend, max_workers)
        self._fleet: FleetLocalEngine | None = None
        self._fleet_key: tuple[int, ...] | None = None
        if scenario is not None:
            self._sim_runner = SimRoundRunner(self, scenario)
        # Optional repro.monitor.Monitor: installed as a telemetry sink
        # for the duration of run(), with a flush after every round so
        # invariants are checked at round granularity, and a post-mortem
        # dump if training raises. The monitor never emits into the hub,
        # so attaching it does not change the trace.
        self.monitor = monitor
        # Optional repro.perf.ResourceProbe, sampled at round boundaries
        # during run(). Samples live on a side stream (forwarded to the
        # monitor via observe_resource, never emitted into the hub), so a
        # probed run's seeded trace stays byte-identical.
        self.probe = probe

    @property
    def num_servers(self) -> int:
        return len(self.server_ranks)

    def fail_node(self, rank: int) -> None:
        """Simulate a device crash: the node stops computing and all of
        its links go dark (S3.2's fault-tolerance discussion).

        A failed plain worker just disappears from the federation. A
        failed *server* silently loses every slice addressed to it, which
        stalls aggregation in a static cluster — the paper's
        "decentralized architecture lacks fault tolerance" scenario —
        unless re-selection replaces it.
        """
        if not 0 <= rank < self.num_workers:
            raise ValueError(f"rank {rank} outside [0, {self.num_workers})")
        self._failed.add(rank)
        if self._dynamic:
            # Cross-device mode: the failed id is simply excluded from
            # every future cohort — no O(population) link sweep needed.
            return
        for other in range(self.num_workers):
            self.network.set_link_drop_prob(rank, other, 1.0)
            self.network.set_link_drop_prob(other, rank, 1.0)

    @property
    def failed_nodes(self) -> set[int]:
        return set(self._failed)

    def node_comm_load(self) -> dict[int, int]:
        """Bytes moved through each node (sent + received) so far.

        The max over nodes is the deployment bottleneck S3.2 discusses:
        one central server carries O(N·P) per round, M polycentric
        servers carry O(N·P/M) each, and fully decentralized nodes carry
        O(P) regardless of N.
        """
        if self._dynamic:
            # O(population) dicts are off the table at cross-device scale;
            # report only the nodes that actually moved bytes.
            load: dict[int, int] = {}
            for (src, dst), nbytes in self.network.bytes_sent.items():
                load[src] = load.get(src, 0) + nbytes
                load[dst] = load.get(dst, 0) + nbytes
            return load
        load = {n: 0 for n in range(self.num_workers)}
        for (src, dst), nbytes in self.network.bytes_sent.items():
            load[src] += nbytes
            load[dst] += nbytes
        return load

    def _round_lr(self, round_idx: int) -> float:
        """The server learning rate for this round (constant or scheduled)."""
        if self._lr_schedule is not None:
            lr = float(self._lr_schedule(round_idx))
            if lr <= 0:
                raise ValueError(f"schedule produced non-positive lr {lr}")
            return lr
        return self.server_lr

    # -- cohort selection (dynamic mode) --------------------------------------

    def _select_cohort(self, round_idx: int) -> list[Worker]:
        """Sample, availability-filter and materialize this round's cohort.

        Server ranks are pinned into every cohort (they produce the
        detection benchmarks ``g_j^j``); they skip the per-round
        availability draw but still respect churn and injected failures.
        """
        prof = self.profiler
        pop = self.population
        pop.begin_round(round_idx)
        sampled = self.sampler.sample(
            round_idx, pop, self.cohort_size, required=self.server_ranks
        )
        required = set(self.server_ranks)
        live: list[int] = []
        for wid in sampled:
            wid = int(wid)
            if wid in self._failed:
                continue
            if wid in required:
                if pop.is_live(wid):
                    live.append(wid)
            elif pop.is_available(wid, round_idx):
                live.append(wid)
        cohort = pop.checkout(live, round_idx=round_idx)
        coverage = pop.coverage()
        prof.count("trainer.cohort_workers", len(live))
        prof.gauge("population.cohort_live", len(live))
        prof.gauge("population.coverage", coverage)
        prof.event(
            "population.cohort",
            {
                "round": round_idx,
                "population_size": pop.size,
                "cohort_target": self.cohort_size,
                "sampled": int(len(sampled)),
                "live": len(live),
                "offline": int(len(sampled)) - len(live),
                "coverage": coverage,
            },
        )
        return cohort

    def _fleet_for(self, workers: list[Worker]) -> FleetLocalEngine:
        """The fleet engine for this round's worker set (rebuilt on change)."""
        key = tuple(w.worker_id for w in workers)
        if self._fleet is None or self._fleet_key != key:
            self._fleet = FleetLocalEngine(
                workers,
                profiler=self.profiler,
                shard_size=self.fleet_shard_size,
                backend=self.backend,
            )
            self._fleet_key = key
        return self._fleet

    def _skipped_round(self, round_idx: int, reason: str) -> RoundRecord:
        """Record a round that produced no usable updates (model untouched)."""
        prof = self.profiler
        prof.count("trainer.skipped_rounds")
        prof.event(
            "trainer.skipped_round", {"round": round_idx, "reason": reason}
        )
        test_loss = test_acc = None
        if self.test_data is not None:
            with prof.phase("trainer.evaluate"):
                test_loss, test_acc = evaluate(self.model, self.test_data)
        return RoundRecord(
            round_idx=round_idx,
            test_loss=test_loss,
            test_acc=test_acc,
            accepted={},
            uncertain=set(),
            mechanism_records={"skipped": reason},
            grad_norm=0.0,
            skipped=True,
        )

    # -- one communication round ----------------------------------------------

    def _upload_slices(
        self,
        updates: dict[int, WorkerUpdate],
        round_idx: int,
        received: str = "after",
    ) -> tuple[list[int], set[int], np.ndarray]:
        """Workers send slice j of their gradient to server j (step 1.3).

        One batched exchange over the instant-link network: each worker's
        slice for server ``j`` travels as a ``(j, slice)`` message, in
        upload order. Returns ``(delivered ids, uncertain ids, mask)``
        with the ``(N, M)`` per-link delivery mask.
        """
        ids = list(updates)
        servers = self.server_ranks
        dim = np.asarray(updates[ids[0]].gradient).size if ids else 0
        # a (j, slice) payload: the 8-byte slot index plus float64 values
        nbytes = 8 + 8 * np.diff(slice_offsets(dim, len(servers)))
        mask = self.network.send_batch(
            ids, servers, f"slice:{round_idx}", nbytes, received=received
        )
        delivered: list[int] = []
        uncertain: set[int] = set()
        for wid, complete in zip(ids, mask.all(axis=1).tolist()):
            if complete:
                delivered.append(wid)
            else:
                # Any lost slice -> the round is unidentifiable for this
                # worker: an SLM uncertain event, excluded from aggregation.
                uncertain.add(wid)
        return delivered, uncertain, mask

    def _delivered_slices(
        self, updates: dict[int, WorkerUpdate], delivered: list[int], dim: int
    ) -> tuple[np.ndarray, dict[int, dict[int, np.ndarray]]]:
        """The delivered gradients as one matrix, and per-server views of it.

        Row ``i`` of the read-only ``(K, D)`` matrix is worker
        ``delivered[i]``'s gradient; its slice for each server is a
        column-block view, bit-identical to the slice it sent.
        """
        servers = self.server_ranks
        uploads = stack_gradients(
            [updates[wid].gradient for wid in delivered], len(servers), dim
        )
        bounds = slice_bounds(uploads.shape[1], len(servers))
        blocks = [uploads[:, lo:hi] for lo, hi in bounds]
        slices = {
            wid: dict(zip(servers, parts))
            for wid, parts in zip(delivered, zip(*blocks))
        }
        return uploads, slices

    def _broadcast(
        self, dests, agg_slices: list[np.ndarray], round_idx: int
    ) -> None:
        """Servers send their global slice to every other worker (step 1.4).

        The trainer holds the global model authoritatively, so this pass
        exists for protocol fidelity — byte accounting and drop
        statistics per link (the per-node communication load is what
        S3.2's scalability argument is about). Nothing ever receives it.
        Instant links take it as one batched exchange per server; a
        latency model schedules every message on the virtual clock.
        """
        tag = f"global:{round_idx}"
        net = self.network
        dests = np.fromiter(dests, dtype=np.int64)
        for srv, part in zip(self.server_ranks, agg_slices):
            others = dests[dests != srv]
            if net.latency is None:
                net.send_batch([srv], others, tag, part.nbytes)
            else:
                for wid in others.tolist():
                    net.send(srv, wid, tag, part)

    def run_round(self, round_idx: int) -> RoundRecord:
        """Execute one synchronous round and update the global model."""
        with self.profiler.span("trainer.round", kind="round", round=round_idx):
            try:
                return self._run_round(round_idx)
            finally:
                # Close the round's tags: nothing ever receives the
                # broadcast, and slices still in flight on the virtual
                # clock must be discarded, not queued forever.
                self.network.cancel_tag(f"slice:{round_idx}")
                self.network.cancel_tag(f"global:{round_idx}")

    def _run_round(self, round_idx: int) -> RoundRecord:
        prof = self.profiler
        plan = None
        if self._sim_runner is not None:
            # Fault scenario: apply churn/partitions and draw this
            # round's compute-time plan before anyone trains.
            plan = self._sim_runner.begin_round(round_idx)
        exclude = (
            self._failed if plan is None else self._failed | set(plan.offline)
        )
        if self._dynamic:
            with prof.phase("trainer.cohort"):
                active = self._select_cohort(round_idx)
            if not active:
                return self._skipped_round(round_idx, "empty cohort")
            if not any(w.worker_id in self.server_ranks for w in active):
                return self._skipped_round(round_idx, "no live server")
        else:
            active = self.workers
        theta = self.model.get_flat_params()
        global_buffers = self.model.get_flat_buffers()
        with prof.phase("trainer.local_compute"):
            updates = self._fleet_for(active).compute_updates(
                theta, global_buffers, exclude=exclude
            )
        server_grads = [
            updates[srv].gradient for srv in self.server_ranks if srv in updates
        ]
        if self._dynamic and not server_grads:
            return self._skipped_round(round_idx, "no server update")
        if server_grads and not any(map(finite_sqnorm, server_grads)):
            # Every live server's own gradient blew up: no server holds a
            # usable detection benchmark, so the round is void, like one
            # in which no server delivered.
            return self._skipped_round(round_idx, "no finite server update")
        sim_info = None
        with prof.phase("trainer.upload"):
            if self._sim_runner is not None:
                delivered_ids, uncertain, sim_info = self._sim_runner.collect(
                    updates, round_idx, plan
                )
            else:
                delivered_ids, uncertain, _ = self._upload_slices(
                    updates, round_idx
                )
            uploads, delivered = self._delivered_slices(
                updates, delivered_ids, theta.size
            )
        prof.count("trainer.rounds")
        prof.count("trainer.uncertain_workers", len(uncertain))

        ctx = RoundContext(
            round_idx=round_idx,
            global_params=theta,
            server_ranks=list(self.server_ranks),
            slices=delivered,
            updates=updates,
            uncertain=uncertain,
            sample_counts={w.worker_id: w.num_samples for w in active},
            uploads=uploads,
        )
        with prof.phase("trainer.mechanism"):
            decision = self.mechanism.process_round(ctx)
        # Round verdicts flow back into the population's out-of-core
        # reputation store, where reputation-weighted samplers (and the
        # next session's analyses) read them.
        reps = decision.records.get("reputations")
        if reps:
            self.population.write_reputations(reps)

        accepted_ids = [w for w in sorted(delivered) if decision.accept.get(w, False)]
        grad_norm = 0.0
        if accepted_ids:
            # Servers aggregate their slice over accepted workers (step 2.2),
            # then slices recombine into the global gradient (step 1.5).
            with prof.phase("trainer.aggregate"):
                weights = [ctx.sample_counts[w] for w in accepted_ids]
                agg_slices = []
                for srv in self.server_ranks:
                    with prof.span(
                        "trainer.server_slice", kind="slice", server=srv
                    ):
                        per_server = [delivered[w][srv] for w in accepted_ids]
                        agg_slices.append(fedavg(per_server, weights))
                global_grad = recombine(agg_slices)
            grad_norm = float(np.linalg.norm(global_grad))
            prof.gauge("trainer.grad_norm", grad_norm)
            lr = self._round_lr(round_idx)
            self.model.set_flat_params(theta - lr * global_grad)
            dests = (
                [w.worker_id for w in active]
                if self._dynamic
                else range(self.num_workers)
            )
            self._broadcast(dests, agg_slices, round_idx)
            # FedAvg-BN: average accepted workers' running statistics into
            # the global model so evaluation normalizes with live stats.
            buffer_vecs = [
                updates[w].buffers
                for w in accepted_ids
                if updates[w].buffers is not None
            ]
            if buffer_vecs and self.model.num_buffer_values:
                weights_b = [
                    ctx.sample_counts[w]
                    for w in accepted_ids
                    if updates[w].buffers is not None
                ]
                self.model.set_flat_buffers(fedavg(buffer_vecs, weights_b))

        test_loss = test_acc = None
        if self.test_data is not None:
            with prof.phase("trainer.evaluate"):
                test_loss, test_acc = evaluate(self.model, self.test_data)

        return RoundRecord(
            round_idx=round_idx,
            test_loss=test_loss,
            test_acc=test_acc,
            accepted={w: decision.accept.get(w, False) for w in sorted(updates)},
            uncertain=uncertain,
            mechanism_records=decision.records,
            grad_norm=grad_norm,
            duration_s=sim_info["duration_s"] if sim_info else 0.0,
            sim=sim_info,
        )

    def run(self, num_rounds: int, eval_every: int = 1) -> TrainingHistory:
        """Run ``num_rounds`` rounds; evaluate every ``eval_every`` rounds."""
        if num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        if eval_every <= 0:
            raise ValueError("eval_every must be positive")
        history = TrainingHistory()
        saved_test = self.test_data
        before = self.profiler.snapshot()
        monitor = self.monitor
        probe = self.probe
        if monitor is not None:
            # drain events deferred before this run so the monitor only
            # sees (and attributes alerts to) this training run's stream
            self.profiler.flush()
            monitor.install(self.profiler)
        try:
            with self.profiler.span(
                "trainer.run",
                kind="run",
                rounds=num_rounds,
                workers=self.num_workers,
                servers=self.num_servers,
            ):
                for t in range(num_rounds):
                    # Skip expensive evaluation on non-reporting rounds.
                    self.test_data = saved_test if (t % eval_every == 0 or t == num_rounds - 1) else None
                    history.rounds.append(self.run_round(t))
                    if monitor is not None:
                        # Materialize this round's deferred events so the
                        # watchdog sees them before the next round starts
                        # (strict mode raises MonitorError from here).
                        self.profiler.flush()
                    if probe is not None:
                        # Round-boundary resource sample; forwarded to the
                        # monitor on the side stream so the leak/gc-pause
                        # watchdogs see it without touching the trace.
                        sample = probe.sample(t)
                        if sample is not None and monitor is not None:
                            monitor.observe_resource(sample)
                    if self.reselect_every and (t + 1) % self.reselect_every == 0:
                        self._reselect_servers()
        except BaseException as exc:
            if monitor is not None:
                # Crash path: capture the flight-recorder ring. A strict
                # monitor may raise again during this flush — the alert
                # is already recorded, the original exception wins.
                from ..monitor.alerts import MonitorError

                try:
                    self.profiler.flush()
                except MonitorError:
                    pass
                from ..parallel.backend import backend_summary

                monitor.dump_postmortem(
                    f"exception: {type(exc).__name__}",
                    context={"backend": backend_summary(self.backend)},
                )
            raise
        finally:
            # An exception mid-run must not leave the eval-toggling hack
            # permanently stuck with test_data=None.
            self.test_data = saved_test
            if monitor is not None:
                monitor.uninstall()
        # Per-run phase timings: the delta against whatever the (shared)
        # profiler had already accumulated before this run started.
        history.profile = profile_delta(before, self.profiler.snapshot())
        if probe is not None:
            history.resources = probe.summary()
        return history

    def _reselect_servers(self) -> None:
        """S4.5: replace the cluster with the top-reputation workers."""
        try:
            new_ranks = self.mechanism.recommend_servers(  # type: ignore[attr-defined]
                self.num_servers, exclude=self._failed
            )
        except RuntimeError:
            return  # not enough reputations tracked; keep the cluster
        new_ranks = sorted(set(new_ranks))
        if new_ranks == self.server_ranks:
            return
        self.server_ranks = new_ranks
        if not self._dynamic:
            self.topology = polycentric_topology(
                self.num_workers, self.server_ranks
            )
            validate_roles(self.topology)
