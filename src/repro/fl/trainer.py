"""Federated training loop over the polycentric protocol (paper S3.2).

One :class:`FederatedTrainer` drives all three architectures: M = 1 server
is centralized, 1 < M < N polycentric, M = N decentralized — exactly the
generalization the paper claims in S3.2. Gradient uploads travel over the
lossy :class:`~repro.comm.Network`; a lost slice makes that worker's round
an *uncertain event* (neither positive nor negative for reputation).

A pluggable mechanism (e.g. :class:`repro.core.FIFLMechanism`) inspects the
per-server slices each round and decides which workers' gradients enter the
aggregate; with no mechanism every admitted update is accepted, which is
the undefended baseline of Figures 7, 8 and 10.

One round path
--------------
The trainer takes a :class:`~repro.population.WorkerPopulation` plus an
optional cohort size and :class:`~repro.population.CohortSampler`::

    FederatedTrainer(model, population=pop, cohort_size=64,
                     sampler="reputation", server_ranks=[0, 1], ...)

Every round samples a cohort (server ranks always included — they
produce the detection benchmarks), drops failed and unavailable ids,
materializes only those workers and trains them. A federation with no
sampler is the uniform sampler at ``cohort_size = population.size``,
which returns the whole roster without drawing: a static cross-silo
federation is a full-roster cohort, not a second mode. Per-round cost is
O(cohort), never O(population), and the round's reputation verdicts are
written back into the population's out-of-core store.

A failed node (:meth:`FederatedTrainer.fail_node`) means the same thing
in every federation: it leaves every cohort, and the network drops every
message to or from it. A round with no cohort, no live server, or no
finite server gradient is recorded as skipped, with the model left
untouched.

A ready-made list of workers becomes a population through
:meth:`WorkerPopulation.from_workers`. Local training always runs
through :class:`~repro.fl.fleet_compute.FleetLocalEngine`, which batches
workers of one architecture into one stacked model; only workers that
never train (free-riders) run their own ``compute_update``.

One matrix from the fleet to the aggregate
------------------------------------------
The fleet returns the round's uploads as arrays
(:class:`~repro.fl.fleet_compute.LocalUpdates`: ascending worker ids, one
``(K, D)`` gradient matrix, aligned sample counts). The upload exchange
takes the ids and ``D`` and reports which workers delivered every slice;
:class:`RoundContext` carries the admitted rows, ids and counts as
aligned arrays, and each server averages its column block over the
accepted rows (:func:`server_aggregates`). Per-worker dicts are built
once, where something is recorded: ``RoundRecord.accepted`` here, the
mechanism's records, ledger payload and trace event in the mechanism.
One admission rule screens uploads for every mechanism: the finite mask
of the fleet matrix's row norms (:attr:`LocalUpdates.finite`) decides
whether any server holds a benchmark and which delivered rows are
admitted (:meth:`RoundContext.admit`); a non-finite row is ``rejected``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Protocol

import numpy as np

from ..comm import Network
from ..datasets import Dataset
from ..nn import Sequential
from ..parallel.backend import ExecutionBackend, make_backend
from ..parallel.heap import retain_heap
from ..sim import FaultScenario, SimRoundRunner, Simulator, make_latency
from ..telemetry import get_telemetry, profile_delta
from .evaluation import evaluate
from .fleet_compute import FleetLocalEngine, LocalUpdates
# split_views stays in this namespace for profilers that wrap the
# trainer's kernels by name (perfbench/spans.py).
from .gradients import (  # noqa: F401
    fedavg,
    recombine,
    slice_bounds,
    slice_offsets,
    split_views,
)
from .workers import Worker

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
    """Everything a mechanism may inspect in one communication round.

    The admitted uploads are arrays aligned row by row: ``worker_ids``,
    the ``uploads`` matrix, ``sample_counts`` and ``row_sqnorms``. Server
    ``j``'s slice of row ``i`` is the column block
    ``slice_offsets(D, M)[j:j+2]`` of ``uploads[i]``. :attr:`slices` is a
    lazily built per-worker view of the same matrix. Every row is finite:
    build contexts with :meth:`admit`, the round's one admission rule.
    """

    round_idx: int
    global_params: np.ndarray
    server_ranks: list[int]
    #: ``(K,)`` int64 ids of the workers whose every slice arrived, ascending
    worker_ids: np.ndarray
    #: ``(K, D)`` read-only; row ``i`` is ``worker_ids[i]``'s gradient
    uploads: np.ndarray
    #: ``(K,)`` claimed sample counts, aligned with ``worker_ids``
    sample_counts: np.ndarray
    #: workers whose upload was (partly) lost this round: uncertain events
    uncertain: set[int]
    #: workers whose upload arrived whole but is not finite: rejected
    rejected: set[int]
    #: every live worker's local update, delivered or not (the servers'
    #: own gradients, ground truth); a lazy worker id -> update mapping
    updates: LocalUpdates
    #: ``(K,)`` ``||uploads[i]||²``, aligned with ``worker_ids``
    row_sqnorms: np.ndarray

    @classmethod
    def admit(
        cls,
        round_idx: int,
        global_params: np.ndarray,
        server_ranks: list[int],
        local: LocalUpdates,
        complete: np.ndarray,
    ) -> "RoundContext":
        """The round's context after the upload exchange.

        ``complete[i]``: every slice of ``local``'s row ``i`` arrived. A
        row with a lost slice is uncertain; a whole row that is not
        :attr:`~LocalUpdates.finite` is rejected. Only the rest become
        upload rows, copied once (not at all when every row is admitted).
        """
        ids, finite = local.worker_ids, local.finite
        admitted = complete & finite
        if admitted.all():
            rows, uploads = slice(None), local.gradients
        else:
            rows = np.flatnonzero(admitted)
            uploads = local.gradients[rows]
            uploads.flags.writeable = False
        return cls(
            round_idx=round_idx,
            global_params=global_params,
            server_ranks=list(server_ranks),
            worker_ids=ids[rows],
            uploads=uploads,
            sample_counts=local.sample_counts[rows],
            uncertain=set(ids[~complete].tolist()),
            rejected=set(ids[complete & ~finite].tolist()),
            updates=local,
            row_sqnorms=local.row_sqnorms[rows],
        )

    @cached_property
    def slices(self) -> dict[int, dict[int, np.ndarray]]:
        """``worker_id -> {server_rank: slice}``, column-block views of
        :attr:`uploads`."""
        bounds = slice_bounds(self.uploads.shape[1], len(self.server_ranks))
        blocks = [self.uploads[:, lo:hi] for lo, hi in bounds]
        return {
            wid: dict(zip(self.server_ranks, parts))
            for wid, parts in zip(self.worker_ids.tolist(), zip(*blocks))
        }


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
    """Accept every admitted update: the undefended baseline of Figures
    7, 8 and 10, and the trainer's default mechanism."""

    def process_round(self, ctx: RoundContext) -> RoundDecision:
        return RoundDecision(accept=dict.fromkeys(ctx.worker_ids.tolist(), True))


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


def server_aggregates(
    uploads: np.ndarray,
    sample_counts: np.ndarray,
    keep: np.ndarray,
    server_ranks: list[int],
    profiler,
) -> list[np.ndarray]:
    """Each server's FedAvg of its slice over the kept rows (step 2.2).

    Server ``j`` averages the column block of its slice over the rows
    ``keep`` selects, gathered into one contiguous block — the matrix a
    stack of the kept workers' slices builds, so the result is that of
    :func:`fedavg` over the per-worker slices, bit for bit.
    """
    rows = slice(None) if keep.all() else keep
    weights = sample_counts[rows]
    agg_slices = []
    for srv, (lo, hi) in zip(
        server_ranks, slice_bounds(uploads.shape[1], len(server_ranks))
    ):
        with profiler.span("trainer.server_slice", kind="slice", server=srv):
            agg_slices.append(fedavg(uploads[rows, lo:hi], weights))
    return agg_slices


class FederatedTrainer:
    """Drives synchronous federated rounds over a lossy network."""

    def __init__(
        self,
        model: Sequential,
        population,
        server_ranks: list[int] | None = None,
        test_data: Dataset | None = None,
        mechanism: RoundMechanism | None = None,
        server_lr: float = 0.1,
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
        if server_lr <= 0:
            raise ValueError("server_lr must be positive")
        if reselect_every < 0:
            raise ValueError("reselect_every must be non-negative")
        self.model = model
        self.num_workers = population.size
        self.server_ranks = sorted(set(server_ranks))
        self._check_server_ranks(self.server_ranks)
        # No sampler means the full roster every round: the uniform
        # sampler at full size returns it without drawing.
        self.cohort_size = population.size if cohort_size is None else cohort_size
        if scenario is not None and (
            sampler is not None or self.cohort_size < population.size
        ):
            raise ValueError(
                "cohort sampling and FaultScenario are mutually "
                "exclusive; model device availability/churn on the "
                "WorkerPopulation instead"
            )
        self.sampler = sampler if sampler is not None else make_sampler(
            "uniform", seed=seed
        )
        self.fleet_shard_size = fleet_shard_size
        self.test_data = test_data
        self.mechanism: RoundMechanism = (
            mechanism if mechanism is not None else AcceptAllMechanism()
        )
        self.server_lr = server_lr
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

    def _check_server_ranks(self, ranks: list[int]) -> None:
        """Servers are workers (S ⊂ W): every rank must lie in ``[0, N)``."""
        bad = [r for r in ranks if not 0 <= r < self.num_workers]
        if bad or not ranks:
            raise ValueError(
                f"server ranks {bad} outside [0, {self.num_workers})"
            )

    def fail_node(self, rank: int) -> None:
        """Simulate a device crash (S3.2's fault-tolerance discussion).

        From the next round on, the node leaves every cohort and the
        network drops every message to or from it, deterministically and
        without an RNG draw (:meth:`Network.set_down_nodes`). The failed
        set lives here, one entry per node, never as per-link state.

        A failed plain worker just disappears from the federation. A
        failed *server* keeps its slice slot, so every upload loses a
        slice and every worker's round is uncertain: the stall the paper
        warns about for a static cluster, until re-selection (S4.5)
        replaces the server. With every server failed, rounds are
        recorded as skipped ("no live server").
        """
        if not 0 <= rank < self.num_workers:
            raise ValueError(f"rank {rank} outside [0, {self.num_workers})")
        self._failed.add(rank)

    @property
    def failed_nodes(self) -> set[int]:
        return set(self._failed)

    def node_comm_load(self) -> dict[int, int]:
        """Bytes moved through each node (sent + received) so far.

        The max over nodes is the deployment bottleneck S3.2 discusses:
        one central server carries O(N·P) per round, M polycentric
        servers carry O(N·P/M) each, and fully decentralized nodes carry
        O(P) regardless of N. Only nodes that moved bytes appear, in
        ascending id order.
        """
        load: dict[int, int] = {}
        for (src, dst), nbytes in self.network.bytes_sent.items():
            load[src] = load.get(src, 0) + nbytes
            load[dst] = load.get(dst, 0) + nbytes
        return dict(sorted(load.items()))

    # -- cohort selection ------------------------------------------------------

    def _select_cohort(self, round_idx: int) -> list[Worker]:
        """Sample, liveness-filter and materialize this round's cohort.

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
        live = np.asarray(sampled, dtype=np.int64)
        if self._failed:
            failed = np.fromiter(self._failed, np.int64, len(self._failed))
            live = live[~np.isin(live, failed)]
        live = pop.available_ids(live, round_idx, required=self.server_ranks)
        cohort = pop.checkout(live.tolist(), round_idx=round_idx)
        coverage = pop.coverage()
        prof.count("trainer.cohort_workers", len(live))
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
        ids: np.ndarray,
        dim: int,
        round_idx: int,
        received: str = "after",
    ) -> np.ndarray:
        """Workers send slice j of their gradient to server j (step 1.3).

        One batched exchange over the instant-link network: each worker's
        slice for server ``j`` travels as a ``(j, slice)`` message, in
        ``ids`` order. Returns the ``(K, M)`` per-link delivery mask.
        """
        return self.network.send_batch(
            ids,
            self.server_ranks,
            f"slice:{round_idx}",
            self._slice_nbytes(dim),
            received=received,
        )

    def _slice_nbytes(self, dim: int) -> np.ndarray:
        """Wire size of each server's ``(j, slice)`` upload message: the
        8-byte slot index plus the slice's float64 values."""
        return 8 + 8 * np.diff(slice_offsets(dim, len(self.server_ranks)))

    def _broadcast(
        self, dests, agg_slices: list[np.ndarray], round_idx: int
    ) -> None:
        """Servers send their global slice to every other worker (step 1.4).

        The trainer holds the global model authoritatively, so this pass
        exists for protocol fidelity — byte accounting and drop
        statistics per link (the per-node communication load is what
        S3.2's scalability argument is about). Nothing ever receives it.
        Each server sends as one batched exchange; on a latency network
        its messages are in flight on the virtual clock until they land.
        """
        tag = f"global:{round_idx}"
        dests = np.fromiter(dests, dtype=np.int64)
        for srv, part in zip(self.server_ranks, agg_slices):
            self.network.send_batch([srv], dests[dests != srv], tag, part.nbytes)

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
        with prof.phase("trainer.cohort"):
            cohort = self._select_cohort(round_idx)
        plan = None
        offline: frozenset[int] = frozenset()
        if self._sim_runner is not None:
            # Fault scenario: apply churn/partitions and draw this
            # round's compute-time plan before anyone trains.
            plan = self._sim_runner.begin_round(round_idx, cohort)
            offline = plan.offline
        # Crashed and offline nodes are one outage: nothing reaches them
        # and nothing they send arrives.
        self.network.set_down_nodes(self._failed | offline)
        if not cohort:
            return self._skipped_round(round_idx, "empty cohort")
        servers = set(self.server_ranks)
        if not any(w.worker_id in servers for w in cohort):
            return self._skipped_round(round_idx, "no live server")
        theta = self.model.get_flat_params()
        global_buffers = self.model.get_flat_buffers()
        with prof.phase("trainer.local_compute"):
            local = self._fleet_for(cohort).compute_updates(
                theta, global_buffers, exclude=offline
            )
        server_rows = [
            i for i in map(local.row, self.server_ranks) if i is not None
        ]
        if not server_rows:
            return self._skipped_round(round_idx, "no server update")
        if not local.finite[server_rows].any():
            # Every live server's own gradient blew up: no server holds a
            # usable detection benchmark, so the round is void, like one
            # in which no server delivered.
            return self._skipped_round(round_idx, "no finite server update")
        sim_info = None
        ids = local.worker_ids
        with prof.phase("trainer.upload"):
            if self._sim_runner is not None:
                complete, sim_info = self._sim_runner.collect(
                    ids, theta.size, round_idx, plan
                )
            else:
                complete = self._upload_slices(ids, theta.size, round_idx).all(axis=1)
            # Any lost slice -> the round is unidentifiable for this
            # worker: an SLM uncertain event. A whole but non-finite
            # upload is rejected. Neither reaches the mechanism's rows.
            ctx = RoundContext.admit(
                round_idx, theta, self.server_ranks, local, complete
            )
        uncertain = ctx.uncertain
        prof.count("trainer.rounds")
        prof.count("trainer.uncertain_workers", len(uncertain))

        with prof.phase("trainer.mechanism"):
            decision = self.mechanism.process_round(ctx)
        # Round verdicts flow back into the population's out-of-core
        # reputation store, where reputation-weighted samplers (and the
        # next session's analyses) read them.
        reps = decision.records.get("reputations")
        if reps:
            self.population.write_reputations(reps)

        accept = decision.accept
        keep = np.fromiter(
            (bool(accept.get(w, False)) for w in ctx.worker_ids.tolist()),
            bool, ctx.worker_ids.size,
        )
        grad_norm = 0.0
        if keep.any():
            # Servers aggregate their slice over accepted workers (step 2.2),
            # then slices recombine into the global gradient (step 1.5).
            with prof.phase("trainer.aggregate"):
                agg_slices = server_aggregates(
                    ctx.uploads, ctx.sample_counts, keep, self.server_ranks,
                    prof,
                )
                global_grad = recombine(agg_slices)
            grad_norm = float(np.linalg.norm(global_grad))
            prof.gauge("trainer.grad_norm", grad_norm)
            self.model.set_flat_params(theta - self.server_lr * global_grad)
            self._broadcast(
                [w.worker_id for w in cohort], agg_slices, round_idx
            )
            # FedAvg-BN: average accepted workers' running statistics into
            # the global model so evaluation normalizes with live stats.
            if local.buffers is not None and self.model.num_buffer_values:
                rows = np.searchsorted(ids, ctx.worker_ids[keep])
                rows = rows[local.has_buffers[rows]]
                if rows.size:
                    self.model.set_flat_buffers(
                        fedavg(local.buffers[rows], local.sample_counts[rows])
                    )

        test_loss = test_acc = None
        if self.test_data is not None:
            with prof.phase("trainer.evaluate"):
                test_loss, test_acc = evaluate(self.model, self.test_data)

        return RoundRecord(
            round_idx=round_idx,
            test_loss=test_loss,
            test_acc=test_acc,
            accepted={w: accept.get(w, False) for w in ids.tolist()},
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
        self._check_server_ranks(new_ranks)
        self.server_ranks = new_ranks
