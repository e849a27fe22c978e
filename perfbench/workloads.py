"""The three seeded workloads, each driven through the public round APIs.

A workload run is a sequence of identical *episodes*: build the
federation from the seed, drive a fixed number of rounds, checkpoint it
and audit what it recorded. Every episode of one run gets the same
inputs, so episodes must reproduce each other bit for bit. Fixed-size
episodes keep the work behind every sample constant, which is what makes
their fast percentiles comparable between runs on a noisy host.

* ``silo256`` — 256-worker cross-silo MLP federation, direct mode.
* ``device1m`` — 10^6-worker lazy population, reputation-weighted cohorts.
* ``service16`` — ``FederationService`` under seeded churn, ledger on,
  checkpoints, then the operator's strict audit.

The two trainer workloads have no service, so their checkpoint is the
service's snapshot path applied to the bare trainer
(``capture_state`` → ``encode_snapshot_blobs`` → ``write_snapshot``) and
their audit is ``verify_trace`` over the run's in-memory trace plus
``verify_snapshot`` of the last checkpoint; the ledger checks are skipped
there because the ledger is off.
"""

from __future__ import annotations

import contextlib
import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import repro.audit as audit
import repro.service.snapshot as snapshot
import repro.telemetry.sinks as sinks
from repro.core import make_mechanism
from repro.datasets import iid_partition, make_blobs, train_test_split
from repro.experiments.common import FedExpConfig, build_population, sign_flip
from repro.fl import FederatedTrainer, HonestWorker, SignFlippingWorker, TrainingHistory
from repro.monitor import Monitor, MonitorConfig
from repro.nn import build_mlp
from repro.perf.resources import rss_bytes
from repro.population import WorkerPopulation
from repro.service import FederationService, ReplayConfig, ServiceConfig
from repro.service.replay import generate_workload
from repro.telemetry import JsonlSink, MemorySink, Telemetry, set_telemetry

from stats import Checks, median
from spans import AUDIT, CHECKPOINT, REGION

__all__ = ["Episode", "WORKLOADS"]

#: extra fresh builds, each through its first round, per untraced episode
SETUP_REPEATS = 4


@dataclass
class Episode:
    """Timings, counters and checks of one build-run-checkpoint-audit episode."""

    #: seconds from construction through the end of the first round, of
    #: the episode's own build and of the extra builds before it
    setup_s: list[float]
    #: latency of every round call after the first
    round_ms: list[float]
    #: clock at the start of each round in ``round_ms``, then at the end of
    #: the last one, so every stall between rounds (checkpoints included)
    #: falls inside some interval
    marks: list[float]
    digest: str
    checks: Checks
    checkpoint_ms: list[float]
    #: seconds of each read + verify pass over the run's records
    audit_s: list[float]
    #: plain-number counters for the traced report (never live objects:
    #: an episode must not keep its federation alive)
    counts: dict = field(default_factory=dict)
    #: rounds per window, and the round index the first window starts at
    window: int = 1
    window_start: int = 0

    def windows(self) -> list[tuple[float, float]]:
        """``(rounds per second, median round ms)`` of each whole window."""
        out = []
        for i in range(self.window_start, len(self.round_ms) - self.window + 1,
                       self.window):
            j = i + self.window
            out.append((self.window / (self.marks[j] - self.marks[i]),
                        median(self.round_ms[i:j])))
        return out


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _errstate():
    # Sign-flipped updates can overflow before FIFL rejects them; the
    # experiments silence the same float warnings.
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _setup_samples(workload, tracer) -> list[float]:
    """Set-up seconds of ``SETUP_REPEATS`` throwaway builds of ``workload``.

    Skipped in traced episodes, which feed no end-to-end metric.
    """
    if tracer is not None:
        return []
    return [workload._setup_sample() for _ in range(SETUP_REPEATS)]


def _params_digest(model, extra: bytes = b"") -> str:
    h = hashlib.sha256(model.get_flat_params().tobytes())
    h.update(extra)
    return h.hexdigest()


def _common_counts(hub: Telemetry, net, rounds: int, rss_growth: int) -> dict:
    return {
        "rounds": rounds,
        "net_sent": net.messages_sent,
        "net_delivered": net.messages_delivered,
        "net_dropped": len(net.drop_log.drops),
        "net_bytes": net.total_bytes(),
        "workers_scored": hub.snapshot()["counters"].get("fifl.workers_scored", 0),
        "telemetry_events": hub.seq,
        "rss_growth_bytes": rss_growth,
    }


def _drive(trainer: FederatedTrainer, test, rounds: int, eval_every: int,
           t_build: float, tracer):
    """Run ``rounds`` rounds the way ``FederatedTrainer.run`` would."""
    records, round_ms, marks = [], [], []
    with _errstate(), _span(tracer, REGION):
        for t in range(rounds):
            trainer.test_data = test if t % eval_every == 0 or t == rounds - 1 else None
            r0 = time.perf_counter()
            records.append(trainer.run_round(t))
            r1 = time.perf_counter()
            if t == 0:
                setup_s, rss0 = r1 - t_build, rss_bytes()
            else:
                round_ms.append((r1 - r0) * 1e3)
                marks.append(r0)
    marks.append(r1)
    return records, setup_s, round_ms, marks, rss_bytes() - rss0


class _TrainerWorkload:
    """Shared episode of the two workloads that drive ``run_round`` directly."""

    name: str
    ROUNDS: int
    EVAL_EVERY = 50
    #: rounds per timing window
    WINDOW: int
    #: checkpoints and audit passes per episode
    CHECKPOINT_REPEATS = 3
    AUDIT_REPEATS = 10

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.root = workdir / self.name

    def prepare(self) -> None:
        pass

    def _build(self):
        """``(trainer, test)`` for this seed."""
        raise NotImplementedError

    def _check(self, trainer, records, checks: Checks) -> dict:
        """Workload-specific correctness checks; returns extra counts."""
        raise NotImplementedError

    def _setup_sample(self) -> float:
        set_telemetry(Telemetry())
        t0 = time.perf_counter()
        trainer, test = self._build()
        trainer.test_data = test
        with _errstate():
            trainer.run_round(0)
        return time.perf_counter() - t0

    def episode(self, tracer=None) -> Episode:
        setups = _setup_samples(self, tracer)
        hub = Telemetry(sinks=[MemorySink(maxlen=None)])
        set_telemetry(hub)
        t_build = time.perf_counter()
        trainer, test = self._build()
        records, setup_s, round_ms, marks, rss_growth = _drive(
            trainer, test, self.ROUNDS, self.EVAL_EVERY, t_build, tracer
        )
        checks = Checks()
        counts = _common_counts(hub, trainer.network, len(records), rss_growth)
        counts.update(self._check(trainer, records, checks))
        digest = _params_digest(
            trainer.model, repr([(r.grad_norm, sorted(r.accepted.items()))
                                 for r in records]).encode()
        )

        # checkpoint: the service's snapshot path over the bare trainer
        shutil.rmtree(self.root, ignore_errors=True)
        holder = SimpleNamespace(
            trainer=trainer, mechanism=trainer.mechanism, ledger=None,
            monitor=None, next_round=len(records),
            history=TrainingHistory(rounds=records), _rolling="",
            _rounds_folded=0,
        )
        checkpoint_ms = []
        for k in range(self.CHECKPOINT_REPEATS):
            c0 = time.perf_counter()
            with _span(tracer, CHECKPOINT):
                blobs = snapshot.encode_snapshot_blobs(
                    {"workload": self.name, "seed": self.seed},
                    snapshot.capture_state(holder),
                )
                path = snapshot.write_snapshot(self.root / f"ckpt-{k}",
                                               len(records), blobs)
            checkpoint_ms.append((time.perf_counter() - c0) * 1e3)
        counts["snapshot_bytes"] = sum(len(b) for b in blobs.values())
        del holder, trainer, blobs

        # audit: verify the run's decisions from its own trace, and the
        # last checkpoint against its manifest
        audits = []
        for _ in range(self.AUDIT_REPEATS):
            a0 = time.perf_counter()
            with _span(tracer, AUDIT):
                with _span(tracer, "audit.read"):
                    events = hub.events()
                report = audit.verify_trace(events)
                problems = snapshot.verify_snapshot(path)
            audits.append(time.perf_counter() - a0)
        counts.update(audit_events=len(events), audit_checks=len(report.checks) + 1)
        # the ledger is off in these workloads, so only its checks may skip
        bad = [f"{c.name}: {c.status} ({c.detail})" for c in report.checks
               if c.status != "pass" and not c.name.startswith("ledger")]
        checks.add("trace-audit", report.ok and not bad, "; ".join(bad))
        checks.add("checkpoint-intact", not problems, "; ".join(problems))
        shutil.rmtree(self.root, ignore_errors=True)
        set_telemetry(Telemetry())
        return Episode(
            setup_s=[setup_s, *setups],
            round_ms=round_ms,
            marks=marks,
            digest=digest,
            checks=checks,
            checkpoint_ms=checkpoint_ms,
            audit_s=audits,
            counts=counts,
            window=self.WINDOW,
        )


# -- silo256 -----------------------------------------------------------------


class Silo256(_TrainerWorkload):
    """256-worker cross-silo MLP federation over the direct upload path."""

    name = "silo256"
    why = ("256-worker MLP rounds: fleet local compute and per-message comm "
           "dominate; population, sim, ledger stay idle")
    WORKERS = 256
    ATTACKERS = frozenset(range(240, 256))
    SERVERS = (0, 1)
    SAMPLES, BATCH, TEST = 32, 8, 512
    FEATURES, CLASSES, HIDDEN = 16, 4, (64,)
    ROUNDS = 100
    WINDOW = 5
    #: rounds before the detection rates are checked
    WARMUP = 3
    #: sign-flippers flagged at least this often after warm-up, honest
    #: workers at most ``1 - FLAG_RATE`` (cosine detection on 8-sample
    #: gradients is noisy: ~80% / ~20% are typical)
    FLAG_RATE = 0.6
    #: the attacked run may trail the attack-free reference by this much
    ACC_SLACK = 0.05

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.reference_acc: float | None = None
        self._attackers = self.ATTACKERS

    def _build(self):
        seed = self.seed
        data = make_blobs(
            n_samples=self.WORKERS * self.SAMPLES + self.TEST,
            n_features=self.FEATURES,
            num_classes=self.CLASSES,
            seed=seed,
        )
        train, test = train_test_split(data, self.TEST / len(data), seed=seed)
        shards = iid_partition(train, self.WORKERS, seed=seed)

        def model_fn():
            return build_mlp(self.FEATURES, self.CLASSES, hidden=self.HIDDEN, seed=seed)

        common = dict(lr=0.05, batch_size=self.BATCH, local_iters=1)
        workers = [
            SignFlippingWorker(wid, shards[wid], model_fn, seed=seed + 1000 + wid,
                               p_s=4.0, **common)
            if wid in self._attackers
            else HonestWorker(wid, shards[wid], model_fn, seed=seed + 1000 + wid,
                              **common)
            for wid in range(self.WORKERS)
        ]
        trainer = FederatedTrainer(
            model_fn(),
            population=WorkerPopulation.from_workers(workers),
            server_ranks=list(self.SERVERS),
            test_data=test,
            mechanism=make_mechanism("fifl", engine="vectorized"),
            server_lr=0.05,
            drop_prob=0.02,
            seed=seed,
        )
        return trainer, test

    def prepare(self) -> None:
        """Attack-free same-seed reference accuracy (also warms BLAS)."""
        set_telemetry(Telemetry())
        self._attackers = frozenset()
        try:
            trainer, test = self._build()
            records = _drive(trainer, test, self.ROUNDS, self.EVAL_EVERY,
                             time.perf_counter(), None)[0]
        finally:
            self._attackers = self.ATTACKERS
        self.reference_acc = records[-1].test_acc

    def _check(self, trainer, records, checks: Checks) -> dict:
        flagged = {True: [0, 0], False: [0, 0]}  # is_attacker -> [flagged, scored]
        for r in records[self.WARMUP:]:
            for w, ok in r.accepted.items():
                if w not in r.uncertain and w not in self.SERVERS:
                    tally = flagged[w in self.ATTACKERS]
                    tally[0] += not ok
                    tally[1] += 1
        att_rate = flagged[True][0] / max(flagged[True][1], 1)
        hon_rate = flagged[False][0] / max(flagged[False][1], 1)
        checks.add("attackers-flagged", att_rate >= self.FLAG_RATE,
                   f"sign-flippers flagged in {att_rate:.3f} of scored rounds")
        checks.add("honest-accepted", hon_rate <= 1 - self.FLAG_RATE,
                   f"honest workers flagged in {hon_rate:.3f} of scored rounds")
        acc = records[-1].test_acc
        floor = self.reference_acc - self.ACC_SLACK
        checks.add("accuracy-floor", acc is not None and acc >= floor,
                   f"final accuracy {acc} below the reference floor {floor:.4f}")
        return {"attacker_flag_rate": att_rate, "honest_flag_rate": hon_rate,
                "accuracy": acc}


# -- device1m ----------------------------------------------------------------


class Device1M(_TrainerWorkload):
    """10^6 lazy workers, 64-worker reputation-weighted cohorts."""

    name = "device1m"
    why = ("10^6-worker population: reputation-weighted cohort sampling "
           "dominates; local compute, comm and core stay small")
    POPULATION = 10**6
    COHORT = 64
    N_ATTACKERS = 20
    SERVERS = (0, 1)
    ROUNDS = 25
    WINDOW = 3

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = np.random.default_rng((seed, 0xD1))
        # one sign-flipper in each twentieth of the id space, seeded offset
        stride = self.POPULATION // self.N_ATTACKERS
        self.attackers = tuple(
            int(k * stride + rng.integers(2, stride)) for k in range(self.N_ATTACKERS)
        )
        self.cfg = FedExpConfig(
            dataset="blobs",
            num_workers=self.COHORT,
            samples_per_worker=32,
            test_samples=256,
            rounds=self.ROUNDS,
            eval_every=self.EVAL_EVERY,
            server_ranks=self.SERVERS,
            seed=seed,
            population_size=self.POPULATION,
            cohort_size=self.COHORT,
            sampler="reputation",
            availability=0.9,
        )

    def _build(self):
        cfg = self.cfg
        model, population, test = build_population(
            cfg, {w: sign_flip(4.0) for w in self.attackers}
        )
        trainer = FederatedTrainer(
            model,
            population=population,
            server_ranks=list(cfg.server_ranks),
            test_data=test,
            mechanism=make_mechanism("fifl", engine="vectorized"),
            server_lr=cfg.server_lr,
            seed=cfg.seed,
            cohort_size=cfg.cohort_size,
            sampler=cfg.sampler,
        )
        return trainer, test

    def _check(self, trainer, records, checks: Checks) -> dict:
        servers = set(self.SERVERS)
        no_server = [r.round_idx for r in records if not servers <= set(r.accepted)]
        checks.add("servers-in-cohort", not no_server,
                   f"rounds without both servers: {no_server[:5]}")
        skipped = [r.round_idx for r in records if r.skipped]
        checks.add("no-skipped-rounds", not skipped, f"skipped rounds: {skipped[:5]}")
        store = trainer.population.reputation_store
        sampled = set().union(*(r.accepted for r in records))
        honest = sorted(sampled - servers - set(self.attackers))
        honest_median = float(np.median(store.get_many(np.asarray(honest))))
        attacker_max = float(store.get_many(np.asarray(self.attackers)).max())
        checks.add("attacker-reputation", attacker_max < honest_median,
                   f"attacker reputation {attacker_max} not below the honest "
                   f"median {honest_median}")
        return {"attackers_sampled": len(sampled & set(self.attackers))}


# -- service16 ---------------------------------------------------------------


class Service16:
    """FederationService under seeded churn, ledger on, then a strict audit."""

    name = "service16"
    why = ("16-worker service: ~4 ms rounds, so sim polling, telemetry flush "
           "and ledger hashing dominate, plus checkpoint and audit stalls")
    WORKERS = 16
    ATTACKER = 5
    ROUNDS = 100
    #: one timing window per checkpoint interval, so every window holds
    #: one save and the fleet rebuild after one
    CHECKPOINT_EVERY = 25
    EVAL_EVERY = 50
    AUDIT_REPEATS = 2

    def __init__(self, seed: int, workdir: Path):
        self.root = workdir / self.name
        replay = ReplayConfig(
            rounds=self.ROUNDS,
            num_workers=self.WORKERS,
            seed=seed,
            checkpoint_every=self.CHECKPOINT_EVERY,
            history_tail=128,
        )
        fed = FedExpConfig(
            dataset="blobs",
            num_workers=self.WORKERS,
            samples_per_worker=replay.samples_per_worker,
            test_samples=replay.test_samples,
            rounds=self.ROUNDS,
            eval_every=self.EVAL_EVERY,
            server_ranks=replay.server_ranks,
            drop_prob=replay.drop_prob,
            seed=seed,
            scenario=generate_workload(replay),
        )
        self.config = ServiceConfig(
            fed=fed,
            attackers={self.ATTACKER: sign_flip(4.0)},
            with_fifl=True,
            ledger=True,
            checkpoint_every=self.CHECKPOINT_EVERY,
            keep_snapshots=2,
            history_tail=replay.history_tail,
        )

    def prepare(self) -> None:
        pass

    def _setup_sample(self) -> float:
        set_telemetry(Telemetry())
        t0 = time.perf_counter()
        service = FederationService(self.config, self.root / "setup",
                                    monitor=Monitor(MonitorConfig()))
        service.run(until_round=1)
        return time.perf_counter() - t0

    def episode(self, tracer=None) -> Episode:
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        setups = _setup_samples(self, tracer)
        trace = self.root / "trace.jsonl"
        snapdir = self.root / "snapshots"

        hub = Telemetry(sinks=[JsonlSink(trace)])
        set_telemetry(hub)
        t_build = time.perf_counter()
        service = FederationService(
            self.config, snapdir, monitor=Monitor(MonitorConfig())
        )
        trainer = service.trainer
        run_round, save = trainer.run_round, service.save
        first: list[float] = []
        round_ms: list[float] = []
        marks: list[float] = []
        checkpoint_ms: list[float] = []

        # stopwatches on this instance only: the service calls both itself
        def timed_round(t):
            r0 = time.perf_counter()
            record = run_round(t)
            r1 = time.perf_counter()
            if first:
                round_ms.append((r1 - r0) * 1e3)
                marks.append(r0)
            else:
                first.extend((r1, rss_bytes()))
            return record

        def timed_save():
            s0 = time.perf_counter()
            path = save()
            checkpoint_ms.append((time.perf_counter() - s0) * 1e3)
            return path

        trainer.run_round = timed_round
        service.save = timed_save
        try:
            with _span(tracer, REGION):
                service.run()
            marks.append(time.perf_counter())
            rss_growth = rss_bytes() - first[1]
        finally:
            del trainer.run_round, service.save
            hub.close()
            set_telemetry(Telemetry())
        snap = snapshot.latest_snapshot(snapdir)
        counts = _common_counts(hub, trainer.network, self.ROUNDS, rss_growth)
        counts.update(
            sim_events=trainer._sim_runner.sim.events_run,
            sim_retries=sum((r.sim or {}).get("retries", 0) for r in service.history.rounds),
            trace_bytes=trace.stat().st_size,
            snapshot_bytes=sum(f.stat().st_size for f in snap.rglob("*") if f.is_file()),
        )
        digest = service.history_digest()
        del service, trainer

        # the operator's audit: read the trace, verify it, verify the service
        audits = []
        for _ in range(self.AUDIT_REPEATS):
            a0 = time.perf_counter()
            with _span(tracer, AUDIT):
                events = sinks.read_trace(trace)
                report = audit.verify_trace(events)
                audit.verify_service(events, snapdir, report=report)
            audits.append(time.perf_counter() - a0)
        counts.update(audit_events=len(events), audit_checks=len(report.checks))
        set_telemetry(Telemetry())

        checks = Checks()
        checks.add("strict-audit", report.ok_strict(),
                   "; ".join(f"{c.name}: {c.status} ({c.detail})"
                             for c in report.checks if c.status != "pass"))
        expected = self.ROUNDS // self.CHECKPOINT_EVERY
        checks.add("checkpoints", len(checkpoint_ms) == expected,
                   f"{len(checkpoint_ms)} checkpoints, expected {expected}")
        shutil.rmtree(self.root, ignore_errors=True)
        return Episode(
            setup_s=[first[0] - t_build, *setups],
            round_ms=round_ms,
            marks=marks,
            digest=digest,
            checks=checks,
            checkpoint_ms=checkpoint_ms,
            audit_s=audits,
            counts=counts,
            window=self.CHECKPOINT_EVERY,
            # round_ms starts at round 1, the first window at round
            # CHECKPOINT_EVERY, just after the first save
            window_start=self.CHECKPOINT_EVERY - 1,
        )


WORKLOADS = {cls.name: cls for cls in (Silo256, Device1M, Service16)}
