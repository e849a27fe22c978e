"""FederationService: the long-lived, restart-tolerant round driver.

Where :meth:`FederatedTrainer.run` executes one in-process training run,
:class:`FederationService` operates a federation as a *service*: it owns
the round cursor, periodically checkpoints the complete federation state
to durable snapshots (``checkpoint_every`` rounds, plus on SIGTERM/SIGINT
when ``checkpoint_on_signal``), and can :meth:`resume` from the latest
snapshot after a crash or a hard kill.

Resume contract (enforced by ``tests/service/`` and
``tests/audit/test_determinism.py``): a run killed at a checkpoint
boundary and resumed produces **byte-identical** outputs — same
:class:`TrainingHistory` digest, same reputation state, same ledger
chain head, and (under a deterministic clock) the same seeded telemetry
trace — as the uninterrupted run.

Two design points make that possible:

* **Snapshots store state, not code.** A snapshot embeds the pickled
  :class:`ServiceConfig`; resume rebuilds the federation from it (every
  builder is deterministic in the config) and overlays the captured
  state. Closures, pools and fleet engines are never serialized.
* **The service drives ``run_round`` directly** — no ``trainer.run``
  wrapper span, a telemetry flush after *every* round, and the
  evaluation toggle keyed off the *configured* total rounds — so the
  event stream of round t is exactly the same whether the process has
  been alive since round 0 or resumed at the last checkpoint.

Memory over 10^4+ rounds is bounded by ``history_tail``: old round
records are folded into a rolling digest chain (so the end-of-run
:meth:`history_digest` is unchanged by compaction) and dropped.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core import make_mechanism
from ..experiments.common import AttackerSpec, FedExpConfig, build_population
from ..fl.trainer import FederatedTrainer, TrainingHistory
from ..ledger import Blockchain
from ..telemetry import get_telemetry
from .snapshot import (
    SnapshotError,
    capture_state,
    capture_telemetry,
    chain_digest,
    encode_snapshot_blobs,
    list_snapshots,
    load_snapshot,
    record_digest,
    reputation_digest as _reputation_digest,
    restore_state,
    restore_telemetry,
    write_snapshot,
)

__all__ = ["ServiceConfig", "FederationService"]


@dataclass
class ServiceConfig:
    """Everything needed to (re)build and operate one federation.

    The config is pickled into every snapshot — resume unpickles it and
    rebuilds the same federation before overlaying state, so it must
    stay picklable (plain data, no closures).
    """

    fed: FedExpConfig = field(default_factory=FedExpConfig)
    #: worker id -> attacker spec (remaining workers honest)
    attackers: dict[int, AttackerSpec] = field(default_factory=dict)
    with_fifl: bool = True
    #: chain mechanism verdicts into a Blockchain ledger (fifl only)
    ledger: bool = True
    #: checkpoint every N completed rounds (the kill/resume granularity)
    checkpoint_every: int = 10
    #: checkpoint + stop gracefully on SIGTERM/SIGINT
    checkpoint_on_signal: bool = True
    #: durable snapshots retained (older ones pruned after each save)
    keep_snapshots: int = 3
    #: keep at most this many round records in memory; older ones fold
    #: into the rolling history digest (None = keep everything)
    history_tail: int | None = None

    def __post_init__(self) -> None:
        if self.checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if self.keep_snapshots < 1:
            raise ValueError("keep_snapshots must be >= 1")
        if self.history_tail is not None and self.history_tail < 1:
            raise ValueError("history_tail must be None or >= 1")


class FederationService:
    """Operates one federation across process lifetimes."""

    def __init__(
        self,
        config: ServiceConfig,
        snapshot_dir: Path | str,
        *,
        monitor=None,
        probe=None,
    ):
        self.config = config
        self.snapshot_dir = Path(snapshot_dir)
        self.monitor = monitor
        self.probe = probe
        self.next_round = 0
        self.history = TrainingHistory()
        # rolling digest over compacted-away round records (hex chain;
        # hashlib objects don't pickle, a hex string does)
        self._rolling = ""
        self._rounds_folded = 0
        # record_digest of history.rounds[i] for every i below its
        # length; filled lazily by history_digest(), never captured
        self._digests: list[str] = []
        self._signal_requested: int | None = None
        self._build()

    # -- construction ----------------------------------------------------------

    def _build(self) -> None:
        cfg = self.config
        model, population, test = build_population(cfg.fed, cfg.attackers)
        self.ledger = Blockchain() if (cfg.with_fifl and cfg.ledger) else None
        self.mechanism = None
        if cfg.with_fifl:
            fed = cfg.fed
            self.mechanism = make_mechanism(
                "fifl",
                ledger=self.ledger,
                threshold=fed.detection_threshold,
                mode=fed.detection_mode,
                gamma=fed.gamma,
                contribution_baseline=fed.contribution_baseline,
                reference_worker=fed.reference_worker,
                contribution_filter=fed.contribution_filter,
                contribution_reference=fed.contribution_reference,
                shard_size=fed.shard_size,
            )
        fed = cfg.fed
        self.trainer = FederatedTrainer(
            model,
            population=population,
            server_ranks=list(fed.server_ranks),
            test_data=test,
            mechanism=self.mechanism,
            server_lr=fed.server_lr,
            drop_prob=fed.drop_prob,
            seed=fed.seed,
            scenario=fed.scenario,
            cohort_size=fed.cohort_size,
            sampler=fed.sampler,
            fleet_shard_size=fed.shard_size,
            backend=fed.backend,
            max_workers=fed.max_workers,
        )

    # -- history compaction / digests ------------------------------------------

    def _absorb(self, record) -> None:
        """Append one round record, folding old ones past the tail."""
        self.history.rounds.append(record)
        tail = self.config.history_tail
        if tail is None:
            return
        rounds = self.history.rounds
        excess = len(rounds) - tail
        if excess > 0:
            digests = self._digests
            for i, old in enumerate(rounds[:excess]):
                digest = digests[i] if i < len(digests) else record_digest(old)
                self._rolling = chain_digest(self._rolling, digest)
            del rounds[:excess]
            del digests[:excess]
            self._rounds_folded += excess
        mech = self.mechanism
        if mech is not None and len(mech.records) > tail:
            del mech.records[: len(mech.records) - tail]

    def history_digest(self) -> str:
        """Digest over *all* rounds ever run (compacted or in memory).

        Each in-memory record is digested once: the call digests only
        the records absorbed since the last one and chains the stored
        digests of the rest, which equals
        :func:`~repro.service.snapshot.history_digest` over the tail.
        """
        rounds, digests = self.history.rounds, self._digests
        digests.extend(map(record_digest, rounds[len(digests):]))
        h = self._rolling
        for digest in digests:
            h = chain_digest(h, digest)
        return h

    def reputation_digest(self) -> str:
        """Digest over mechanism reputations + the out-of-core store."""
        return _reputation_digest(self)

    def final_accuracy(self) -> float | None:
        return self.history.final_accuracy()

    # -- checkpointing ---------------------------------------------------------

    def save(self) -> Path:
        """Checkpoint the complete federation state atomically.

        Ordering matters for the byte-identity contract: state is
        captured first (the hub was flushed at the round boundary, so
        the mechanism's deferred-telemetry state is settled), then the
        checkpoint's own span + event are emitted and flushed, and the
        telemetry cursor is captured *last* so a resumed process
        continues the sequence numbering exactly where a surviving one
        would be.

        The whole call's wall time folds into the hub's timing table as
        ``service.save`` (``add_time``: no event, and no read of the
        hub's clock, which would shift every later span of a
        :class:`~repro.telemetry.TickClock` trace).
        """
        t0 = time.perf_counter()
        tele = get_telemetry()
        with tele.phase("service.checkpoint"):
            runner = self.trainer._sim_runner
            if runner is not None:
                # Drain the event heap: what remains after a round are
                # landings of messages still in flight and send groups
                # due after the deadline (a straggler's first send goes
                # out, a retry of a closed round sends nothing). Running
                # them dry advances the clock to the last of them, is
                # deterministic, happens at every checkpoint in every
                # run (killed or not), and leaves the kernel in the
                # idle state the snapshot inventory can capture.
                runner.sim.run()
            state = capture_state(self)
        tele.event(
            "service.checkpoint",
            {"round": self.next_round, "components": len(state)},
        )
        # Lineage anchor: the rolling digests at this checkpoint, both in
        # the trace (so offline audits see the digest chain advance) and
        # in the snapshot manifest (so ``repro.trace verify --dir`` can
        # tie a resumed process back to the exact state it inherited).
        # Pure functions of federation state, so a resumed process emits
        # the same anchors the uninterrupted one would (byte-identity).
        audit_block = self._audit_block()
        tele.event("service.audit", audit_block)
        tele.flush()
        state["telemetry"] = capture_telemetry(tele)
        blobs = encode_snapshot_blobs(self.config, state)
        path = write_snapshot(
            self.snapshot_dir,
            self.next_round,
            blobs,
            extra_manifest={
                "config_echo": self._config_echo(),
                # the manifest copy also records the compaction cursor —
                # policy-dependent, so it must never ride in the trace
                # event (history_tail would change trace bytes)
                "audit": {**audit_block,
                          "rounds_folded": self._rounds_folded},
            },
        )
        self._prune()
        tele.add_time("service.save", time.perf_counter() - t0)
        return path

    def _audit_block(self) -> dict:
        """Digest anchors for decision-lineage continuity across resume."""
        block = {
            "round": self.next_round,
            "history_digest": self.history_digest(),
            "reputation_digest": self.reputation_digest(),
        }
        if self.ledger is not None:
            block["ledger_head"] = self.ledger.head_hash()
            block["ledger_blocks"] = len(self.ledger)
        return block

    def _config_echo(self) -> dict:
        """Human-readable manifest block for ``status`` / ``inspect``."""
        fed = self.config.fed
        return {
            "dataset": fed.dataset,
            "num_workers": fed.num_workers,
            "population_size": fed.population_size,
            "rounds": fed.rounds,
            "seed": fed.seed,
            "with_fifl": self.config.with_fifl,
            "ledger": self.config.ledger,
            "checkpoint_every": self.config.checkpoint_every,
            "rounds_folded": self._rounds_folded,
        }

    def _prune(self) -> None:
        snaps = list_snapshots(self.snapshot_dir)
        for stale in snaps[: -self.config.keep_snapshots]:
            import shutil

            shutil.rmtree(stale)

    def restore(self, state: dict) -> None:
        """Overlay a captured state dict (see :func:`capture_state`)."""
        restore_state(self, state)
        restore_telemetry(get_telemetry(), state["telemetry"])

    @classmethod
    def resume(
        cls,
        snapshot_dir: Path | str,
        *,
        snapshot: Path | str | None = None,
        monitor=None,
        probe=None,
    ) -> "FederationService":
        """Rebuild a service from a named snapshot, or else the newest
        intact one: a snapshot that fails its digest check is skipped
        with one line on stderr, and the next older one is tried."""
        snaps = ([Path(snapshot)] if snapshot is not None
                 else list_snapshots(snapshot_dir)[::-1])
        if not snaps:
            raise SnapshotError(f"no snapshots under {snapshot_dir}")
        for snap in snaps:
            try:
                config, state = load_snapshot(snap)
                break
            except SnapshotError as exc:
                if snap is snaps[-1]:
                    raise
                print(f"warning: {exc}; trying an older snapshot",
                      file=sys.stderr)
        try:
            service = cls(config, snapshot_dir, monitor=monitor, probe=probe)
        except (ValueError, TypeError) as exc:
            # e.g. a config field value this version no longer supports
            raise SnapshotError(
                f"snapshot {snap} stores a config that no longer builds: {exc}"
            ) from exc
        service.restore(state)
        return service

    # -- the round loop --------------------------------------------------------

    def _handle_signal(self, signum, frame) -> None:
        self._signal_requested = signum

    def _hard_kill(self) -> None:
        """Die like a machine would: no cleanup, no atexit, no flush."""
        os.kill(os.getpid(), signal.SIGKILL)

    def run(
        self,
        *,
        until_round: int | None = None,
        kill_after_round: int | None = None,
    ) -> TrainingHistory:
        """Advance the federation to ``until_round`` (default: configured
        total), checkpointing per policy.

        ``kill_after_round=k`` SIGKILLs the process right after round k's
        checkpoint — the crash-injection hook the kill/resume
        differentials drive. It must land on a checkpoint boundary, or
        the post-kill state would be unrecoverable by construction.
        """
        cfg = self.config
        total = cfg.fed.rounds
        until = total if until_round is None else until_round
        if until > total:
            raise ValueError(f"until_round {until} exceeds configured {total}")
        if kill_after_round is not None:
            if (kill_after_round + 1) % cfg.checkpoint_every != 0:
                raise ValueError(
                    f"kill_after_round {kill_after_round} is not a "
                    f"checkpoint boundary (checkpoint_every="
                    f"{cfg.checkpoint_every})"
                )
            if not self.next_round <= kill_after_round < until:
                raise ValueError(
                    f"kill_after_round {kill_after_round} outside "
                    f"[{self.next_round}, {until})"
                )
        tele = get_telemetry()
        eval_every = cfg.fed.eval_every
        trainer = self.trainer
        saved_test = trainer.test_data
        monitor = self.monitor
        if monitor is not None:
            tele.flush()
            monitor.install(tele)
        prev_handlers: list[tuple[int, object]] = []
        if cfg.checkpoint_on_signal:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    prev_handlers.append(
                        (sig, signal.signal(sig, self._handle_signal))
                    )
                except ValueError:
                    pass  # not the main thread; run without signal hooks
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                for t in range(self.next_round, until):
                    # Evaluation cadence keyed off the *configured* total
                    # (never the stop bound), so a partial run's rounds
                    # match the uninterrupted run's bytes exactly.
                    trainer.test_data = (
                        saved_test
                        if (t % eval_every == 0 or t == total - 1)
                        else None
                    )
                    record = trainer.run_round(t)
                    self.next_round = t + 1
                    self._absorb(record)
                    tele.flush()
                    if self.probe is not None:
                        sample = self.probe.sample(t)
                        if sample is not None and monitor is not None:
                            monitor.observe_resource(sample)
                    if (
                        (t + 1) % cfg.checkpoint_every == 0
                        or self._signal_requested is not None
                    ):
                        self.save()
                        # Drop the warm fleet engine: a resumed process
                        # necessarily rebuilds it (pools and stacked
                        # replicas are not snapshot state), so every run
                        # must rebuild at checkpoints too — otherwise the
                        # engine's build telemetry appears in a resumed
                        # trace but not the uninterrupted one.
                        trainer._fleet = None
                        trainer._fleet_key = None
                        if self._signal_requested is not None:
                            break
                    if kill_after_round is not None and t == kill_after_round:
                        self._hard_kill()
        except BaseException as exc:
            if monitor is not None:
                from ..monitor.alerts import MonitorError

                try:
                    tele.flush()
                except MonitorError:
                    pass
                from ..parallel.backend import backend_summary

                monitor.dump_postmortem(
                    f"exception: {type(exc).__name__}",
                    context={
                        "backend": backend_summary(trainer.backend),
                        "round": self.next_round,
                    },
                )
            raise
        finally:
            trainer.test_data = saved_test
            for sig, handler in prev_handlers:
                signal.signal(sig, handler)
            if monitor is not None:
                monitor.uninstall()
        return self.history
