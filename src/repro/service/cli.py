"""``python -m repro.service`` — operate a federation from the shell.

Subcommands:

* ``run``     — build a preset federation and advance it (checkpointing
  per policy); ``--kill-after-round`` SIGKILLs the process right after
  that round's checkpoint, for crash-recovery drills;
* ``resume``  — restart from the latest (or a named) snapshot and keep
  going — byte-identical to a process that never died;
* ``status``  — snapshot inventory of a service directory;
* ``inspect`` — deep integrity check + manifest detail of one snapshot.

``--trace FILE`` streams the seeded telemetry trace to JSONL with
``fsync_on_flush`` durability; ``--deterministic-clock`` swaps in a
:class:`~repro.telemetry.TickClock` so traces are byte-identical across
runs — together they make kill/resume differentials scriptable (see
``examples/service_resume.py``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from ..experiments.common import FedExpConfig, sign_flip
from ..sim import FaultScenario
from ..sim.latency import LatencyConfig
from ..telemetry import JsonlSink, MemorySink, Telemetry, TickClock, set_telemetry
from .service import FederationService, ServiceConfig
from .snapshot import (
    SnapshotError,
    latest_snapshot,
    list_snapshots,
    read_manifest,
    verify_snapshot,
)

__all__ = ["main", "make_preset", "PRESETS"]


def _preset_blobs_fifl(seed: int) -> ServiceConfig:
    """Small cross-silo FIFL federation with one sign-flip attacker and
    a full ledger — the walkthrough / differential workhorse."""
    return ServiceConfig(
        fed=FedExpConfig(
            dataset="blobs",
            num_workers=8,
            samples_per_worker=40,
            test_samples=160,
            rounds=30,
            eval_every=5,
            server_ranks=(0, 1),
            seed=seed,
        ),
        attackers={5: sign_flip(4.0)},
        with_fifl=True,
        ledger=True,
        checkpoint_every=5,
    )


def _preset_sim_churn(seed: int) -> ServiceConfig:
    """Discrete-event federation: latency, drops, churn and retries."""
    return ServiceConfig(
        fed=FedExpConfig(
            dataset="blobs",
            num_workers=8,
            samples_per_worker=40,
            test_samples=160,
            rounds=30,
            eval_every=5,
            server_ranks=(0, 1),
            drop_prob=0.05,
            seed=seed,
            scenario=FaultScenario(
                name="cli-churn",
                latency=LatencyConfig(kind="uniform", a=0.01, b=0.05),
                round_timeout_s=30.0,
                max_retries=1,
                straggler_rate=0.1,
                churn=((6, 4, "leave"), (12, 4, "join"), (18, 6, "leave")),
                seed=seed,
            ),
        ),
        attackers={5: sign_flip(4.0)},
        with_fifl=True,
        ledger=True,
        checkpoint_every=5,
    )


def _preset_population(seed: int) -> ServiceConfig:
    """Cross-device mode: lazy 64-worker population, 16-worker cohorts."""
    return ServiceConfig(
        fed=FedExpConfig(
            dataset="blobs",
            num_workers=8,
            samples_per_worker=40,
            test_samples=160,
            rounds=30,
            eval_every=5,
            server_ranks=(0, 1),
            seed=seed,
            population_size=64,
            cohort_size=16,
            sampler="uniform",
            availability=0.9,
        ),
        attackers={5: sign_flip(4.0)},
        with_fifl=True,
        ledger=False,
        checkpoint_every=5,
    )


PRESETS = {
    "blobs-fifl": _preset_blobs_fifl,
    "sim-churn": _preset_sim_churn,
    "population": _preset_population,
}


def make_preset(
    name: str,
    *,
    seed: int = 0,
    rounds: int | None = None,
    checkpoint_every: int | None = None,
    history_tail: int | None = None,
) -> ServiceConfig:
    """One named preset config, with the common knobs applied.

    Overrides go through ``dataclasses.replace``, so ``ServiceConfig``
    validates them as it validates the presets.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (have {sorted(PRESETS)})")
    if rounds is not None and rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    cfg = PRESETS[name](seed)
    overrides = {}
    if rounds is not None:
        overrides["fed"] = cfg.fed.scaled(rounds=rounds)
    if checkpoint_every is not None:
        overrides["checkpoint_every"] = checkpoint_every
    if history_tail is not None:
        overrides["history_tail"] = history_tail
    return dataclasses.replace(cfg, **overrides)


def _check_until_round(args) -> None:
    if args.until_round is not None and args.until_round < 0:
        raise ValueError(f"until_round must be non-negative, got {args.until_round}")


def _install_hub(args) -> None:
    """Swap in the observability stack the flags ask for."""
    if not (args.trace or args.deterministic_clock):
        return
    sinks: list = [MemorySink()]
    if args.trace:
        sinks.append(JsonlSink(args.trace, fsync_on_flush=True))
    clock = TickClock() if args.deterministic_clock else None
    set_telemetry(Telemetry(sinks=sinks, clock=clock))


def _summary(service: FederationService) -> dict:
    out = {
        "next_round": service.next_round,
        "final_accuracy": service.final_accuracy(),
        "history_digest": service.history_digest(),
        "reputation_digest": service.reputation_digest(),
        "snapshots": [p.name for p in list_snapshots(service.snapshot_dir)],
    }
    if service.ledger is not None:
        out["ledger_head"] = service.ledger.head_hash()
        out["ledger_blocks"] = len(service.ledger)
        out["ledger_intact"] = service.ledger.is_intact()
    return out


def _cmd_run(args) -> int:
    _check_until_round(args)
    cfg = make_preset(
        args.preset,
        seed=args.seed,
        rounds=args.rounds,
        checkpoint_every=args.checkpoint_every,
        history_tail=args.history_tail,
    )
    _install_hub(args)
    service = FederationService(cfg, args.dir)
    service.run(
        until_round=args.until_round, kill_after_round=args.kill_after_round
    )
    print(json.dumps(_summary(service), indent=2, sort_keys=True))
    return 0


def _cmd_resume(args) -> int:
    _check_until_round(args)
    _install_hub(args)
    snapshot = Path(args.snapshot) if args.snapshot else None
    service = FederationService.resume(args.dir, snapshot=snapshot)
    service.run(until_round=args.until_round)
    print(json.dumps(_summary(service), indent=2, sort_keys=True))
    return 0


def _cmd_status(args) -> int:
    snaps = list_snapshots(args.dir)
    latest = snaps[-1] if snaps else None
    status = {
        "dir": str(args.dir),
        "snapshots": [p.name for p in snaps],
        "latest": latest.name if latest else None,
    }
    if latest is not None:
        manifest = read_manifest(latest)
        status["round"] = manifest["round"]
        status["config"] = manifest.get("config_echo", {})
    if args.audit:
        # Lineage chain across process lifetimes: every retained
        # snapshot's audit anchors, oldest first — the digests
        # ``repro.trace verify --dir`` checks a resumed service against.
        status["audit"] = [
            {"snapshot": p.name, **read_manifest(p).get("audit", {})}
            for p in snaps
        ]
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0 if snaps else 1


def _cmd_inspect(args) -> int:
    snap = Path(args.snapshot) if args.snapshot else latest_snapshot(args.dir)
    if snap is None:
        print(f"no snapshots under {args.dir}", file=sys.stderr)
        return 1
    problems = verify_snapshot(snap)
    report = {"snapshot": str(snap), "ok": not problems, "problems": problems}
    if not problems:
        manifest = read_manifest(snap)
        report["round"] = manifest["round"]
        report["config"] = manifest.get("config_echo", {})
        report["components"] = {
            name: spec["nbytes"]
            for name, spec in sorted(manifest["components"].items())
        }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if not problems else 1


def _add_hub_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        help="stream the telemetry trace to this JSONL file (fsync'd)",
    )
    parser.add_argument(
        "--deterministic-clock",
        action="store_true",
        help="TickClock spans: byte-identical traces across runs",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="operate a resumable FIFL federation service",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="start a preset federation")
    p_run.add_argument("--preset", default="blobs-fifl", choices=sorted(PRESETS))
    p_run.add_argument("--dir", required=True, help="snapshot directory")
    p_run.add_argument("--rounds", type=int, default=None)
    p_run.add_argument("--checkpoint-every", type=int, default=None)
    p_run.add_argument("--history-tail", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--until-round", type=int, default=None)
    p_run.add_argument(
        "--kill-after-round",
        type=int,
        default=None,
        help="SIGKILL this process right after that round's checkpoint",
    )
    _add_hub_flags(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_resume = sub.add_parser("resume", help="continue from a snapshot")
    p_resume.add_argument("--dir", required=True)
    p_resume.add_argument(
        "--snapshot", default=None,
        help="snapshot path (default: the newest intact one)",
    )
    p_resume.add_argument("--until-round", type=int, default=None)
    _add_hub_flags(p_resume)
    p_resume.set_defaults(fn=_cmd_resume)

    p_status = sub.add_parser("status", help="snapshot inventory")
    p_status.add_argument("--dir", required=True)
    p_status.add_argument(
        "--audit",
        action="store_true",
        help="include each snapshot's lineage digest anchors",
    )
    p_status.set_defaults(fn=_cmd_status)

    p_inspect = sub.add_parser("inspect", help="verify one snapshot")
    p_inspect.add_argument("--dir", required=True)
    p_inspect.add_argument("--snapshot", default=None)
    p_inspect.set_defaults(fn=_cmd_inspect)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SnapshotError, ValueError) as exc:
        # a bad flag or snapshot: one line and exit 2, never a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
