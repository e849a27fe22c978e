"""Durable snapshot format + the federation state capture/restore inventory.

A snapshot is a directory ``snapshot-<round:08d>/`` holding per-component
blobs plus a ``MANIFEST.json`` that records each blob's SHA-256 digest
and an integrity hash over the manifest itself:

* ``config.pkl`` — the :class:`~repro.service.ServiceConfig` the
  federation was built from (resume rebuilds the federation from this
  config, then overlays the captured state);
* ``model.npz`` — flat global model parameters and buffers;
* ``reputation.npz`` — the out-of-core reputation store's touched
  chunks (or its dense memmap contents), when allocated;
* ``state.pkl`` — every other piece of mutable state: the service's
  round cursor and history tail, per-worker RNG streams and attack
  state, population cache/churn cursors, mechanism reputations and
  cumulative rewards, ledger chain + signer identities, network RNG
  streams and cumulative counters, telemetry sequence/clock, monitor
  rule-engine state, and the sim kernel's virtual clock.

Writes are atomic: blobs land in a temp directory (each fsynced), the
manifest is written last, and the temp directory is renamed into place
— a crash mid-checkpoint leaves either the previous snapshot or a
``.tmp-*`` directory that readers ignore.

**Snapshots store state, not code.** Restore requires re-constructing
the same federation from the same config (deterministic builders), then
overlaying the captured state; closures and pools are never pickled.

The capture inventory is the other half of the byte-identity contract
(see DESIGN §16): every RNG stream, cumulative counter, and latch that
can influence a future round's outputs or a future trace event's bytes
must round-trip here. ``tests/service/`` holds the kill/resume
differentials that enforce it per configuration.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import shutil
from pathlib import Path

import numpy as np

from ..core.reputation import DecayReputation
from ..telemetry.core import TickClock
from ..telemetry.sinks import encode_event

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "MANIFEST_NAME",
    "SnapshotError",
    "write_snapshot",
    "read_manifest",
    "verify_snapshot",
    "load_snapshot",
    "list_snapshots",
    "latest_snapshot",
    "encode_snapshot_blobs",
    "capture_state",
    "restore_state",
    "capture_telemetry",
    "restore_telemetry",
    "record_digest",
    "reputation_digest",
]

#: bumped when the blob layout or the state inventory changes shape (v2:
#: the mechanism's reputation is one table; v1 snapshots migrate on load)
SNAPSHOT_FORMAT_VERSION = 2

MANIFEST_NAME = "MANIFEST.json"
_SNAP_PREFIX = "snapshot-"
_TMP_PREFIX = ".tmp-snapshot-"

#: worker attributes beyond the RNG stream that persist across rounds
#: (attack state: replay free-riders remember last params, colluders
#: their planted direction — both must survive a restart or the resumed
#: worker would re-draw/re-derive them differently)
_WORKER_EXTRA_ATTRS = ("_last_params", "_direction")


class SnapshotError(RuntimeError):
    """A snapshot is missing, incomplete, or fails integrity checks."""


# -- on-disk format -------------------------------------------------------------


def _integrity(manifest: dict) -> str:
    body = {k: v for k, v in manifest.items() if k != "integrity"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_snapshot(
    root: Path | str,
    round_idx: int,
    blobs: dict[str, bytes],
    extra_manifest: dict | None = None,
) -> Path:
    """Atomically write ``blobs`` as ``snapshot-<round>`` under ``root``.

    Every blob is fsynced, the manifest (with per-blob digests and the
    manifest integrity hash) is written last, and the whole directory is
    renamed into place — readers never observe a partial snapshot.
    """
    if round_idx < 0:
        raise ValueError("round_idx must be non-negative")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    final = root / f"{_SNAP_PREFIX}{round_idx:08d}"
    tmp = root / f"{_TMP_PREFIX}{round_idx:08d}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    components: dict[str, dict] = {}
    for name in sorted(blobs):
        payload = blobs[name]
        with open(tmp / name, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        components[name] = {
            "sha256": hashlib.sha256(payload).hexdigest(),
            "nbytes": len(payload),
        }
    manifest = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "round": int(round_idx),
        "components": components,
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    manifest["integrity"] = _integrity(manifest)
    with open(tmp / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    if final.exists():
        # re-checkpointing the same round: replace the old directory
        shutil.rmtree(final)
    os.replace(tmp, final)
    _fsync_dir(root)
    return final


def read_manifest(snap_dir: Path | str) -> dict:
    """Load and integrity-check one snapshot's manifest."""
    snap_dir = Path(snap_dir)
    path = snap_dir / MANIFEST_NAME
    if not path.is_file():
        raise SnapshotError(f"{snap_dir} has no {MANIFEST_NAME}")
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"unreadable manifest in {snap_dir}: {exc}") from exc
    version = manifest.get("format_version")
    if version not in (1, SNAPSHOT_FORMAT_VERSION):
        raise SnapshotError(
            f"{snap_dir}: snapshot format v{version} "
            f"(this build reads v1 and v{SNAPSHOT_FORMAT_VERSION})"
        )
    if manifest.get("integrity") != _integrity(manifest):
        raise SnapshotError(f"{snap_dir}: manifest integrity hash mismatch")
    return manifest


def verify_snapshot(snap_dir: Path | str) -> list[str]:
    """Deep check: manifest integrity plus every component's digest.

    Returns a list of human-readable problems (empty = snapshot intact).
    """
    snap_dir = Path(snap_dir)
    try:
        manifest = read_manifest(snap_dir)
    except SnapshotError as exc:
        return [str(exc)]
    problems: list[str] = []
    for name, spec in sorted(manifest["components"].items()):
        path = snap_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing component file")
            continue
        payload = path.read_bytes()
        if len(payload) != spec["nbytes"]:
            problems.append(
                f"{name}: size {len(payload)} != recorded {spec['nbytes']}"
            )
        if hashlib.sha256(payload).hexdigest() != spec["sha256"]:
            problems.append(f"{name}: sha256 digest mismatch")
    return problems


def list_snapshots(root: Path | str) -> list[Path]:
    """Valid snapshot directories under ``root``, oldest round first.

    Directories with unreadable or tampered manifests are skipped (a
    crash mid-rename can leave a ``.tmp-*`` directory; it never matches
    the snapshot prefix, so readers ignore it).
    """
    root = Path(root)
    if not root.is_dir():
        return []
    out: list[tuple[int, Path]] = []
    for entry in sorted(root.iterdir()):
        if not entry.is_dir() or not entry.name.startswith(_SNAP_PREFIX):
            continue
        try:
            manifest = read_manifest(entry)
        except SnapshotError:
            continue
        out.append((int(manifest["round"]), entry))
    out.sort()
    return [path for _, path in out]


def latest_snapshot(root: Path | str) -> Path | None:
    """The newest valid snapshot under ``root`` (None when empty)."""
    snaps = list_snapshots(root)
    return snaps[-1] if snaps else None


def load_snapshot(snap_dir: Path | str) -> tuple[object, dict]:
    """Read one snapshot back into ``(config, state)``.

    Components are digest-checked before unpickling; a tampered or
    truncated snapshot raises :class:`SnapshotError` instead of feeding
    corrupt bytes to the decoder. A v1 snapshot's state migrates to v2.
    """
    snap_dir = Path(snap_dir)
    problems = verify_snapshot(snap_dir)
    if problems:
        raise SnapshotError(f"{snap_dir} failed verification: {problems}")
    config = pickle.loads((snap_dir / "config.pkl").read_bytes())
    v1 = read_manifest(snap_dir)["format_version"] == 1
    state_pkl = io.BytesIO((snap_dir / "state.pkl").read_bytes())
    state = (_V1Unpickler if v1 else pickle.Unpickler)(state_pkl).load()
    if v1:
        _migrate_v1(state)
    with np.load(io.BytesIO((snap_dir / "model.npz").read_bytes())) as npz:
        state["model"] = {
            "params": npz["params"],
            "buffers": npz["buffers"],
        }
    rep_path = snap_dir / "reputation.npz"
    if rep_path.is_file():
        with np.load(io.BytesIO(rep_path.read_bytes())) as npz:
            if "dense" in npz.files:
                state["reputation_store"] = {"dense": npz["dense"], "chunks": None}
            else:
                chunks = {
                    int(name[len("chunk_"):]): npz[name] for name in npz.files
                }
                state["reputation_store"] = {"dense": None, "chunks": chunks}
    else:
        state["reputation_store"] = None
    return config, state


class _V1Unpickler(pickle.Unpickler):
    """Reads a v1 ``state.pkl``; its reputation objects load as bare fields."""

    def find_class(self, module, name):
        if module == "repro.core.reputation":
            return type(name, (), {})
        return super().find_class(module, name)


def _migrate_v1(state: dict) -> None:
    """v1 → v2: the mechanism's decay dict becomes its reputation table.

    A service runs FIFL in decay mode, which reads no SLM counts, so the
    v1 SLM count dicts and the per-worker value history are dropped.
    """
    mech = state.get("mechanism")
    if mech is None:
        return
    v1 = mech.pop("reputation")
    del mech["slm"]
    mech["reputation"] = rep = DecayReputation(v1.gamma, v1.initial)
    ids = sorted(v1._rep)
    rows = rep._rows(ids)
    rep._value[rows] = [v1._rep[w] for w in ids]
    rep._tracked[rows] = True


def encode_snapshot_blobs(config: object, state: dict) -> dict[str, bytes]:
    """Serialize ``(config, state)`` into the per-component blob map.

    The model and reputation arrays go into ``npz`` blobs (dense float
    payloads); everything structured rides in one pickle. The ``state``
    dict is consumed: array components are popped out of it.
    """
    state = dict(state)
    blobs: dict[str, bytes] = {"config.pkl": pickle.dumps(config, protocol=4)}

    model = state.pop("model")
    buf = io.BytesIO()
    np.savez(buf, params=model["params"], buffers=model["buffers"])
    blobs["model.npz"] = buf.getvalue()

    store = state.pop("reputation_store")
    if store is not None:
        buf = io.BytesIO()
        if store["dense"] is not None:
            np.savez(buf, dense=store["dense"])
        else:
            np.savez(
                buf,
                **{f"chunk_{cidx}": arr for cidx, arr in store["chunks"].items()},
            )
        blobs["reputation.npz"] = buf.getvalue()

    blobs["state.pkl"] = pickle.dumps(state, protocol=4)
    return blobs


# -- digests --------------------------------------------------------------------


def record_digest(record) -> str:
    """Canonical SHA-256 digest of one :class:`~repro.fl.RoundRecord`.

    Wall-clock-free by construction: only the deterministic round
    outputs participate, so digests compare across machines and across
    killed/resumed process boundaries.
    """
    payload = {
        "round_idx": record.round_idx,
        "test_loss": record.test_loss,
        "test_acc": record.test_acc,
        "accepted": record.accepted,
        "uncertain": sorted(int(w) for w in record.uncertain),
        "mechanism_records": record.mechanism_records,
        "grad_norm": record.grad_norm,
        "duration_s": record.duration_s,
        "sim": record.sim,
        "skipped": record.skipped,
    }
    return hashlib.sha256(encode_event(payload).encode()).hexdigest()


def chain_digest(rolling: str, digest: str) -> str:
    """Fold one record digest into the rolling history chain."""
    return hashlib.sha256((rolling + digest).encode()).hexdigest()


def reputation_digest(service) -> str:
    """SHA-256 over the mechanism's reputations + the out-of-core store."""
    h = hashlib.sha256()
    mech = service.mechanism
    if mech is not None:
        reps = mech.reputation.reputations()
        h.update(
            encode_event({str(w): reps[w] for w in sorted(reps)}).encode()
        )
    store = service.trainer.population._store
    if store is not None:
        for start, vals in store.iter_chunks():
            h.update(np.int64(start).tobytes())
            h.update(np.ascontiguousarray(vals, dtype=np.float64).tobytes())
    return h.hexdigest()


# -- per-component capture/restore ----------------------------------------------


def _worker_state(worker) -> dict:
    state = {"rng": worker.rng.bit_generator.state}
    for attr in _WORKER_EXTRA_ATTRS:
        value = getattr(worker, attr, None)
        if value is not None:
            state[attr] = np.array(value, copy=True)
    return state


def _restore_worker(worker, state: dict) -> None:
    worker.rng.bit_generator.state = state["rng"]
    for attr in _WORKER_EXTRA_ATTRS:
        if attr in state:
            setattr(worker, attr, np.array(state[attr], copy=True))


def _capture_population(pop) -> dict:
    return {
        "cached": [(wid, _worker_state(w)) for wid, w in pop._cache.items()],
        "evicted_rng": dict(pop._rng_states),
        "seen": sorted(pop._seen),
        "left": sorted(pop._left),
        "churn_applied_through": pop._churn_applied_through,
    }


def _restore_population(pop, state: dict) -> None:
    pop._seen = set(state["seen"])
    pop._left = set(state["left"])
    pop._churn_applied_through = state["churn_applied_through"]
    pop._rng_states = dict(state["evicted_rng"])
    # Workers the rebuilt federation already materialized (the pinned
    # from_workers roster) must keep their object identity — the fleet
    # engine holds references — so overlay their state in place. Workers only
    # the *saved* run had cached are materialized now, in saved insertion
    # order, reproducing the LRU ordering draw-for-draw.
    for wid, wst in state["cached"]:
        worker = pop._cache.get(wid)
        if worker is None:
            pop._rng_states[wid] = wst["rng"]
            worker = pop.materialize(wid)
        _restore_worker(worker, wst)


def _capture_store(store) -> dict | None:
    if store is None:
        return None
    if store._dense is not None:
        return {"dense": np.array(store._dense, copy=True), "chunks": None}
    return {
        "dense": None,
        "chunks": {cidx: np.array(c, copy=True) for cidx, c in store._chunks.items()},
    }


def _restore_store(pop, state: dict | None) -> None:
    if state is None:
        return
    store = pop.reputation_store  # allocates on first touch
    if state["dense"] is not None:
        if store._dense is not None:
            store._dense[:] = state["dense"]
        else:
            # dense snapshot into a chunked rebuild (config changed the
            # backing): spread the vector back through set_many
            store.set_many(
                np.arange(store.size, dtype=np.int64), state["dense"]
            )
        return
    store._chunks = {
        cidx: np.array(c, copy=True) for cidx, c in state["chunks"].items()
    }


def _capture_mechanism(mech) -> dict | None:
    if mech is None:
        return None
    return {
        "reputation": mech.reputation,
        "rounds_seen": mech._rounds_seen,
        "cumulative_rewards": dict(mech._cumulative_rewards),
        "prev_rep_ids": mech._prev_rep_ids,
        "prev_rep_vals": np.array(mech._prev_rep_vals, copy=True),
        "records": list(mech.records),
    }


def _restore_mechanism(mech, state: dict | None) -> None:
    if state is None or mech is None:
        return
    mech.reputation = state["reputation"]
    mech._rounds_seen = state["rounds_seen"]
    mech._cumulative_rewards = dict(state["cumulative_rewards"])
    mech._prev_rep_ids = state["prev_rep_ids"]
    mech._prev_rep_vals = np.array(state["prev_rep_vals"], copy=True)
    mech.records = list(state["records"])


def _capture_ledger(ledger) -> dict | None:
    if ledger is None:
        return None
    return {
        "blocks": list(ledger._blocks),
        "identities": dict(ledger._identities),
    }


def _restore_ledger(ledger, state: dict | None) -> None:
    if state is None or ledger is None:
        return
    ledger._blocks = list(state["blocks"])
    ledger._identities = dict(state["identities"])


def _capture_network(net) -> dict:
    if net.in_flight != 0:
        raise SnapshotError(
            f"cannot snapshot mid-round: {net.in_flight} messages in flight"
        )
    return {
        "rng": net._rng.bit_generator.state,
        "lat_rng": net._lat_rng.bit_generator.state,
        "blocked": sorted(net._blocked),
        "link_drop": dict(net._link_drop),
        "bytes_sent": dict(net.bytes_sent),
        "messages_sent": net.messages_sent,
        "messages_delivered": net.messages_delivered,
        "drops": list(net.drop_log.drops),
        "dead_tags": sorted(net._dead_tags),
    }


def _restore_network(net, state: dict) -> None:
    net._rng.bit_generator.state = state["rng"]
    net._lat_rng.bit_generator.state = state["lat_rng"]
    net._blocked = {tuple(link) for link in state["blocked"]}
    net._link_drop = dict(state["link_drop"])
    net.bytes_sent = state["bytes_sent"]
    net.messages_sent = state["messages_sent"]
    net.messages_delivered = state["messages_delivered"]
    net.drop_log.drops = [tuple(d) for d in state["drops"]]
    # Snapshots are taken with nothing in flight, so no message can land
    # on a closed tag: tombstones recorded by older snapshots are moot.
    net._dead_tags = set()


def _capture_sim(runner) -> dict | None:
    if runner is None:
        return None
    sim = runner.sim
    if not sim.idle():
        raise SnapshotError(
            "cannot snapshot mid-round: the sim event heap is not drained"
        )
    return {
        "now": sim._now,
        "seq": sim._seq,
        "events_run": sim.events_run,
        "rng": sim.rng.bit_generator.state,
        "offline": sorted(runner.offline),
    }


def _restore_sim(runner, state: dict | None) -> None:
    if state is None or runner is None:
        return
    sim = runner.sim
    sim._now = state["now"]
    sim._seq = state["seq"]
    sim.events_run = state["events_run"]
    sim.rng.bit_generator.state = state["rng"]
    runner.offline = set(state["offline"])


def _capture_monitor(monitor) -> dict | None:
    if monitor is None:
        return None
    return {
        "engine": monitor.engine,
        "alerts": list(monitor.alerts),
        "ring": list(monitor.recorder.ring),
    }


def _restore_monitor(monitor, state: dict | None) -> None:
    if state is None or monitor is None:
        return
    monitor.engine = state["engine"]
    monitor.alerts = list(state["alerts"])
    monitor.recorder.ring.clear()
    monitor.recorder.ring.extend(state["ring"])


def capture_telemetry(tele) -> dict:
    """Sequence counter + deterministic clock state (post-flush).

    Aggregates (counters, gauges, histograms) are per-process
    observability, not trace content — they are intentionally *not*
    replicated across a restart; only state that shapes future event
    *bytes* (``seq``, the TickClock position) is.
    """
    clock = tele._clock
    return {
        "seq": tele._seq,
        "clock": (clock._t, clock._step) if isinstance(clock, TickClock) else None,
    }


def restore_telemetry(tele, state: dict) -> None:
    tele._seq = state["seq"]
    clock_state = state.get("clock")
    if clock_state is not None and isinstance(tele._clock, TickClock):
        tele._clock._t, tele._clock._step = clock_state


# -- whole-service capture ------------------------------------------------------


def capture_state(service) -> dict:
    """Snapshot every mutable component of a round-boundary federation.

    Must run at a round boundary (no messages in flight, sim heap
    drained) and *after* the hub's deferred events were flushed — the
    mechanism's previous-reputation telemetry state advances at flush
    time. Telemetry itself is captured separately (after the checkpoint
    event is emitted) via :func:`capture_telemetry`.
    """
    trainer = service.trainer
    model = trainer.model
    return {
        "service": {
            "next_round": service.next_round,
            "rounds": list(service.history.rounds),
            "rolling": service._rolling,
            "rounds_folded": service._rounds_folded,
        },
        "model": {
            "params": model.get_flat_params().copy(),
            "buffers": model.get_flat_buffers().copy(),
        },
        "trainer": {
            "server_ranks": list(trainer.server_ranks),
            "failed": sorted(trainer._failed),
        },
        "population": _capture_population(trainer.population),
        "reputation_store": _capture_store(trainer.population._store),
        "mechanism": _capture_mechanism(service.mechanism),
        "ledger": _capture_ledger(service.ledger),
        "network": _capture_network(trainer.network),
        "sim": _capture_sim(trainer._sim_runner),
        "monitor": _capture_monitor(service.monitor),
    }


def restore_state(service, state: dict) -> None:
    """Overlay a captured state dict onto a freshly built service."""
    trainer = service.trainer

    sv = state["service"]
    service.next_round = sv["next_round"]
    service.history.rounds = list(sv["rounds"])
    # the record-digest memo describes the old list; rebuild it lazily
    service._digests = []
    service._rolling = sv["rolling"]
    service._rounds_folded = sv["rounds_folded"]

    model = state["model"]
    trainer.model.set_flat_params(np.array(model["params"], copy=True))
    buffers = np.asarray(model["buffers"])
    if buffers.size:
        trainer.model.set_flat_buffers(np.array(buffers, copy=True))

    ts = state["trainer"]
    trainer.server_ranks = list(ts["server_ranks"])
    trainer._failed = set(ts["failed"])
    # force the fleet engine to rebuild against restored worker objects
    trainer._fleet = None
    trainer._fleet_key = None

    _restore_population(trainer.population, state["population"])
    _restore_store(trainer.population, state["reputation_store"])
    _restore_mechanism(service.mechanism, state["mechanism"])
    _restore_ledger(service.ledger, state["ledger"])
    _restore_network(trainer.network, state["network"])
    _restore_sim(trainer._sim_runner, state["sim"])
    _restore_monitor(service.monitor, state["monitor"])
