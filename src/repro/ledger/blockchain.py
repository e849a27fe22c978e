"""Hash-chained, signed audit ledger (the paper's blockchain, S4.5).

The paper stores every round's intermediate assessment results plus the
executing server's signature in a blockchain "to prevent fraud and
denial". The properties actually used are:

* append-only history whose *integrity* is checkable (hash chaining);
* *attribution* of every record to a signer (keyed signatures);
* the ability to recompute a suspected value from the recorded history
  and trace a mismatch to the signing server (the audit protocol).

An in-process SHA-256 hash chain with HMAC signatures provides exactly
those guarantees; consensus is out of scope here just as it is in the
paper (the task publisher is the trusted auditor).

Payloads are canonicalized (sorted-key JSON with NumPy scalars/arrays
converted) before hashing, so semantically equal records hash equally.
Each payload is encoded exactly once per append and once per verify:
one ``canonicalize`` walk and one ``json.dumps`` give the canonical blob,
whose SHA-256 is the payload digest (the signed value). The block hash
covers the body ``{"index":…,"payload":<blob>,"prev_hash":…,
"signature":…,"signer":…}`` with the blob spliced in; sorted key order
and the encoder's own scalar forms make that body byte-identical to
``json.dumps`` of the equivalent dict, so hashes never moved.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["canonicalize", "payload_digest", "SigningIdentity", "Block", "Blockchain"]


def canonicalize(obj: Any) -> Any:
    """Convert payloads to plain JSON types (dict keys become strings).

    Two keys of one dict that stringify alike (``1`` and ``"1"``) would
    merge silently and let different payloads share a digest, so they
    are rejected like any other unauditable value.
    """
    t = type(obj)
    if t is float or t is int or t is str or t is bool or obj is None:
        return obj
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            key = str(k)
            if key in out:
                raise TypeError(f"payload key {key!r} collides with another key under str()")
            out[key] = canonicalize(v)
        return dict(sorted(out.items()))
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [canonicalize(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(f"payload value of type {type(obj).__name__} is not auditable")


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _payload_blob(payload: Any) -> str:
    """The payload's canonical JSON: one canonical walk, one encoding."""
    return _encode(canonicalize(payload))


def _block_hash(index: int, blob: str, signer: str, signature: str, prev_hash: str) -> str:
    """SHA-256 of the block body with the payload's canonical blob spliced in."""
    return _sha256(
        f'{{"index":{_encode(index)},"payload":{blob},"prev_hash":{_encode(prev_hash)},'
        f'"signature":{_encode(signature)},"signer":{_encode(signer)}}}'
    )


def payload_digest(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``payload``."""
    return _sha256(_payload_blob(payload))


class SigningIdentity:
    """A named signer with a secret key (HMAC-SHA256 signatures)."""

    def __init__(self, name: str, secret: bytes):
        if not name:
            raise ValueError("signer name must be non-empty")
        if len(secret) < 8:
            raise ValueError("secret must be at least 8 bytes")
        self.name = name
        self._secret = bytes(secret)

    def sign(self, message: str) -> str:
        """HMAC signature (hex) over an arbitrary message string."""
        return hmac.new(self._secret, message.encode(), hashlib.sha256).hexdigest()

    def verify(self, message: str, signature: str) -> bool:
        """Constant-time signature check."""
        return hmac.compare_digest(self.sign(message), signature)


@dataclass(frozen=True)
class Block:
    """One immutable ledger entry."""

    index: int
    payload: Any  # canonical JSON types
    signer: str
    signature: str
    prev_hash: str
    hash: str

    @staticmethod
    def compute_hash(index: int, payload: Any, signer: str, signature: str, prev_hash: str) -> str:
        return _block_hash(index, _payload_blob(payload), signer, signature, prev_hash)


GENESIS_HASH = hashlib.sha256(b"FIFL-genesis").hexdigest()


class Blockchain:
    """Append-only signed hash chain with tamper detection.

    Signers must be registered (name -> :class:`SigningIdentity`) before
    they may append; verification re-derives every hash and signature.
    For convenience, ``append(payload, signer="name")`` auto-registers an
    identity with a derived key when the name is unknown — fine for
    simulations where key distribution is not under test.
    """

    def __init__(self) -> None:
        self._blocks: list[Block] = []
        self._identities: dict[str, SigningIdentity] = {}

    # -- identities -------------------------------------------------------

    def register(self, identity: SigningIdentity) -> None:
        if identity.name in self._identities:
            raise ValueError(f"signer {identity.name!r} already registered")
        self._identities[identity.name] = identity

    def identity(self, name: str) -> SigningIdentity:
        if name not in self._identities:
            # deterministic per-name key for simulation convenience
            secret = hashlib.sha256(f"fifl-sim-key:{name}".encode()).digest()
            self._identities[name] = SigningIdentity(name, secret)
        return self._identities[name]

    # -- chain operations ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._blocks)

    def __getitem__(self, idx: int) -> Block:
        return self._blocks[idx]

    @property
    def blocks(self) -> list[Block]:
        return list(self._blocks)

    def head_hash(self) -> str:
        return self._blocks[-1].hash if self._blocks else GENESIS_HASH

    def append(self, payload: Any, signer: str) -> Block:
        """Sign ``payload`` as ``signer`` and chain it onto the head.

        Each commit also lands in the telemetry stream as a
        ``ledger.commit`` event (hashes + digest, never the payload), so
        chain growth is audit-visible in traces and the monitor can
        check linkage online. Additive to the v1 schema.
        """
        identity = self.identity(signer)
        canonical = canonicalize(payload)
        blob = _encode(canonical)
        index = len(self._blocks)
        prev_hash = self.head_hash()
        digest = _sha256(blob)
        signature = identity.sign(f"{index}:{prev_hash}:{digest}")
        block_hash = _block_hash(index, blob, signer, signature, prev_hash)
        block = Block(index, canonical, signer, signature, prev_hash, block_hash)
        self._blocks.append(block)
        from ..telemetry.core import get_telemetry

        get_telemetry().event(
            "ledger.commit",
            {
                "index": index,
                "signer": signer,
                "prev_hash": prev_hash,
                "hash": block_hash,
                "payload_digest": digest,
                "round": canonical.get("round") if isinstance(canonical, dict) else None,
            },
        )
        return block

    def verify(self) -> list[int]:
        """Return indices of invalid blocks (empty list = chain intact).

        A block is invalid if its hash does not match its contents, its
        prev_hash does not match its predecessor, or its signature fails
        against the registered signer key. Every call re-reads and
        re-encodes every block; nothing is cached between calls.
        """
        bad: list[int] = []
        prev_hash = GENESIS_HASH
        for i, blk in enumerate(self._blocks):
            blob = _payload_blob(blk.payload)
            ok = (
                blk.index == i
                and blk.prev_hash == prev_hash
                and blk.hash == _block_hash(
                    blk.index, blob, blk.signer, blk.signature, blk.prev_hash
                )
                and self.identity(blk.signer).verify(
                    f"{blk.index}:{blk.prev_hash}:{_sha256(blob)}", blk.signature
                )
            )
            if not ok:
                bad.append(i)
            prev_hash = blk.hash
        return bad

    def is_intact(self) -> bool:
        """True iff every block verifies."""
        return not self.verify()

    def tamper(self, index: int, payload: Any) -> None:
        """Overwrite a block's payload *without* re-signing (test hook).

        Exists so tests and the audit demo can simulate a malicious server
        rewriting history; verification will flag the block.
        """
        if not 0 <= index < len(self._blocks):
            raise IndexError(f"no block at index {index}")
        old = self._blocks[index]
        self._blocks[index] = Block(
            old.index, canonicalize(payload), old.signer, old.signature,
            old.prev_hash, old.hash,
        )
