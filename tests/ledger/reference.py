"""Reference encodings of the ledger: the plain dict-JSON form.

``Blockchain`` hashes a block by splicing the payload's canonical JSON
blob into the block body. These helpers compute the same values the
straightforward way, by canonicalizing the payload and ``json.dumps``-ing
the whole body as a dict, and serve as the oracle the spliced encoding
must equal byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np


def reference_canonicalize(obj: Any) -> Any:
    """Plain JSON types with string keys sorted by ``str(key)``."""
    if isinstance(obj, dict):
        return {
            str(k): reference_canonicalize(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [reference_canonicalize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [reference_canonicalize(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"payload value of type {type(obj).__name__} is not auditable")


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def reference_payload_digest(payload: Any) -> str:
    """SHA-256 of the canonical payload's sorted-key compact JSON."""
    return hashlib.sha256(_dumps(reference_canonicalize(payload)).encode()).hexdigest()


def reference_block_hash(
    index: int, payload: Any, signer: str, signature: str, prev_hash: str
) -> str:
    """SHA-256 of the whole block body encoded as one JSON dict."""
    body = _dumps(
        {
            "index": index,
            "payload": reference_canonicalize(payload),
            "signer": signer,
            "signature": signature,
            "prev_hash": prev_hash,
        }
    )
    return hashlib.sha256(body.encode()).hexdigest()
