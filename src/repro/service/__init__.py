"""Long-lived federation service: durable snapshots, resume, replay.

The ROADMAP's production-scale story needs federations that outlive any
single process: a run killed at round k must restart from its latest
snapshot and continue **byte-identically** — same
:class:`~repro.fl.TrainingHistory`, same reputation store, same ledger
chain head, same seeded telemetry trace — as if it had never died. This
package supplies that operating mode in three layers:

* :mod:`repro.service.snapshot` — a versioned, atomic on-disk snapshot
  format (manifest + per-component blobs + integrity hashes,
  write-to-temp-then-rename) plus the capture/restore inventory over
  every piece of mutable federation state;
* :mod:`repro.service.service` — :class:`FederationService`, the
  round-loop driver with ``checkpoint_every`` / ``checkpoint_on_signal``
  policies and ``save()`` / ``restore()`` / ``resume()`` APIs, exposed
  as a CLI via ``python -m repro.service`` (``run`` / ``resume`` /
  ``status`` / ``inspect``);
* :mod:`repro.service.replay` — a traffic-replay harness that feeds
  seeded bursty join/leave/upload workloads through the sim kernel and
  reports sustained rounds/sec with monitor SLOs attached.

See DESIGN §16 for the snapshot format and the resume semantics, and
``tests/service/`` for the kill/resume differentials.
"""

from .service import FederationService, ServiceConfig
from .snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    history_digest,
    latest_snapshot,
    list_snapshots,
    read_manifest,
    record_digest,
    verify_snapshot,
)
from .replay import ReplayConfig, generate_workload, run_replay

__all__ = [
    "FederationService",
    "ServiceConfig",
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "history_digest",
    "latest_snapshot",
    "list_snapshots",
    "read_manifest",
    "record_digest",
    "verify_snapshot",
    "ReplayConfig",
    "generate_workload",
    "run_replay",
]
