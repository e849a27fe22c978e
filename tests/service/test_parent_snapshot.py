"""A snapshot written before the fleet owned its minibatch streams resumes
with every worker's stream intact.

``tests/fixtures/snapshot-v1/snapshot-00000003`` was written by
:func:`write_fixture` on the commit before the fleet held workers'
PCG64 streams as arrays. Three rounds of batch 5 × 3 local steps leave
every worker's generator with a buffered 32-bit half, and worker 5
(a probabilistic attacker) draws its coin from the same stream. Resuming
from it must restore each stream exactly, and the next round's uploads
must equal an uninterrupted run's byte for byte.
"""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.common import FedExpConfig, probabilistic, sign_flip
from repro.fl import FleetLocalEngine
from repro.service import FederationService
from repro.service.service import ServiceConfig
from repro.service.snapshot import load_snapshot
from repro.telemetry import (
    MemorySink,
    Telemetry,
    TickClock,
    get_telemetry,
    set_telemetry,
)

FIXTURE = Path(__file__).parents[1] / "fixtures" / "snapshot-v1"
#: the same run written in today's format (v2: one reputation table)
FIXTURE_V2 = Path(__file__).parents[1] / "fixtures" / "snapshot-v2"
SNAPSHOT = "snapshot-00000003"


def parent_config() -> ServiceConfig:
    return ServiceConfig(
        fed=FedExpConfig(
            dataset="blobs", num_workers=8, samples_per_worker=40,
            test_samples=160, rounds=5, eval_every=2, server_ranks=(0, 1),
            batch_size=5, local_iters=3, seed=3,
        ),
        attackers={5: probabilistic(0.5), 6: sign_flip(4.0)},
        with_fifl=True,
        ledger=False,
        checkpoint_every=3,
    )


def write_fixture(root: Path) -> FederationService:
    """The seeded 3-round run that writes the fixture under ``root``."""
    set_telemetry(Telemetry(sinks=[MemorySink(maxlen=None)], clock=TickClock()))
    service = FederationService(parent_config(), root)
    service.run(until_round=3)
    return service


@pytest.fixture(autouse=True)
def _private_hub():
    prev = get_telemetry()
    yield
    set_telemetry(prev)


@pytest.fixture
def uploads(monkeypatch):
    """Every round's local updates, in order."""
    seen = []
    compute = FleetLocalEngine.compute_updates

    def recording(self, *args, **kwargs):
        seen.append(compute(self, *args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(FleetLocalEngine, "compute_updates", recording)
    return seen


def test_parent_snapshot_restores_streams_and_next_round(tmp_path, uploads):
    shutil.copytree(FIXTURE, tmp_path / "resumed")
    _, saved = load_snapshot(FIXTURE / SNAPSHOT)
    set_telemetry(Telemetry(sinks=[MemorySink(maxlen=None)], clock=TickClock()))
    resumed = FederationService.resume(tmp_path / "resumed")
    cache = resumed.trainer.population._cache
    assert sorted(cache) == sorted(wid for wid, _ in saved["population"]["cached"])
    for wid, state in saved["population"]["cached"]:
        assert cache[wid].rng.bit_generator.state == state["rng"], wid
    resumed.run(until_round=4)
    (after_resume,) = uploads

    uploads.clear()
    uninterrupted = write_fixture(tmp_path / "clean")
    uninterrupted.run(until_round=4)
    clean = uploads[3]
    np.testing.assert_array_equal(after_resume.worker_ids, clean.worker_ids)
    assert after_resume.gradients.tobytes() == clean.gradients.tobytes()
    np.testing.assert_array_equal(after_resume.attacked, clean.attacked)
    for wid, worker in uninterrupted.trainer.population._cache.items():
        assert cache[wid].rng.bit_generator.state == worker.rng.bit_generator.state


def test_snapshot_bytes_are_unchanged(tmp_path):
    """The same seeded run writes the v2 fixture's bytes today."""
    write_fixture(tmp_path)
    for blob in sorted((FIXTURE_V2 / SNAPSHOT).iterdir()):
        assert (tmp_path / SNAPSHOT / blob.name).read_bytes() == blob.read_bytes(), (
            blob.name
        )
