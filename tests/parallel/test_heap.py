"""The glibc heap policy: a steady-state 256-worker round stays resident."""

import platform
import resource

import pytest

from repro.core import make_mechanism
from repro.datasets import iid_partition, make_blobs
from repro.fl import FederatedTrainer, HonestWorker
from repro.nn import build_mlp
from repro.parallel import heap
from repro.population import WorkerPopulation

WORKERS, SAMPLES, FEATURES, CLASSES = 256, 32, 16, 4
WARM_ROUNDS, MEASURED_ROUNDS = 5, 10
#: minor page faults one steady-state round may take; with glibc's dynamic
#: trimming the same round re-faults its (256 x D) temporaries, ~1,400
MAX_FAULTS_PER_ROUND = 100


def _is_glibc() -> bool:
    return platform.system() == "Linux" and platform.libc_ver()[0] == "glibc"


def _silo_trainer() -> FederatedTrainer:
    data = make_blobs(
        n_samples=WORKERS * SAMPLES, n_features=FEATURES, num_classes=CLASSES, seed=1
    )
    shards = iid_partition(data, WORKERS, seed=1)

    def model_fn():
        return build_mlp(FEATURES, CLASSES, hidden=(64,), seed=1)

    workers = [
        HonestWorker(wid, shards[wid], model_fn, lr=0.05, batch_size=8,
                     local_iters=1, seed=1000 + wid)
        for wid in range(WORKERS)
    ]
    return FederatedTrainer(
        model_fn(),
        population=WorkerPopulation.from_workers(workers),
        server_ranks=[0, 1],
        mechanism=make_mechanism("fifl", engine="vectorized"),
        server_lr=0.05,
        seed=1,
    )


@pytest.mark.skipif(not _is_glibc(), reason="minor-fault budget is glibc-specific")
def test_steady_state_round_does_not_refault_its_heap():
    trainer = _silo_trainer()
    for t in range(WARM_ROUNDS):
        trainer.run_round(t)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for t in range(WARM_ROUNDS, WARM_ROUNDS + MEASURED_ROUNDS):
        trainer.run_round(t)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / MEASURED_ROUNDS <= MAX_FAULTS_PER_ROUND


def test_retain_heap_is_idempotent():
    first = heap.retain_heap()
    assert heap.retain_heap() is first
    if _is_glibc():
        assert first is True


class _NoMallopt:
    def __getattr__(self, name):
        raise AttributeError(name)


def _no_libc():
    raise OSError("no C library")


@pytest.mark.parametrize("libc", [_NoMallopt, _no_libc], ids=["no-mallopt", "no-libc"])
def test_retain_heap_without_glibc_is_a_noop(monkeypatch, libc):
    monkeypatch.setattr(heap, "_applied", None)
    monkeypatch.setattr(heap, "_libc", libc)
    assert heap.retain_heap() is False
    assert heap.retain_heap() is False
