"""Shared experiment machinery: image federations with mixed worker types.

The module-effectiveness experiments (Figs. 7-14) all share one setup:
N workers over an image-classification task (the paper: MNIST+LeNet and
CIFAR10+ResNet; here the synthetic stand-ins), some workers replaced by
attackers. :func:`build_federation` constructs it from a config plus an
attacker roster, and :func:`run_federated` executes training with or
without the FIFL mechanism.

Scale note: defaults are laptop-benchmark sized (smaller images / fewer
rounds than the paper's 500); every knob is in :class:`FedExpConfig` so
the full-scale run is one config away.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from ..core import FIFLMechanism, make_mechanism
from ..datasets import (
    Dataset,
    iid_partition,
    make_blobs,
    make_cifar10_like,
    make_mnist_like,
    train_test_split,
)
from ..fl import (
    FederatedTrainer,
    HonestWorker,
    TrainingHistory,
    Worker,
)
from ..fl.workers import WorkerSpec, make_worker
from ..nn import Sequential, build_lenet, build_logreg, build_mini_resnet
from ..population import WorkerPopulation
from ..sim import FaultScenario

__all__ = [
    "AttackerSpec",
    "sign_flip",
    "data_poison",
    "probabilistic",
    "DriverConfig",
    "FigureConfig",
    "FedExpConfig",
    "build_federation",
    "build_population",
    "run_federated",
]


@dataclass(frozen=True)
class DriverConfig:
    """Base for figure-driver configs (the unified driver protocol).

    Every experiment driver exposes ``default_config() -> Config``,
    ``run(cfg) -> dict`` and ``format_rows(result) -> list[str]``; the
    runner's registry scales any config the same way: ``cfg.scaled(...)``.
    """

    def scaled(self, **overrides) -> "DriverConfig":
        """Copy with overrides (unknown keywords raise)."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class FigureConfig(DriverConfig):
    """Driver config that wraps a :class:`FedExpConfig` as ``fed``.

    ``scaled`` routes overrides by name: fields of the figure config are
    applied directly, everything else is forwarded into ``fed.scaled``
    — so ``cfg.scaled(rounds=10, thresholds=(0.0,))`` adjusts both
    layers in one call.
    """

    def scaled(self, **overrides) -> "FigureConfig":
        own = {f.name for f in fields(self)} - {"fed"}
        top = {k: v for k, v in overrides.items() if k in own}
        fed_kw = {k: v for k, v in overrides.items() if k not in own}
        cfg = replace(self, **top) if top else self
        if fed_kw:
            cfg = replace(cfg, fed=cfg.fed.scaled(**fed_kw))
        return cfg


@dataclass(frozen=True)
class AttackerSpec:
    """Which attacker class (and parameters) replaces a worker slot."""

    kind: str  # "sign" | "poison" | "prob"
    params: tuple = ()

    def to_spec(self) -> WorkerSpec:
        """The declarative :class:`WorkerSpec` this shorthand names."""
        if self.kind == "sign":
            (p_s,) = self.params
            return WorkerSpec("sign", {"p_s": p_s})
        if self.kind == "poison":
            (p_d,) = self.params
            return WorkerSpec("poison", {"p_d": p_d})
        if self.kind == "prob":
            p_a, p_s = self.params
            return WorkerSpec("prob", {"p_a": p_a, "p_s": p_s})
        raise ValueError(f"unknown attacker kind {self.kind!r}")

    def build(self, *args, seed: int = 0, **kwargs) -> Worker:
        return make_worker(self.to_spec(), *args, seed=seed, **kwargs)


def sign_flip(p_s: float) -> AttackerSpec:
    """Sign-flipping attacker with intensity ``p_s`` (paper S5.1)."""
    return AttackerSpec("sign", (p_s,))


def data_poison(p_d: float) -> AttackerSpec:
    """Data-poison attacker with label error rate ``p_d``."""
    return AttackerSpec("poison", (p_d,))


def probabilistic(p_a: float, p_s: float = 4.0) -> AttackerSpec:
    """Attacker that misbehaves with probability ``p_a`` each round."""
    return AttackerSpec("prob", (p_a, p_s))


@dataclass
class FedExpConfig:
    """Configuration of one module-effectiveness experiment."""

    dataset: str = "mnist"  # "mnist" | "cifar10" | "blobs"
    num_workers: int = 10
    samples_per_worker: int = 200
    test_samples: int = 400
    image_size: int = 14  # paper: 28 (MNIST) / 32 (CIFAR10)
    # blobs-mode knobs (fast mechanism-only experiments)
    n_features: int = 16
    n_classes: int = 4
    rounds: int = 20
    eval_every: int = 2
    lr: float = 0.05
    server_lr: float = 0.05
    batch_size: int = 32
    local_iters: int = 1
    server_ranks: tuple[int, ...] = (0, 1)
    drop_prob: float = 0.0
    seed: int = 0
    # FIFL settings (used when with_fifl=True)
    detection_threshold: float = 0.0
    detection_mode: str = "cosine"
    gamma: float = 0.2
    contribution_baseline: str = "zero"
    reference_worker: int | None = None
    contribution_filter: bool = False
    contribution_reference: str = "aggregate"
    # round-engine selection: "vectorized" (batched kernels) or "scalar"
    # (the reference per-worker loops, kept for differential testing)
    engine: str = "vectorized"
    # local-training engine: "fleet" (all workers' SGD batched into
    # stacked kernels) or "scalar" (per-worker reference loop)
    local_engine: str = "fleet"
    # fault/timing scenario: None runs the direct (instantaneous) loop;
    # a FaultScenario moves uploads onto the discrete-event kernel
    scenario: FaultScenario | None = None
    # -- population-first surface (cross-device scale) --------------------
    # population_size > num_workers registers that many worker ids and
    # materializes them lazily (dataset must be "blobs"); None keeps the
    # eager cross-silo roster of exactly num_workers workers
    population_size: int | None = None
    # per-round cohort size and sampler name ("uniform" | "reputation" |
    # "available"); both None = static full-population rounds
    cohort_size: int | None = None
    sampler: str | None = None
    # per-round device check-in probability (1.0 = always available)
    availability: float = 1.0
    # shard streaming: bound round-kernel and fleet temporaries by this
    # many workers per shard (None = whole cohort at once)
    shard_size: int | None = None
    # execution backend for the fleet local-SGD GEMMs: "serial" |
    # "thread" (repro.parallel). The pool is owned by the trainer; the
    # thread backend is byte-identical to serial, so this is purely a
    # throughput knob.
    backend: str = "serial"
    max_workers: int | None = None

    def scaled(self, **overrides) -> "FedExpConfig":
        """Copy with overrides (e.g. full-paper scale)."""
        return replace(self, **overrides)


def _make_model(cfg: FedExpConfig) -> Sequential:
    if cfg.dataset == "blobs":
        return build_logreg(cfg.n_features, cfg.n_classes, seed=cfg.seed)
    if cfg.dataset == "mnist":
        return build_lenet(
            num_classes=10, in_channels=1, image_size=cfg.image_size, seed=cfg.seed
        )
    if cfg.dataset == "cifar10":
        return build_mini_resnet(
            num_classes=10, in_channels=3, width=8, num_blocks=1, seed=cfg.seed
        )
    raise ValueError(f"unknown dataset {cfg.dataset!r}")


def _make_data(cfg: FedExpConfig) -> Dataset:
    total = cfg.num_workers * cfg.samples_per_worker + cfg.test_samples
    if cfg.dataset == "blobs":
        return make_blobs(
            n_samples=total,
            n_features=cfg.n_features,
            num_classes=cfg.n_classes,
            seed=cfg.seed,
        )
    if cfg.dataset == "mnist":
        return make_mnist_like(
            n_samples=total, image_size=cfg.image_size, seed=cfg.seed
        )
    if cfg.dataset == "cifar10":
        return make_cifar10_like(
            n_samples=total, image_size=cfg.image_size, seed=cfg.seed
        )
    raise ValueError(f"unknown dataset {cfg.dataset!r}")


def build_federation(
    cfg: FedExpConfig,
    attackers: dict[int, AttackerSpec] | None = None,
) -> tuple[Sequential, list[Worker], Dataset]:
    """Construct (global model, workers, test set) for one experiment.

    ``attackers`` maps worker ids to attacker specs; remaining workers are
    honest. Data is uniformly (iid) distributed, matching S5.3.1.
    """
    attackers = attackers or {}
    bad = set(attackers) - set(range(cfg.num_workers))
    if bad:
        raise ValueError(f"attacker ids {sorted(bad)} out of range")
    data = _make_data(cfg)
    test_fraction = cfg.test_samples / len(data)
    train, test = train_test_split(data, test_fraction, seed=cfg.seed)
    shards = iid_partition(train, cfg.num_workers, seed=cfg.seed)

    def model_fn() -> Sequential:
        return _make_model(cfg)

    workers: list[Worker] = []
    for wid in range(cfg.num_workers):
        common = dict(
            lr=cfg.lr,
            batch_size=cfg.batch_size,
            local_iters=cfg.local_iters,
        )
        if wid in attackers:
            workers.append(
                attackers[wid].build(
                    wid, shards[wid], model_fn, seed=cfg.seed + 1000 + wid, **common
                )
            )
        else:
            workers.append(
                HonestWorker(
                    wid, shards[wid], model_fn, seed=cfg.seed + 1000 + wid, **common
                )
            )
    return _make_model(cfg), workers, test


def build_population(
    cfg: FedExpConfig,
    attackers: dict[int, AttackerSpec] | None = None,
) -> tuple[Sequential, WorkerPopulation, Dataset]:
    """Construct (global model, population, test set) for one experiment.

    With ``population_size`` unset (or equal to ``num_workers``) this is
    the eager roster of :func:`build_federation` wrapped via
    :meth:`WorkerPopulation.from_workers` — same workers, same data, same
    seeds. A larger ``population_size`` switches to lazy per-worker
    recipes: worker datasets are derived on demand from the id (blobs
    only — the shared class prototypes are re-drawn from ``cfg.seed``
    exactly as :func:`make_blobs` would), so registering 10^6 ids costs
    O(1) per id and only sampled cohorts are ever materialized.
    """
    attackers = attackers or {}
    if cfg.population_size is None or cfg.population_size == cfg.num_workers:
        model, workers, test = build_federation(cfg, attackers)
        return (
            model,
            WorkerPopulation.from_workers(workers, availability=cfg.availability),
            test,
        )
    if cfg.population_size < cfg.num_workers:
        raise ValueError("population_size must be >= num_workers")
    if cfg.dataset != "blobs":
        raise ValueError(
            "population_size > num_workers needs dataset='blobs' "
            "(the only dataset with a lazy per-worker recipe)"
        )
    size = cfg.population_size
    # membership test per attacker id, not set(range(size)) — that
    # materializes O(population) ints just to validate a handful of keys
    bad = [wid for wid in attackers if not 0 <= wid < size]
    if bad:
        raise ValueError(f"attacker ids {sorted(bad)} out of range")
    # Shared class prototypes: the same first draw make_blobs makes from
    # this seed, so lazy shards live in the same feature geometry as the
    # eager path (per-worker labels/noise come from private streams).
    protos = np.random.default_rng(cfg.seed).normal(
        size=(cfg.n_classes, cfg.n_features)
    )
    signal, noise = 2.0, 1.0  # make_blobs defaults

    def blob_shard(rng: np.random.Generator, n: int) -> Dataset:
        y = rng.integers(0, cfg.n_classes, size=n)
        x = signal * protos[y] + noise * rng.normal(size=(n, cfg.n_features))
        return Dataset(x, y, cfg.n_classes, "blobs")

    def data_fn(wid: int) -> Dataset:
        return blob_shard(
            np.random.default_rng((cfg.seed, 0xDA7A, wid)),
            cfg.samples_per_worker,
        )

    test = blob_shard(
        np.random.default_rng((cfg.seed, 0x7E57)), cfg.test_samples
    )
    population = WorkerPopulation(
        size,
        data_fn=data_fn,
        model_fn=lambda: _make_model(cfg),
        spec_fn={wid: spec.to_spec() for wid, spec in attackers.items()},
        seed=cfg.seed,
        worker_kwargs=dict(
            lr=cfg.lr, batch_size=cfg.batch_size, local_iters=cfg.local_iters
        ),
        availability=cfg.availability,
    )
    return _make_model(cfg), population, test


def run_federated(
    cfg: FedExpConfig,
    attackers: dict[int, AttackerSpec] | None = None,
    with_fifl: bool = False,
    ledger=None,
) -> tuple[TrainingHistory, FIFLMechanism | None]:
    """Train one federation; returns the history and mechanism (if any)."""
    model, population, test = build_population(cfg, attackers)
    mechanism = None
    if with_fifl:
        mechanism = make_mechanism(
            "fifl",
            ledger=ledger,
            threshold=cfg.detection_threshold,
            mode=cfg.detection_mode,
            gamma=cfg.gamma,
            contribution_baseline=cfg.contribution_baseline,
            reference_worker=cfg.reference_worker,
            contribution_filter=cfg.contribution_filter,
            contribution_reference=cfg.contribution_reference,
            engine=cfg.engine,
            shard_size=cfg.shard_size,
        )
    trainer = FederatedTrainer(
        model,
        population=population,
        server_ranks=list(cfg.server_ranks),
        test_data=test,
        mechanism=mechanism,
        server_lr=cfg.server_lr,
        drop_prob=cfg.drop_prob,
        seed=cfg.seed,
        local_engine=cfg.local_engine,
        scenario=cfg.scenario,
        cohort_size=cfg.cohort_size,
        sampler=cfg.sampler,
        fleet_shard_size=cfg.shard_size,
        backend=cfg.backend,
        max_workers=cfg.max_workers,
    )
    # High-intensity attacks legitimately blow the model up (the paper:
    # "loss becomes NaN" at p_s >= 10); silence the float warnings so the
    # crash shows up as chance-level accuracy, not console spam.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        history = trainer.run(cfg.rounds, eval_every=cfg.eval_every)
    return history, mechanism
