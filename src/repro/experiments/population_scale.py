"""Extension experiment: cross-device scale via cohort sampling.

The paper's experiments run cross-silo rosters (every worker is a live
object, every worker trains every round). Open federations are
cross-device: a large registered population, a small per-round cohort,
devices that check in probabilistically. This driver exercises the
population-first surface end to end:

* a lazy :class:`~repro.population.WorkerPopulation` registers
  ``population_size`` ids (only sampled cohorts are ever materialized);
* a reputation-weighted :class:`~repro.population.CohortSampler` picks
  each round's cohort, reading the out-of-core reputation store that the
  previous rounds' FIFL verdicts were written back into;
* sparse attacker ids (one in ``ATTACK_STRIDE``) let us check that
  detection still works when an attacker is only *occasionally* sampled.

Tracked outputs: population coverage, live-cohort sizes, skipped rounds,
peak materialized workers (the O(cohort) memory story), reputation-store
footprint, and the attacker/honest mean-reputation gap over the workers
that were actually sampled.
"""

from __future__ import annotations

import numpy as np

from ..core import make_mechanism
from ..fl import FederatedTrainer
from .common import FedExpConfig, build_population, sign_flip

__all__ = ["default_config", "run", "format_rows", "ATTACK_STRIDE"]

#: one worker in every ATTACK_STRIDE ids is a sign-flipping attacker
ATTACK_STRIDE = 50


def default_config() -> FedExpConfig:
    return FedExpConfig(
        dataset="blobs",
        num_workers=8,  # eager-roster floor; the population dwarfs it
        samples_per_worker=80,
        test_samples=200,
        rounds=12,
        eval_every=4,
        gamma=0.3,
        server_ranks=(0, 1),
        population_size=2000,
        cohort_size=24,
        sampler="reputation",
        availability=0.85,
        shard_size=8,
    )


def attacker_roster(cfg: FedExpConfig) -> dict:
    """Sparse sign-flippers: ids ``3, 3+STRIDE, ...`` (servers excluded)."""
    size = cfg.population_size or cfg.num_workers
    return {
        wid: sign_flip(4.0)
        for wid in range(3, size, ATTACK_STRIDE)
        if wid not in cfg.server_ranks
    }


def run(cfg: FedExpConfig | None = None) -> dict:
    cfg = cfg if cfg is not None else default_config()
    attackers = attacker_roster(cfg)
    model, population, test = build_population(cfg, attackers)
    mechanism = make_mechanism(
        "fifl",
        gamma=cfg.gamma,
        shard_size=cfg.shard_size,
    )
    trainer = FederatedTrainer(
        model,
        population=population,
        server_ranks=list(cfg.server_ranks),
        test_data=test,
        mechanism=mechanism,
        server_lr=cfg.server_lr,
        seed=cfg.seed,
        cohort_size=cfg.cohort_size,
        sampler=cfg.sampler,
        fleet_shard_size=cfg.shard_size,
    )
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        history = trainer.run(cfg.rounds, eval_every=cfg.eval_every)

    store = population.reputation_store
    reps = store.as_dict()
    sampled = population._seen  # noqa: SLF001 — introspection, not control
    attacker_reps = [reps[w] for w in sampled if w in attackers and w in reps]
    honest_reps = [
        reps[w]
        for w in sampled
        if w not in attackers and w not in cfg.server_ranks and w in reps
    ]
    cohort_sizes = [len(r.accepted) for r in history.rounds if not r.skipped]
    return {
        "population_size": population.size,
        "cohort_target": cfg.cohort_size,
        "rounds": cfg.rounds,
        "coverage": population.coverage(),
        "seen": population.seen_count,
        "peak_cached": population.cached_count,
        "skipped_rounds": sum(r.skipped for r in history.rounds),
        "mean_cohort": float(np.mean(cohort_sizes)) if cohort_sizes else 0.0,
        "store_chunks": store.touched_chunks,
        "store_bytes": store.nbytes,
        "mean_attacker_rep": float(np.mean(attacker_reps)) if attacker_reps else None,
        "mean_honest_rep": float(np.mean(honest_reps)) if honest_reps else None,
        "final_accuracy": history.final_accuracy(),
    }


def format_rows(result: dict) -> list[str]:
    rows = [
        "Cross-device scale: reputation-weighted cohorts over a lazy population",
        f"  population={result['population_size']}"
        f"  cohort target={result['cohort_target']}"
        f"  mean live cohort={result['mean_cohort']:.1f}"
        f"  skipped rounds={result['skipped_rounds']}",
        f"  coverage={result['coverage']:.3f} ({result['seen']} workers sampled,"
        f" peak materialized={result['peak_cached']})",
        f"  reputation store: {result['store_chunks']} chunks,"
        f" {result['store_bytes']} bytes",
        f"  final accuracy={result['final_accuracy']:.3f}",
    ]
    if result["mean_attacker_rep"] is not None and result["mean_honest_rep"] is not None:
        rows.append(
            f"  mean reputation: honest={result['mean_honest_rep']:.3f}"
            f"  attacker={result['mean_attacker_rep']:.3f}"
        )
    return rows


def main() -> None:  # pragma: no cover
    for row in format_rows(run()):
        print(row)


if __name__ == "__main__":  # pragma: no cover
    main()
