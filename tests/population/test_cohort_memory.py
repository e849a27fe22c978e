"""Round memory is O(cohort), not O(population).

Two lazy populations 25x apart in size run the same 32-worker cohorts.
The bigger one's traced peak may exceed the smaller one's by at most a
factor plus an absolute floor for allocator noise; an allocation that
grows with the registered population anywhere in the round path fails.
"""

import tracemalloc

from repro.core import make_mechanism
from repro.experiments.common import FedExpConfig, build_population
from repro.fl import FederatedTrainer

COHORT = 32
ROUNDS = 3
MEM_FACTOR = 1.6
MEM_FLOOR_BYTES = 2 << 20


def _peak_bytes(population_size: int) -> int:
    cfg = FedExpConfig(
        dataset="blobs", num_workers=8, samples_per_worker=60,
        test_samples=100, n_features=16, n_classes=4, rounds=ROUNDS,
        eval_every=ROUNDS, server_ranks=(0, 1), seed=0,
        population_size=population_size, cohort_size=COHORT,
        sampler="uniform", shard_size=16,
    )
    tracemalloc.start()
    try:
        model, population, _ = build_population(cfg)
        trainer = FederatedTrainer(
            model, population=population, server_ranks=[0, 1],
            mechanism=make_mechanism("fifl", shard_size=16), seed=0,
            cohort_size=COHORT, sampler="uniform", fleet_shard_size=16,
        )
        for t in range(ROUNDS):
            trainer.run_round(t)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_does_not_grow_with_the_population():
    _peak_bytes(1_000)  # warm-up: one-off imports and caches
    small, big = _peak_bytes(1_000), _peak_bytes(25_000)
    assert big <= MEM_FACTOR * small + MEM_FLOOR_BYTES, (small, big)
