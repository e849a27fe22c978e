"""Cross-device scale: lazy worker populations, cohort sampling, sharding.

The population layer is what takes the federation from "every worker is
a live object" (cross-silo, N ≲ 10^3) to "10^6 registered ids, O(cohort)
per-round cost" (cross-device):

* :class:`WorkerPopulation` — derived per-worker state (spec, seeds,
  availability, churn) + an LRU cache of materialized workers;
* :class:`ReputationStore` — chunked out-of-core reputation ledger that
  round decisions write back into;
* :class:`CohortSampler` implementations — seeded, restart-deterministic
  uniform / reputation-weighted / availability-aware cohort selection;
* shard streaming helpers for the batched round kernels.
"""

from .population import WorkerPopulation
from .sampler import (
    SAMPLER_NAMES,
    AvailabilityAwareSampler,
    CohortSampler,
    ReputationWeightedSampler,
    UniformSampler,
    make_sampler,
)
from .sharding import SharedGradientBuffer, iter_row_shards
from .store import ReputationStore

__all__ = [
    "WorkerPopulation",
    "ReputationStore",
    "CohortSampler",
    "UniformSampler",
    "ReputationWeightedSampler",
    "AvailabilityAwareSampler",
    "make_sampler",
    "SAMPLER_NAMES",
    "iter_row_shards",
    "SharedGradientBuffer",
]
