"""Federated-learning substrate: workers, gradients, trainer, evaluation."""

from .evaluation import evaluate
from .fleet_compute import FleetLocalEngine, LocalUpdates
from .gradients import fedavg, recombine, slice_bounds, split_gradient
from .trainer import (
    FederatedTrainer,
    RoundContext,
    RoundDecision,
    RoundMechanism,
    RoundRecord,
    TrainingHistory,
)
from .workers import (
    WORKER_ROLES,
    ColludingAttacker,
    DataPoisonWorker,
    FreeRiderWorker,
    GaussianNoiseAttacker,
    HonestWorker,
    ProbabilisticAttacker,
    ReplayFreeRider,
    SampleInflationWorker,
    SignFlippingWorker,
    Worker,
    WorkerSpec,
    WorkerUpdate,
    make_worker,
    register_worker_role,
)

__all__ = [
    "evaluate",
    "FleetLocalEngine",
    "LocalUpdates",
    "fedavg",
    "recombine",
    "slice_bounds",
    "split_gradient",
    "FederatedTrainer",
    "RoundContext",
    "RoundDecision",
    "RoundMechanism",
    "RoundRecord",
    "TrainingHistory",
    "Worker",
    "WorkerUpdate",
    "HonestWorker",
    "SignFlippingWorker",
    "DataPoisonWorker",
    "FreeRiderWorker",
    "ProbabilisticAttacker",
    "GaussianNoiseAttacker",
    "ReplayFreeRider",
    "SampleInflationWorker",
    "ColludingAttacker",
    "WorkerSpec",
    "WORKER_ROLES",
    "register_worker_role",
    "make_worker",
]
