"""Worker agents: honest devices and the paper's attacker types (S5.1).

Every worker owns a local dataset, its own generator and the recipe
(``model_fn``) for the federation's architecture. Each round
:class:`~repro.fl.fleet_compute.FleetLocalEngine` starts every training
worker from the global parameter vector, runs its ``local_iters``
minibatch SGD steps in one stacked model, and takes its accumulated local
gradient ``G_i = (theta_start - theta_end) / lr`` — identical to the sum of
per-step gradients for plain SGD, which is the paper's ``G_i = sum_k dL/dθ``.

Attackers transform that honest behaviour:

* :class:`SignFlippingWorker` uploads ``-p_s * G_i`` (attack intensity p_s);
* :class:`DataPoisonWorker` trains on labels mislabelled at rate ``p_d``;
* :class:`FreeRiderWorker` uploads a gradient-shaped noise vector without
  training (seeks rewards for no utility);
* :class:`ProbabilisticAttacker` flips a coin each round and behaves as its
  attacker persona with probability ``p_a`` (used by the reputation
  experiments, Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ..datasets import Dataset, poison_dataset
from ..nn import Sequential

__all__ = [
    "WorkerUpdate",
    "Worker",
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


@dataclass
class WorkerUpdate:
    """What a worker uploads each round."""

    worker_id: int
    gradient: np.ndarray
    num_samples: int  # claimed sample count (trusted by the baselines only)
    attacked: bool = False  # ground truth for detection metrics
    # non-trainable state (BatchNorm running stats), synchronized
    # out-of-band per FedAvg-BN practice; None for buffer-free models
    buffers: np.ndarray | None = None


class Worker:
    """Base worker: local data, hyperparameters and an upload policy.

    The round contract is split in two. Honest local SGD runs for many
    workers at once in :class:`~repro.fl.fleet_compute.FleetLocalEngine`;
    :meth:`finalize_update` is the worker's upload policy (identity for
    honest workers, the attack transform for adversaries), a cheap vector
    op on the computed gradient. ``model_fn`` is kept, not called: the
    fleet builds one template per architecture from it. Workers that
    never train (free-riders) set ``trains_locally = False`` and define
    ``compute_update(global_params, global_buffers)`` instead.
    """

    is_malicious = False  # static ground-truth label for metrics
    trains_locally = True  # False: skips local SGD entirely (free-riders)

    def __init__(
        self,
        worker_id: int,
        dataset: Dataset,
        model_fn: Callable[[], Sequential],
        lr: float = 0.1,
        batch_size: int = 32,
        local_iters: int = 1,
        seed: int = 0,
        compute_time: float | Callable[[int, np.random.Generator], float] | None = None,
    ):
        if lr <= 0:
            raise ValueError("lr must be positive")
        if batch_size <= 0 or local_iters <= 0:
            raise ValueError("batch_size and local_iters must be positive")
        if len(dataset) == 0:
            raise ValueError("worker dataset is empty")
        self.worker_id = worker_id
        self.dataset = dataset
        self.model_fn = model_fn
        self.lr = lr
        self.batch_size = batch_size
        self.local_iters = local_iters
        self._rng = np.random.default_rng(seed)
        #: ``(streams, row)`` while a fleet group holds the stream as arrays
        self._stream = None
        # Per-worker compute-time model for fault scenarios: a constant
        # (virtual seconds per round), a callable ``(round_idx, rng) ->
        # seconds``, or None to use the scenario's base_compute_s.
        if compute_time is not None and not callable(compute_time):
            if compute_time < 0:
                raise ValueError("compute_time must be non-negative")
            compute_time = float(compute_time)
        self.compute_time = compute_time

    @property
    def rng(self) -> np.random.Generator:
        """The worker's own generator: minibatches, then attack draws.

        A fleet group may hold the stream as array rows between draws
        (:mod:`repro.fl.streams`); reading it here hands the stream back
        first, so every reader sees the generator where the per-worker
        calls would have left it.
        """
        if self._stream is not None:
            streams, row = self._stream
            self._stream = None
            streams.release(row, self._rng)
        return self._rng

    def __getstate__(self) -> dict:
        self.rng  # a pickled or copied worker carries its live stream
        return self.__dict__

    def local_compute_seconds(
        self, round_idx: int, rng: np.random.Generator
    ) -> float | None:
        """Virtual seconds this round's local training takes (sim only).

        ``None`` defers to the scenario's ``base_compute_s``. Callable
        models draw from the simulator's fault stream, so they never
        perturb training or network randomness.
        """
        if self.compute_time is None:
            return None
        if callable(self.compute_time):
            return float(self.compute_time(round_idx, rng))
        return self.compute_time

    @property
    def num_samples(self) -> int:
        """Sample count the worker reports (honest workers report truth)."""
        return len(self.dataset)

    def finalize_update(
        self, grad: np.ndarray, buffers: np.ndarray | None = None
    ) -> WorkerUpdate:
        """Turn a computed local gradient into the uploaded update.

        Attackers override this with their transform; any RNG draws they
        make here come *after* the round's minibatch-sampling draws, as
        they would in a worker training alone.
        """
        return WorkerUpdate(
            self.worker_id, grad, self.num_samples, attacked=False, buffers=buffers
        )


class HonestWorker(Worker):
    """Alias for the base behaviour, named for experiment readability."""


class SignFlippingWorker(Worker):
    """Uploads ``-p_s * G_i`` to push the model away from convergence."""

    is_malicious = True

    def __init__(self, *args, p_s: float = 4.0, **kwargs):
        super().__init__(*args, **kwargs)
        if p_s <= 0:
            raise ValueError("attack intensity p_s must be positive")
        self.p_s = p_s

    def finalize_update(
        self, grad: np.ndarray, buffers: np.ndarray | None = None
    ) -> WorkerUpdate:
        return WorkerUpdate(
            self.worker_id,
            -self.p_s * grad,
            self.num_samples,
            attacked=True,
            buffers=buffers,
        )


class DataPoisonWorker(Worker):
    """Trains honestly on a dataset whose labels are wrong at rate ``p_d``."""

    def __init__(self, *args, p_d: float = 0.5, poison_seed: int = 0, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 <= p_d <= 1.0:
            raise ValueError("p_d must be in [0, 1]")
        self.p_d = p_d
        if p_d > 0:
            self.dataset = poison_dataset(
                self.dataset, p_d, np.random.default_rng(poison_seed)
            )

    # High p_d is an attack; low p_d is merely low-quality data. The paper
    # treats p_d >= threshold as unreliable; metrics use this coarse label.
    @property
    def is_malicious(self) -> bool:  # type: ignore[override]
        return self.p_d > 0.0

    def finalize_update(
        self, grad: np.ndarray, buffers: np.ndarray | None = None
    ) -> WorkerUpdate:
        return WorkerUpdate(
            self.worker_id,
            grad,
            self.num_samples,
            attacked=self.p_d > 0.0,
            buffers=buffers,
        )


class FreeRiderWorker(Worker):
    """Skips training and uploads small random noise shaped like a gradient."""

    is_malicious = True
    trains_locally = False

    def __init__(self, *args, noise_scale: float = 1e-3, **kwargs):
        super().__init__(*args, **kwargs)
        if noise_scale < 0:
            raise ValueError("noise_scale must be non-negative")
        self.noise_scale = noise_scale

    def compute_update(
        self, global_params: np.ndarray, global_buffers: np.ndarray | None = None
    ) -> WorkerUpdate:
        grad = self.noise_scale * self.rng.normal(size=global_params.size)
        return WorkerUpdate(
            self.worker_id, grad, self.num_samples, attacked=True, buffers=None
        )


class ProbabilisticAttacker(Worker):
    """Behaves as ``attacker`` with probability ``p_a``, else honestly.

    Models the paper's unstable attackers whose reputation should converge
    to ``1 - p_a`` (Theorem 1 / Fig. 11).
    """

    is_malicious = True

    def __init__(self, *args, p_a: float = 0.5, p_s: float = 4.0, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 <= p_a <= 1.0:
            raise ValueError("p_a must be in [0, 1]")
        if p_s <= 0:
            raise ValueError("p_s must be positive")
        self.p_a = p_a
        self.p_s = p_s

    def finalize_update(
        self, grad: np.ndarray, buffers: np.ndarray | None = None
    ) -> WorkerUpdate:
        if self.rng.random() < self.p_a:
            return WorkerUpdate(
                self.worker_id,
                -self.p_s * grad,
                self.num_samples,
                attacked=True,
                buffers=buffers,
            )
        return WorkerUpdate(
            self.worker_id,
            grad,
            self.num_samples,
            attacked=False,
            buffers=buffers,
        )


class GaussianNoiseAttacker(Worker):
    """Uploads pure Gaussian noise scaled to the honest gradient's norm.

    Eq. 4's "arbitrary value" Byzantine worker: it trains (so its noise is
    norm-calibrated and not trivially spotted by magnitude) but discards
    the result and uploads a random direction scaled by ``scale``.
    """

    is_malicious = True

    def __init__(self, *args, scale: float = 1.0, **kwargs):
        super().__init__(*args, **kwargs)
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale

    def finalize_update(
        self, grad: np.ndarray, buffers: np.ndarray | None = None
    ) -> WorkerUpdate:
        noise = self.rng.normal(size=grad.size)
        norm = np.linalg.norm(noise)
        if norm > 0:
            noise *= self.scale * np.linalg.norm(grad) / norm
        return WorkerUpdate(
            self.worker_id,
            noise,
            self.num_samples,
            attacked=True,
            buffers=buffers,
        )


class ReplayFreeRider(Worker):
    """Stealthy free-rider: replays the previous global model delta.

    Instead of training, it uploads the *difference of global parameters*
    between the last two rounds scaled back into gradient units — a
    classic free-riding strategy that mimics the crowd's direction and is
    much harder to catch than random noise (its gradient correlates
    positively with the benchmark). First round falls back to zeros.
    """

    is_malicious = True
    trains_locally = False

    def __init__(self, *args, server_lr: float = 0.1, **kwargs):
        super().__init__(*args, **kwargs)
        if server_lr <= 0:
            raise ValueError("server_lr must be positive")
        self.server_lr = server_lr
        self._last_params: np.ndarray | None = None

    def compute_update(
        self, global_params: np.ndarray, global_buffers: np.ndarray | None = None
    ) -> WorkerUpdate:
        if self._last_params is None:
            grad = np.zeros_like(global_params)
        else:
            # theta_t = theta_{t-1} - eta * G  =>  G = (prev - cur) / eta
            grad = (self._last_params - global_params) / self.server_lr
        self._last_params = global_params.copy()
        return WorkerUpdate(
            self.worker_id, grad, self.num_samples, attacked=True, buffers=None
        )


class SampleInflationWorker(Worker):
    """Honest trainer that *lies about its sample count* (S5.2 discussion).

    The baselines' utility functions trust the reported ``n_i``; a worker
    claiming ``inflation``x its real data inflates its Ψ-based reward
    share proportionally. FIFL's gradient-based contribution never reads
    the claim, so the fraud buys nothing there (the claim does enter the
    FedAvg weighting, which is the same exposure the paper's setting has).
    """

    is_malicious = True  # fraudulent, though its gradients are honest

    def __init__(self, *args, inflation: float = 10.0, **kwargs):
        super().__init__(*args, **kwargs)
        if inflation < 1.0:
            raise ValueError("inflation must be >= 1")
        self.inflation = inflation

    @property
    def num_samples(self) -> int:  # type: ignore[override]
        return int(self.inflation * len(self.dataset))

    def finalize_update(
        self, grad: np.ndarray, buffers: np.ndarray | None = None
    ) -> WorkerUpdate:
        return WorkerUpdate(
            self.worker_id,
            grad,
            self.num_samples,  # the fraudulent claim
            attacked=False,  # the gradient itself is honest
            buffers=buffers,
        )


class ColludingAttacker(Worker):
    """Coordinated small-perturbation attacker ("a little is enough").

    The paper explicitly scopes FIFL to *disorganized* attackers (S4.1),
    citing Baruch et al.: colluders can "hide the backdoor in small
    changed gradients". This worker models that boundary: every colluder
    sharing the same ``direction_seed`` adds the same small planted
    direction to its honest gradient, scaled to ``epsilon`` of the honest
    gradient's norm — small enough that the cosine score barely moves,
    yet the shared bias survives averaging and steers the global model.
    """

    is_malicious = True

    def __init__(self, *args, epsilon: float = 0.3, direction_seed: int = 42,
                 **kwargs):
        super().__init__(*args, **kwargs)
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.epsilon = epsilon
        self.direction_seed = direction_seed
        self._direction: np.ndarray | None = None

    def _planted_direction(self, size: int) -> np.ndarray:
        if self._direction is None or self._direction.size != size:
            rng = np.random.default_rng(self.direction_seed)
            d = rng.normal(size=size)
            self._direction = d / np.linalg.norm(d)
        return self._direction

    def finalize_update(
        self, grad: np.ndarray, buffers: np.ndarray | None = None
    ) -> WorkerUpdate:
        direction = self._planted_direction(grad.size)
        planted = grad + self.epsilon * np.linalg.norm(grad) * direction
        return WorkerUpdate(
            self.worker_id,
            planted,
            self.num_samples,
            attacked=True,
            buffers=buffers,
        )


# -- declarative worker-spec registry ------------------------------------------
#
# Population rosters (repro.population) and the per-experiment attacker
# maps share one spawning path: a role name plus keyword parameters,
# resolved through WORKER_ROLES. Experiments stop hand-rolling
# ``if kind == ...`` construction loops; a million-worker population
# stores one WorkerSpec (or a spec function) instead of live objects.

#: role name -> worker class; extend via :func:`register_worker_role`
WORKER_ROLES: dict[str, type[Worker]] = {
    "honest": HonestWorker,
    "sign": SignFlippingWorker,
    "poison": DataPoisonWorker,
    "free": FreeRiderWorker,
    "prob": ProbabilisticAttacker,
    "noise": GaussianNoiseAttacker,
    "replay": ReplayFreeRider,
    "inflate": SampleInflationWorker,
    "collude": ColludingAttacker,
}


def register_worker_role(name: str, cls: type[Worker]) -> None:
    """Register a custom worker class under a role name."""
    if not issubclass(cls, Worker):
        raise TypeError(f"{cls!r} is not a Worker subclass")
    WORKER_ROLES[name] = cls


@dataclass(frozen=True)
class WorkerSpec:
    """Declarative recipe for one worker: a role plus its parameters."""

    role: str = "honest"
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.role not in WORKER_ROLES:
            raise ValueError(
                f"unknown worker role {self.role!r}; "
                f"available: {', '.join(sorted(WORKER_ROLES))}"
            )

    @property
    def is_malicious(self) -> bool:
        """Static ground-truth label without constructing the worker."""
        cls = WORKER_ROLES[self.role]
        if self.role == "poison":
            return float(dict(self.params).get("p_d", 0.5)) > 0.0
        return bool(cls.is_malicious)


def make_worker(
    spec: WorkerSpec,
    worker_id: int,
    dataset: Dataset,
    model_fn: Callable[[], Sequential],
    seed: int = 0,
    **common,
) -> Worker:
    """Construct one worker from its spec (the single spawning path).

    ``common`` carries the federation-wide hyperparameters (lr,
    batch_size, local_iters, ...). Data-poison specs default their
    ``poison_seed`` to ``seed``, matching the long-standing experiment
    convention, so legacy rosters rebuild bit-identically.
    """
    params = dict(spec.params)
    if spec.role == "poison":
        params.setdefault("poison_seed", seed)
    return WORKER_ROLES[spec.role](
        worker_id, dataset, model_fn, seed=seed, **params, **common
    )
