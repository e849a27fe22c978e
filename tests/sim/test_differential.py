"""Differential contract: the null scenario reproduces the direct trainer.

The tentpole's acceptance criterion: running the upload phase through
the discrete-event kernel with zero faults and zero latency must be
*bit-for-bit* identical to the direct (instantaneous) loop — same
accepted/uncertain sets, same losses, same gradient norms, same final
parameters, same byte accounting, same drop log — even with a nonzero
drop probability, because drop draws happen in the same order on both
paths.
"""

import pytest

from repro.core import FIFLMechanism
from repro.experiments import data_poison, probabilistic, run_federated
from repro.experiments.fig09_detection import default_config as fig09_config
from repro.experiments.fig11_reputation import default_config as fig11_config
from repro.fl import FederatedTrainer
from repro.nn import build_logreg
from repro.population import WorkerPopulation
from repro.sim import FaultScenario
from tests.helpers import N_CLASSES, N_FEATURES, make_federation


def _run_trainer(scenario, drop_prob=0.1, rounds=6):
    workers, _, test = make_federation(num_workers=6, n_samples=240, seed=3)
    model = build_logreg(N_FEATURES, N_CLASSES, seed=3)
    trainer = FederatedTrainer(
        model,
        WorkerPopulation.from_workers(workers),
        [0, 1],
        test_data=test,
        mechanism=FIFLMechanism(),
        drop_prob=drop_prob,
        seed=7,
        scenario=scenario,
    )
    return trainer.run(rounds), trainer


def _assert_histories_identical(h_direct, h_sim):
    assert len(h_direct.rounds) == len(h_sim.rounds)
    for a, b in zip(h_direct.rounds, h_sim.rounds):
        assert a.accepted == b.accepted
        assert a.uncertain == b.uncertain
        assert a.test_loss == b.test_loss and a.test_acc == b.test_acc
        assert a.grad_norm == b.grad_norm


class TestNullScenarioBitwise:
    def test_matches_direct_trainer_with_drops(self):
        h1, t1 = _run_trainer(None)
        h2, t2 = _run_trainer(FaultScenario.none())
        _assert_histories_identical(h1, h2)
        # identical down to the raw parameter bytes and the wire accounting
        assert (
            t1.model.get_flat_params().tobytes()
            == t2.model.get_flat_params().tobytes()
        )
        assert t1.network.bytes_sent == t2.network.bytes_sent
        assert t1.network.drop_log.drops == t2.network.drop_log.drops

    def test_null_rounds_take_zero_virtual_time(self):
        h, t = _run_trainer(FaultScenario.none(), drop_prob=0.0, rounds=3)
        assert all(r.duration_s == 0.0 for r in h.rounds)
        assert all(r.sim is not None for r in h.rounds)
        assert t.network.in_flight == 0


def _scaled(cfg_fed, **overrides):
    return cfg_fed.scaled(
        samples_per_worker=40, test_samples=50, rounds=4, eval_every=4, **overrides
    )


class TestExperimentConfigDifferential:
    """fig09/fig11-shaped runs agree exactly between the two paths."""

    @pytest.mark.parametrize("drop_prob", [0.0, 0.15])
    def test_fig09_config(self, drop_prob):
        fed = _scaled(fig09_config().fed, drop_prob=drop_prob)
        attackers = {6: data_poison(0.5), 7: data_poison(0.9)}
        h1, m1 = run_federated(fed, attackers, with_fifl=True)
        h2, m2 = run_federated(
            fed.scaled(scenario=FaultScenario.none()), attackers, with_fifl=True
        )
        _assert_histories_identical(h1, h2)
        assert [r.reputations for r in m1.records] == [
            r.reputations for r in m2.records
        ]

    def test_fig11_config(self):
        fed = _scaled(fig11_config(), drop_prob=0.1)
        attackers = {6: probabilistic(0.4), 7: probabilistic(0.8)}
        h1, m1 = run_federated(fed, attackers, with_fifl=True)
        h2, m2 = run_federated(
            fed.scaled(scenario=FaultScenario.none()), attackers, with_fifl=True
        )
        _assert_histories_identical(h1, h2)
        assert [r.reputations for r in m1.records] == [
            r.reputations for r in m2.records
        ]
