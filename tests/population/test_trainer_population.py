"""Population-first trainer surface: validation, skips, differentials."""

import numpy as np
import pytest

from repro.core import FIFLConfig, FIFLMechanism
from repro.experiments.common import AttackerSpec, FedExpConfig, run_federated
from repro.fl import FederatedTrainer
from repro.population import WorkerPopulation
from repro.telemetry import MemorySink, Telemetry

from ..helpers import make_federation, model_fn


def make_population(num_workers=4, seed=0, **fed_kwargs):
    workers, _, test = make_federation(
        num_workers=num_workers, seed=seed, **fed_kwargs
    )
    return WorkerPopulation.from_workers(workers), test


def make_trainer(pop, test, seed=0, **kwargs):
    kwargs.setdefault("mechanism", FIFLMechanism(FIFLConfig()))
    return FederatedTrainer(
        model_fn(seed)(), population=pop, server_ranks=[0, 1],
        test_data=test, seed=seed, **kwargs,
    )


class TestConstructorValidation:
    def test_cohort_size_exceeds_population(self):
        pop, test = make_population(4)
        with pytest.raises(ValueError, match="exceeds population size"):
            make_trainer(pop, test, cohort_size=5)

    def test_cohort_size_must_be_positive(self):
        pop, test = make_population(4)
        with pytest.raises(ValueError):
            make_trainer(pop, test, cohort_size=0)

    def test_worker_list_rejected(self):
        workers, _, _ = make_federation(num_workers=4)
        with pytest.raises(TypeError, match="WorkerPopulation.from_workers"):
            FederatedTrainer(model_fn()(), workers, server_ranks=[0, 1])

    def test_server_ranks_required(self):
        pop, test = make_population(4)
        with pytest.raises(ValueError, match="server_ranks"):
            FederatedTrainer(model_fn()(), population=pop)

    def test_sampler_on_pinned_roster(self):
        pop, test = make_population(4)
        t = make_trainer(pop, test, cohort_size=3, sampler="uniform")
        rec = t.run_round(0)
        assert not rec.skipped
        assert len(rec.accepted) == 3

    def test_sampler_and_scenario_are_exclusive(self):
        from repro.sim import FaultScenario

        pop, test = make_population(4)
        with pytest.raises(ValueError, match="mutually exclusive"):
            make_trainer(
                pop, test, cohort_size=2, scenario=FaultScenario()
            )

    def test_population_accepted_positionally(self):
        pop, test = make_population(4)
        t = FederatedTrainer(model_fn()(), pop, server_ranks=[0, 1])
        assert t.population is pop


class TestSkippedRounds:
    def test_no_live_server_records_skip(self):
        pop, test = make_population(4)
        t = make_trainer(pop, test, cohort_size=3, sampler="uniform")
        before = t.model.get_flat_params().copy()
        t.fail_node(0)
        t.fail_node(1)
        rec = t._run_round(0)
        assert rec.skipped
        assert rec.mechanism_records["skipped"] == "no live server"
        assert rec.accepted == {}
        assert np.array_equal(t.model.get_flat_params(), before)

    def test_skip_counter_in_telemetry(self):
        pop, test = make_population(4)
        prof = Telemetry()
        t = make_trainer(pop, test, cohort_size=3, sampler="uniform",
                         monitor=None)
        t.profiler = prof
        t.fail_node(0)
        t.fail_node(1)
        t._run_round(0)
        assert prof.snapshot()["counters"]["trainer.skipped_rounds"] == 1

    def test_normal_round_not_skipped(self):
        pop, test = make_population(4)
        t = make_trainer(pop, test, cohort_size=3, sampler="uniform")
        rec = t._run_round(0)
        assert not rec.skipped
        assert rec.accepted


class TestDifferentials:
    def fig09_style(self, **over):
        cfg = dict(
            dataset="blobs", num_workers=8, samples_per_worker=150,
            test_samples=200, rounds=6, eval_every=6, batch_size=8,
            server_ranks=(0, 1), seed=0,
        )
        cfg.update(over)
        return FedExpConfig(**cfg)

    def assert_identical(self, cfg_a, cfg_b, attackers):
        hist_a, mech_a = run_federated(cfg_a, attackers, with_fifl=True)
        hist_b, mech_b = run_federated(cfg_b, attackers, with_fifl=True)
        assert hist_a.series("test_acc") == hist_b.series("test_acc")
        for ra, rb in zip(hist_a.rounds, hist_b.rounds):
            assert ra.accepted == rb.accepted
            assert ra.grad_norm == rb.grad_norm
        assert mech_a.reputation._rep == mech_b.reputation._rep

    def test_full_cohort_matches_static_fig09_attackers(self):
        attackers = {
            5: AttackerSpec("poison", (0.8,)),
            6: AttackerSpec("sign", (2.0,)),
        }
        self.assert_identical(
            self.fig09_style(),
            self.fig09_style(cohort_size=8, sampler="uniform"),
            attackers,
        )

    def test_full_cohort_matches_static_fig11_attackers(self):
        attackers = {
            6: AttackerSpec("prob", (0.5, 4.0)),
            7: AttackerSpec("prob", (0.9, 4.0)),
        }
        self.assert_identical(
            self.fig09_style(seed=1),
            self.fig09_style(seed=1, cohort_size=8, sampler="uniform"),
            attackers,
        )


class TestReputationWriteback:
    def test_decisions_flow_into_population_store(self):
        pop, test = make_population(6)
        t = FederatedTrainer(
            model_fn()(), population=pop, server_ranks=[0, 1],
            test_data=test, mechanism=FIFLMechanism(FIFLConfig()),
            cohort_size=4, sampler="uniform", seed=0,
        )
        for r in range(3):
            t._run_round(r)
        store = pop.reputation_store
        written = [w for w in range(6) if store.get(w) != 0.0]
        assert written, "no reputations written back into the population"

    def test_cohort_event_emitted(self):
        pop, test = make_population(6)
        prof = Telemetry()
        t = make_trainer(pop, test, cohort_size=4, sampler="uniform")
        t.profiler = prof
        t._run_round(0)
        snap = prof.snapshot()
        assert snap["counters"]["trainer.cohort_workers"] == 4


class TestFullRosterCohort:
    """No sampler: the whole roster is each round's cohort."""

    def test_pinned_roster_honours_availability(self):
        workers, _, test = make_federation(num_workers=8)
        pop = WorkerPopulation.from_workers(workers, availability=0.5)
        t = make_trainer(pop, test)
        sizes = []
        for r in range(4):
            rec = t.run_round(r)
            expected = {0, 1} | {w for w in range(2, 8) if pop.is_available(w, r)}
            assert set(rec.accepted) == expected
            sizes.append(len(expected))
        assert min(sizes) < 8

    def test_one_cohort_event_per_round(self):
        pop, test = make_population(4)
        sink = MemorySink(maxlen=None)
        t = make_trainer(pop, test)
        t.profiler = Telemetry(sinks=[sink])
        t.run(3)
        t.profiler.flush()
        cohorts = [e for e in sink.events if e["type"] == "population.cohort"]
        assert [e["data"]["round"] for e in cohorts] == [0, 1, 2]
        assert all(e["data"]["live"] == 4 for e in cohorts)
