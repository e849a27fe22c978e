"""Fault-scenario behaviour of the event-driven trainer rounds."""

import numpy as np
import pytest

from repro.fl import FederatedTrainer, HonestWorker
from repro.nn import build_logreg
from repro.population import WorkerPopulation
from repro.sim import FaultScenario, LatencyConfig
from tests.helpers import N_CLASSES, N_FEATURES, make_federation


def make_trainer(scenario, num_workers=5, drop_prob=0.0, seed=7, **worker_kwargs):
    workers, _, test = make_federation(
        num_workers=num_workers, n_samples=200, seed=3, worker_kwargs=worker_kwargs
    )
    model = build_logreg(N_FEATURES, N_CLASSES, seed=3)
    return FederatedTrainer(
        model,
        WorkerPopulation.from_workers(workers),
        [0, 1],
        test_data=test,
        drop_prob=drop_prob,
        seed=seed,
        scenario=scenario,
    )


class TestLatency:
    def test_rounds_take_virtual_time(self):
        scen = FaultScenario(latency=LatencyConfig(kind="constant", a=0.25))
        trainer = make_trainer(scen)
        history = trainer.run(3)
        # one uplink hop: every slice arrives 0.25s after the round opens
        assert all(r.duration_s == pytest.approx(0.25) for r in history.rounds)
        assert all(not r.uncertain for r in history.rounds)

    def test_per_byte_term_scales_with_payload(self):
        scen = FaultScenario(
            latency=LatencyConfig(kind="constant", a=0.0, per_byte_s=1e-3)
        )
        history = make_trainer(scen).run(1)
        assert history.rounds[0].duration_s > 0.0

    def test_virtual_clock_is_monotonic_across_rounds(self):
        scen = FaultScenario(latency=LatencyConfig(kind="uniform", a=0.1, b=0.5))
        trainer = make_trainer(scen)
        history = trainer.run(4)
        starts = [r.sim["t_start_s"] for r in history.rounds]
        assert starts == sorted(starts)
        assert trainer._sim_runner.sim.now >= starts[-1]


class TestStragglersAndComputeTime:
    def test_stragglers_inflate_round_duration(self):
        base = FaultScenario(base_compute_s=1.0)
        slow = FaultScenario(
            base_compute_s=1.0, straggler_rate=1.0, straggler_slowdown=3.0
        )
        h_base = make_trainer(base).run(2)
        h_slow = make_trainer(slow).run(2)
        assert all(r.duration_s == pytest.approx(1.0) for r in h_base.rounds)
        assert all(r.duration_s == pytest.approx(3.0) for r in h_slow.rounds)
        assert all(
            len(r.sim["stragglers"]) == 5 for r in h_slow.rounds
        )

    def test_worker_compute_time_constant_overrides_scenario(self):
        scen = FaultScenario(base_compute_s=0.5)
        trainer = make_trainer(scen, compute_time=2.0)
        history = trainer.run(1)
        assert history.rounds[0].duration_s == pytest.approx(2.0)
        times = history.rounds[0].sim["worker_time_s"]
        assert all(t == pytest.approx(2.0) for t in times.values())

    def test_worker_compute_time_callable_gets_round_and_rng(self):
        seen = []

        def model_time(round_idx, rng):
            seen.append(round_idx)
            return 0.1 * (round_idx + 1)

        scen = FaultScenario(base_compute_s=9.0)
        trainer = make_trainer(scen, compute_time=model_time)
        history = trainer.run(2)
        assert history.rounds[0].duration_s == pytest.approx(0.1)
        assert history.rounds[1].duration_s == pytest.approx(0.2)
        assert set(seen) == {0, 1}

    def test_negative_compute_time_rejected(self):
        with pytest.raises(ValueError):
            HonestWorker(
                0,
                make_federation(num_workers=1, n_samples=60)[1][0],
                lambda: build_logreg(N_FEATURES, N_CLASSES),
                compute_time=-1.0,
            )


class TestChurn:
    def test_departed_worker_is_absent_not_uncertain(self):
        scen = FaultScenario(churn=((1, 4, "leave"), (3, 4, "join")))
        history = make_trainer(scen).run(4)
        r0, r1, r2, r3 = history.rounds
        assert 4 in r0.accepted and 4 in r3.accepted
        for r in (r1, r2):
            assert 4 not in r.accepted
            assert 4 not in r.uncertain
            assert r.sim["offline"] == [4]

    def test_server_crash_makes_everyone_uncertain_until_restart(self):
        scen = FaultScenario(churn=((1, 1, "leave"), (2, 1, "join")))
        history = make_trainer(scen).run(3)
        outage = history.rounds[1]
        # server 1 is down: every online worker loses a slice
        assert outage.uncertain == {0, 2, 3, 4}
        assert not history.rounds[0].uncertain
        assert not history.rounds[2].uncertain


class TestPartitions:
    def test_partitioned_workers_become_uncertain_for_the_window(self):
        scen = FaultScenario(partitions=((1, 2, (3, 4), (0, 1)),))
        history = make_trainer(scen).run(3)
        assert not history.rounds[0].uncertain
        assert history.rounds[1].uncertain == {3, 4}
        assert not history.rounds[2].uncertain


class TestTimeoutAndRetry:
    def test_retries_recover_transient_drops(self):
        # with a high drop rate and generous retries, far fewer uploads
        # are lost than the no-retry baseline
        base = FaultScenario(round_timeout_s=60.0)
        retry = FaultScenario(round_timeout_s=60.0, max_retries=8)
        lost_base = sum(
            len(r.uncertain)
            for r in make_trainer(base, drop_prob=0.3).run(4).rounds
        )
        lost_retry = sum(
            len(r.uncertain)
            for r in make_trainer(retry, drop_prob=0.3).run(4).rounds
        )
        assert lost_base > 0
        assert lost_retry < lost_base

    def test_retry_counter_reported(self):
        scen = FaultScenario(round_timeout_s=60.0, max_retries=4)
        history = make_trainer(scen, drop_prob=0.3).run(3)
        assert sum(r.sim["retries"] for r in history.rounds) > 0

    def test_deadline_caps_round_duration_and_marks_late(self):
        scen = FaultScenario(
            latency=LatencyConfig(kind="constant", a=5.0), round_timeout_s=1.0
        )
        history = make_trainer(scen).run(2)
        for r in history.rounds:
            assert r.duration_s == pytest.approx(1.0)
            assert r.uncertain == {0, 1, 2, 3, 4}
            assert set(r.sim["late"]) == {0, 1, 2, 3, 4}


class TestDeadNetwork:
    """Satellite: drop_prob=1.0 is a fully dead network, not an error."""

    @pytest.mark.parametrize("scenario", [None, FaultScenario.none()])
    def test_training_terminates_with_all_uploads_uncertain(self, scenario):
        trainer = make_trainer(scenario, drop_prob=1.0)
        history = trainer.run(3)
        for r in history.rounds:
            assert r.uncertain == {0, 1, 2, 3, 4}
            assert not any(r.accepted.values())
            assert r.grad_norm == 0.0
        assert trainer.network.total_bytes() == 0


class TestDeterminism:
    def test_identical_seeded_runs_are_identical(self):
        scen = FaultScenario(
            latency=LatencyConfig(kind="lognormal", a=0.05, b=0.8),
            round_timeout_s=2.0,
            max_retries=2,
            base_compute_s=0.5,
            straggler_rate=0.3,
            churn=((1, 4, "leave"), (3, 4, "join")),
            seed=11,
        )
        t1 = make_trainer(scen, drop_prob=0.05)
        t2 = make_trainer(scen, drop_prob=0.05)
        h1, h2 = t1.run(4), t2.run(4)
        assert [r.sim for r in h1.rounds] == [r.sim for r in h2.rounds]
        assert [sorted(r.uncertain) for r in h1.rounds] == [
            sorted(r.uncertain) for r in h2.rounds
        ]
        assert (
            t1.model.get_flat_params().tobytes()
            == t2.model.get_flat_params().tobytes()
        )

    def test_fault_streams_do_not_disturb_training_randomness(self):
        # same drop seed, faults on vs off: the drop *pattern* changes
        # only through retries, but local-training randomness must not
        null = make_trainer(FaultScenario.none())
        faulted = make_trainer(
            FaultScenario(base_compute_s=1.0, straggler_rate=0.5)
        )
        h_null, h_faulted = null.run(2), faulted.run(2)
        # same gradients uploaded => same accepted sets and same model
        assert [r.accepted for r in h_null.rounds] == [
            r.accepted for r in h_faulted.rounds
        ]
        assert (
            null.model.get_flat_params().tobytes()
            == faulted.model.get_flat_params().tobytes()
        )
