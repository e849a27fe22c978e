"""The telemetry hub's flat-profiler contract: phase timers, counters,
snapshots, deltas."""

import numpy as np
import pytest

from repro.telemetry import (
    Telemetry,
    format_profile,
    get_telemetry,
    profile_delta,
    set_telemetry,
)


class TestProfiler:
    def test_phase_accumulates_time_and_calls(self):
        prof = Telemetry()
        for _ in range(3):
            with prof.phase("work"):
                pass
        snap = prof.snapshot()
        assert snap["timings"]["work"]["calls"] == 3
        assert snap["timings"]["work"]["seconds"] >= 0.0

    def test_phase_records_even_on_exception(self):
        prof = Telemetry()
        with pytest.raises(RuntimeError):
            with prof.phase("boom"):
                raise RuntimeError("fail inside phase")
        assert prof.snapshot()["timings"]["boom"]["calls"] == 1

    def test_add_time_folds_external_measurements(self):
        prof = Telemetry()
        prof.add_time("io", 0.5)
        prof.add_time("io", 0.25, calls=2)
        stat = prof.snapshot()["timings"]["io"]
        assert stat["seconds"] == pytest.approx(0.75)
        assert stat["calls"] == 3

    def test_add_time_rejects_negative(self):
        with pytest.raises(ValueError):
            Telemetry().add_time("io", -1.0)

    def test_counters(self):
        prof = Telemetry()
        prof.count("workers")
        prof.count("workers", 4)
        assert prof.snapshot()["counters"]["workers"] == 5

    def test_snapshot_is_a_copy(self):
        prof = Telemetry()
        prof.count("n")
        snap = prof.snapshot()
        prof.count("n")
        assert snap["counters"]["n"] == 1

    def test_reset(self):
        prof = Telemetry()
        with prof.phase("p"):
            pass
        prof.count("c")
        prof.reset()
        assert prof.snapshot() == {"timings": {}, "counters": {}}


class TestProfileDelta:
    def test_delta_subtracts_and_keeps_new_phases(self):
        prof = Telemetry()
        with prof.phase("old"):
            pass
        before = prof.snapshot()
        with prof.phase("old"):
            pass
        with prof.phase("new"):
            pass
        prof.count("c", 2)
        delta = profile_delta(before, prof.snapshot())
        assert delta["timings"]["old"]["calls"] == 1
        assert delta["timings"]["new"]["calls"] == 1
        assert delta["counters"]["c"] == 2

    def test_unchanged_phases_dropped(self):
        prof = Telemetry()
        with prof.phase("idle"):
            pass
        before = prof.snapshot()
        delta = profile_delta(before, prof.snapshot())
        assert delta == {"timings": {}, "counters": {}}

    def test_format_profile_sorted_by_time(self):
        profile = {
            "timings": {
                "fast": {"seconds": 0.001, "calls": 1},
                "slow": {"seconds": 1.0, "calls": 2},
            },
            "counters": {"n": 3},
        }
        rows = format_profile(profile)
        assert "slow" in rows[0]
        assert any("n" in r for r in rows)


class TestProcessWideProfiler:
    def test_set_profiler_swaps_and_returns_previous(self):
        mine = Telemetry()
        previous = set_telemetry(mine)
        try:
            assert get_telemetry() is mine
        finally:
            set_telemetry(previous)
        assert get_telemetry() is previous


class TestPipelineIntegration:
    """The trainer and mechanism thread their phases through one profiler."""

    def test_training_history_carries_per_run_profile(self):
        from repro.core import make_mechanism
        from repro.fl import FederatedTrainer
        from repro.nn import build_logreg
        from tests.helpers import N_CLASSES, N_FEATURES, make_federation

        workers, _, test = make_federation(num_workers=4)
        mine = Telemetry()
        previous = set_telemetry(mine)
        try:
            trainer = FederatedTrainer(
                build_logreg(N_FEATURES, N_CLASSES),
                workers,
                [0, 1],
                test_data=test,
                mechanism=make_mechanism("fifl", threshold=0.0),
                seed=0,
            )
            history = trainer.run(3, eval_every=3)
        finally:
            set_telemetry(previous)

        timings = history.profile["timings"]
        for phase in (
            "trainer.local_compute",
            "trainer.mechanism",
            "trainer.aggregate",
            "fifl.detect",
            "fifl.contribution",
            "fifl.incentive",
        ):
            assert phase in timings, f"missing phase {phase}"
            assert timings[phase]["calls"] >= 3
        assert history.profile["counters"]["trainer.rounds"] == 3

    def test_profile_is_per_run_not_cumulative(self):
        from repro.core import make_mechanism
        from repro.fl import FederatedTrainer
        from repro.nn import build_logreg
        from tests.helpers import N_CLASSES, N_FEATURES, make_federation

        workers, _, test = make_federation(num_workers=3)
        mine = Telemetry()
        previous = set_telemetry(mine)
        try:
            trainer = FederatedTrainer(
                build_logreg(N_FEATURES, N_CLASSES),
                workers,
                [0],
                test_data=test,
                mechanism=make_mechanism("fifl", threshold=0.0),
                seed=0,
            )
            h1 = trainer.run(2, eval_every=2)
            h2 = trainer.run(2, eval_every=2)
        finally:
            set_telemetry(previous)
        assert h1.profile["counters"]["trainer.rounds"] == 2
        assert h2.profile["counters"]["trainer.rounds"] == 2

    def test_rounds_are_jsonable(self):
        import json

        prof = Telemetry()
        with prof.phase("p"):
            np.zeros(4).sum()
        prof.count("c", 2)
        json.dumps(prof.snapshot())  # must not raise
