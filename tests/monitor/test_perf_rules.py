"""Performance watchdogs: rss-growth, gc-pause SLO, round-time degradation.

Resource samples reach the engine via ``Monitor.observe_resource`` (a
side stream, never the hub); round wall times arrive on the ordinary
``trainer.round`` span events. All three rules are edge-triggered
latches that re-arm on recovery, like the margin/gini level alerts.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor import Monitor, MonitorConfig
from repro.monitor.rules import RuleEngine, _median


def engine(**cfg):
    return RuleEngine(MonitorConfig(**cfg))


def rules_of(alerts):
    return [a.rule for a in alerts]


def resource_sample(seq=1, rnd=0, rss=100 * 2**20, pause=0.0, **over):
    data = {"round": rnd, "rss_bytes": rss, "gc_collections": 0,
            "gc_pause_s_total": pause, "gc_pause_max_s": pause,
            "blas_threads": 1}
    data.update(over)
    return {"v": 1, "seq": seq, "type": "resource.sample", "data": data}


def round_span(seq=1, rnd=0, dur_s=0.01):
    return {"v": 1, "seq": seq, "type": "span", "name": "trainer.round",
            "kind": "round", "depth": 2, "dur_s": dur_s,
            "attrs": {"round": rnd}}


def drive(eng, events):
    alerts = []
    for ev in events:
        alerts.extend(eng.process(ev))
    return alerts


class TestRssGrowth:
    def cfg(self):
        return dict(rss_warmup_samples=2, rss_growth_factor=1.5,
                    rss_growth_min_bytes=1 * 2**20)

    def test_fires_after_warmup_and_latches(self):
        eng = engine(**self.cfg())
        mb = 2**20
        events = [resource_sample(seq=i, rnd=i, rss=rss) for i, rss in
                  enumerate([100 * mb, 100 * mb, 400 * mb, 500 * mb])]
        alerts = drive(eng, events)
        # one alert, not one per leaking sample
        assert rules_of(alerts) == ["rss-growth"]
        assert alerts[0].round == 2
        assert alerts[0].data["baseline_bytes"] == 100 * mb

    def test_rearms_after_recovery(self):
        eng = engine(**self.cfg())
        mb = 2**20
        rss_series = [100 * mb, 100 * mb,   # warmup
                      400 * mb,             # leak -> fires
                      110 * mb,             # recovered -> re-arms
                      400 * mb]             # leaks again -> fires again
        alerts = drive(eng, [resource_sample(seq=i, rnd=i, rss=r)
                             for i, r in enumerate(rss_series)])
        assert rules_of(alerts) == ["rss-growth", "rss-growth"]

    def test_baseline_is_min_over_warmup(self):
        # allocator warmup: first reading inflated, second settles lower
        eng = engine(**self.cfg())
        mb = 2**20
        alerts = drive(eng, [
            resource_sample(seq=0, rss=300 * mb),
            resource_sample(seq=1, rss=100 * mb),
            resource_sample(seq=2, rss=320 * mb),  # 3.2x the 100 MiB min
        ])
        assert rules_of(alerts) == ["rss-growth"]
        assert alerts[0].data["baseline_bytes"] == 100 * mb

    def test_growth_below_absolute_floor_is_silent(self):
        eng = engine(rss_warmup_samples=1, rss_growth_factor=1.5,
                     rss_growth_min_bytes=256 * 2**20)
        # 2x growth but only +4 MiB in absolute terms
        alerts = drive(eng, [
            resource_sample(seq=0, rss=4 * 2**20),
            resource_sample(seq=1, rss=8 * 2**20),
        ])
        assert alerts == []


class TestGcPause:
    def test_fires_above_slo_and_latches(self):
        eng = engine(gc_pause_slo_s=0.05)
        alerts = drive(eng, [
            resource_sample(seq=0, pause=0.01),
            resource_sample(seq=1, rnd=1, pause=0.20),
            resource_sample(seq=2, rnd=2, pause=0.30),  # still above: latched
        ])
        assert rules_of(alerts) == ["gc-pause"]
        assert alerts[0].round == 1
        assert alerts[0].data["gc_pause_max_s"] == 0.20

    def test_rearms_when_pauses_recover(self):
        eng = engine(gc_pause_slo_s=0.05)
        alerts = drive(eng, [
            resource_sample(seq=0, pause=0.20),
            resource_sample(seq=1, pause=0.01),
            resource_sample(seq=2, pause=0.20),
        ])
        assert rules_of(alerts) == ["gc-pause", "gc-pause"]

    def test_sample_without_pause_field_is_tolerated(self):
        ev = resource_sample(seq=0)
        del ev["data"]["gc_pause_max_s"]
        assert list(engine().process(ev)) == []


class TestWindowMedian:
    @settings(max_examples=400, deadline=None)
    @given(window=st.lists(
        st.one_of(
            st.floats(),
            st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 0.01]),
        ),
        min_size=1, max_size=17,
    ))
    def test_equals_numpy_median(self, window):
        """NaN, ±inf and repeated values: the float ``np.median`` gives."""
        with np.errstate(all="ignore"):
            want = float(np.median(window))
        got = _median(list(window))
        assert got == want or (math.isnan(got) and math.isnan(want))


class TestRoundTimeDegraded:
    def cfg(self):
        return dict(round_time_warmup=3, round_time_window=3,
                    round_time_factor=2.0, round_time_min_s=0.001)

    def test_fires_on_sustained_slowdown(self):
        eng = engine(**self.cfg())
        durs = [0.01, 0.01, 0.01,   # warmup -> baseline 10 ms
                0.05, 0.05, 0.05]   # window median 50 ms = 5x baseline
        alerts = drive(eng, [round_span(seq=i, rnd=i, dur_s=d)
                             for i, d in enumerate(durs)])
        assert rules_of(alerts) == ["round-time-degraded"]
        assert alerts[0].round == 5
        assert alerts[0].data["baseline_s"] == 0.01

    def test_single_slow_round_is_silent(self):
        eng = engine(**self.cfg())
        durs = [0.01, 0.01, 0.01, 0.05, 0.01, 0.01]
        alerts = drive(eng, [round_span(seq=i, rnd=i, dur_s=d)
                             for i, d in enumerate(durs)])
        assert alerts == []

    def test_latches_then_rearms_on_recovery(self):
        eng = engine(**self.cfg())
        durs = [0.01, 0.01, 0.01,
                0.05, 0.05, 0.05,   # degraded: one alert despite 2 windows
                0.01, 0.01,         # recovered: re-arms
                0.05, 0.05]         # degrades again
        alerts = drive(eng, [round_span(seq=i, rnd=i, dur_s=d)
                             for i, d in enumerate(durs)])
        assert rules_of(alerts) == ["round-time-degraded"] * 2

    def test_below_absolute_floor_is_silent(self):
        eng = engine(round_time_warmup=3, round_time_window=3,
                     round_time_factor=2.0, round_time_min_s=1.0)
        durs = [0.01, 0.01, 0.01, 0.05, 0.05, 0.05]
        alerts = drive(eng, [round_span(seq=i, rnd=i, dur_s=d)
                             for i, d in enumerate(durs)])
        assert alerts == []

    def test_other_spans_do_not_feed_the_window(self):
        eng = engine(**self.cfg())
        events = []
        for i in range(5):
            events.append(round_span(seq=2 * i, rnd=i, dur_s=0.01))
            events.append({"v": 1, "seq": 2 * i + 1, "type": "span",
                           "name": "trainer.mechanism", "kind": "phase",
                           "depth": 3, "dur_s": 9.9, "attrs": {}})
        assert drive(eng, events) == []


class TestMonitorIntegration:
    def test_observe_resource_routes_to_rules(self):
        monitor = Monitor(MonitorConfig(rss_warmup_samples=1,
                                        rss_growth_factor=1.5,
                                        rss_growth_min_bytes=2**20))
        monitor.observe_resource({"round": 0, "rss_bytes": 100 * 2**20})
        monitor.observe_resource({"round": 1, "rss_bytes": 400 * 2**20})
        assert rules_of(monitor.alerts) == ["rss-growth"]

    def test_observed_samples_land_in_the_ring(self):
        monitor = Monitor(MonitorConfig())
        monitor.observe_resource({"round": 0, "rss_bytes": 1})
        ring = list(monitor.recorder.ring)
        assert ring[-1]["type"] == "resource.sample"

    def test_postmortem_header_carries_resources_and_context(self, tmp_path):
        monitor = Monitor(MonitorConfig(postmortem_dir=str(tmp_path),
                                        run_id="crash"))
        path = monitor.dump_postmortem(
            "exception: RuntimeError",
            context={"backend": {"backend": "thread", "pool_size": 4}},
        )
        header = json.loads(open(path).readline())
        assert header["reason"] == "exception: RuntimeError"
        assert header["resources"]["rss_bytes"] > 0
        assert header["context"]["backend"]["pool_size"] == 4

    def test_postmortem_context_omitted_when_absent(self, tmp_path):
        monitor = Monitor(MonitorConfig(postmortem_dir=str(tmp_path),
                                        run_id="plain"))
        header = json.loads(open(monitor.dump_postmortem("alert")).readline())
        assert "context" not in header
        assert "resources" in header
