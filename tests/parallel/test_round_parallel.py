"""The monitor's shard-straggler rule over ``parallel.round`` events."""

from repro.monitor.alerts import MonitorConfig
from repro.monitor.rules import RuleEngine


def _round_event(shard_s, phase="local_compute", backend="thread"):
    ordered = sorted(shard_s)
    mid = len(ordered) // 2
    median = (
        ordered[mid] if len(ordered) % 2
        else 0.5 * (ordered[mid - 1] + ordered[mid])
    )
    return {
        "type": "parallel.round",
        "seq": 7,
        "data": {
            "phase": phase,
            "backend": backend,
            "pool_size": len(shard_s),
            "shards": len(shard_s),
            "shard_s": list(shard_s),
            "queue_wait_s": [0.0] * len(shard_s),
            "max_shard_s": max(shard_s),
            "median_shard_s": median,
        },
    }


class TestShardStragglerRule:
    def test_fires_on_straggling_shard(self):
        engine = RuleEngine(MonitorConfig())
        alerts = engine.process(_round_event([0.01, 0.012, 0.011, 0.5]))
        assert [a.rule for a in alerts] == ["shard-straggler"]
        assert alerts[0].kind == "anomaly"
        assert alerts[0].data["shard"] == 3
        assert alerts[0].data["backend"] == "thread"

    def test_balanced_dispatch_is_silent(self):
        engine = RuleEngine(MonitorConfig())
        assert not engine.process(_round_event([0.1, 0.11, 0.09, 0.105]))

    def test_micro_dispatch_jitter_is_silent(self):
        # a 20x imbalance below the absolute floor is scheduler noise
        engine = RuleEngine(MonitorConfig())
        assert not engine.process(_round_event([0.0001, 0.0001, 0.002]))

    def test_stateless_across_events(self):
        # pure function of each event: a straggler then a clean dispatch
        engine = RuleEngine(MonitorConfig())
        assert engine.process(_round_event([0.01, 0.011, 0.6]))
        assert not engine.process(_round_event([0.1, 0.11, 0.105]))
