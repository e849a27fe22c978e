"""Round-engine tests: batched layout + differentials against the oracle.

The batched mechanism must agree with the per-worker reference pipeline
(``tests/core/reference.py``): every per-round output (scores, accepts,
reputations, distances, b_h, contributions, shares, rewards) agrees to
1e-8 on seeded rounds, across the pipeline's branchy corners — uncertain
workers, all-rejected rounds, both punish modes, reference baselines,
the contribution filter's second pass, server-mean references, SLM
reputation, raw detection scores, and non-finite gradients from
blown-up training.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_mechanism
from repro.core.engine import RoundBatch, stack_benchmarks
from repro.core.fifl import NON_FINITE_SCORE
from repro.fl.gradients import fedavg, recombine, slice_offsets, split_gradient
from repro.fl.workers import WorkerUpdate

from tests.core.reference import ReferenceFIFL
from tests.helpers import round_context, stack_updates

TOL = 1e-8


def make_ctx(
    num_workers=8,
    dim=48,
    num_servers=2,
    round_idx=0,
    seed=0,
    uncertain=(),
    attacker_scale=-2.0,
    blowup=(),
    blowup_value=np.inf,
    crashed=(),
):
    """Synthetic round: servers are workers 0..M-1, every 5th worker deviates.

    Workers in ``blowup`` upload ``blowup_value`` everywhere (the
    trainer's screen rejects them); the other workers' gradients do not
    depend on who blows up. Workers in ``uncertain`` lost a slice (no
    upload row); workers in ``crashed`` have no local update (a crashed
    server holds no benchmark).
    """
    rng = np.random.default_rng(seed * 7919 + round_idx)
    server_ranks = list(range(num_servers))
    honest = rng.standard_normal(dim)
    grads = {}
    for wid in range(num_workers):
        noise = rng.standard_normal(dim)
        if wid in blowup:
            grads[wid] = np.full(dim, blowup_value)
        elif wid % 5 or wid == 0:
            grads[wid] = honest + 0.3 * noise
        else:
            grads[wid] = attacker_scale * honest + noise
    updates = stack_updates({
        wid: WorkerUpdate(
            worker_id=wid, gradient=grad, num_samples=100 + 10 * (wid % 3)
        )
        for wid, grad in grads.items()
        if wid not in crashed
    }, dim)
    return round_context(
        round_idx, np.zeros(dim), server_ranks, updates, uncertain
    )


def _assert_value_close(a, b, label):
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            assert math.isnan(a) and math.isnan(b), f"{label}: {a} vs {b}"
        elif math.isinf(a) or math.isinf(b):
            assert a == b, f"{label}: {a} vs {b}"
        else:
            assert abs(a - b) < TOL, f"{label}: {a} vs {b}"
    else:
        assert a == b, f"{label}: {a!r} vs {b!r}"


def assert_records_match(scalar_records, vector_records):
    """Every FIFLRoundRecord field agrees between oracle and mechanism."""
    assert len(scalar_records) == len(vector_records)
    dict_fields = (
        "scores", "accepted", "reputations", "distances",
        "contribs", "shares", "rewards",
    )
    for s, v in zip(scalar_records, vector_records):
        for name in dict_fields:
            sd, vd = getattr(s, name), getattr(v, name)
            assert sd.keys() == vd.keys(), f"round {s.round_idx} {name} keys"
            for w in sd:
                _assert_value_close(
                    sd[w], vd[w], f"round {s.round_idx} {name}[{w}]"
                )
        if s.b_h is None or v.b_h is None:
            assert s.b_h == v.b_h, f"round {s.round_idx} b_h"
        else:
            _assert_value_close(s.b_h, v.b_h, f"round {s.round_idx} b_h")


def assert_all_finite(record):
    """No NaN or ±inf anywhere in a round record."""
    for name in ("scores", "reputations", "distances", "contribs",
                 "shares", "rewards"):
        values = list(getattr(record, name).values())
        assert np.isfinite(values).all(), f"round {record.round_idx} {name}"
    assert record.b_h is None or math.isfinite(record.b_h)


def run_engines(contexts, **cfg_kwargs):
    """Same rounds through the oracle and the mechanism; their records."""
    mech = make_mechanism("fifl", **cfg_kwargs)
    oracle = ReferenceFIFL(mech.config)
    with np.errstate(all="ignore"):
        for ctx in contexts:
            oracle.process_round(ctx)
            mech.process_round(ctx)
    return oracle.records, mech.records


# -- RoundBatch layout --------------------------------------------------------


class TestRoundBatch:
    def test_rows_are_recombined_gradients_in_id_order(self):
        ctx = make_ctx(num_workers=6, num_servers=3, uncertain=(4,))
        batch = RoundBatch.from_context(ctx)
        assert list(batch.worker_ids) == sorted(ctx.slices)
        for i, wid in enumerate(batch.worker_ids):
            full = recombine([ctx.slices[wid][s] for s in ctx.server_ranks])
            np.testing.assert_array_equal(batch.gradients[i], full)

    def test_offsets_match_slice_offsets_table(self):
        ctx = make_ctx(num_workers=5, dim=50, num_servers=3)
        batch = RoundBatch.from_context(ctx)
        np.testing.assert_array_equal(batch.offsets, slice_offsets(50, 3))

    def test_server_block_is_a_view_of_the_slice_columns(self):
        ctx = make_ctx(num_workers=5, num_servers=2)
        batch = RoundBatch.from_context(ctx)
        for j, srv in enumerate(ctx.server_ranks):
            block = batch.server_block(j)
            assert block.base is batch.gradients
            for i, wid in enumerate(batch.worker_ids):
                np.testing.assert_array_equal(block[i], ctx.slices[wid][srv])

    @pytest.mark.parametrize("reverse", [False, True])
    def test_upload_matrix_is_taken_as_is(self, reverse):
        """The batch is the context's upload matrix itself (no copy), and
        it equals restacking the per-worker slices, whichever order the
        updates were given in."""
        ctx = make_ctx(num_workers=7, num_servers=3, uncertain=(2, 5))
        order = sorted(ctx.updates, reverse=reverse)
        updates = stack_updates({w: ctx.updates[w] for w in order})
        ctx = round_context(
            0, ctx.global_params, ctx.server_ranks, updates, ctx.uncertain
        )
        batch = RoundBatch.from_context(ctx)
        assert batch.gradients is ctx.uploads
        delivered = sorted(set(order) - ctx.uncertain)
        assert list(batch.worker_ids) == delivered
        restacked = np.stack([
            recombine([ctx.slices[w][s] for s in ctx.server_ranks])
            for w in delivered
        ])
        np.testing.assert_array_equal(batch.gradients, restacked)

    def test_empty_round_stacks_to_none(self):
        ctx = make_ctx(num_workers=4, uncertain=(0, 1, 2, 3))
        assert RoundBatch.from_context(ctx) is None

    def test_weighted_average_matches_fedavg_recombine(self):
        ctx = make_ctx(num_workers=7, num_servers=3)
        batch = RoundBatch.from_context(ctx)
        keep = np.array([True, False, True, True, False, True, True])
        kept_ids = [int(w) for w, k in zip(batch.worker_ids, keep) if k]
        counts = dict(zip(ctx.worker_ids.tolist(), ctx.sample_counts.tolist()))
        weights = [counts[w] for w in kept_ids]
        expected = recombine([
            fedavg([ctx.slices[w][srv] for w in kept_ids], weights)
            for srv in ctx.server_ranks
        ])
        np.testing.assert_allclose(
            batch.weighted_average(keep), expected, atol=TOL, rtol=0
        )

    def test_weighted_average_all_kept_fast_path_agrees(self):
        ctx = make_ctx(num_workers=6)
        batch = RoundBatch.from_context(ctx)
        all_keep = np.ones(batch.num_workers, dtype=bool)
        drop_none = batch.weighted_average(all_keep)
        # same reduction through the copying branch
        almost = all_keep.copy()
        expected = (
            batch.sample_counts / batch.sample_counts.sum()
        ) @ batch.gradients
        np.testing.assert_allclose(drop_none, expected, atol=TOL, rtol=0)
        assert batch.weighted_average(~almost) is None

    def test_to_dict_roundtrip_and_shape_guard(self):
        ctx = make_ctx(num_workers=4)
        batch = RoundBatch.from_context(ctx)
        values = np.arange(4, dtype=np.float64)
        out = batch.to_dict(values)
        assert out == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
        assert all(type(v) is float for v in out.values())
        with pytest.raises(ValueError):
            batch.to_dict(np.arange(3))

    def test_row_sqnorms_cached_and_correct(self):
        ctx = make_ctx(num_workers=5)
        batch = RoundBatch.from_context(ctx)
        first = batch.row_sqnorms
        np.testing.assert_allclose(
            first, (batch.gradients**2).sum(axis=1), atol=TOL, rtol=0
        )
        assert batch.row_sqnorms is first

    def test_stack_benchmarks_skips_crashed_servers(self):
        # server 1 crashed: no local gradient
        ctx = make_ctx(num_workers=6, num_servers=3, crashed=(1,))
        batch = RoundBatch.from_context(ctx)
        ranks, slots, bench = stack_benchmarks(ctx, batch.offsets)
        assert list(ranks) == [0, 2]
        assert list(slots) == [0, 2]
        for rank, slot, sl in zip(ranks, slots, bench):
            expected = split_gradient(ctx.updates[rank].gradient, 3)[slot]
            np.testing.assert_array_equal(sl, expected)


# -- differential: mechanism == per-worker oracle ------------------------------


class TestEngineDifferential:
    def test_multi_round_with_attackers_and_uncertain(self):
        contexts = [
            make_ctx(num_workers=12, num_servers=3, round_idx=t, uncertain=(7,))
            for t in range(5)
        ]
        assert_records_match(*run_engines(contexts, threshold=0.0, gamma=0.2))

    def test_single_server_no_self_score_exclusion(self):
        # m == 1: the self-scoring exclusion is disabled; the lone server
        # scores its own slice too.
        contexts = [
            make_ctx(num_workers=6, num_servers=1, round_idx=t) for t in range(3)
        ]
        assert_records_match(*run_engines(contexts, threshold=0.0, gamma=0.3))

    def test_all_rejected_round(self):
        # an impossible threshold rejects everyone: G̃ is None, no
        # contributions or rewards, reputations still update
        contexts = [make_ctx(num_workers=8, round_idx=t) for t in range(3)]
        assert_records_match(*run_engines(contexts, threshold=2.0, gamma=0.2))

    def test_everything_uncertain_round(self):
        # nobody delivers: detection has nothing to score, but uncertain
        # events still hit the reputation estimator
        contexts = [
            make_ctx(num_workers=4, round_idx=0),
            make_ctx(num_workers=4, round_idx=1, uncertain=(0, 1, 2, 3)),
            make_ctx(num_workers=4, round_idx=2),
        ]
        assert_records_match(*run_engines(contexts, threshold=0.0, gamma=0.2))

    @pytest.mark.parametrize("punish_mode", ["contribution", "eq15"])
    def test_punish_modes(self, punish_mode):
        contexts = [make_ctx(num_workers=10, round_idx=t) for t in range(3)]
        assert_records_match(
            *run_engines(contexts, threshold=0.0, punish_mode=punish_mode)
        )

    def test_reference_baseline(self):
        contexts = [make_ctx(num_workers=9, round_idx=t) for t in range(3)]
        assert_records_match(*run_engines(
            contexts,
            threshold=-1.0,
            contribution_baseline="reference",
            reference_worker=3,
        ))

    def test_reference_baseline_with_reference_worker_missing(self):
        # the reference worker lost its upload: both fall back to the
        # zero baseline for that round
        contexts = [
            make_ctx(num_workers=9, round_idx=t, uncertain=(3,)) for t in range(2)
        ]
        assert_records_match(*run_engines(
            contexts,
            threshold=-1.0,
            contribution_baseline="reference",
            reference_worker=3,
        ))

    def test_contribution_filter_second_pass(self):
        contexts = [make_ctx(num_workers=12, round_idx=t) for t in range(4)]
        assert_records_match(*run_engines(
            contexts, threshold=-1.0, contribution_filter=True
        ))

    def test_server_mean_reference(self):
        contexts = [
            make_ctx(num_workers=10, num_servers=3, round_idx=t) for t in range(3)
        ]
        assert_records_match(*run_engines(
            contexts, threshold=0.0, contribution_reference="server_mean"
        ))

    def test_server_mean_with_contribution_filter_keeps_first_pass(self):
        # filter + server_mean: the second re-aggregation pass only applies
        # to the "aggregate" reference; both must skip it
        contexts = [make_ctx(num_workers=10, round_idx=t) for t in range(3)]
        assert_records_match(*run_engines(
            contexts,
            threshold=-1.0,
            contribution_filter=True,
            contribution_reference="server_mean",
        ))

    def test_slm_reputation_mode(self):
        contexts = [
            make_ctx(num_workers=8, round_idx=t, uncertain=(5,) if t % 2 else ())
            for t in range(6)
        ]
        assert_records_match(*run_engines(
            contexts, threshold=0.0, reputation_mode="slm", slm_period=3
        ))

    def test_raw_detection_mode(self):
        contexts = [make_ctx(num_workers=8, round_idx=t) for t in range(3)]
        assert_records_match(
            *run_engines(contexts, threshold=0.0, mode="raw")
        )

    def test_non_finite_gradient_from_blown_up_worker(self):
        # high-intensity attacks legitimately produce inf gradients: the
        # blown-up worker is rejected unscored and every record stays
        # finite (the oracle applies the same rule)
        contexts = [
            make_ctx(num_workers=8, round_idx=t, blowup=(6,)) for t in range(2)
        ]
        oracle, mech = run_engines(contexts, threshold=0.0, gamma=0.2)
        assert_records_match(oracle, mech)
        for rec in mech:
            assert rec.accepted[6] is False
            assert rec.scores[6] == NON_FINITE_SCORE
            assert 6 not in rec.rewards and 6 not in rec.contribs
            assert_all_finite(rec)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        num_workers=st.integers(3, 16),
        num_servers=st.integers(1, 3),
        n_uncertain=st.integers(0, 2),
        threshold=st.sampled_from([-1.0, 0.0, 0.5]),
        punish_mode=st.sampled_from(["contribution", "eq15"]),
        contribution_filter=st.booleans(),
        blowup=st.sets(st.integers(0, 15), max_size=2),
        blowup_value=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    def test_property_seeded_rounds_agree(
        self, seed, num_workers, num_servers, n_uncertain,
        threshold, punish_mode, contribution_filter, blowup, blowup_value,
    ):
        num_servers = min(num_servers, num_workers)
        uncertain = tuple(
            range(num_servers, min(num_servers + n_uncertain, num_workers))
        )
        # keep one server finite: with every benchmark gone there is
        # nothing to detect against, and both sides raise
        blowup = tuple(w for w in blowup if w < num_workers and w != 0)
        contexts = [
            make_ctx(
                num_workers=num_workers,
                dim=24,
                num_servers=num_servers,
                round_idx=t,
                seed=seed,
                uncertain=uncertain,
                blowup=blowup,
                blowup_value=blowup_value,
            )
            for t in range(3)
        ]
        assert_records_match(*run_engines(
            contexts,
            threshold=threshold,
            punish_mode=punish_mode,
            contribution_filter=contribution_filter,
        ))


# -- non-finite uploads: flag and exclude --------------------------------------


def _lost_upload_rounds(bad, rounds, **ctx_kwargs):
    """The same rounds with ``bad``'s upload lost instead of blown up; a
    server also loses its benchmark (its local gradient is unusable)."""
    contexts = []
    for t in range(rounds):
        crashed = (bad,) if bad < ctx_kwargs.get("num_servers", 2) else ()
        contexts.append(make_ctx(
            round_idx=t, uncertain=(bad,), crashed=crashed, **ctx_kwargs
        ))
    return contexts


class TestNonFiniteUploads:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("bad", [6, 1], ids=["worker", "server"])
    @pytest.mark.parametrize("punish_mode", ["contribution", "eq15"])
    def test_other_workers_match_the_lost_upload_run(
        self, value, bad, punish_mode
    ):
        cfg = dict(threshold=0.0, gamma=0.2, initial_reputation=0.5,
                   punish_mode=punish_mode)
        blown = make_mechanism("fifl", **cfg)
        lost = make_mechanism("fifl", **cfg)
        with np.errstate(all="ignore"):
            for t in range(3):
                blown.process_round(make_ctx(
                    num_workers=8, round_idx=t, blowup=(bad,), blowup_value=value
                ))
            for ctx in _lost_upload_rounds(bad, 3, num_workers=8):
                lost.process_round(ctx)
        for rb, rl in zip(blown.records, lost.records):
            assert rb.accepted[bad] is False
            assert rb.scores[bad] == NON_FINITE_SCORE
            assert bad not in rb.distances and bad not in rb.rewards
            assert_all_finite(rb)
            for name in ("scores", "accepted", "reputations", "distances",
                         "contribs", "shares", "rewards"):
                others, want = (
                    {w: v for w, v in getattr(r, name).items() if w != bad}
                    for r in (rb, rl)
                )
                assert others.keys() == want.keys(), name
                for w in want:
                    _assert_value_close(
                        others[w], want[w], f"round {rb.round_idx} {name}[{w}]"
                    )
            _assert_value_close(rb.b_h, rl.b_h, f"round {rb.round_idx} b_h")
        # a rejection, not an uncertain event: the reputation decays
        assert blown.reputation.reputation(bad) < 0.5
        assert lost.reputation.reputation(bad) == 0.5
        cum = blown.cumulative_rewards()
        assert bad not in cum and np.isfinite(list(cum.values())).all()

    def test_punishments_survive_an_inf_upload(self):
        # one inf row must not reach abs_total: a NaN denominator fails
        # every `abs_total > 0` test and zeroes the round's punishments
        clean = make_mechanism("fifl")
        blown = make_mechanism("fifl")
        with np.errstate(all="ignore"):
            clean.process_round(make_ctx(num_workers=8, uncertain=(6,)))
            blown.process_round(make_ctx(num_workers=8, blowup=(6,)))
        punished = [w for w, r in clean.records[0].rewards.items() if r < 0]
        assert punished
        for w in punished:
            assert blown.records[0].rewards[w] == clean.records[0].rewards[w]

    def test_ledger_and_trace_stay_json_compliant(self, tmp_path):
        from repro.ledger import Blockchain
        from repro.telemetry import JsonlSink, Telemetry

        path = tmp_path / "trace.jsonl"
        hub = Telemetry(sinks=[JsonlSink(path)])
        mech = make_mechanism("fifl", ledger=Blockchain())
        mech.profiler = hub
        with np.errstate(all="ignore"):
            for t in range(2):
                mech.process_round(make_ctx(
                    num_workers=8, round_idx=t, blowup=(3, 6),
                    blowup_value=np.nan if t else np.inf,
                ))
        hub.flush()  # the JSONL encoder raises on any NaN or ±inf
        margins = hub.metrics_snapshot()["histograms"]["fifl.detect_margin"]
        assert margins["total"] == 2 * 6 and math.isfinite(margins["sum"])
        hub.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        rounds = [e["data"] for e in events if e["type"] == "fifl.round"]
        assert len(rounds) == 2
        for data in rounds:
            assert {3, 6} <= set(data["flagged"])
        for block in mech.ledger.blocks[1:]:
            json.dumps(block.payload, allow_nan=False)

    def test_all_uploads_non_finite(self):
        mech = make_mechanism("fifl")
        ctx = make_ctx(num_workers=4, num_servers=2, uncertain=(0,),
                       blowup=(1, 2, 3))
        with np.errstate(all="ignore"):
            decision = mech.process_round(ctx)
        assert decision.accept == {1: False, 2: False, 3: False}
        rec = mech.records[0]
        assert rec.rewards == {} and rec.b_h is None


# -- differential on the paper-figure configs ---------------------------------


class TestFigureConfigDifferential:
    """End-to-end training agrees with the oracle on real figure configs."""

    @staticmethod
    def _run_both(fed_cfg, attackers, monkeypatch):
        from repro.experiments import common

        h_v, m_v = common.run_federated(fed_cfg, attackers, with_fifl=True)

        def oracle_mechanism(name, ledger=None, **kwargs):
            config = make_mechanism(name, **kwargs).config
            return ReferenceFIFL(config, ledger=ledger)

        with monkeypatch.context() as m:
            m.setattr(common, "make_mechanism", oracle_mechanism)
            h_s, m_s = common.run_federated(fed_cfg, attackers, with_fifl=True)
        assert isinstance(m_s, ReferenceFIFL)
        acc_s = [a for a in h_s.series("test_acc") if a is not None]
        acc_v = [a for a in h_v.series("test_acc") if a is not None]
        np.testing.assert_allclose(acc_s, acc_v, atol=TOL, rtol=0)
        assert_records_match(m_s.records, m_v.records)

    def test_fig09_config(self, monkeypatch):
        from repro.experiments import fig09_detection
        from repro.experiments.common import data_poison

        fed = fig09_detection._default_fed().scaled(
            rounds=4, eval_every=4, detection_threshold=0.1
        )
        self._run_both(
            fed, {6: data_poison(0.5), 7: data_poison(0.5)}, monkeypatch
        )

    def test_fig11_config(self, monkeypatch):
        from repro.experiments import fig11_reputation
        from repro.experiments.common import probabilistic

        fed = fig11_reputation.default_config().scaled(rounds=4, eval_every=4)
        attackers = {
            i: probabilistic(p_a, 4.0)
            for i, p_a in zip((4, 5, 6, 7), (0.2, 0.4, 0.6, 0.8))
        }
        self._run_both(fed, attackers, monkeypatch)

    def test_fig12_config(self, monkeypatch):
        from repro.experiments import fig12_contribution
        from repro.experiments.common import data_poison

        fed = fig12_contribution.default_config().scaled(
            rounds=3,
            eval_every=3,
            samples_per_worker=300,
            batch_size=300,
            reference_worker=7,
        )
        attackers = {
            i: data_poison(p_d)
            for i, p_d in zip((5, 6, 7, 8, 9), (0.0, 0.1, 0.2, 0.3, 0.4))
        }
        self._run_both(fed, attackers, monkeypatch)
