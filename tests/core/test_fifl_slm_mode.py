"""Unit tests for the mechanism's SLM reputation mode and config."""

import pickle

import pytest

from repro.core import DetectionConfig, FIFLConfig, FIFLMechanism
from repro.fl import FederatedTrainer, SignFlippingWorker
from repro.nn import build_logreg
from repro.population import WorkerPopulation

from tests.helpers import N_CLASSES, N_FEATURES, make_federation


def run_mech(reputation_mode, rounds=6, slm_period=3, seed=0):
    workers, _, test = make_federation(num_workers=5, seed=seed)
    workers[4] = make_federation(
        num_workers=5, seed=seed,
        worker_cls=SignFlippingWorker, worker_kwargs={"p_s": 5.0},
    )[0][4]
    mech = FIFLMechanism(
        FIFLConfig(
            detection=DetectionConfig(threshold=0.0),
            gamma=0.3,
            reputation_mode=reputation_mode,
            slm_period=slm_period,
        )
    )
    model = build_logreg(N_FEATURES, N_CLASSES, seed=seed)
    trainer = FederatedTrainer(
        model, WorkerPopulation.from_workers(workers), [0], test_data=test,
        mechanism=mech, server_lr=0.1,
    )
    trainer.run(rounds, eval_every=rounds)
    return mech


def period_counts(mech, workers=range(5)):
    """``(positives, negatives, uncertains)`` as dicts over counted workers."""
    counts = [mech.reputation.counts(w) for w in workers]
    return tuple(
        {w: c[k] for w, c in zip(workers, counts) if c[k]} for k in range(3)
    )


class TestSLMMode:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FIFLConfig(reputation_mode="bayesian")
        with pytest.raises(ValueError):
            FIFLConfig(reputation_mode="slm", slm_period=0)

    def test_slm_reputations_used_in_records(self):
        mech = run_mech("slm")
        # the honest workers' SLM reputation saturates at alpha_t = 1
        rec = mech.records[-1]
        for w in range(4):
            assert rec.reputations[w] == pytest.approx(1.0)
        # the consistently-rejected attacker sits at -alpha_n
        assert rec.reputations[4] == pytest.approx(-1.0)

    def test_slm_period_reset_clears_counts(self):
        mech = run_mech("slm", rounds=4, slm_period=2)
        # after the reset at round 2, round 3's counts restart: one event
        positives, negatives, _ = period_counts(mech)
        assert positives.get(0, 0) + negatives.get(0, 0) <= 2

    def test_decay_mode_records_no_slm_counts(self):
        # decay mode never reads the SLM period counts, so it keeps none
        mech = run_mech("decay", rounds=4, slm_period=100)
        assert mech.records[-1].accepted[4] is False  # events did happen
        assert period_counts(mech) == ({}, {}, {})

    def test_slm_mode_tracks_counts_within_a_period(self):
        mech = run_mech("slm", rounds=4, slm_period=100)
        positives, negatives, _ = period_counts(mech)
        assert positives.get(0, 0) == 4
        assert negatives.get(4, 0) == 4

    @pytest.mark.parametrize("mode", ["slm", "decay"])
    def test_snapshot_slm_field_restores(self, mode):
        # a snapshot's reputation table (with its SLM counts) restores as
        # it was captured, into a mechanism built in either mode
        from repro.service.snapshot import _capture_mechanism, _restore_mechanism

        src = run_mech("slm", rounds=2, slm_period=100)
        state = pickle.loads(pickle.dumps(_capture_mechanism(src)))
        dst = FIFLMechanism(FIFLConfig(reputation_mode=mode, slm_period=100))
        _restore_mechanism(dst, state)
        dst_pos, dst_neg, _ = period_counts(dst)
        src_pos, src_neg, _ = period_counts(src)
        assert dst_pos == src_pos == {0: 2, 1: 2, 2: 2, 3: 2}
        assert dst_neg == src_neg == {4: 2}

    def test_modes_agree_on_who_is_worst(self):
        slm = run_mech("slm")
        decay = run_mech("decay")
        worst_slm = min(slm.records[-1].reputations, key=slm.records[-1].reputations.get)
        worst_decay = min(decay.records[-1].reputations, key=decay.records[-1].reputations.get)
        assert worst_slm == worst_decay == 4
