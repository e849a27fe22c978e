"""Mechanism factory tests: one construction API for every mechanism."""

import pytest

from repro.core import (
    DetectionConfig,
    FIFLConfig,
    FIFLMechanism,
    KrumMechanism,
    MedianMechanism,
    make_mechanism,
)
from repro.core.factory import (
    MECHANISM_NAMES,
    AcceptAllMechanism,
    KrumConfig,
    MedianConfig,
)
from repro.ledger import Blockchain


class TestFIFLConstruction:
    def test_flat_keywords_route_into_both_config_layers(self):
        mech = make_mechanism(
            "fifl", threshold=0.1, mode="raw", gamma=0.3, budget_per_round=2.0
        )
        assert isinstance(mech, FIFLMechanism)
        assert mech.config.detection.threshold == 0.1
        assert mech.config.detection.mode == "raw"
        assert mech.config.gamma == 0.3
        assert mech.config.budget_per_round == 2.0

    def test_defaults_when_no_keywords(self):
        mech = make_mechanism("fifl")
        assert mech.config == FIFLConfig()

    def test_prebuilt_config_passthrough(self):
        cfg = FIFLConfig(detection=DetectionConfig(threshold=0.5), gamma=0.9)
        mech = make_mechanism("fifl", config=cfg)
        assert mech.config is cfg

    def test_config_plus_keywords_rejected(self):
        with pytest.raises(TypeError, match="not both"):
            make_mechanism("fifl", config=FIFLConfig(), gamma=0.5)

    def test_unknown_keyword_rejected_with_valid_list(self):
        with pytest.raises(TypeError, match="threshold"):
            make_mechanism("fifl", bogus_knob=1)

    def test_ledger_forwarded(self):
        chain = Blockchain()
        mech = make_mechanism("fifl", ledger=chain)
        assert mech.ledger is chain

    def test_slm_preset(self):
        mech = make_mechanism("fifl-slm", threshold=0.1)
        assert mech.config.reputation_mode == "slm"
        assert mech.config.detection.threshold == 0.1

    def test_raw_preset(self):
        assert make_mechanism("fifl-raw").config.detection.mode == "raw"

    def test_engine_keyword_accepts_only_vectorized(self):
        # the single round engine: the old engine="vectorized" spelling
        # still builds FIFL, anything else points at the test oracle
        assert make_mechanism("fifl", engine="vectorized").config == FIFLConfig()
        with pytest.raises(ValueError, match="tests/core/reference.py"):
            make_mechanism("fifl", engine="scalar")
        assert "fifl-scalar" not in MECHANISM_NAMES

    def test_preset_override_wins_over_preset_default(self):
        # explicit keywords beat the preset's baked-in value
        mech = make_mechanism("fifl-slm", reputation_mode="decay")
        assert mech.config.reputation_mode == "decay"


class TestSimpleMechanisms:
    def test_krum(self):
        mech = make_mechanism("krum", num_byzantine=2)
        assert isinstance(mech, KrumMechanism)
        assert mech.num_byzantine == 2

    def test_krum_config_object(self):
        mech = make_mechanism("krum", config=KrumConfig(num_byzantine=3))
        assert mech.num_byzantine == 3

    def test_krum_validation(self):
        with pytest.raises(ValueError):
            make_mechanism("krum", num_byzantine=-1)

    def test_median(self):
        mech = make_mechanism("median", keep_fraction=0.6)
        assert isinstance(mech, MedianMechanism)
        assert mech.keep_fraction == 0.6

    def test_median_validation(self):
        with pytest.raises(ValueError):
            MedianConfig(keep_fraction=0.0)

    def test_accept_all_and_none_alias(self):
        assert isinstance(make_mechanism("accept_all"), AcceptAllMechanism)
        assert isinstance(make_mechanism("none"), AcceptAllMechanism)

    def test_trainer_default_is_the_same_accept_all(self):
        from repro.fl import FederatedTrainer
        from repro.population import WorkerPopulation
        from tests.helpers import make_federation, model_fn

        workers, _, _ = make_federation(num_workers=2)
        trainer = FederatedTrainer(
            model_fn()(), WorkerPopulation.from_workers(workers), [0]
        )
        assert isinstance(trainer.mechanism, AcceptAllMechanism)

    def test_ledger_rejected_for_mechanisms_without_audit(self):
        with pytest.raises(TypeError, match="ledger"):
            make_mechanism("krum", ledger=Blockchain())


class TestRegistry:
    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="available"):
            make_mechanism("nope")

    def test_mechanism_names_cover_builders(self):
        assert set(MECHANISM_NAMES) >= {
            "fifl", "fifl-slm", "fifl-raw",
            "krum", "median", "accept_all", "none",
        }

    def test_every_name_constructs_with_defaults(self):
        for name in MECHANISM_NAMES:
            assert make_mechanism(name) is not None
