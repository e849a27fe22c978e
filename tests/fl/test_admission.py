"""The round's one admission rule: non-finite uploads never reach a mechanism.

:meth:`RoundContext.admit` screens the fleet's upload matrix after the
upload exchange. A row with a lost slice is an uncertain event; a whole
row whose squared norm is not finite (NaN or ±inf) is rejected. Neither
becomes an upload row, so FIFL, Krum, the median filter and the
undefended baseline all train on the same, finite uploads.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MECHANISM_NAMES, make_mechanism
from repro.fl import FederatedTrainer, HonestWorker, RoundContext
from repro.fl.workers import WorkerUpdate
from repro.nn import build_logreg
from repro.population import WorkerPopulation
from repro.telemetry import JsonlSink, Telemetry, set_telemetry

from tests.helpers import (
    N_CLASSES,
    N_FEATURES,
    make_federation,
    model_fn,
    stack_updates,
)


class BlownUpWorker(HonestWorker):
    """Blown-up local training: every upload entry is ``value``."""

    def __init__(self, *args, value=np.nan, **kwargs):
        super().__init__(*args, **kwargs)
        self.value = value

    def finalize_update(self, grad, buffers=None):
        return super().finalize_update(np.full_like(grad, self.value), buffers)


def blown_up_trainer(mechanism, bad=4, value=np.nan, server_ranks=(0, 1),
                     drop_prob=0.0, seed=0):
    """A 6-worker blob federation in which worker ``bad`` uploads ``value``."""
    workers, shards, test = make_federation(num_workers=6)
    workers[bad] = BlownUpWorker(
        bad, shards[bad], model_fn(0), lr=0.1, batch_size=32,
        seed=100 + bad, value=value,
    )
    return FederatedTrainer(
        build_logreg(N_FEATURES, N_CLASSES, seed=0),
        WorkerPopulation.from_workers(workers), list(server_ranks),
        test_data=test, mechanism=mechanism, server_lr=0.1,
        drop_prob=drop_prob, seed=seed,
    )


class Spy:
    """Records every context a mechanism is handed, then delegates."""

    def __init__(self, inner):
        self.inner = inner
        self.contexts = []

    def process_round(self, ctx):
        self.contexts.append(ctx)
        return self.inner.process_round(ctx)


def strict_json(line):
    """Parse one trace line, refusing NaN and ±Infinity literals."""
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(line, parse_constant=refuse)


# -- RoundContext.admit ---------------------------------------------------------


def _local(rows):
    return stack_updates({
        w: WorkerUpdate(w, np.asarray(g, dtype=np.float64), 10 + w)
        for w, g in rows.items()
    })


class TestAdmit:
    ROWS = {
        0: [1.0, 2.0, 3.0],
        1: [np.nan, 0.0, 0.0],
        2: [0.5, -1.0, 2.0],
        3: [np.inf, 1.0, 1.0],
        4: [-np.inf, 0.0, 0.0],
        5: [1e200, 0.0, 0.0],  # finite, but its square overflows
    }

    def test_rejected_and_uncertain_are_disjoint_and_leave_the_rows(self):
        local = _local(self.ROWS)
        complete = np.array([True, True, True, False, True, True])
        with np.errstate(over="ignore"):
            ctx = RoundContext.admit(0, np.zeros(3), [0], local, complete)
        assert ctx.uncertain == {3}  # lost, whatever its row holds
        assert ctx.rejected == {1, 4, 5}
        assert ctx.worker_ids.tolist() == [0, 2]
        np.testing.assert_array_equal(ctx.uploads, local.gradients[[0, 2]])
        assert ctx.sample_counts.tolist() == [10, 12]
        assert not ctx.uploads.flags.writeable
        assert np.isfinite(ctx.uploads).all()

    def test_nothing_lost_or_rejected_takes_the_matrix_as_is(self):
        local = _local({w: g for w, g in self.ROWS.items() if w in (0, 2)})
        ctx = RoundContext.admit(
            0, np.zeros(3), [0], local, np.ones(2, dtype=bool)
        )
        assert ctx.uploads is local.gradients
        assert ctx.uncertain == set() and ctx.rejected == set()

    def test_norms_are_computed_once_and_sliced(self):
        rng = np.random.default_rng(7)
        local = _local({w: rng.standard_normal(1348) for w in range(9)})
        complete = np.array([True, False] * 4 + [True])
        ctx = RoundContext.admit(0, np.zeros(1348), [0, 1], local, complete)
        assert local.row_sqnorms is local.row_sqnorms  # cached
        # bit for bit what the admitted copy's own reduction gives
        np.testing.assert_array_equal(
            ctx.row_sqnorms, np.einsum("ij,ij->i", ctx.uploads, ctx.uploads)
        )


# -- every mechanism trains on finite uploads only -----------------------------


class TestNonFiniteWorkerInTraining:
    @pytest.mark.parametrize("name", ["krum", "accept_all", "none", "median"])
    def test_nan_upload_never_reaches_the_model(self, name):
        trainer = blown_up_trainer(make_mechanism(name))
        with np.errstate(invalid="ignore"):
            history = trainer.run(3, eval_every=1)
        for rec in history.rounds:
            assert rec.accepted[4] is False
            assert np.isfinite(rec.grad_norm)
        assert np.isfinite(trainer.model.get_flat_params()).all()
        assert history.final_accuracy() > 0.6

    def test_traced_run_flushes_strict_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        hub = Telemetry(sinks=[JsonlSink(path)])
        previous = set_telemetry(hub)
        try:
            trainer = blown_up_trainer(make_mechanism("accept_all"))
            with np.errstate(invalid="ignore"):
                trainer.run(3, eval_every=1)
            hub.flush()  # the JSONL encoder raises on NaN or ±inf
        finally:
            set_telemetry(previous)
            hub.close()
        events = [strict_json(line) for line in path.read_text().splitlines()]
        norms = [
            e["value"] for e in events
            if e.get("type") == "metric" and e.get("name") == "trainer.grad_norm"
        ]
        assert len(norms) == 3 and all(n > 0.0 for n in norms)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(MECHANISM_NAMES),
    value=st.sampled_from([np.nan, np.inf, -np.inf]),
    bad_is_server=st.booleans(),
    lone_server=st.booleans(),
    drop_prob=st.sampled_from([0.0, 0.1]),
    seed=st.integers(0, 3),
)
def test_property_every_mechanism_admits_the_same_uploads(
    tmp_path_factory, name, value, bad_is_server, lone_server, drop_prob, seed
):
    bad = 0 if bad_is_server else 4
    server_ranks = [0] if lone_server else [0, 1]
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    hub = Telemetry(sinks=[JsonlSink(path)])
    previous = set_telemetry(hub)
    try:
        spy = Spy(make_mechanism(name))
        trainer = blown_up_trainer(
            spy, bad=bad, value=value, server_ranks=server_ranks,
            drop_prob=drop_prob, seed=seed,
        )
        with np.errstate(invalid="ignore", over="ignore"):
            history = trainer.run(3, eval_every=1)
        hub.flush()
    finally:
        set_telemetry(previous)
        hub.close()

    assert np.isfinite(trainer.model.get_flat_params()).all()
    for line in path.read_text().splitlines():
        strict_json(line)
    # the round is void exactly when every live server blew up
    every_server_blown = server_ranks == [bad]
    for rec in history.rounds:
        assert rec.skipped is every_server_blown
        if rec.skipped:
            assert rec.mechanism_records["skipped"] == "no finite server update"
        else:
            assert rec.accepted[bad] is False
            assert np.isfinite(rec.grad_norm)
    assert len(spy.contexts) == (0 if every_server_blown else 3)
    for ctx in spy.contexts:
        assert ctx.rejected | ctx.uncertain >= {bad}
        assert ctx.rejected <= {bad}
        assert bad not in ctx.worker_ids.tolist()
        assert np.isfinite(ctx.uploads).all()
