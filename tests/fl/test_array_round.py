"""The array-native round against the dict path it replaced.

The trainer carries the fleet's upload matrix to the aggregate, and the
mechanism pairs result vectors with worker ids in one pass. Both must
match the per-worker dict path bit for bit: every server aggregate
(``tests/fl/dict_round.py``), and every dict the mechanism records,
emits and commits (``tests/core/reference.py::item_dict``).
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import RoundBatch
from repro.core.fifl import NON_FINITE_SCORE
from repro.fl.gradients import recombine, slice_offsets
from repro.fl.trainer import server_aggregates
from repro.fl.workers import WorkerUpdate
from repro.telemetry import Telemetry
from repro.telemetry.sinks import encode_event

from tests.core.reference import item_dict
from tests.fl.dict_round import aggregate_slices, delivered_slices


@st.composite
def rounds(draw):
    """A round's uploads: M servers over uneven slices, K live workers,
    a delivery mask, an accept mask and integer sample counts."""
    m = draw(st.integers(1, 4))
    # D not divisible by M whenever M > 1: the slices differ in width
    dim = m * draw(st.integers(1, 40)) + (draw(st.integers(1, m - 1)) if m > 1 else 0)
    k = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    gradients = rng.standard_normal((k, dim))
    # large finite rows: magnitudes whose weighted sums may overflow
    big = draw(st.sets(st.integers(0, k - 1), max_size=3))
    for i in big:
        gradients[i] *= draw(st.sampled_from([1e150, 1e300, -1e307]))
    complete = rng.random(k) < draw(st.sampled_from([1.0, 0.9, 0.5]))
    complete[draw(st.integers(0, k - 1))] = True
    n = int(complete.sum())
    kind = draw(st.sampled_from(["all", "one", "random"]))
    if kind == "all":
        keep = np.ones(n, dtype=bool)
    elif kind == "one":
        keep = np.zeros(n, dtype=bool)
        keep[draw(st.integers(0, n - 1))] = True
    else:
        keep = rng.random(n) < 0.5
        keep[draw(st.integers(0, n - 1))] = True
    counts = rng.integers(1, 10**6, size=k)
    return list(range(100, 100 + m)), gradients, complete, keep, counts


class TestServerAggregates:
    @settings(max_examples=60, deadline=None)
    @given(case=rounds())
    def test_matches_per_server_fedavg_bit_for_bit(self, case):
        servers, gradients, complete, keep, counts = case
        k, dim = gradients.shape
        ids = np.arange(k, dtype=np.int64) * 3 + 1
        gradients.flags.writeable = False

        # the trainer: delivered rows of the fleet's matrix, kept rows
        # of each server's column block
        rows = np.flatnonzero(complete)
        uploads = gradients if complete.all() else gradients[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            got = server_aggregates(
                uploads, counts[rows], keep, servers, Telemetry(enabled=False)
            )

            # the dict path
            updates = {
                int(w): WorkerUpdate(int(w), gradients[i], int(counts[i]))
                for i, w in enumerate(ids)
            }
            delivered = ids[rows].tolist()
            _, slices = delivered_slices(updates, delivered, servers, dim)
            accepted = [w for w, ok in zip(delivered, keep.tolist()) if ok]
            want = aggregate_slices(
                slices, accepted, dict(zip(ids.tolist(), counts.tolist())), servers
            )

        offsets = slice_offsets(dim, len(servers))
        for j, (a, b) in enumerate(zip(got, want)):
            assert a.size == offsets[j + 1] - offsets[j]
            assert a.tobytes() == b.tobytes(), f"server slot {j}"
        assert recombine(got).tobytes() == recombine(want).tobytes()


_SPECIALS = [NON_FINITE_SCORE, -0.0, 0.0, 5e-324, -2.2250738585072e-309,
             np.finfo(np.float64).tiny, np.finfo(np.float64).max, 1.0 / 3.0]


class TestToDict:
    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from(_SPECIALS),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1, max_size=40,
        ),
        start=st.integers(0, 10**6),
        flags=st.lists(st.booleans(), min_size=40, max_size=40),
    )
    def test_dicts_are_byte_identical_to_per_element_items(
        self, values, start, flags
    ):
        n = len(values)
        ids = np.arange(start, start + 2 * n, 2, dtype=np.int64)
        batch = RoundBatch(
            worker_ids=ids,
            gradients=np.zeros((n, 1)),
            offsets=slice_offsets(1, 1),
            server_ranks=np.zeros(1, dtype=np.int64),
            sample_counts=np.ones(n),
            row_sqnorms=np.zeros(n),
        )
        for vec in (np.asarray(values, dtype=np.float64),
                    np.asarray(flags[:n], dtype=bool)):
            got, want = batch.to_dict(vec), item_dict(ids, vec)
            assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
            for proto in (2, pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
                assert pickle.dumps(got, proto) == pickle.dumps(want, proto)
            assert encode_event({"d": got}) == encode_event({"d": want})
