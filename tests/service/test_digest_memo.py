"""The service digests each round record once and still agrees with the
full fold.

``FederationService`` keeps the ``record_digest`` of every in-memory
round record beside ``history.rounds`` and chains the stored digests,
so ``history_digest()`` must equal
:func:`repro.service.snapshot.history_digest` folded over every record
the service ever absorbed, whatever the tail length, whenever it is
called, and across a capture and restore of the service state.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.service import FederationService, history_digest
from repro.service.snapshot import capture_state, capture_telemetry
from repro.service.cli import make_preset
from repro.telemetry import MemorySink, Telemetry, TickClock, set_telemetry


def _parent_anchor(service) -> str:
    """The audit anchor as the service computed it before the memo."""
    return history_digest(service.history.rounds, rolling=service._rolling)


@settings(max_examples=30, deadline=None)
@given(
    tail=st.sampled_from([None, *range(1, 9)]),
    rounds=st.integers(2, 14),
    data=st.data(),
)
def test_memo_equals_the_fold_over_every_record(tmp_path_factory, tail,
                                                rounds, data):
    calls = data.draw(st.sets(st.integers(1, rounds)), label="calls")
    capture_at = data.draw(st.integers(1, rounds - 1), label="capture_at")
    restore_at = data.draw(st.integers(capture_at + 1, rounds),
                           label="restore_at")
    hub = Telemetry(sinks=[MemorySink(maxlen=None)], clock=TickClock())
    previous = set_telemetry(hub)
    try:
        cfg = make_preset("blobs-fifl", rounds=rounds,
                          checkpoint_every=rounds + 1, history_tail=tail)
        service = FederationService(cfg, tmp_path_factory.mktemp("memo"))
        seen, saved = [], None
        t = 0
        while t < rounds:
            service.run(until_round=t + 1)
            seen.append(service.history.rounds[-1])
            t += 1
            if t in calls:
                assert service.history_digest() == history_digest(seen)
                assert service._audit_block()["history_digest"] == (
                    _parent_anchor(service))
            if t == capture_at and saved is None:
                state = capture_state(service)
                state["telemetry"] = capture_telemetry(hub)
                saved = (pickle.dumps(state), list(seen))
            elif t == restore_at and saved is not None:
                # rewind the live service: the memo must describe the
                # restored tail, not the one it was filled from
                service.history_digest()
                state, seen = pickle.loads(saved[0]), list(saved[1])
                service.restore(state)
                t = capture_at
                restore_at = -1
        assert service.history_digest() == history_digest(seen)
        assert service._audit_block()["history_digest"] == (
            _parent_anchor(service))
        if tail is not None:
            assert len(service.history.rounds) <= tail
    finally:
        set_telemetry(previous)
