"""Property tests: spliced ledger encoding, tamper localization, one-scan audit."""

import json

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import DecayReputation
from repro.ledger import (
    Block,
    Blockchain,
    audit_reputation,
    audit_reputations,
    canonicalize,
    payload_digest,
)
from repro.telemetry import MemorySink, Telemetry, TickClock, encode_event, set_telemetry

from tests.ledger.reference import (
    reference_block_hash,
    reference_canonicalize,
    reference_payload_digest,
)

GAMMA = 0.2

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN and +-inf included
    st.text(),  # non-ASCII included
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
)
arrays = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.int32, np.bool_]),
    shape=st.one_of(
        hnp.array_shapes(min_dims=1, max_dims=2, max_side=3),
        st.just(()),  # 0-d arrays canonicalize to their scalar
    ),
)
keys = st.one_of(st.integers(-3, 20), st.text(max_size=4))


def _distinct_str_keys(d):
    return len({str(k) for k in d}) == len(d)


payloads = st.recursive(
    st.one_of(scalars, arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=4).filter(_distinct_str_keys),
    ),
    max_leaves=16,
)
texts = st.text(max_size=12)


class TestSplicedEncoding:
    @settings(max_examples=200, deadline=None)
    @given(payload=payloads, index=st.integers(0, 10**9), signer=st.text(min_size=1, max_size=8),
           signature=texts, prev_hash=texts)
    def test_hash_and_digest_match_dict_json_oracle(self, payload, index, signer, signature,
                                                    prev_hash):
        assert Block.compute_hash(index, payload, signer, signature, prev_hash) == (
            reference_block_hash(index, payload, signer, signature, prev_hash)
        )
        assert payload_digest(payload) == reference_payload_digest(payload)
        # same canonical form, key insertion order included (snapshots pickle it)
        assert json.dumps(canonicalize(payload)) == json.dumps(reference_canonicalize(payload))

    @settings(max_examples=60, deadline=None)
    @given(items=st.lists(st.tuples(payloads, st.sampled_from(["s0", "s1", "sérveur"])),
                          min_size=1, max_size=5))
    def test_appended_blocks_match_oracle(self, items):
        chain = Blockchain()
        for payload, signer in items:
            blk = chain.append(payload, signer=signer)
            assert blk.hash == reference_block_hash(
                blk.index, payload, signer, blk.signature, blk.prev_hash
            )
            assert chain.identity(signer).verify(
                f"{blk.index}:{blk.prev_hash}:{reference_payload_digest(payload)}",
                blk.signature,
            )
        assert chain.verify() == []


class TestTamperLocalized:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), items=st.lists(payloads, min_size=1, max_size=6),
           replacement=payloads)
    def test_tamper_flags_exactly_that_block(self, data, items, replacement):
        chain = Blockchain()
        for t, payload in enumerate(items):
            chain.append(payload, signer=f"s{t % 2}")
        i = data.draw(st.integers(0, len(items) - 1), label="tamper_at")
        assume(payload_digest(replacement) != payload_digest(chain[i].payload))
        chain.tamper(i, replacement)
        assert chain.verify() == [i]


def _build_chain(rounds, overrides):
    """FIFL round records from outcomes, with some reputations rewritten."""
    chain = Blockchain()
    rep = DecayReputation(gamma=GAMMA)
    for t, outcomes in enumerate(rounds):
        reps = rep.update_all(outcomes)
        for w, value in overrides.get(t, {}).items():
            if w in reps:
                reps[w] = value
        chain.append({"round": t, "accepted": outcomes, "reputations": reps},
                     signer=f"server-{t % 3}")
    return chain


def _captured(fn):
    """``fn()`` under a fresh deterministic hub; returns (result, event lines)."""
    tele = Telemetry(sinks=[MemorySink()], clock=TickClock())
    previous = set_telemetry(tele)
    try:
        out = fn()
        lines = [encode_event(e) for e in tele.events()]
    finally:
        set_telemetry(previous)
    return out, lines


class TestOneScanAudit:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        rounds=st.lists(
            st.dictionaries(st.integers(0, 5), st.sampled_from([True, False, None]),
                            max_size=6),
            max_size=8,
        ),
        overrides=st.dictionaries(
            st.integers(0, 7),
            st.dictionaries(st.integers(0, 5), st.floats(-1.0, 2.0), max_size=2),
            max_size=3,
        ),
        workers=st.lists(st.integers(0, 7), max_size=8),
        tamper=st.booleans(),
    )
    def test_equals_per_worker_audits(self, data, rounds, overrides, workers, tamper):
        chain = _build_chain(rounds, overrides)
        if tamper and len(chain):
            i = data.draw(st.integers(0, len(chain) - 1), label="tamper_at")
            payload = dict(chain[i].payload)
            payload["reputations"] = {"0": 0.5, "9": 1.0}
            chain.tamper(i, payload)

        many, many_events = _captured(
            lambda: audit_reputations(chain, workers, gamma=GAMMA)
        )
        one, one_events = _captured(
            lambda: [audit_reputation(chain, w, gamma=GAMMA) for w in workers]
        )
        assert many == one
        assert many_events == one_events
        assert len(many_events) == len(workers)
