"""Tests for the hash-chained signed ledger."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger import (
    Blockchain,
    SigningIdentity,
    canonicalize,
    payload_digest,
)


class TestCanonicalize:
    def test_numpy_types_converted(self):
        out = canonicalize(
            {"a": np.int64(3), "b": np.float64(1.5), "c": np.array([1, 2]), "d": np.bool_(True)}
        )
        assert out == {"a": 3, "b": 1.5, "c": [1, 2], "d": True}

    def test_int_keys_become_strings(self):
        assert canonicalize({1: "x"}) == {"1": "x"}

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            canonicalize({"f": object()})

    def test_colliding_keys_rejected(self):
        # 1 and "1" both stringify to "1"; merging them would let two
        # different payloads share a digest
        with pytest.raises(TypeError, match="'1'"):
            payload_digest({1: "a", "1": "b"})
        with pytest.raises(TypeError, match="collides"):
            canonicalize({"outer": {True: 0, "True": 1}})

    def test_digest_stable_under_key_order(self):
        a = payload_digest({"x": 1, "y": 2})
        b = payload_digest({"y": 2, "x": 1})
        assert a == b

    def test_digest_changes_with_content(self):
        assert payload_digest({"x": 1}) != payload_digest({"x": 2})


class TestSigningIdentity:
    def test_sign_verify_roundtrip(self):
        identity = SigningIdentity("srv", b"secret-key-123")
        sig = identity.sign("hello")
        assert identity.verify("hello", sig)
        assert not identity.verify("hacked", sig)

    def test_different_keys_different_signatures(self):
        a = SigningIdentity("a", b"key-aaaaaaaa")
        b = SigningIdentity("b", b"key-bbbbbbbb")
        assert a.sign("m") != b.sign("m")

    def test_validation(self):
        with pytest.raises(ValueError):
            SigningIdentity("", b"12345678")
        with pytest.raises(ValueError):
            SigningIdentity("x", b"short")


class TestBlockchain:
    def test_append_links_blocks(self):
        chain = Blockchain()
        b0 = chain.append({"round": 0}, signer="s1")
        b1 = chain.append({"round": 1}, signer="s1")
        assert b1.prev_hash == b0.hash
        assert len(chain) == 2

    def test_intact_chain_verifies(self):
        chain = Blockchain()
        for t in range(5):
            chain.append({"round": t, "v": t * 1.5}, signer=f"s{t % 2}")
        assert chain.is_intact()
        assert chain.verify() == []

    def test_payload_tampering_detected(self):
        chain = Blockchain()
        for t in range(4):
            chain.append({"round": t, "rep": 0.5}, signer="s1")
        chain.tamper(2, {"round": 2, "rep": 0.99})
        assert not chain.is_intact()
        assert 2 in chain.verify()

    def test_tampered_block_attributable_to_signer(self):
        chain = Blockchain()
        chain.append({"r": 1}, signer="evil-server")
        chain.tamper(0, {"r": 2})
        bad = chain.verify()
        assert chain[bad[0]].signer == "evil-server"

    def test_registered_identity_used(self):
        chain = Blockchain()
        identity = SigningIdentity("custom", b"my-secret-key")
        chain.register(identity)
        blk = chain.append({"x": 1}, signer="custom")
        assert identity.verify(
            f"{blk.index}:{blk.prev_hash}:{payload_digest(blk.payload)}", blk.signature
        )

    def test_double_register_rejected(self):
        chain = Blockchain()
        chain.register(SigningIdentity("a", b"aaaaaaaaaa"))
        with pytest.raises(ValueError):
            chain.register(SigningIdentity("a", b"bbbbbbbbbb"))

    def test_tamper_index_bounds(self):
        chain = Blockchain()
        with pytest.raises(IndexError):
            chain.tamper(0, {})

    def test_numpy_payload_roundtrip(self):
        chain = Blockchain()
        chain.append({"scores": {0: np.float64(0.25)}, "r": np.bool_(True)}, "s")
        assert chain.is_intact()
        assert chain[0].payload["scores"]["0"] == 0.25

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 12),
        tamper_at=st.integers(0, 11),
    )
    def test_property_any_single_tamper_detected(self, n, tamper_at):
        if tamper_at >= n:
            return
        chain = Blockchain()
        for t in range(n):
            chain.append({"round": t, "value": float(t)}, signer="s")
        chain.tamper(tamper_at, {"round": tamper_at, "value": -1.0})
        assert tamper_at in chain.verify()
