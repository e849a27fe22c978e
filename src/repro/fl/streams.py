"""Fleet-owned minibatch streams: every member's PCG64 draws as one kernel.

Each worker samples its minibatches from its own
``np.random.default_rng(seed)`` generator, a PCG64 bit generator. Asking
each generator in turn (``rng.integers(0, size, size=b)``) costs one
Python call per worker per local step. :class:`MinibatchStreams` holds a
fleet group's streams as arrays instead and advances all of them at once,
bit for bit:

* **PCG64** is a 128-bit LCG, ``s' = s·M + inc mod 2^128``, whose 64-bit
  output is ``rotr64(hi ^ lo, hi >> 58)`` of the *new* state. The j-th
  state ahead is ``A_j·s + C_j·inc`` with ``A_j = M^j`` and
  ``C_j = M^(j-1) + … + 1``, the same for every stream, so one grid of
  128-bit multiply-adds (uint64 limbs) yields every member's next words.
  ``C_j·inc`` never changes for a stream and is computed when it is
  claimed.
* **integers** for a range below 2^32 is Lemire's method on 32-bit
  halves of the raw words: the low half first, the spare high half kept
  in the bit generator's ``has_uint32``/``uinteger`` buffer. The value is
  ``(u·size) >> 32``; it is rejected (and redrawn) when
  ``(u·size) mod 2^32 < 2^32 mod size``, a chance of about ``size/2^32``
  per draw. A member whose step hits a rejection falls back to its own
  generator's ``integers`` call for that step. ``size == 1`` draws
  nothing, as ``integers`` does.

**Ownership.** While a group holds a member's stream, the member's
``Generator`` is stale. ``Worker.rng`` is the one way to reach it: read
while a group owns the stream, it writes that row back into the
generator and returns ownership to the worker (:meth:`release`). The
group re-reads only the handed-back rows, at its next draw. Attacker
transforms, population eviction, snapshot capture and restore, and a
new engine claiming the same worker all go through that property. A
worker's back-reference pins only this object's arrays, not the group's
stacked replica or shards.

**Seeding.** :func:`seed_streams` builds the PCG64 stream of
``np.random.default_rng(key)`` for many keys at once, for callers that
seed one fresh generator per chunk or per worker (the weighted cohort
sampler, availability check-ins). numpy's seeding is two fixed
algorithms. ``SeedSequence`` splits each int of the key into
little-endian uint32 words, hashes them into a 4-word pool (uint32
multiply-xorshift rounds; words past the fourth are mixed into every
pool word) and draws four uint64 words from the pool. PCG64 takes the
first two as the 128-bit ``init`` and the last two as ``seq``, and its
``setseq`` step sets ``inc = (seq << 1) | 1`` and
``s = ((inc + init)·M + inc) mod 2^128``. Both run here over arrays, one
row per key.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = ["MinibatchStreams", "SeededStreams", "seed_streams"]

_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


@lru_cache(maxsize=64)
def _jumps(words: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """``A_j`` and ``C_j`` for j = 0..words, each as read-only ``(hi, lo,
    lo & 2^32-1, lo >> 32)`` rows. Column 0 is the identity, so the state
    grid carries the current state too."""
    a, c = [1], [0]
    for _ in range(words):
        a.append(a[-1] * _PCG64_MULT & _MASK128)
        c.append((c[-1] * _PCG64_MULT + 1) & _MASK128)
    return _limbs(a), _limbs(c)


def _limbs(values) -> tuple[np.ndarray, ...]:
    """128-bit constants as read-only ``(hi, lo, lo & 2^32-1, lo >> 32)``
    rows, the operand layout of :func:`_mul128`."""
    lo = np.array([v & _MASK64 for v in values], dtype=np.uint64)
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    rows = (hi, lo, lo & _LO32, lo >> _SHIFT32)
    for row in rows:
        row.flags.writeable = False
    return rows


def _mul128(k, x_hi, x_lo) -> tuple[np.ndarray, np.ndarray]:
    """``k·x mod 2^128`` for constants ``k`` (W,) against rows ``x`` (n,):
    ``(hi, lo)`` grids of shape (n, W). The low word is numpy's wrapping
    product; the carry into the high word comes from 32-bit limbs."""
    k_hi, k_lo, k0, k1 = k
    x_hi, x_lo = x_hi[:, None], x_lo[:, None]
    x0, x1 = x_lo & _LO32, x_lo >> _SHIFT32
    p00, p01, p10 = x0 * k0, x0 * k1, x1 * k0
    mid = (p00 >> _SHIFT32) + (p01 & _LO32) + (p10 & _LO32)
    hi = x1 * k1
    hi += p01 >> _SHIFT32
    hi += p10 >> _SHIFT32
    hi += mid >> _SHIFT32
    hi += x_lo * k_hi
    hi += x_hi * k_lo
    return hi, x_lo * k_lo


class MinibatchStreams:
    """A fleet group's minibatch streams, one array row per member.

    :meth:`draw` fills an ``(n, batch)`` index array with exactly what
    ``workers[i].rng.integers(0, sizes[i], size=batch)`` would return, in
    each member's stream order, and leaves each stream where those calls
    would.
    """

    def __init__(self, sizes: list[int], batch: int):
        n = len(sizes)
        if max(sizes) > 1 << 32:
            raise ValueError("minibatch streams need shards of at most 2^32 rows")
        self.batch = batch
        self._words = (batch + 1) // 2
        self._sizes = np.asarray(sizes, dtype=np.uint64)[:, None]
        self._reject_below = np.uint64(1 << 32) % self._sizes
        self._s_hi, self._s_lo = np.zeros(n, np.uint64), np.zeros(n, np.uint64)
        #: each stream's increment, and ``C_j·inc`` for j = 0..words
        self._inc = [0] * n
        self._cinc_hi = np.zeros((n, self._words + 1), np.uint64)
        self._cinc_lo = np.zeros((n, self._words + 1), np.uint64)
        self._has = np.zeros(n, dtype=bool)
        self._spare = np.zeros(n, np.uint32)
        #: rows whose stream the worker holds; size-1 rows never draw
        self._stale = [i for i, size in enumerate(sizes) if size > 1]

    def release(self, row: int, rng: np.random.Generator) -> None:
        """Write ``row``'s stream back into the worker's generator; the
        row is re-read at the next :meth:`draw`."""
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {
                "state": self._s_hi.item(row) << 64 | self._s_lo.item(row),
                "inc": self._inc[row],
            },
            "has_uint32": int(self._has.item(row)),
            "uinteger": self._spare.item(row),
        }
        self._stale.append(row)

    def _claim(self, workers: list) -> None:
        """Take the handed-back rows' streams from their workers."""
        rows, self._stale = self._stale, []
        fields = []
        for i in rows:
            worker = workers[i]
            st = worker.rng.bit_generator.state
            worker._stream = (self, i)
            s, inc = st["state"]["state"], st["state"]["inc"]
            self._inc[i] = inc
            fields += (s >> 64, s & _MASK64, inc >> 64, inc & _MASK64,
                       st["has_uint32"], st["uinteger"])
        s_hi, s_lo, inc_hi, inc_lo, has, spare = np.fromiter(
            fields, np.uint64, len(fields)
        ).reshape(-1, 6).T
        rows = np.array(rows)
        self._s_hi[rows], self._s_lo[rows] = s_hi, s_lo
        self._cinc_hi[rows], self._cinc_lo[rows] = _mul128(
            _jumps(self._words)[1], inc_hi, inc_lo
        )
        self._has[rows] = has
        self._spare[rows] = spare

    def draw(self, workers: list, idx: np.ndarray) -> None:
        """One local step's minibatch rows for every member, into ``idx``."""
        if self._stale:
            self._claim(workers)
        b, w = self.batch, self._words
        # states 0..w ahead, then their 64-bit outputs
        hi, lo = _mul128(_jumps(w)[0], self._s_hi, self._s_lo)
        lo += self._cinc_lo
        hi += self._cinc_hi
        hi += lo < self._cinc_lo
        x = hi ^ lo
        rot = hi >> np.uint64(58)
        out = (x >> rot) | (x << (-rot & np.uint64(63)))
        # 32-bit halves in draw order (a little-endian view): word j's low
        # half at 2j, high half at 2j+1; word 0 is the current state's, so
        # slot 1 holds the buffer
        halves = out.view(np.uint32)
        halves[:, 1] = self._spare
        has = self._has[:, None]
        m = np.where(has, halves[:, 1 : b + 1], halves[:, 2 : b + 2]) * self._sizes
        np.right_shift(m, _SHIFT32, out=idx, casting="unsafe")
        rejected = ((m & _LO32) < self._reject_below).any(axis=1)
        for i in np.flatnonzero(rejected):
            # reading ``rng`` hands back the pre-step stream first
            idx[i] = workers[i].rng.integers(0, int(self._sizes[i, 0]), size=b)
        # an odd batch drawn from a full buffer takes one word fewer
        short = self._has & bool(b & 1)
        self._s_hi = np.where(short, hi[:, w - 1], hi[:, w])
        self._s_lo = np.where(short, lo[:, w - 1], lo[:, w])
        self._spare = np.where(short, halves[:, 2 * w - 1], halves[:, 2 * w + 1])
        if b & 1:
            self._has = ~self._has


# numpy's SeedSequence hash constants (``numpy/random/bit_generator.pyx``)
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG64_M = _limbs((_PCG64_MULT,))


class SeededStreams(NamedTuple):
    """Fresh PCG64 streams, one row per key: ``state`` and ``inc`` as
    ``(hi, lo)`` uint64 limb arrays."""

    state_hi: np.ndarray
    state_lo: np.ndarray
    inc_hi: np.ndarray
    inc_lo: np.ndarray

    def states(self) -> list[tuple[int, int]]:
        """Each row's ``(state, inc)`` as the ints ``bit_generator.state``
        holds."""
        return [
            (s_hi << 64 | s_lo, i_hi << 64 | i_lo)
            for s_hi, s_lo, i_hi, i_lo in zip(
                self.state_hi.tolist(), self.state_lo.tolist(),
                self.inc_hi.tolist(), self.inc_lo.tolist(),
            )
        ]

    def first_random(self) -> np.ndarray:
        """Each stream's first ``Generator.random()`` double: the 64-bit
        output of the next state, top 53 bits scaled by 2^-53."""
        hi, lo = _step(self.state_hi, self.state_lo, self.inc_hi, self.inc_lo)
        x = hi ^ lo
        rot = hi >> np.uint64(58)
        out = (x >> rot) | (x << (-rot & np.uint64(63)))
        return (out >> np.uint64(11)) * 2.0**-53


def _step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """``s·M + inc mod 2^128`` row by row."""
    s_hi, s_lo = _mul128(_PCG64_M, hi, lo)
    s_lo = s_lo[:, 0] + inc_lo
    return s_hi[:, 0] + inc_hi + (s_lo < inc_lo), s_lo


def _key_words(part, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One key part's little-endian uint32 words, ``(n, width)``, and how
    many of them each row uses (``0`` is one word, as in numpy).

    An int may be any size; an integer array holds values below 2^64.
    """
    if isinstance(part, (int, np.integer)):
        value = int(part)
        if value < 0:
            raise ValueError("seed keys must be non-negative")
        words = [value & _MASK32]
        while value >> 32:
            value >>= 32
            words.append(value & _MASK32)
        words = np.array(words, dtype=np.uint32)
        return np.broadcast_to(words, (n, words.size)), np.full(n, words.size)
    values = np.asarray(part)
    if values.dtype.kind not in "iu":
        raise TypeError("seed keys must be integers")
    if values.dtype.kind == "i" and values.size and values.min() < 0:
        raise ValueError("seed keys must be non-negative")
    values = np.broadcast_to(values.astype(np.uint64), (n,))
    high = (values >> _SHIFT32).astype(np.uint32)
    return np.stack([values.astype(np.uint32), high], axis=1), 1 + (high != 0)


@lru_cache(maxsize=16)
def _hash_consts(words: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants, as ``(calls, 1)`` uint32 columns,
    of every ``hashmix`` call that mixing ``words`` entropy words makes,
    in call order: one chain through the whole pool hash."""
    calls = _POOL_WORDS * _POOL_WORDS + _POOL_WORDS * (words - _POOL_WORDS)
    chain = [_INIT_A]
    for _ in range(calls):
        chain.append(chain[-1] * _MULT_A & _MASK32)
    consts = np.array(chain, dtype=np.uint32)[:, None]
    consts.flags.writeable = False
    return consts[:-1], consts[1:]


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


# generate_state's eight draws: pool word i % 4 with the i-th constant pair
_DRAW_XOR = np.array(
    [_INIT_B * _MULT_B**i & _MASK32 for i in range(2 * _POOL_WORDS)], dtype=np.uint32
)[:, None]
_DRAW_MULT = _DRAW_XOR * np.uint32(_MULT_B)
_DRAW_WORD = np.arange(2 * _POOL_WORDS) % _POOL_WORDS


def seed_streams(*key) -> SeededStreams:
    """The streams ``np.random.default_rng(key)`` starts, for many keys.

    Each part of ``key`` is a non-negative int shared by every row or a
    1-D integer array with one value per row; the row's key is the tuple
    of its parts. Parts may span several uint32 words and rows may differ
    in length: words past the pool's fourth are mixed only into the rows
    that have them.
    """
    n = max([np.size(p) for p in key if not isinstance(p, (int, np.integer))],
            default=1)
    parts = [_key_words(p, n) for p in key]
    # each row's words, packed left: a word is used if its index in its
    # part is below the row's count for that part
    words = np.concatenate([w for w, _ in parts], axis=1)
    used = np.concatenate(
        [np.arange(w.shape[1]) < count[:, None] for w, count in parts], axis=1
    )
    width = max(_POOL_WORDS, words.shape[1])
    entropy = np.zeros((width, n), dtype=np.uint32)
    rows, _ = used.nonzero()
    entropy[(used.cumsum(axis=1) - 1)[used], rows] = words[used]
    length = used.sum(axis=1)

    # SeedSequence.mix_entropy: hash each pool word, then mix every pool
    # word into the other three, then every further word into all four
    xor, mult = _hash_consts(width)
    pool = _hashmix(entropy[:_POOL_WORDS], xor[:_POOL_WORDS], mult[:_POOL_WORDS])
    c = _POOL_WORDS
    for src in range(_POOL_WORDS):
        dst = [d for d in range(_POOL_WORDS) if d != src]
        step = slice(c, c + len(dst))
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[step], mult[step]))
        c += len(dst)
    for src in range(_POOL_WORDS, width):
        step = slice(c, c + _POOL_WORDS)
        mixed = _mix(pool, _hashmix(entropy[src], xor[step], mult[step]))
        np.copyto(pool, mixed, where=src < length)
        c += _POOL_WORDS

    # SeedSequence.generate_state(4, uint64): eight uint32 draws, paired
    # little-endian into (init_hi, init_lo, seq_hi, seq_lo)
    drawn = _hashmix(pool[_DRAW_WORD], _DRAW_XOR, _DRAW_MULT).astype(np.uint64)
    init_hi, init_lo, seq_hi, seq_lo = drawn[0::2] | drawn[1::2] << _SHIFT32
    # PCG64 setseq: inc = seq << 1 | 1, then step, add init, step
    inc_hi = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63)
    inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < inc_lo)
    return SeededStreams(*_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)
