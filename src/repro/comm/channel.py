"""In-process message-passing substrate with MPI-style semantics.

The paper's polycentric FL protocol moves gradient *slices* between
workers and servers (S3.2 steps 1.3/1.4). We reproduce that protocol over
an in-process network that keeps MPI's send/recv/bcast/gather vocabulary
(mirroring how a multi-node deployment would be written with mpi4py) while
adding three things the experiments need:

* **failure injection** — each link can drop messages with a configured
  probability, links can be deterministically blocked (partitions), and
  whole nodes can be down (crashed or offline: every message to or from
  them is lost); drops surface as the SLM reputation module's
  *uncertain events* (S4.2);
* **byte accounting** — every payload accepted onto a link is tallied,
  so the communication-overhead ablations can compare centralized,
  polycentric, and decentralized architectures quantitatively. The same
  tallies stream into :mod:`repro.telemetry` as ``comm.*`` counters;
* **latency** — attached to a :class:`~repro.sim.Simulator` with a
  :class:`~repro.sim.latency.LatencyModel`, a sent message *arrives at a
  time* instead of appearing instantly: the send schedules a delivery
  event on the simulator's virtual clock. Without a latency model the
  legacy instantaneous path is taken unchanged (and makes no extra RNG
  draws), which is what keeps zero-latency simulated runs bit-identical
  to direct ones.

Besides per-message :meth:`Network.send`, the protocol's slice exchange
sends in batches: :meth:`Network.send_pairs` (message ``i`` on link
``(srcs[i], dsts[i])``) and :meth:`Network.send_batch` (a ``srcs ×
dsts`` grid) make, draw for draw, the drops, latency draws, drop log,
byte tallies and ``comm.*`` counts of the per-message loop, on either
kind of link. Nothing is queued — the caller holds the payloads — and
on a latency network a batch's deliveries take one simulator event, at
its last arrival; the caller resolves each message from the returned
delays.
"""

from __future__ import annotations

import sys
import warnings
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..telemetry import get_telemetry

__all__ = ["Message", "DropLog", "Network"]


@dataclass(frozen=True)
class Message:
    """One delivered message."""

    src: int
    dst: int
    tag: str
    payload: Any
    nbytes: int


@dataclass
class DropLog:
    """Record of messages lost to injected link failures."""

    drops: list[tuple[int, int, str]] = field(default_factory=list)

    def count(self, src: int | None = None, dst: int | None = None) -> int:
        return sum(
            1
            for s, d, _ in self.drops
            if (src is None or s == src) and (dst is None or d == dst)
        )


#: payload types already warned about by the size fallback (one warning
#: per type per process keeps a hot loop from spamming)
_SIZE_FALLBACK_WARNED: set[type] = set()


def _payload_nbytes(payload: Any) -> int:
    """Best-effort size of a payload in bytes (arrays dominate in FL)."""
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (list, tuple)):
        return sum(_payload_nbytes(p) for p in payload)
    if isinstance(payload, dict):
        return sum(_payload_nbytes(v) for v in payload.values())
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(payload, (bytes, bytearray, str)):
        return len(payload)
    # Unknown type: a silent 0 would corrupt the communication-overhead
    # ablation's byte accounting, so fall back to the interpreter's own
    # (conservative) object size and say so once per type.
    tp = type(payload)
    if tp not in _SIZE_FALLBACK_WARNED:
        _SIZE_FALLBACK_WARNED.add(tp)
        warnings.warn(
            f"comm: no byte accounting rule for payload type "
            f"{tp.__module__}.{tp.__qualname__}; falling back to "
            f"sys.getsizeof — wire-size estimates for this type are "
            f"approximate",
            RuntimeWarning,
            stacklevel=2,
        )
    return int(sys.getsizeof(payload))


def _link_keys(links, num_nodes: int) -> np.ndarray:
    """``src * num_nodes + dst`` for each ``(src, dst)`` link, in order."""
    return np.fromiter(
        (src * num_nodes + dst for src, dst in links), np.int64, len(links)
    )


#: pending batched messages that trigger a fold into the per-link dict
_FOLD_AT = 1 << 16


class _LinkTally:
    """Bytes accepted per directed link, ``{(src, dst): bytes}``.

    Batches wait as ``(src * num_nodes + dst, bytes)`` arrays and are
    folded into the dict when it is read, or once ``_FOLD_AT`` messages
    are pending: one sort per fold and one dict update per distinct link,
    instead of one per message. New links enter the dict in the order of
    their first message, as a per-message tally adds them. No array spans
    ``num_nodes²``.
    """

    def __init__(self, num_nodes: int, links: dict | None = None):
        self._n = num_nodes
        self._links: dict[tuple[int, int], int] = dict(links or {})
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending_msgs = 0
        self.total = sum(self._links.values())

    def add(self, keys: np.ndarray, nbytes: np.ndarray) -> None:
        self._pending.append((keys, nbytes))
        self._pending_msgs += keys.size
        self.total += int(nbytes.sum())
        if self._pending_msgs >= _FOLD_AT:
            self._fold()

    def _fold(self) -> None:
        keys = np.concatenate([k for k, _ in self._pending])
        nbytes = np.concatenate([b for _, b in self._pending])
        self._pending, self._pending_msgs = [], 0
        uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        totals = np.zeros(uniq.size, np.int64)
        np.add.at(totals, inverse, nbytes)
        order = np.argsort(first)
        uniq, totals = uniq[order], totals[order]
        links = self._links
        for link, size in zip(
            zip((uniq // self._n).tolist(), (uniq % self._n).tolist()),
            totals.tolist(),
        ):
            links[link] = links.get(link, 0) + size

    def links(self) -> dict[tuple[int, int], int]:
        if self._pending:
            self._fold()
        return self._links


class Network:
    """A set of nodes exchanging tagged messages over lossy links.

    Nodes are integer ranks ``0..num_nodes-1``. Messages are queued per
    ``(dst, src, tag)`` so receives are deterministic FIFO per link+tag
    (FIFO in *arrival* order: under a random latency model messages on
    the same link may overtake each other, as on a real network).
    """

    def __init__(
        self,
        num_nodes: int,
        drop_prob: float = 0.0,
        seed: int = 0,
        latency=None,
        sim=None,
    ):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError("drop_prob must be in [0, 1]")
        if latency is not None and sim is None:
            raise ValueError("a latency model needs a Simulator (sim=...)")
        self.num_nodes = num_nodes
        self.default_drop_prob = drop_prob
        self._link_drop: dict[tuple[int, int], float] = {}
        self._blocked: set[tuple[int, int]] = set()
        self._down: frozenset[int] = frozenset()
        self._rng = np.random.default_rng(seed)
        # The latency stream is separate from the drop stream: attaching
        # a latency model must not change which messages drop.
        self._lat_rng = np.random.default_rng((seed, 0x1A7E))
        self.latency = latency
        self.sim = sim
        self._queues: dict[tuple[int, int, str], deque[Message]] = defaultdict(deque)
        # tag -> live queue keys, so cancel_tag is O(links on that tag)
        # rather than a scan of every key ever created
        self._tag_keys: dict[str, set[tuple[int, int, str]]] = defaultdict(set)
        self._dead_tags: set[str] = set()
        self.in_flight = 0
        self.drop_log = DropLog()
        self._tally = _LinkTally(num_nodes)
        self.messages_sent = 0
        self.messages_delivered = 0

    @property
    def bytes_sent(self) -> dict[tuple[int, int], int]:
        """Bytes accepted per ``(src, dst)`` link, links in first-send
        order."""
        return self._tally.links()

    @bytes_sent.setter
    def bytes_sent(self, links: dict[tuple[int, int], int]) -> None:
        self._tally = _LinkTally(self.num_nodes, links)

    # -- configuration -------------------------------------------------------

    def set_link_drop_prob(self, src: int, dst: int, prob: float) -> None:
        """Override drop probability for one directed link."""
        self._check_rank(src)
        self._check_rank(dst)
        if not 0.0 <= prob <= 1.0:
            raise ValueError("prob must be in [0, 1]")
        self._link_drop[(src, dst)] = prob

    def block_link(self, src: int, dst: int) -> None:
        """Deterministically drop everything on one directed link.

        Unlike a drop probability of 1.0 this consumes no RNG draws, so
        transient partitions keep seeded runs byte-reproducible.
        """
        self._check_rank(src)
        self._check_rank(dst)
        self._blocked.add((src, dst))

    def unblock_link(self, src: int, dst: int) -> None:
        """Lift a :meth:`block_link` outage (no-op if not blocked)."""
        self._blocked.discard((src, dst))

    def set_blocked_links(self, links: set[tuple[int, int]]) -> None:
        """Replace the whole blocked-link set (round-boundary partitions)."""
        for src, dst in links:
            self._check_rank(src)
            self._check_rank(dst)
        self._blocked = set(links)

    def set_down_nodes(self, nodes) -> None:
        """Replace the set of down nodes (crashed or offline).

        Every message to or from a down node is dropped the way a
        :meth:`block_link` outage drops it — deterministically, with no
        RNG draw — but the state is one entry per node, not one per link.
        """
        nodes = frozenset(nodes)
        for rank in nodes:
            self._check_rank(rank)
        self._down = nodes

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_nodes:
            raise ValueError(f"rank {rank} outside [0, {self.num_nodes})")

    def _drop_prob(self, src: int, dst: int) -> float:
        return self._link_drop.get((src, dst), self.default_drop_prob)

    # -- point-to-point ------------------------------------------------------

    def send(self, src: int, dst: int, tag: str, payload: Any) -> bool:
        """Send one message; returns False if the link dropped it.

        With a latency model attached the message is scheduled to arrive
        ``latency.sample(...)`` virtual seconds from now; otherwise it is
        enqueued instantly. Drops are decided synchronously either way
        (the simulator is omniscient: a sender learns about a drop at
        send time, which is what the bounded-retry process keys on).
        """
        self._check_rank(src)
        self._check_rank(dst)
        tele = get_telemetry()
        self.messages_sent += 1
        tele.count("comm.messages_sent")
        if (src, dst) in self._blocked or src in self._down or dst in self._down:
            self.drop_log.drops.append((src, dst, tag))
            tele.count("comm.drops")
            return False
        p = self._drop_prob(src, dst)
        if p > 0.0 and self._rng.random() < p:
            self.drop_log.drops.append((src, dst, tag))
            tele.count("comm.drops")
            return False
        nbytes = _payload_nbytes(payload)
        msg = Message(src, dst, tag, payload, nbytes)
        self._tally.add(np.array([src * self.num_nodes + dst]), np.array([nbytes]))
        tele.count("comm.bytes_sent", nbytes)
        if self.latency is not None:
            delay = float(self.latency.sample(self._lat_rng, src, dst, nbytes))
            tele.observe("sim.latency", delay)
            self.in_flight += 1
            self.sim.schedule(delay, self._deliver, msg)
        else:
            self._queues[(dst, src, tag)].append(msg)
            self._tag_keys[tag].add((dst, src, tag))
        return True

    def send_batch(
        self,
        srcs,
        dsts,
        tag: str,
        nbytes,
        received: str | None = None,
    ) -> np.ndarray:
        """Send one message on every link of the ``srcs × dsts`` grid at once.

        :meth:`send_pairs` over the grid's links in row-major order, with
        ``nbytes`` per destination column (or one size for all). Returns
        the ``(len(srcs), len(dsts))`` delivered mask.
        """
        srcs, dsts = self._ranks(srcs), self._ranks(dsts)
        ns, nd = srcs.size, dsts.size
        sizes = np.broadcast_to(np.asarray(nbytes, dtype=np.int64), (nd,))
        delays = self.send_pairs(
            np.repeat(srcs, nd), np.tile(dsts, ns), tag, np.tile(sizes, ns),
            received,
        )
        return ~np.isnan(delays).reshape(ns, nd)

    def send_pairs(
        self,
        srcs,
        dsts,
        tag: str,
        nbytes,
        received: str | None = None,
    ) -> np.ndarray:
        """Send message ``i`` on link ``(srcs[i], dsts[i])``, for every ``i``.

        Equivalent, draw for draw, to calling :meth:`send` for each
        message in index order: the same drops (``Generator.random(k)``
        yields the same doubles as ``k`` scalar draws), the same latency
        draws (the model's ``sample_many``, over the delivered messages),
        the same drop-log order, byte tallies, ``sim.latency`` histogram
        and ``comm.*`` counter totals, with counters first touched in the
        order the per-message loop touches them. Ranks are checked before
        anything is sent.

        Nothing is queued: the caller holds the payloads, and ``nbytes``
        (per message, or one size for all) gives each message's wire
        size. ``received`` says how the destinations consume their
        messages, which is what :meth:`recv` would have counted as
        delivered: ``None`` — never, or later through
        :meth:`mark_received`; ``"after"`` — once every message is sent;
        ``"each"`` — as soon as each one is sent. On a latency network
        messages arrive later, so ``received`` must be ``None``; the
        batch's deliveries occupy one simulator event, at its last
        arrival.

        Returns each message's delay in virtual seconds (0 on instant
        links), NaN where the message dropped.
        """
        if received not in (None, "after", "each"):
            raise ValueError(
                f"received must be None, 'after' or 'each', got {received!r}"
            )
        if received is not None and self.latency is not None:
            raise ValueError("a latency network delivers later: received=None")
        srcs, dsts = self._ranks(srcs), self._ranks(dsts)
        if srcs.size != dsts.size:
            raise ValueError(
                f"{srcs.size} sources for {dsts.size} destinations"
            )
        total = srcs.size
        delays = np.full(total, np.nan)
        if total == 0:
            return delays
        sizes = np.broadcast_to(np.asarray(nbytes, dtype=np.int64), (total,))
        n = self.num_nodes
        p = float(self.default_drop_prob)
        if self._blocked or self._link_drop or self._down:
            keys = srcs * n + dsts
            dropped = np.isin(keys, _link_keys(self._blocked, n))
            if self._down:
                down = np.fromiter(self._down, np.int64, len(self._down))
                dropped |= np.isin(srcs, down) | np.isin(dsts, down)
            prob = np.full(total, p)
            if self._link_drop:
                link_keys = _link_keys(self._link_drop, n)
                order = np.argsort(link_keys)
                link_keys = link_keys[order]
                link_prob = np.fromiter(self._link_drop.values(), np.float64)
                pos = np.searchsorted(link_keys, keys).clip(max=link_keys.size - 1)
                hit = link_keys[pos] == keys
                prob[hit] = link_prob[order][pos[hit]]
            draws = ~dropped & (prob > 0.0)
            k = int(np.count_nonzero(draws))
            if k:
                dropped[draws] = self._rng.random(k) < prob[draws]
        elif p > 0.0:
            dropped = self._rng.random(total) < p
        else:
            dropped = np.zeros(total, dtype=bool)

        self.messages_sent += total
        lost = np.flatnonzero(dropped)
        self.drop_log.drops.extend(
            zip(srcs[lost].tolist(), dsts[lost].tolist(), [tag] * lost.size)
        )
        sent = np.flatnonzero(~dropped)
        sent_src, sent_dst = srcs[sent], dsts[sent]
        sent_bytes = sizes[sent]
        if sent.size:
            self._tally.add(sent_src * n + sent_dst, sent_bytes)
        if received is not None:
            self.messages_delivered += sent.size

        # One count per counter, in the order the per-message loop would
        # first touch each (key order is visible in profile snapshots).
        # Entries are (message index, step within that message's send).
        counts = [((0, 0), "comm.messages_sent", total)]
        if lost.size:
            counts.append(((int(lost[0]), 1), "comm.drops", int(lost.size)))
        if sent.size:
            first = int(sent[0])
            counts.append(
                ((first, 1), "comm.bytes_sent", int(sent_bytes.sum()))
            )
            if received is not None:
                at = (first, 2) if received == "each" else (total, 0)
                counts.append((at, "comm.messages_delivered", int(sent.size)))
        tele = get_telemetry()
        for _, name, count in sorted(counts):
            tele.count(name, count)

        if self.latency is None:
            delays[sent] = 0.0
        elif sent.size:
            lat = self.latency.sample_many(
                self._lat_rng, sent_src, sent_dst, sent_bytes
            )
            delays[sent] = lat
            tele.observe_many("sim.latency", lat)
            self.in_flight += sent.size
            self.sim.schedule(float(lat.max()), self._land, sent.size)
        return delays

    def _ranks(self, ranks) -> np.ndarray:
        ranks = np.asarray(ranks, dtype=np.int64).reshape(-1)
        # negative ranks wrap to huge unsigned values
        bad = ranks.view(np.uint64) >= self.num_nodes
        if bad.any():
            raise ValueError(
                f"rank {int(ranks[bad][0])} outside [0, {self.num_nodes})"
            )
        return ranks

    def mark_received(self, count: int) -> None:
        """Count ``count`` batched messages as received by their
        destinations — what :meth:`recv` would have counted."""
        self.messages_delivered += count
        get_telemetry().count("comm.messages_delivered", count)

    def _land(self, count: int) -> None:
        """Delivery event: ``count`` in-flight messages reach their nodes."""
        self.in_flight -= count
        if self.in_flight == 0:
            # nothing left that could land on a closed tag
            self._dead_tags.clear()

    def _deliver(self, msg: Message) -> None:
        """Delivery event: the in-flight message lands in its queue."""
        dead = msg.tag in self._dead_tags
        self._land(1)
        if dead:
            return  # round already closed; late arrival is discarded
        self._queues[(msg.dst, msg.src, msg.tag)].append(msg)
        self._tag_keys[msg.tag].add((msg.dst, msg.src, msg.tag))

    def cancel_tag(self, tag: str) -> None:
        """Close a tag: purge its queues and discard late arrivals.

        Round tags are unique (``slice:<t>``), so closing them when the
        round ends keeps straggling deliveries from accumulating. The
        tag's tombstone lives only while messages are in flight: with
        nothing in flight, nothing can arrive late on it.
        """
        if self.in_flight:
            self._dead_tags.add(tag)
        for key in self._tag_keys.pop(tag, ()):
            self._queues.pop(key, None)

    def recv(self, dst: int, src: int, tag: str) -> Message | None:
        """Pop the oldest message on (src -> dst, tag); None if empty."""
        self._check_rank(dst)
        self._check_rank(src)
        queue = self._queues.get((dst, src, tag))
        if not queue:
            return None
        self.messages_delivered += 1
        get_telemetry().count("comm.messages_delivered")
        return queue.popleft()

    def pending(self, dst: int, src: int, tag: str) -> int:
        """Number of undelivered messages on a link+tag."""
        return len(self._queues.get((dst, src, tag), ()))

    # -- collectives (MPI vocabulary over the same lossy links) ---------------

    def bcast(self, src: int, dsts: list[int], tag: str, payload: Any) -> list[int]:
        """Send payload to each destination; returns ranks actually reached."""
        return [d for d in dsts if self.send(src, d, tag, payload)]

    def gather(self, dst: int, srcs: list[int], tag: str) -> dict[int, Any]:
        """Collect one pending message per source; missing sources omitted."""
        out: dict[int, Any] = {}
        for s in srcs:
            msg = self.recv(dst, s, tag)
            if msg is not None:
                out[s] = msg.payload
        return out

    def scatter(
        self, src: int, parts: dict[int, Any], tag: str
    ) -> list[int]:
        """Send a distinct payload to each destination rank."""
        return [d for d, payload in parts.items() if self.send(src, d, tag, payload)]

    # -- accounting ----------------------------------------------------------

    def total_bytes(self) -> int:
        """Total bytes accepted onto all links."""
        return self._tally.total

    def reset_stats(self) -> None:
        """Clear byte/drop accounting but keep queued messages."""
        self._tally = _LinkTally(self.num_nodes)
        self.drop_log = DropLog()
        self.messages_sent = 0
        self.messages_delivered = 0
