"""Per-message reference paths for the batched slice exchange.

The trainer moves a round's slices with batched sends: one
:meth:`Network.send_batch` per direction on instant links, one
:meth:`Network.send_pairs` per send group on the simulator's clock.
These are the loops they replaced — one :meth:`Network.send` (and
:meth:`Network.recv`) per message, with one generator actor per
uploading worker and a ``recv``-polling collection loop on the clock —
kept as differential oracles: the batched exchange must reproduce them
draw for draw, byte for byte, and counter for counter.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.fl import FederatedTrainer
from repro.fl.gradients import split_views
from repro.sim import SimRoundRunner


def send_loop(net, srcs, dsts, tag, nbytes, received=None):
    """:meth:`Network.send_batch` as one ``send`` per row-major link.

    Payloads are ``bytes`` objects of each column's size, which the
    network accounts at exactly that many bytes.
    """
    sizes = np.broadcast_to(np.asarray(nbytes), (len(dsts),)).tolist()
    mask = np.zeros((len(srcs), len(dsts)), dtype=bool)
    for i, src in enumerate(srcs):
        for j, dst in enumerate(dsts):
            mask[i, j] = net.send(src, dst, tag, bytes(sizes[j]))
            if mask[i, j] and received == "each":
                net.recv(dst, src, tag)
    if received == "after":
        for i, src in enumerate(srcs):
            for j, dst in enumerate(dsts):
                if mask[i, j]:
                    net.recv(dst, src, tag)
    return mask


def send_pair_loop(net, srcs, dsts, tag, nbytes):
    """:meth:`Network.send_pairs` as one ``send`` per message, in order.

    Returns the delivered mask.
    """
    sizes = np.broadcast_to(np.asarray(nbytes), (len(srcs),)).tolist()
    return np.array(
        [net.send(s, d, tag, bytes(b)) for s, d, b in zip(srcs, dsts, sizes)],
        dtype=bool,
    )


@dataclass
class _RoundState:
    """Mutable per-round collection state shared with upload actors."""

    tag: str
    closed: bool = False
    retries: int = 0
    #: slices that will never arrive (drop budget exhausted)
    abandoned: set[tuple[int, int]] = field(default_factory=set)


class PerMessageRoundRunner(SimRoundRunner):
    """Simulated rounds with one upload actor per worker and one
    ``send`` per slice, collected by polling ``recv`` after every batch
    of same-time events."""

    def _upload_proc(self, wid, parts, servers, state):
        """Actor: send every slice, retrying dropped sends with backoff."""
        net = self.trainer.network
        scenario = self.scenario
        pending = list(enumerate(servers))
        attempt = 0
        while True:
            failed = [
                (j, srv)
                for j, srv in pending
                if not net.send(wid, srv, state.tag, (j, parts[j]))
            ]
            if not failed:
                return
            if attempt >= scenario.max_retries:
                for _, srv in failed:
                    state.abandoned.add((wid, srv))
                return
            yield scenario.retry_delay(attempt)
            attempt += 1
            if state.closed:
                return  # the round deadline passed while backing off
            state.retries += len(failed)
            pending = failed

    def collect(self, updates, round_idx, plan):
        sim = self.sim
        trainer = self.trainer
        scenario = self.scenario
        servers = list(trainer.server_ranks)
        t0 = sim.now
        state = _RoundState(tag=f"slice:{round_idx}")
        deadline = (
            t0 + scenario.round_timeout_s
            if scenario.round_timeout_s is not None
            else None
        )
        if (
            scenario.max_retries == 0
            and trainer.network.latency is None
            and sim.idle()
            and all(v == 0.0 for v in plan.compute_s.values())
        ):
            return self._collect_fast(updates, round_idx, plan)

        for wid, upd in updates.items():
            sim.spawn(
                self._upload_proc(
                    wid, split_views(upd.gradient, len(servers)), servers, state
                ),
                delay=plan.compute_s.get(wid, 0.0),
            )

        outstanding = {(wid, srv) for wid in updates for srv in servers}
        got = {wid: set() for wid in updates}
        resolve_at = {}
        while outstanding:
            outstanding -= state.abandoned
            if not outstanding:
                break
            t_next = sim.peek()
            if t_next is None:
                break  # nothing in flight: the rest will never arrive
            if deadline is not None and t_next > deadline:
                break  # deadline cut: whatever is left is late
            sim.run_batch()
            for wid, srv in sorted(outstanding):
                if trainer.network.recv(srv, wid, state.tag) is not None:
                    got[wid].add(srv)
                    resolve_at[wid] = sim.now
                    outstanding.discard((wid, srv))

        outstanding -= state.abandoned
        late_pairs = sorted(outstanding)
        state.closed = True
        if deadline is not None and late_pairs:
            sim.advance_to(deadline)
        duration = sim.now - t0

        delivered, uncertain = [], set()
        for wid in updates:
            if len(got[wid]) == len(servers):
                delivered.append(wid)
            else:
                uncertain.add(wid)
        sim_info = {
            "t_start_s": t0,
            "duration_s": duration,
            "stragglers": list(plan.stragglers),
            "offline": sorted(plan.offline),
            "retries": state.retries,
            "late": sorted({wid for wid, _ in late_pairs}),
            "worker_time_s": {
                wid: resolve_at[wid] - t0 for wid in sorted(resolve_at)
            },
        }
        self._emit_round_telemetry(round_idx, sim_info, uncertain)
        return delivered, uncertain, sim_info


class PerMessageTrainer(FederatedTrainer):
    """A trainer whose upload and broadcast send one message at a time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.scenario is not None:
            self._sim_runner = PerMessageRoundRunner(self, self.scenario)

    def _upload_slices(self, updates, round_idx, received="after"):
        tag = f"slice:{round_idx}"
        net = self.network
        servers = self.server_ranks
        mask = np.zeros((len(updates), len(servers)), dtype=bool)
        for i, (wid, upd) in enumerate(updates.items()):
            parts = split_views(upd.gradient, len(servers))
            for j, srv in enumerate(servers):
                mask[i, j] = net.send(wid, srv, tag, (j, parts[j]))
                if mask[i, j] and received == "each":
                    net.recv(srv, wid, tag)
        delivered, uncertain = [], set()
        for i, wid in enumerate(updates):
            if received == "after":
                for j, srv in enumerate(servers):
                    msg = net.recv(srv, wid, tag)
                    assert (msg is not None) == mask[i, j]
            if mask[i].all():
                delivered.append(wid)
            else:
                uncertain.add(wid)
        return delivered, uncertain, mask

    def _broadcast(self, dests, agg_slices, round_idx):
        tag = f"global:{round_idx}"
        for j, srv in enumerate(self.server_ranks):
            for wid in dests:
                if wid != srv:
                    self.network.send(srv, wid, tag, agg_slices[j])
