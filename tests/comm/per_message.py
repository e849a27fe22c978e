"""Per-message reference paths for the batched slice exchange.

The trainer moves a round's slices with one :meth:`Network.send_batch`
per direction. These are the loops it replaced — one :meth:`Network.send`
(and :meth:`Network.recv`) per message — kept as differential oracles:
the batched exchange must reproduce them draw for draw, byte for byte,
and counter for counter.
"""

import numpy as np

from repro.fl import FederatedTrainer
from repro.fl.gradients import split_views


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


class PerMessageTrainer(FederatedTrainer):
    """A trainer whose upload and broadcast send one message at a time."""

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
