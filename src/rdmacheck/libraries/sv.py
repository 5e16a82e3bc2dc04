"""Shared-variable library: per-node replicas, broadcast push, global fence.

Methods: sv_write(x,v), sv_read(x), sv_bcast(x,d,nodes), sv_wait(d),
sv_gf(nodes).  Reads and writes touch only the caller's node replica; a
broadcast reads the local replica once per target node and overwrites the
target replicas; sv_wait(d) synchronises with the read parts of earlier
broadcasts tagged d; the global fence orders everything via its stamps.
A witness is a ``base.coherence`` choice over (location, node) replicas,
a broadcast's write part carrying what its read part saw, in which no CPU
read reads past a po-later CPU write.  Polls-from (pf), the broadcast's
intra-event order (iso), the coherence search but the values reads
return, and its pruning order, ppo grown by pf and iso, are decided by
the execution's shape: `frame` builds them once per shape in one outcome
computation, naming subevents by position (`base.Numbering`), and every
later execution of the shape uses them as they are, reading only its
pinned reads' outputs off its events.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterator

from ..config import NodeConfig
from ..events import Event, PlainExecution, po_before
from ..lang import Carried, Pools
from ..stamps import ACR, ACW, AWT, GF, nLR, nRW
from ..values import UNIT
from .base import Library, Numbering, Witness, final_values, shared_frame

WRITE, READ, BCAST, WAIT, GFENCE = "sv_write", "sv_read", "sv_bcast", "sv_wait", "sv_gf"


class SharedVarLib(Library):
    name = "sv"
    methods = frozenset({WRITE, READ, BCAST, WAIT, GFENCE})

    def stamping(self, e: Event, cfg: NodeConfig) -> frozenset:
        self._require(e)
        if e.method == WRITE:
            return frozenset({ACW})
        if e.method == READ:
            return frozenset({ACR})
        if e.method == WAIT:
            return frozenset({AWT})
        if e.method == GFENCE:
            return frozenset(GF(n) for n in e.args[0])
        targets = e.args[2]
        return frozenset(s for n in targets for s in (nLR(n), nRW(n)))

    def outputs(self, method, args, tid, prior, pools: Pools, cfg):
        if method == READ:
            p = (args[0], cfg.node_of_thread(tid))
            return sorted(pools.read(p, tid, prior), key=repr)
        return (UNIT,)

    def stores(self, e: Event, cfg: NodeConfig):
        """A write stores its value in the caller's replica; a broadcast
        stores in each target replica what it read from the caller's."""
        mine = (e.args[0], cfg.node_of_thread(e.tid))
        if e.method == WRITE:
            return ((mine, e.args[1]),)
        if e.method == BCAST:
            return tuple(((e.args[0], n), Carried(mine)) for n in e.args[2])
        return ()

    def final_memory(self, w: Witness, cfg: NodeConfig) -> dict:
        return final_values(w)

    def frame(self, plain: PlainExecution, stmp, cfg: NodeConfig, ppo=None,
              memo=None) -> SimpleNamespace | None:
        """What the shape of ``plain`` decides of its witness search, in
        the positions of its ``numbering``: the `Coherence` ``search``, the
        ``pinned`` reads (position, index of the event in ``plain``), the
        pruning ``order``, ``pf``, ``iso``, the ``internal`` rf pairs and
        the CPU (read, later write) pairs ``past``; or None when pf and iso
        close a cycle with ppo, so that no witness exists.  Built once per
        shape in ``memo`` (`base.shared_frame`)."""
        return shared_frame(memo, self.name,
                            lambda: self._build_frame(plain, stmp, cfg, ppo))

    def _build_frame(self, plain: PlainExecution, stmp, cfg: NodeConfig, ppo):
        for e in plain.events:
            self._require(e)
        num = Numbering(plain, stmp)
        subs, at = num.subs, num.position
        reads = [p for p, _k, a in num.own if a.kind in ("aCR", "nLR")]
        writes = [p for p, _k, a in num.own if a.kind in ("aCW", "nRW")]
        # A replica is a (location, node) place: a broadcast's write part
        # targets its node's replica, everything else the caller's.
        place = {p: (subs[p].event.args[0], subs[p].stamp.node if subs[p].stamp.kind == "nRW"
                     else cfg.node_of_thread(subs[p].tid))
                 for p in reads + writes}
        pinned = tuple((p, k) for p, k, a in num.own
                       if a.kind == "aCR" and subs[p].event.method == READ)
        write_value = {p: subs[p].event.args[1] for p in writes
                       if subs[p].event.method == WRITE}
        carrier = {at(e, nRW(n)): at(e, nLR(n))
                   for e in plain.events if e.method == BCAST for n in e.args[2]}
        past = frozenset((r, w) for r in reads for w in writes
                         if subs[r].stamp.kind == "aCR" and subs[w].stamp.kind == "aCW"
                         and po_before(subs[w].event, subs[r].event))

        # pf and iso do not depend on the witness choice.
        pf = frozenset((at(e1, a), at(e2, AWT))
                       for (e1, e2) in plain.po
                       if e1.method == BCAST and e2.method == WAIT
                       and e1.args[1] == e2.args[0]
                       for a in stmp[e1] if a.kind == "nLR")
        iso = frozenset((r, w) for w, r in carrier.items())

        # Every witness's so holds pf and iso: coherence is pruned against
        # ppo and them.
        order = None
        if ppo is not None:
            order = ppo().copy()
            if not order.add_edges(pf | iso):
                return None
        search, internal = num.coherence(reads, writes, place, write_value, carrier)
        return SimpleNamespace(numbering=num, search=search, pinned=pinned,
                               order=order, pf=pf, iso=iso, internal=internal,
                               past=past)

    def witnesses(self, plain: PlainExecution, stmp, cfg: NodeConfig,
                  ppo=None, memo=None) -> Iterator[Witness]:
        f = self.frame(plain, stmp, cfg, ppo, memo)
        if f is None:
            return
        events = plain.events
        names = f.numbering.names(events)
        for rf, mo, rb, vR, vW, by_place in f.search.search(
                {p: events[k].output for p, k in f.pinned},
                lambda p: cfg.init_of(*p), f.order):
            # CPU reads may not read past a program-order-later CPU write.
            if not f.past.isdisjoint(rb):
                continue
            so = f.iso | (rf - f.internal) | f.pf | rb | mo
            yield Witness(
                self.name, so, names=names, vR=vR, vW=vW,
                rels={"rf": rf, "mo": mo, "rb": rb, "pf": f.pf, "iso": f.iso},
                meta={"by_place": by_place},
            )
