"""Shared-variable library: per-node replicas, broadcast push, global fence.

Methods: sv_write(x,v), sv_read(x), sv_bcast(x,d,nodes), sv_wait(d),
sv_gf(nodes).  Reads and writes touch only the caller's node replica; a
broadcast reads the local replica once per target node and overwrites the
target replicas; sv_wait(d) synchronises with the read parts of earlier
broadcasts tagged d; the global fence orders everything via its stamps.
A witness is a ``base.coherence`` choice over (location, node) replicas,
a broadcast's write part carrying what its read part saw, in which no CPU
read reads past a po-later CPU write.
"""

from __future__ import annotations

from typing import Iterator

from ..config import NodeConfig
from ..events import Event, PlainExecution, SubEvent, po_before
from ..lang import Carried, Pools
from ..stamps import ACR, ACW, AWT, GF, nLR, nRW
from ..values import UNIT
from .base import Library, Witness, coherence, external_rf, final_values

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

    def witnesses(self, plain: PlainExecution, stmp, cfg: NodeConfig,
                  ppo=None) -> Iterator[Witness]:
        for e in plain.events:
            self._require(e)

        sevents = [SubEvent(e, a) for e in plain.events for a in sorted(stmp[e], key=repr)]
        reads = [s for s in sevents if s.stamp.kind in ("aCR", "nLR")]
        writes = [s for s in sevents if s.stamp.kind in ("aCW", "nRW")]
        # A replica is a (location, node) place: a broadcast's write part
        # targets its node's replica, everything else the caller's.
        place = {s: (s.event.args[0], s.stamp.node if s.stamp.kind == "nRW"
                     else cfg.node_of_thread(s.tid))
                 for s in reads + writes}
        read_value = {s: s.event.output for s in reads if s.event.method == READ}
        write_value = {s: s.event.args[1] for s in writes if s.event.method == WRITE}
        carrier = {SubEvent(e, nRW(n)): SubEvent(e, nLR(n))
                   for e in plain.events if e.method == BCAST for n in e.args[2]}

        # pf and iso do not depend on the witness choice.
        pf = frozenset((SubEvent(e1, a), SubEvent(e2, AWT))
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
                return

        for rf, mo, rb, vR, vW, by_place in coherence(
                reads, writes, place, read_value, write_value, carrier,
                lambda p: cfg.init_of(*p), order):
            # CPU reads may not read past a program-order-later CPU write.
            if any(r.stamp.kind == "aCR" and w.stamp.kind == "aCW"
                   and po_before(w.event, r.event) for r, w in rb):
                continue
            so = iso | external_rf(rf) | pf | rb | mo
            yield Witness(
                lib=self.name, explicit=so, vR=vR, vW=vW,
                rels={"rf": rf, "mo": mo, "rb": rb, "pf": pf, "iso": iso},
                meta={"by_place": by_place},
            )
