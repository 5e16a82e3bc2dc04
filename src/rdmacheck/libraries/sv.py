"""Shared-variable library: per-node replicas, broadcast push, global fence.

Methods: sv_write(x,v), sv_read(x), sv_bcast(x,d,nodes), sv_wait(d),
sv_gf(nodes).  Reads and writes touch only the caller's node replica; a
broadcast reads the local replica once per target node and overwrites the
target replicas; sv_wait(d) synchronises with the read parts of earlier
broadcasts tagged d; the global fence orders everything via its stamps.
A witness is a ``base.Coherence`` choice over (location, node) replicas,
a broadcast's write part carrying what its read part saw, in which no CPU
read reads past a po-later CPU write.  Polls-from (pf), the broadcast's
intra-event order (iso) and the coherence search but the values reads
return are decided by the execution's shape: `frame` builds them once
per shape in one outcome computation, in the positions of the shape's
`base.Numbering` and with no subevent, and one search covers a group of
the shape's executions, reading each row's pinned reads' outputs off its
events as row masks.  The search is pruned against the checker's hb
grown by pf and iso, which every witness holds, and a witness's ``hb``
is the order the search grew for it.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterator

from ..config import NodeConfig
from ..events import Event, PlainExecution
from ..lang import Carried, Pools
from ..stamps import ACR, ACW, AWT, GF, nLR, nRW
from ..values import UNIT
from .base import Library, Shape, Witness, final_values, pins_of

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

    def _build_frame(self, plain: PlainExecution, shape: Shape, cfg: NodeConfig):
        """What the shape of ``plain`` decides of its witness search, in
        the positions of the shape's numbering: the `Coherence` ``search``,
        the ``pinned`` reads (position, index of the event in ``plain``),
        ``pf``, ``iso``, the ``internal`` rf pairs and the CPU (read, later
        write) pairs ``past``; and ``base``, for `grown_hb`."""
        events = plain.events
        for e in events:
            self._require(e)
        num = shape.numbering
        own = num.own[self.name]
        ev = {p: events[k] for p, k, _a in own}
        kind = {p: a.kind for p, _k, a in own}
        at = {(k, a.kind, a.node): p for p, k, a in own}
        reads = [p for p, _k, a in own if a.kind in ("aCR", "nLR")]
        writes = [p for p, _k, a in own if a.kind in ("aCW", "nRW")]
        # A replica is a (location, node) place: a broadcast's write part
        # targets its node's replica, everything else the caller's.
        place = {p: (ev[p].args[0], num.stamp[p].node if kind[p] == "nRW"
                     else cfg.node_of_thread(ev[p].tid))
                 for p in reads + writes}
        pinned = tuple((p, k) for p, k, a in own
                       if a.kind == "aCR" and events[k].method == READ)
        write_value = {p: ev[p].args[1] for p in writes if ev[p].method == WRITE}
        carrier = {p: at[k, "nLR", a.node] for p, k, a in own if a.kind == "nRW"}
        past = frozenset((r, w) for r in reads for w in writes
                         if kind[r] == "aCR" and kind[w] == "aCW"
                         and num.tid[w] == num.tid[r] and w < r)

        # pf and iso do not depend on the witness choice.  A wait polls
        # from the read parts of its thread's po-earlier broadcasts with
        # its tag.
        waits = [(k, e.tid, e.args[0]) for k, e in enumerate(events) if e.method == WAIT]
        pf = frozenset((p, at[k2, "aWT", None])
                       for p, k1, a in own if a.kind == "nLR"
                       for k2, t, d in waits
                       if t == num.tid[p] and k1 < k2 and ev[p].args[1] == d)
        iso = frozenset((r, w) for w, r in carrier.items())
        search, internal = num.coherence(reads, writes, place, write_value, carrier)
        return SimpleNamespace(search=search, pinned=pinned, pf=pf, iso=iso,
                               internal=internal, past=past, base=(None, None))

    def _grow_fixed(self, f, order) -> bool:
        # Every witness's so holds pf and iso.
        return order.add_edges(f.pf | f.iso)

    def witnesses(self, group, shape, cfg: NodeConfig, hb=None,
                  alive=1, wanted=(-1,)) -> Iterator[Witness]:
        f = self.frame(group[0], shape, cfg)
        base = self.grown_hb(f, hb)
        if base is False:
            return
        for rf, mo, rb, vR, vW, by_place, grown, rows in f.search.search(
                pins_of(group, f.pinned, alive), lambda p: cfg.init_of(*p), base,
                alive, wanted):
            # CPU reads may not read past a program-order-later CPU write.
            if not f.past.isdisjoint(rb):
                continue
            so = f.iso | (rf - f.internal) | f.pf | rb | mo
            yield Witness(
                self.name, so, vR=vR, vW=vW,
                rels={"rf": rf, "mo": mo, "rb": rb, "pf": f.pf, "iso": f.iso},
                meta={"by_place": by_place}, hb=grown, rows=rows)
