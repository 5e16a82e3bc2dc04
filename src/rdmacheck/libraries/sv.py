"""Shared-variable library: per-node replicas, broadcast push, global fence.

Methods: sv_write(x,v), sv_read(x), sv_bcast(x,d,nodes), sv_wait(d),
sv_gf(nodes).  Reads and writes touch only the caller's node replica; a
broadcast reads the local replica once per target node and overwrites the
target replicas; sv_wait(d) synchronises with the read parts of earlier
broadcasts tagged d; the global fence orders everything via its stamps.
A witness is a ``base.coherence`` choice over (location, node) replicas,
a broadcast's write part carrying what its read part saw, in which no CPU
read reads past a po-later CPU write.  Polls-from (pf), the broadcast's
intra-event order (iso), the coherence search's inputs but the values
reads return, and its pruning order, ppo grown by pf and iso, are decided
by the execution's shape: `frame` builds them once per shape in one
outcome computation and rebinds them, by position, to each later
execution of it.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterator

from ..config import NodeConfig
from ..events import Event, PlainExecution, SubEvent, po_before
from ..lang import Carried, Pools
from ..stamps import ACR, ACW, AWT, GF, nLR, nRW
from ..values import UNIT
from .base import (CoherenceFrame, Library, Witness, at, coherence, external_rf,
                   final_values, frame_list, positions, shared_frame)

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
        """What the shape of ``plain`` decides of its witness search:
        ``search``, `coherence`'s keyword arguments but ``init_of``, and
        ``pf`` and ``iso``; or None when pf and iso close a cycle with ppo,
        so that no witness exists.  Built once per shape in ``memo``
        (`base.shared_frame`)."""
        return shared_frame(memo, self.name, plain, stmp, ppo,
                            lambda: self._build_frame(plain, stmp, cfg, ppo),
                            _keep, _rebind)

    def _build_frame(self, plain: PlainExecution, stmp, cfg: NodeConfig, ppo):
        for e in plain.events:
            self._require(e)
        subs, _pos = frame_list(plain, stmp, ppo)
        sevents = [s for s in subs if s.event.method in self.methods]
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
                return None
        return SimpleNamespace(
            search={"reads": reads, "writes": writes, "place": place,
                    "read_value": read_value, "write_value": write_value,
                    "carrier": carrier, "order": order},
            pf=pf, iso=iso)

    def witnesses(self, plain: PlainExecution, stmp, cfg: NodeConfig,
                  ppo=None, memo=None) -> Iterator[Witness]:
        f = self.frame(plain, stmp, cfg, ppo, memo)
        if f is None:
            return
        for rf, mo, rb, vR, vW, by_place in coherence(
                init_of=lambda p: cfg.init_of(*p), **f.search):
            # CPU reads may not read past a program-order-later CPU write.
            if any(r.stamp.kind == "aCR" and w.stamp.kind == "aCW"
                   and po_before(w.event, r.event) for r, w in rb):
                continue
            so = f.iso | external_rf(rf) | f.pf | rb | mo
            yield Witness(
                lib=self.name, explicit=so, vR=vR, vW=vW,
                rels={"rf": rf, "mo": mo, "rb": rb, "pf": f.pf, "iso": f.iso},
                meta={"by_place": by_place},
            )


def _keep(f: SimpleNamespace, pos) -> SimpleNamespace:
    return SimpleNamespace(search=CoherenceFrame.of(pos, f.search),
                           pf=positions(pos, f.pf), iso=positions(pos, f.iso))


def _rebind(kept: SimpleNamespace, subs, index) -> SimpleNamespace:
    return SimpleNamespace(search=kept.search.bind(subs, index),
                           pf=frozenset(at(subs, kept.pf)),
                           iso=frozenset(at(subs, kept.iso)))
