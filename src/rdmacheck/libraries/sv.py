"""Shared-variable library: per-node replicas, broadcast push, global fence.

Methods: sv_write(x,v), sv_read(x), sv_bcast(x,d,nodes), sv_wait(d),
sv_gf(nodes).  Reads and writes touch only the caller's node replica; a
broadcast reads the local replica once per target node and overwrites the
target replicas; sv_wait(d) synchronises with the read parts of earlier
broadcasts tagged d; the global fence orders everything via its stamps.
"""

from __future__ import annotations

from typing import Iterator

from ..config import NodeConfig
from ..events import Event, PlainExecution, SubEvent
from ..relations import Rel
from ..stamps import ACR, ACW, AWT, GF, nLR, nRW, ppo_before
from ..values import UNIT
from .base import (Library, OutputCtx, Witness, choose_rf, enumerate_mo,
                   reads_before, rslot, wslot)

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

    def outputs(self, method, args, tid, state, ctx: OutputCtx, cfg):
        if method == READ:
            return ((v, state) for v in sorted(ctx.domain(args[0]), key=repr))
        return ((UNIT, state),)

    def final_memory(self, w: Witness, cfg: NodeConfig) -> dict:
        out = {}
        mo = w.rels["mo"]
        for group in w.meta["mo_groups"]:
            if not group:
                continue
            top = next(s for s in group if not any((s, t) in mo for t in group))
            key = w.meta["place"][top]
            out[key] = w.vW[top]
        return out

    def witnesses(self, plain: PlainExecution, stmp, cfg: NodeConfig) -> Iterator[Witness]:
        events = sorted(plain.events, key=lambda e: (e.tid, e.eid))
        for e in events:
            self._require(e)

        sevents = [SubEvent(e, a) for e in events for a in sorted(stmp[e], key=repr)]
        reads = [s for s in sevents if s.stamp.kind in ("aCR", "nLR")]
        writes = [s for s in sevents if s.stamp.kind in ("aCW", "nRW")]

        def node_of(s: SubEvent) -> int:
            if s.stamp.kind == "nRW":
                return s.stamp.node
            return cfg.node_of_thread(s.event.tid)

        def loc_of(s: SubEvent) -> str:
            return s.event.args[0]

        place = {s: (loc_of(s), node_of(s)) for s in reads + writes}

        fixed = {}
        for s in sevents:
            if s.event.method == READ:
                fixed[rslot(s)] = s.event.output
            elif s.event.method == WRITE and s.stamp.kind == "aCW":
                fixed[wslot(s)] = s.event.args[1]
        eqs = [(rslot(SubEvent(e, nLR(n))), wslot(SubEvent(e, nRW(n))))
               for e in events if e.method == BCAST for n in e.args[2]]

        by_place: dict = {}
        for w in writes:
            by_place.setdefault(place[w], []).append(w)

        def candidates(r: SubEvent):
            return by_place.get(place[r], ())

        def init_of(r: SubEvent):
            return cfg.init_of(*place[r])

        # pf and iso do not depend on the witness choice.
        pf = Rel((SubEvent(e1, a), SubEvent(e2, AWT))
                 for (e1, e2) in plain.po
                 if e1.method == BCAST and e2.method == WAIT
                 and e1.args[1] == e2.args[0]
                 for a in stmp[e1] if a.kind == "nLR")
        iso = Rel((SubEvent(e, nLR(n)), SubEvent(e, nRW(n)))
                  for e in events if e.method == BCAST for n in e.args[2])

        for rfmap, slots in choose_rf(reads, candidates, fixed, eqs, init_of):
            rf = Rel((w, r) for r, w in rfmap.items() if w is not None)
            groups = [by_place.get(p, []) for p in sorted(by_place, key=repr)]
            for mo in enumerate_mo(groups, ppo_before):
                rb = reads_before(rfmap, mo, reads,
                                  lambda r: by_place.get(place[r], ()))
                # CPU reads may not read past a program-order-later CPU write.
                bad = any(r.stamp.kind == "aCR" and w.stamp.kind == "aCW"
                          and (w.event, r.event) in plain.po
                          for r, w in rb)
                if bad:
                    continue
                rf_int = rf.filter(lambda w, r: w.stamp.kind == "aCW"
                                   and r.stamp.kind == "aCR"
                                   and (w.event, r.event) in plain.po)
                so = iso | (rf - rf_int) | pf | rb | mo
                yield Witness(
                    lib=self.name, so=so,
                    vR={s: slots.get_value(rslot(s)) for s in reads},
                    vW={s: slots.get_value(wslot(s)) for s in writes},
                    rels={"rf": rf, "mo": mo, "rb": rb, "pf": pf, "iso": iso},
                    meta={"mo_groups": groups, "place": place},
                )
