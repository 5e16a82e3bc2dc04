"""Shared base of the RDMA-shaped libraries.

The wait-based model, the poll-based model, and the mixed-size variant
check the same witnesses: a coherence choice (``base.coherence`` over
(location, node) places; a put's or get's write part carries what its
read part saw) and an orientation of the NIC flush order (nfo).
``RdmaLib`` holds that check and the wait-based model's stamping,
outputs, stores, node discipline and polls-from.  A subclass names its
methods in the class-level role table ``roles`` (engine role -> method
name; the roles are write, read, cas, mfence, rfence, get, put and wait)
and overrides only the hooks where its model differs: ``polls_from``,
``extra_valid``, and ``stamping`` or ``outputs`` for methods outside the
role table.  ``tso`` names, in ``shape_output``, the outputs its
polls-from reads: operation identifiers and what each poll returns.

Issued-before (ib) orders subevent starts and must be acyclic; its part
that starts at an instantaneous subevent (any but a write part),
``inst_ib``, joins so.  ib is grown, not re-closed: its fixed part (ippo,
iso and polls-from) runs forward along program order and is closed once
per shape in one sweep of an ``IncrementalOrder``, and each coherence
choice, then each orientation of a free nfo pair that the grown order
does not already decide, extends a copy that is dropped as soon as it
closes a cycle.  A witness carries its grown order and the indices of its
instantaneous items, and the checker's hb absorbs those rows; ib,
``inst_ib`` and so become pair sets only when read.

Given the checker's ppo, the coherence search is pruned against ppo
grown by the so pairs every witness holds: the fixed part's rows from
instantaneous items, polls-from's so part and the nfo pairs the stamp
order forces.  hb would veto each choice that closes a cycle there, and
an execution whose fixed pairs alone close one has no witness.

All of that but the values the reads pin is decided by the execution's
shape (`checker.shape_key`): polls-from, iso and the carriers, places
and stored values, ib's fixed rows and instantaneous items, the nfo
split and the pruning order, or that there is no witness.  `frame`
builds them for the first execution of a shape in one outcome
computation and rebinds them, by position, to each later one; only
``extra_valid`` and the witness search itself run per execution.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterator

from ..config import NodeConfig
from ..events import Event, PlainExecution, SubEvent, po_before
from ..lang import Carried, Pools
from ..relations import IncrementalOrder, OnRead
from ..stamps import (ACAS, ACR, ACW, AMF, AWT, nF, nLR, nLW, nRR, nRW,
                      ppo_before, stamp_order)
from ..values import UNIT
from .base import (CoherenceFrame, Library, Witness, at, coherence, external_rf,
                   final_values, frame_list, positions, shared_frame)

READ_KINDS = ("aCR", "aCAS", "nLR", "nRR")
WRITE_KINDS = ("aCW", "aCAS", "nLW", "nRW")

_SINGLE_STAMPS = {"write": frozenset({ACW}), "read": frozenset({ACR}),
                  "mfence": frozenset({AMF}), "wait": frozenset({AWT})}

# Node discipline: role -> position of the argument that must be a location
# on the caller's node.
LOCAL_ARG = {"write": 0, "read": 0, "cas": 0, "get": 0, "put": 1}


def _place(x: str, cfg: NodeConfig) -> tuple:
    """The (location, node) cell of ``x``."""
    return x, cfg.node_of_loc(x)


class RdmaLib(Library):
    """The wait-based model over a method-role table."""

    roles: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.role_of = {m: r for r, m in cls.roles.items()}

    def stamping(self, e: Event, cfg: NodeConfig) -> frozenset:
        self._require(e)
        role = self.role_of[e.method]
        if role == "cas":
            if e.output == e.args[1]:
                return frozenset({ACAS})
            return frozenset({AMF, ACR})
        if role == "get":
            n = cfg.node_of_loc(e.args[1])
            return frozenset({nRR(n), nLW(n)})
        if role == "put":
            n = cfg.node_of_loc(e.args[0])
            return frozenset({nLR(n), nRW(n)})
        if role == "rfence":
            return frozenset({nF(e.args[0])})
        return _SINGLE_STAMPS[role]

    def outputs(self, method, args, tid, prior, pools: Pools, cfg):
        if self.role_of.get(method) in ("read", "cas"):
            p = _place(args[0], cfg)
            return sorted(pools.read(p, tid, prior), key=repr)
        return (UNIT,)

    def stores(self, e: Event, cfg: NodeConfig):
        """A write stores its value, a successful CAS its new value, and a
        put or get what its read part saw at its source."""
        role = self.role_of.get(e.method)
        if role == "write":
            return ((_place(e.args[0], cfg), e.args[1]),)
        if role == "cas" and e.output == e.args[1]:
            return ((_place(e.args[0], cfg), e.args[2]),)
        if role in ("put", "get"):
            dst, src = _place(e.args[0], cfg), _place(e.args[1], cfg)
            return ((dst, Carried(src)),)
        return ()

    def polls_from(self, plain: PlainExecution, stmp) -> tuple[frozenset, frozenset, dict]:
        """(so part, ib part, named parts).  Every pair runs from a NIC
        write to a po-later event.

        A wait synchronises with the local write part of each po-earlier
        get with its work identifier; a waited put's remote write is only
        issued before the wait.
        """
        wait, get, put = self.roles["wait"], self.roles["get"], self.roles["put"]
        pfg, pfp = [], []
        for e1, e2 in plain.po:
            if e2.method != wait:
                continue
            d = e2.args[0]
            if e1.method == get and e1.args[2] == d:
                (a,) = [a for a in stmp[e1] if a.kind == "nLW"]
                pfg.append((SubEvent(e1, a), SubEvent(e2, AWT)))
            elif e1.method == put and e1.args[2] == d:
                (a,) = [a for a in stmp[e1] if a.kind == "nRW"]
                pfp.append((SubEvent(e1, a), SubEvent(e2, AWT)))
        pfg, pfp = frozenset(pfg), frozenset(pfp)
        return pfg, pfg | pfp, {"pfg": pfg, "pfp": pfp}

    def extra_valid(self, plain: PlainExecution, cfg: NodeConfig) -> bool:
        return True

    def final_memory(self, w: Witness, cfg: NodeConfig) -> dict:
        return final_values(w)

    def frame(self, plain: PlainExecution, stmp, cfg: NodeConfig, ppo=None,
              memo=None) -> SimpleNamespace | None:
        """What the shape of ``plain`` decides of its witness search:
        ``search``, `coherence`'s keyword arguments but ``init_of``;
        polls-from's so part ``so_pf`` and its named ``pf_parts``; ``iso``;
        ib's ``fixed`` part, closed, and the indices ``inst`` of its
        instantaneous items; and the ``forced`` and ``free`` nfo pairs.
        None when the node discipline fails or the fixed so pairs close a
        cycle with ppo, so that no witness exists.  Built once per shape in
        ``memo`` (`base.shared_frame`)."""
        return shared_frame(memo, self.name, plain, stmp, ppo,
                            lambda: self._build_frame(plain, stmp, cfg, ppo),
                            _keep, _rebind)

    def _build_frame(self, plain: PlainExecution, stmp, cfg: NodeConfig, ppo):
        role_of = self.role_of
        for e in plain.events:
            self._require(e)
        for e in plain.events:
            k = LOCAL_ARG.get(role_of.get(e.method))
            if k is not None and (cfg.node_of_loc(e.args[k])
                                  != cfg.node_of_thread(e.tid)):
                return None
        so_pf, ib_pf, pf_parts = self.polls_from(plain, stmp)

        subs, _pos = frame_list(plain, stmp, ppo)
        sevents = [s for s in subs if s.event.method in self.methods]
        reads = [s for s in sevents if s.stamp.kind in READ_KINDS]
        writes = [s for s in sevents if s.stamp.kind in WRITE_KINDS]

        def place_of(s: SubEvent) -> tuple:
            """(location, node): the read part of a put or get reads its
            source argument, every other part accesses args[0]."""
            x = s.event.args[1 if s.stamp.kind in ("nLR", "nRR") else 0]
            return x, cfg.node_of_loc(x)

        place = {s: place_of(s) for s in reads + writes}

        # Label-determined values: what CPU reads and CASes return, what
        # CPU writes and successful CASes store.
        read_value = {s: s.event.output for s in reads
                      if role_of[s.event.method] in ("read", "cas")}
        stored = {"write": 1, "cas": 2}     # the argument a write part stores
        write_value = {s: s.event.args[stored[role_of[s.event.method]]]
                       for s in writes if role_of[s.event.method] in stored}

        # A put or get is a (read part, write part) pair that moves one
        # value and is ordered inside the event (iso); so is a failed CAS's
        # fence before its read.  ``listed`` is the subevents in program
        # order with each iso source before its target.
        carrier, iso_pairs, listed = {}, [], []
        for e in plain.events:
            role = role_of.get(e.method)
            kinds = {a.kind: SubEvent(e, a) for a in stmp[e]}
            if role in ("put", "get"):
                r, w = ((kinds["nLR"], kinds["nRW"]) if role == "put"
                        else (kinds["nRR"], kinds["nLW"]))
                carrier[w] = r
            elif role == "cas" and "aMF" in kinds:
                r, w = kinds["aMF"], kinds["aCR"]
            else:
                listed += sorted(kinds.values(), key=repr)
                continue
            iso_pairs.append((r, w))
            listed += (r, w)
        iso = frozenset(iso_pairs)

        def ib_before(s1: SubEvent, s2: SubEvent) -> bool:
            """ib's fixed part: iso inside an event; between events, ippo
            (ppo with CPU-write -> CPU-read/wait and NIC-write -> same-node
            NIC-fence program order) and polls-from."""
            if s1.event is s2.event:
                return (s1, s2) in iso
            if not po_before(s1.event, s2.event):
                return False
            a1, a2 = s1.stamp, s2.stamp
            return (stamp_order(a1, a2)
                    or a1.kind == "aCW" and a2.kind in ("aCR", "aWT")
                    or (a1.kind in ("nRW", "nLW") and a2.kind == "nF"
                        and a1.node == a2.node)
                    or (s1, s2) in ib_pf)

        # NIC flush order: orient each same-thread same-node (local read, local
        # write) and (remote read, remote write) pair; orientations the stamp
        # order already implies are fixed, the rest are enumerated.
        forced_nfo, free_nfo = [], []
        nic = [s for s in sevents if s.stamp.kind in ("nLR", "nLW", "nRR", "nRW")]
        for i, s1 in enumerate(nic):
            for s2 in nic[i + 1:]:
                kinds = {s1.stamp.kind, s2.stamp.kind}
                if (s1.tid != s2.tid or s1.stamp.node != s2.stamp.node
                        or kinds != {"nLR", "nLW"} and kinds != {"nRR", "nRW"}):
                    continue
                if ppo_before(s1, s2):
                    forced_nfo.append((s1, s2))
                elif ppo_before(s2, s1):
                    forced_nfo.append((s2, s1))
                else:
                    free_nfo.append((s1, s2))

        # ib grows per choice from its fixed part, closed once here.  That
        # part runs forward along ``listed``: ippo and polls-from po-forward
        # between events, and iso inside one event, from a read part to its
        # write part or from a failed CAS's fence to its read.
        fixed = IncrementalOrder(listed, ib_before)
        inst = tuple(i for i, s in enumerate(listed)
                     if s.stamp.kind not in ("aCW", "nLW", "nRW"))

        # Every witness's so holds the pairs of ``fixed`` from its
        # instantaneous items, polls-from's so part and the forced nfo
        # pairs, so hb holds ppo and those whatever the choice: coherence
        # is pruned against them.
        base = None
        if ppo is not None:
            base = ppo().copy()
            if not (base.absorb(fixed, inst) and base.add_edges([*so_pf, *forced_nfo])):
                return None

        return SimpleNamespace(
            search={"reads": reads, "writes": writes, "place": place,
                    "read_value": read_value, "write_value": write_value,
                    "carrier": carrier, "order": base},
            so_pf=so_pf, pf_parts=pf_parts, iso=iso, fixed=fixed, inst=inst,
            forced=forced_nfo, free=free_nfo)

    def witnesses(self, plain: PlainExecution, stmp, cfg: NodeConfig,
                  ppo=None, memo=None) -> Iterator[Witness]:
        if not self.extra_valid(plain, cfg):
            return
        f = self.frame(plain, stmp, cfg, ppo, memo)
        if f is None:
            return

        def oriented(i: int, order: IncrementalOrder, nfo: tuple):
            """Each acyclic orientation of the free nfo pairs from the
            i-th on, (s1, s2) before (s2, s1): (ib order, nfo).  A pair
            that ``order`` already orients keeps that orientation, with no
            copy; either way round closes no cycle for the others."""
            if i == len(f.free):
                yield order, frozenset(nfo)
                return
            s1, s2 = f.free[i]
            for pair in ((s1, s2), (s2, s1)):
                if pair in order:
                    yield from oriented(i + 1, order, nfo + (pair,))
                    return
            for pair in ((s1, s2), (s2, s1)):
                o2 = order.copy()
                o2.add_edges((pair,))
                yield from oriented(i + 1, o2, nfo + (pair,))

        for rf, mo, rb, vR, vW, by_place in coherence(
                init_of=lambda p: cfg.init_of(*p), **f.search):
            fr_int = [(r, w) for r, w in rb if r.stamp.kind == "aCR"
                      and w.stamp.kind == "aCW" and r.event.tid == w.event.tid]
            grown = f.fixed.copy()
            if not grown.add_edges([*rf, *fr_int, *f.forced]):
                continue
            explicit = external_rf(rf) | f.so_pf | rb | mo
            for order, nfo in oriented(0, grown, tuple(f.forced)):
                yield Witness(
                    lib=self.name, explicit=explicit | nfo, vR=vR, vW=vW,
                    rels=OnRead({"rf": rf, "mo": mo, "rb": rb, "nfo": nfo,
                                 "iso": f.iso, **f.pf_parts}, ib=order.pairs),
                    meta={"by_place": by_place}, order=order, inst=f.inst,
                )


def _keep(f: SimpleNamespace, pos) -> SimpleNamespace:
    return SimpleNamespace(
        search=CoherenceFrame.of(pos, f.search), so_pf=positions(pos, f.so_pf),
        pf_parts={k: positions(pos, v) for k, v in f.pf_parts.items()},
        iso=positions(pos, f.iso), listed=tuple(pos[s] for s in f.fixed.items),
        fixed=f.fixed, inst=f.inst, forced=positions(pos, f.forced),
        free=positions(pos, f.free))


def _rebind(kept: SimpleNamespace, subs, index) -> SimpleNamespace:
    return SimpleNamespace(
        search=kept.search.bind(subs, index), so_pf=frozenset(at(subs, kept.so_pf)),
        pf_parts={k: frozenset(at(subs, v)) for k, v in kept.pf_parts.items()},
        iso=frozenset(at(subs, kept.iso)),
        fixed=kept.fixed.rebind([subs[i] for i in kept.listed]), inst=kept.inst,
        forced=at(subs, kept.forced), free=at(subs, kept.free))
