"""Shared base of the RDMA-shaped libraries.

The wait-based model, the poll-based model, and the mixed-size variant
check the same witnesses: a coherence choice (``base.Coherence`` over
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
iso and polls-from) runs forward along the execution's subevent list,
where each event lists its read part (or a failed CAS's fence) first, and
is closed once per shape over the same positions as ppo.  ippo is read
off a stamp table of its own (`IPPO`, the stamp order plus CPU-write ->
CPU-read/wait and NIC-write -> same-node NIC-fence) by per-thread masks
over the library's own positions only, as ppo is (`stamps.ppo_rows`);
iso and polls-from add their pairs to those rows.  Each coherence choice,
then each orientation of a free nfo pair that the grown order does not
already decide, extends a copy that is dropped as soon as it closes a
cycle.  A witness carries its grown order and the positions of its
instantaneous items, and the checker's hb absorbs those rows as they
are; ib, ``inst_ib`` and so stay orders and position pairs.

Given the checker's hb so far, the coherence search is pruned against
it grown by the so pairs every witness holds: the fixed part's rows from
instantaneous items, polls-from's so part and the nfo pairs the stamp
order forces.  hb would veto each choice that closes a cycle there, and
an execution whose fixed pairs alone close one has no witness.  A
witness's ``hb`` is the order the search grew for its coherence choice,
grown by its nfo pairs and by its ib order's rows from instantaneous
items; one that closes a cycle there is not yielded.

All of that but the values the reads pin is decided by the execution's
shape (`checker.stamp_events`' key): polls-from, iso and the carriers,
places and stored values, ib's fixed rows and instantaneous items and
the nfo split, or that the node discipline or ``extra_valid`` leaves no
witness.  `frame` builds them in the positions of the shape's
`base.Numbering`, from the events' shape-decided fields and with no
subevent, once per shape in one outcome computation; one search covers
a group of the shape's executions, each row's pinned reads' outputs as
row masks.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterator, Mapping, Sequence

from ..config import NodeConfig
from ..events import Event
from ..lang import Carried, Pools
from ..relations import IncrementalOrder
from ..stamps import (ACAS, ACR, ACW, AMF, AWT, TABLE, columns, nF, nLR, nLW,
                      nRR, nRW, ppo_rows)
from ..values import UNIT
from .base import Library, Shape, Witness, final_values, pins_of

READ_KINDS = ("aCR", "aCAS", "nLR", "nRR")
WRITE_KINDS = ("aCW", "aCAS", "nLW", "nRW")

_SINGLE_STAMPS = {"write": frozenset({ACW}), "read": frozenset({ACR}),
                  "mfence": frozenset({AMF}), "wait": frozenset({AWT})}

# Node discipline: role -> position of the argument that must be a location
# on the caller's node.
LOCAL_ARG = {"write": 0, "read": 0, "cas": 0, "get": 0, "put": 1}

# ippo: the stamp order, plus CPU-write -> CPU-read/wait and NIC-write ->
# same-node NIC-fence program order.
IPPO = columns({**TABLE, ("aCW", "aCR"): "Y", ("aCW", "aWT"): "Y",
                ("nRW", "nF"): "S", ("nLW", "nF"): "S"})


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

    def polls_from(self, events: Sequence[Event], at: Mapping[tuple, int]
                   ) -> tuple[frozenset, frozenset, dict]:
        """(so part, ib part, named parts), as pairs of positions: ``at``
        maps (index in ``events``, stamp kind) to the position of that
        event's subevent.  Every pair runs from a NIC write to a po-later
        event.

        A wait synchronises with the local write part of each po-earlier
        get with its work identifier; a waited put's remote write is only
        issued before the wait.
        """
        wait, get, put = self.roles["wait"], self.roles["get"], self.roles["put"]
        pfg, pfp = [], []
        for k2, e2 in enumerate(events):
            if e2.method != wait:
                continue
            d = e2.args[0]
            # The po-earlier events: those of its thread listed before it.
            for k1 in range(k2 - 1, -1, -1):
                e1 = events[k1]
                if e1.tid != e2.tid:
                    break
                if e1.method == get and e1.args[2] == d:
                    pfg.append((at[k1, "nLW"], at[k2, "aWT"]))
                elif e1.method == put and e1.args[2] == d:
                    pfp.append((at[k1, "nRW"], at[k2, "aWT"]))
        pfg, pfp = frozenset(pfg), frozenset(pfp)
        return pfg, pfg | pfp, {"pfg": pfg, "pfp": pfp}

    def extra_valid(self, events: Sequence[Event], cfg: NodeConfig) -> bool:
        """A shape-decided condition on the library's events (`_build_frame`)."""
        return True

    def final_memory(self, w: Witness, cfg: NodeConfig) -> dict:
        return final_values(w)

    def _build_frame(self, events: Sequence[Event], shape: Shape, cfg: NodeConfig):
        """What the shape of the slice ``events`` decides of its witness
        search, in the positions of the shape's numbering: the `Coherence`
        ``search`` and the ``pinned`` reads (position, index of the event
        in the whole execution); polls-from's so part ``so_pf`` and its
        named ``pf_parts``; ``iso``; ib's ``fixed`` part, closed, and the
        positions ``inst`` of its instantaneous items; the ``internal`` rf
        pairs and the candidate internal fr pairs ``fr_int``; the
        ``forced`` and ``free`` nfo pairs; and ``base``, for `grown_hb`.
        None when the node discipline or ``extra_valid`` fails, so that no
        witness exists."""
        role_of = self.role_of
        for e in events:
            self._require(e)
            k = LOCAL_ARG.get(role_of.get(e.method))
            if k is not None and (cfg.node_of_loc(e.args[k])
                                  != cfg.node_of_thread(e.tid)):
                return None
        if not self.extra_valid(events, cfg):
            return None
        num = shape.numbering
        own = num.own[self.name]
        kind = {p: a.kind for p, _k, a in own}
        at = {(k, a.kind): p for p, k, a in own}
        ev = {p: events[k] for p, k, _a in own}
        so_pf, ib_pf, pf_parts = self.polls_from(events, at)

        reads = [p for p, _k, a in own if a.kind in READ_KINDS]
        writes = [p for p, _k, a in own if a.kind in WRITE_KINDS]

        def place_of(p: int) -> tuple:
            """(location, node): the read part of a put or get reads its
            source argument, every other part accesses args[0]."""
            x = ev[p].args[1 if kind[p] in ("nLR", "nRR") else 0]
            return x, cfg.node_of_loc(x)

        place = {p: place_of(p) for p in reads + writes}

        # Label-determined values: what CPU reads and CASes return, what
        # CPU writes and successful CASes store.
        pinned = tuple((p, num.event[p]) for p, k, a in own if a.kind in READ_KINDS
                       and role_of[events[k].method] in ("read", "cas"))
        stored = {"write": 1, "cas": 2}     # the argument a write part stores
        write_value = {p: ev[p].args[stored[role_of[ev[p].method]]]
                       for p in writes if role_of[ev[p].method] in stored}

        # A put or get is a (read part, write part) pair that moves one
        # value and is ordered inside the event (iso); so is a failed CAS's
        # fence before its read.  The read part (or fence) is listed first.
        carrier, iso_pairs = {}, []
        for k, e in enumerate(events):
            role = role_of.get(e.method)
            if role in ("put", "get"):
                r, w = ((at[k, "nLR"], at[k, "nRW"]) if role == "put"
                        else (at[k, "nRR"], at[k, "nLW"]))
                carrier[w] = r
            elif role == "cas" and (k, "aMF") in at:
                r, w = at[k, "aMF"], at[k, "aCR"]
            else:
                continue
            iso_pairs.append((r, w))
        iso = frozenset(iso_pairs)

        # NIC flush order: orient each same-thread same-node (local read, local
        # write) and (remote read, remote write) pair; orientations the stamp
        # order already implies are fixed, the rest are enumerated, in
        # program order with each event's stamps in ``repr`` order.  A pair
        # joins two events, the first one po-earlier.
        forced_nfo, free_nfo = [], []
        nic = [(p, a) for _k, _r, p, a in sorted((k, repr(a), p, a) for p, k, a in own
                                                 if a.kind in ("nLR", "nLW", "nRR", "nRW"))]
        direct = num.direct_ppo
        for i, (p1, a1) in enumerate(nic):
            for p2, a2 in nic[i + 1:]:
                kinds = {a1.kind, a2.kind}
                if (num.tid[p1] != num.tid[p2] or a1.node != a2.node
                        or kinds != {"nLR", "nLW"} and kinds != {"nRR", "nRW"}):
                    continue
                if direct[p1] >> p2 & 1:
                    forced_nfo.append((p1, p2))
                else:
                    free_nfo.append((p1, p2))

        # ib grows per choice from its fixed part, closed once here.  That
        # part runs forward along the numbering: ippo and polls-from
        # po-forward between events, and iso inside one event, from a read
        # part to its write part or from a failed CAS's fence to its read.
        rows = ppo_rows(num.size, [(p, num.tid[p], k, a) for p, k, a in own], IPPO)
        for r, w in iso | ib_pf:
            rows[r] |= 1 << w
        fixed = IncrementalOrder(rows)
        inst = tuple(p for p, _k, a in own if a.kind not in ("aCW", "nLW", "nRW"))

        search, internal = num.coherence(reads, writes, place, write_value, carrier)
        fr_int = frozenset((r, w) for r in reads for w in writes
                           if kind[r] == "aCR" and kind[w] == "aCW"
                           and num.tid[r] == num.tid[w])
        return SimpleNamespace(
            search=search, pinned=pinned,
            so_pf=so_pf, pf_parts=pf_parts, iso=iso, fixed=fixed, inst=inst,
            internal=internal, fr_int=fr_int, forced=forced_nfo, free=free_nfo,
            base=(None, None))

    def _grow_fixed(self, f, order) -> bool:
        # Every witness's so holds the pairs of ``fixed`` from its
        # instantaneous items, polls-from's so part and the forced nfo
        # pairs.
        return order.absorb(f.fixed, f.inst) and order.add_edges([*f.so_pf, *f.forced])

    def witnesses(self, group, shape, cfg: NodeConfig, hb=None,
                  alive=1, wanted=(-1,)) -> Iterator[Witness]:
        f = self.frame(shape, cfg)
        base = False if f is None else self.grown_hb(f, hb)
        if base is False:
            return
        for rf, mo, rb, vR, vW, by_place, so_far, rows in f.search.search(
                pins_of(group, f.pinned, alive), lambda p: cfg.init_of(*p), base,
                alive, wanted):
            grown = f.fixed.copy()
            if not grown.add_edges([*rf, *(p for p in rb if p in f.fr_int), *f.forced]):
                continue
            explicit = (rf - f.internal) | f.so_pf | rb | mo
            for order, nfo in _oriented(f.free, 0, grown, tuple(f.forced)):
                # hb already holds the coherence pairs and the forced nfo
                # pairs; it takes the free ones and ib's rows from inst.
                w_hb = so_far
                if so_far is not None:
                    w_hb = so_far.copy()
                    if not (w_hb.add_edges(nfo) and w_hb.absorb(order, f.inst)):
                        continue
                yield Witness(
                    self.name, explicit | nfo, vR=vR, vW=vW,
                    rels={"rf": rf, "mo": mo, "rb": rb, "nfo": nfo, "iso": f.iso,
                          **f.pf_parts, "ib": order},
                    meta={"by_place": by_place}, order=order, inst=f.inst, hb=w_hb,
                    rows=rows,
                )


def _oriented(free: list, i: int, order: IncrementalOrder, nfo: tuple):
    """Each acyclic orientation of the ``free`` nfo pairs from the i-th
    on, (s1, s2) before (s2, s1): (ib order, nfo).  A pair that ``order``
    already orients keeps that orientation, with no copy; either way round
    closes no cycle for the others."""
    if i == len(free):
        yield order, frozenset(nfo)
        return
    s1, s2 = free[i]
    for pair in ((s1, s2), (s2, s1)):
        if pair in order:
            yield from _oriented(free, i + 1, order, nfo + (pair,))
            return
    for pair in ((s1, s2), (s2, s1)):
        o2 = order.copy()
        o2.add_edges((pair,))
        yield from _oriented(free, i + 1, o2, nfo + (pair,))
