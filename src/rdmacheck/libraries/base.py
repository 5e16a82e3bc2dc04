"""Library interface and the coherence search the memory libraries share.

A library is a method set, a stamping rule, an output space per method,
the stores each event makes, and a consistency oracle.  Oracles are
implemented as witness generators: given the library's slice of a plain
execution and the checker's happens-before so far they yield every
witness (rf, mo, ... choices) whose synchronisation order keeps that
order acyclic, each with the order grown by its so (`Witness.hb`).  The
checker hands that order to the next library, so hb grows through the
searches, and backtracks across libraries.  What every witness of a
shape holds is grown onto the order once per order given
(`Library.grown_hb`).

A witness is given in positions only, those of one list (`Numbering`):
the subevent list of the execution, whose positions ppo and every
execution of a shape share.  The checker numbers each shape once, for
every library (`Shape`), and a library's frame, what the shape decides
of its search, is built in those positions once per shape
(`Library.frame`) and never rebound.  A frame is read off the
numbering's integer positions and the events' shape-decided fields, and
nothing here builds a subevent: only a dump names positions
(`dump.dump_execution`).

A library is asked about a group: the plain executions of one shape,
as rows 0, 1, ..., each given whole; a set of rows is a bitmask, and a
search reads what each row's pinned reads return as row masks
(`pins_of`).  A witness holds for the rows of its ``rows`` mask, which
agree on every read the library pins.  ``wanted[0]`` is the mask of the
rows still searched, which the checker clears a row from once its
output is found; the default, -1, holds all.

The shared-variable and RDMA libraries search the same existentials over
their reads and writes: a reads-from map, a modification order per place
and the reads-before relation they induce.  `Coherence` holds what a
shape decides of that search, with mo extended under ppo's direct rows,
and its `search` enumerates them once for a whole group, with the values
each row's reads pin as row masks, growing the order it is given choice
by choice: by rf, and by mo and rb as their covering pairs, whose
closure is theirs.  A value is never guessed: a read's value is its rf
source's, and a write's is fixed by its label or carried from the read
part of its own event (a put, get or broadcast moves the value its read
part saw).  ``final_values`` reads the final memory off such a witness.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from ..config import NodeConfig
from ..events import Event, InvalidInput, PlainExecution, Stamping, ordered_stamps
from ..lang import Pools
from ..relations import IncrementalOrder
from ..stamps import ppo_rows
from ..values import Value


class Numbering:
    """The positions of the `events.subevent_list` of ``events`` (an
    execution's, in program order) under ``stmp``, read off once: each
    position's ``event`` index, ``tid`` and ``stamp``, and ``own``, each
    library's positions as (position, index of the event in the library's
    slice, stamp), from ``per_lib``, the library's events in order, which
    it keeps as ``slices``.  The checker builds one per shape, from
    `checker.stamp_events`' stamping and slices of the shape's first row,
    and every library's frame reads it; no subevent is built.
    ``direct_ppo`` is preserved program order's direct rows over the
    positions, read off stamp masks (`stamps.ppo_rows`)."""

    def __init__(self, events: Sequence[Event], stmp: Stamping,
                 per_lib: Mapping[str, Sequence[Event]]):
        owner = {e: (name, k) for name, evs in per_lib.items() for k, e in enumerate(evs)}
        self.slices = per_lib
        self.own = {name: [] for name in per_lib}
        self.event, self.tid, self.stamp = [], [], []
        for i, e in enumerate(events):
            name, k = owner.get(e, (None, None))
            for a in ordered_stamps(stmp[e]):
                if name is not None:
                    self.own[name].append((len(self.stamp), k, a))
                self.event.append(i)
                self.tid.append(e.tid)
                self.stamp.append(a)
        self.size = len(self.stamp)

    @cached_property
    def direct_ppo(self) -> list[int]:
        return ppo_rows(self.size, zip(range(self.size), self.tid, self.event, self.stamp))

    def coherence(self, reads: list, writes: list, place: dict, write_value: dict,
                  carrier: dict) -> tuple["Coherence", frozenset]:
        """`Coherence` over these positions, with mo extended under ppo's
        direct rows, and its internal rf pairs: a CPU read of its own
        thread's po-earlier CPU write, which synchronises nothing."""
        stamp, tid, ppo = self.stamp, self.tid, self.direct_ppo
        internal = frozenset((w, r) for r in reads for w in writes
                             if stamp[w].kind == "aCW" and stamp[r].kind == "aCR"
                             and tid[w] == tid[r] and w < r)
        return Coherence(reads, writes, place, write_value, carrier,
                         lambda w, r: (w, r) in internal,
                         lambda a, b: ppo[a] >> b & 1), internal


class Shape:
    """What the plain executions of one shape share within one outcome
    computation: its `Numbering`, ppo closed over its positions, and each
    library's frame, by library name (`Library.frame`)."""

    __slots__ = ("numbering", "ppo", "frames")

    def __init__(self, numbering: Numbering):
        self.numbering, self.ppo, self.frames = numbering, None, {}


class Witness:
    """One satisfying assignment of a library's existentials, in the
    positions of its shape's `Numbering`.

    ``rows`` is the mask of the group's rows it holds for.
    ``explicit`` is the synchronisation order's explicit pairs; with an
    ``order`` (the RDMA libraries' issued-before), so also holds every
    pair of that order from a position in ``inst``.  ``hb`` is the order
    the library was given grown by all of so, which the checker hands to
    the next library and to ``post_check``; None when it was given none.
    ``relations`` are the component relations (pair sets or orders) for
    dumps, property tests and ``post_check``, and ``values`` the values
    read and written per position where meaningful.  Nothing here names
    a subevent; a dump does (`dump.dump_execution`).
    """

    def __init__(self, lib: str, explicit: frozenset = frozenset(), *,
                 vR: dict | None = None, vW: dict | None = None,
                 rels: Mapping | None = None, meta: dict | None = None,
                 order: IncrementalOrder | None = None, inst: tuple = (),
                 hb: IncrementalOrder | None = None, rows: int = 1):
        self.lib, self.explicit, self.rows = lib, explicit, rows
        self.values = (vR or {}, vW or {})
        self.relations, self.meta = rels or {}, meta or {}
        self.order, self.inst, self.hb = order, inst, hb

    @property
    def so(self) -> frozenset:
        """The synchronisation order, as a set of position pairs."""
        return self.explicit if self.order is None else self.explicit | self.order.pairs(self.inst)


class Library:
    """Base class; concrete libraries override the hooks below."""

    name: str = ""
    methods: frozenset = frozenset()

    def stamping(self, e: Event, cfg: NodeConfig) -> frozenset:
        raise NotImplementedError

    def outputs(self, method: str, args: tuple, tid: int, prior: tuple[Event, ...],
                pools: Pools, cfg: NodeConfig) -> Iterable[Value]:
        """Candidate results of a call by thread ``tid``, given the thread's
        earlier events ``prior``, in ``repr`` order and distinct, since the
        unfolding does not deduplicate them (`lang.interpret_conc`); a
        read's value candidates are what ``pools.read`` says it can see."""
        raise NotImplementedError

    def stores(self, e: Event, cfg: NodeConfig) -> Iterable[tuple]:
        """(place, value) for each cell the event ``e`` writes; the value
        is a ``Carried`` place when the event moves what it read there."""
        return ()

    def shape_output(self, e: Event) -> Value | None:
        """What of ``e``'s output this library's frame reads (see
        `witnesses`), or None.  Stamps are part of the shape already, so
        only a frame that reads an output itself names it here; executions
        that differ only in what their reads return share one frame."""
        return None

    def witnesses(self, group: Sequence[PlainExecution], shape: Shape, cfg: NodeConfig,
                  hb: IncrementalOrder | None = None, alive: int = 1,
                  wanted: Sequence[int] = (-1,)) -> Iterator[Witness]:
        """Every witness of the rows ``group`` (see the module docstring)
        for the rows ``alive`` (the first, all of a group of one, by
        default) that ``wanted`` holds, whose so keeps ``hb`` acyclic, in
        the library's witness order, each carrying ``hb`` grown by its so
        (`Witness.hb`).  ``hb`` is the checker's order so far, over the
        positions of the whole execution's subevent list, which the
        library must not change: the shape's closed ppo for the first
        library, and that grown by an earlier library's witness after it.
        ``None`` asks for every witness, unpruned, each with ``hb`` None.

        ``shape`` is the checker's `Shape`, the same for every execution
        of this one's shape (`checker.stamp_events`' key) in one outcome
        computation: its numbering, whose positions every witness is given
        in, and where the library keeps its frame, which holds only what
        the shape decides (see `frame`)."""
        raise NotImplementedError

    def post_check(self, w: Witness, hb: IncrementalOrder) -> bool:
        """Final veto once the global happens-before is known.  hb: an
        order over the witness's positions, read with ``in``."""
        return True

    def frame(self, shape: Shape, cfg: NodeConfig):
        """What ``shape`` decides of this library's witness search
        (`_build_frame`): built once, from the library's slice of its first
        row (`Numbering.slices`), in the positions of its numbering, and
        kept in ``shape`` for every later row, which uses it as it is."""
        if self.name not in shape.frames:
            shape.frames[self.name] = self._build_frame(
                shape.numbering.slices[self.name], shape, cfg)
        return shape.frames[self.name]

    def _grow_fixed(self, f, order: IncrementalOrder) -> bool:
        """Add to ``order`` the so pairs every witness of frame ``f`` holds: by default ``f.so``."""
        return order.add_edges(f.so)

    def grown_hb(self, f, hb: IncrementalOrder | None):
        """``hb`` grown, on a copy, by the so pairs that every witness of
        the frame ``f``'s shape holds (`_grow_fixed`): None without
        ``hb``, False when they close a cycle, so that no witness keeps it
        acyclic.  The frame keeps in ``f.base`` the last ``hb`` it was
        given with what grew from it, so the first library, whose hb is
        always its shape's ppo, grows it once per shape."""
        if hb is None:
            return None
        if f.base[0] is not hb:
            o = hb.copy()
            f.base = (hb, self._grow_fixed(f, o) and o)
        return f.base[1]

    def final_memory(self, w: Witness, cfg: NodeConfig) -> dict:
        """(loc, node) -> value of the mo-maximal write, where applicable."""
        return {}

    def _require(self, e: Event):
        if e.method not in self.methods:
            raise InvalidInput(f"{e.method} is not a method of {self.name}")


class Coherence:
    """Every coherent choice of reads-from and modification order: what a
    shape decides of the search, built once, and `search`, which runs it
    once for a group of executions of the shape, the rows ``live``.

    A read takes its value from one write of its ``place`` or from the
    place's initial value; a CPU read or CAS must get what its row pins:
    ``pins`` maps it to each value and the mask of the rows that pin it.
    A write stores its ``write_value``, or else what its own event's read
    part (``carrier``) saw, so values are found by following rf.  Reads
    decide in order, each trying its place's writes and then the initial
    value, and a choice keeps the live rows whose pins it meets.  A
    choice that keeps no row or closes an rf cycle is pruned at once; a
    value that waits on an undecided read is passed on to that read in
    ``need``: what the choosing read needs, or, for a pinned one, each
    value its live rows pin in turn.  Rows that ``wanted`` drops are
    dropped at each level.  With ``order``, a closed order
    over ``range(n)``, the positions the reads and writes are, that must
    stay acyclic with every pair below (the checker's hb so far, grown by
    the so pairs every witness of the library holds), a choice is pruned
    as soon as it closes a cycle: reading w adds (w, r) unless
    ``internal(w, r)``, reading the initial value (r, w') for every other
    write w' of r's place, and each modification order its covering pairs:
    each extension's consecutive pairs and, per read, the rb pair to the
    mo-successor of its rf source (to the place's mo-first write for the
    initial value), past the read's own position; their closure is mo's
    and rb's.  Each grows a copy unless the order holds it already, and
    the choices left keep their order; expanded per row, they are the
    row's searched alone.

    Yields ``(rf, mo, rb, vR, vW, by_place, order, rows)``: each complete
    rf choice with each of its modification orders (per place, in ``repr``
    order, its linear extensions under ``before``), the reads-before
    relation they induce, the values read and written, each place's
    writes, the order grown by all of it (None without one) and its rows.
    Each combination of extensions, with its mo, is built once per
    `Coherence`.  The frames search over positions (`Numbering.coherence`).
    """

    __slots__ = ("reads", "writes", "place", "write_value", "carrier", "by_place",
                 "choices", "init_edges", "read_group", "combos")

    def __init__(self, reads: Sequence, writes: Sequence, place: Mapping,
                 write_value: Mapping, carrier: Mapping,
                 internal: Callable[[Hashable, Hashable], bool],
                 before: Callable[[Hashable, Hashable], bool]):
        grouped: dict = {}
        for w in writes:
            grouped.setdefault(place[w], []).append(w)
        self.by_place = {p: grouped[p] for p in sorted(grouped, key=repr)}
        self.reads, self.writes = list(reads), list(writes)
        self.place, self.write_value, self.carrier = place, write_value, carrier
        self.choices = [[(w, None if internal(w, r) else ((w, r),))
                         for w in self.by_place.get(place[r], ())] for r in self.reads]
        self.init_edges = [[(r, w) for w in self.by_place.get(place[r], ()) if w != r]
                           for r in self.reads]
        group = {p: g for g, p in enumerate(self.by_place)}
        self.read_group = [(r, group[place[r]]) for r in self.reads if place[r] in group]
        # Each combination of the places' extensions: its mo, its
        # consecutive pairs and the extensions.
        self.combos = [(frozenset((o[i], o[j]) for o in combo
                                  for i in range(len(o)) for j in range(i + 1, len(o))),
                        [(o[i], o[i + 1]) for o in combo for i in range(len(o) - 1)], combo)
                       for combo in itertools.product(
                           *_mo_choices(list(self.by_place.values()), before))]

    def search(self, pins: Mapping[Hashable, Mapping[Value, int]],
               init_of: Callable[[Hashable], Value],
               order: IncrementalOrder | None = None, live: int = 1,
               wanted: Sequence[int] = (-1,)
               ) -> Iterator[tuple[frozenset, frozenset, frozenset, dict, dict, dict,
                                   IncrementalOrder | None, int]]:
        reads, place, write_value, carrier = self.reads, self.place, self.write_value, self.carrier
        choices, init_edges = self.choices, self.init_edges
        rf: dict = {}
        need: dict = {}

        def walk(w):
            """(value, None) once write w's value is known, (what its class
            needs, r) while it waits on the undecided read r, and (None, None)
            on an rf cycle."""
            for _ in range(len(rf) + 1):
                if w in write_value:
                    return write_value[w], None
                r = carrier[w]
                if r not in rf:
                    return need.get(r), r
                w = rf[r]
                if w is None:
                    return init_of(place[r]), None
            return None, None

        def read_choices(i: int, o, live: int):
            """Read i's choices given those before it: each sets ``rf``
            (and ``need``, when it passes a value on) and yields ``o`` grown
            by it with the rows of ``live`` it keeps, until the next is
            asked for."""
            r = reads[i]
            want = need.get(r)
            # A read that an earlier one passed a value on to kept only
            # the rows that pin that value then.
            pinned = pins.get(r) if want is None else None
            for w, edge in choices[i]:
                rf[r] = w
                have, u = walk(w)
                if have is None and u is None:
                    continue                    # an rf cycle
                if want is not None and have is not None and want != have:
                    continue
                known = have is not None or want is None and pinned is None
                if known:
                    m = live if pinned is None else live & pinned.get(have, 0)
                    if not m:
                        continue
                o2 = o if edge is None else grow(o, edge)
                if o2 is False:
                    continue                    # a cycle with the order
                if known:
                    yield o2, m
                    continue
                # The value waits on the undecided read u.
                waits = pins.get(u)
                for v, m in ((want, live),) if want is not None else pinned.items():
                    m &= live if waits is None else live & waits.get(v, 0)
                    if m:
                        need[u] = v
                        yield o2, m
                        del need[u]
            rf[r] = None
            have = init_of(place[r])
            m = live if pinned is None else live & pinned.get(have, 0)
            if m and (want is None or want == have):
                o2 = grow(o, init_edges[i])
                if o2 is not False:
                    yield o2, m
            del rf[r]

        # One generator of choices per decided read, the last read's last,
        # and no recursion: an exhausted read hands back to the one before.
        levels: list = []
        o = order
        live &= wanted[0]
        while live:
            if len(levels) < len(reads):
                levels.append(read_choices(len(levels), o, live))
            else:
                # A complete rf choice, with each modification order whose
                # covering pairs keep ``o`` acyclic.
                vW = {w: walk(w)[0] for w in self.writes}
                vR = {r: init_of(place[r]) if rf[r] is None else vW[rf[r]] for r in reads}
                rel = frozenset((w, r) for r, w in rf.items() if w is not None)
                for mo, cover, exts in self.combos:
                    live &= wanted[0]
                    if not live:
                        break
                    # Per read, its rb targets: the writes mo-after its rf
                    # source (every write of its place for the initial
                    # value) but itself.
                    later = [(r, [w for w in exts[g][0 if rf[r] is None
                                                     else exts[g].index(rf[r]) + 1:] if w != r])
                             for r, g in self.read_group]
                    o2 = grow(o, [*cover, *((r, ws[0]) for r, ws in later if ws)])
                    if o2 is not False:
                        rb = frozenset((r, w) for r, ws in later for w in ws)
                        yield rel, mo, rb, vR, vW, self.by_place, o2, live
            live = 0
            while levels and not live:
                # A choice keeps some rows; an exhausted read yields none.
                o, live = next(levels[-1], (None, 0))
                if not live:
                    levels.pop()
                else:
                    live &= wanted[0]


def rows_of(mask: int) -> list[int]:
    """The rows of ``mask`` in increasing order, in one pass over its digits."""
    return [j for j, b in enumerate(bin(mask)[:1:-1]) if b == "1"]


def pins_of(group: Sequence[PlainExecution], pinned: Sequence[tuple[int, int]],
            alive: int) -> dict:
    """`Coherence.search`'s pins: for each (position, k) of ``pinned``,
    each value that event k of the whole execution (the position's
    `Numbering.event`) returns in the rows ``alive``, and those rows."""
    pins: dict = {p: {} for p, _k in pinned}
    for j in rows_of(alive):
        events, bit = group[j].events, 1 << j
        for p, k in pinned:
            at, v = pins[p], events[k].output
            at[v] = at.get(v, 0) | bit
    return pins


def grow(o: IncrementalOrder | None, edges):
    """``o`` grown by ``edges`` on a copy, or False when they close a
    cycle; ``o`` itself when there is no order or it holds every edge
    already."""
    if o is None:
        return o
    rows = o.rows
    for a, b in edges:
        if not rows[a] >> b & 1:
            o = o.copy()
            return o.add_edges(edges) and o
    return o


def final_values(w: Witness) -> dict:
    """place -> value of the mo-maximal write, for a witness of a
    `Coherence` search, read off its own positions."""
    mo, vW = w.relations["mo"], w.values[1]
    out = {}
    for p, group in w.meta["by_place"].items():
        top = next(s for s in group if not any((s, t) in mo for t in group))
        out[p] = vW[top]
    return out


def _mo_choices(groups: Sequence[Sequence], before: Callable) -> list[list[tuple]]:
    """Per group, each of its linear extensions under ``before``, as a
    tuple of its writes in order, built write by write: the next write is
    one that no remaining write must precede.  Taking the candidates in
    group order gives the orders in the lexicographic order of positions."""
    return [list(_extensions(tuple(g), (), before)) for g in groups]


def _extensions(rest: tuple, prefix: tuple, before: Callable) -> Iterator[tuple]:
    if not rest:
        yield prefix
        return
    for k, w in enumerate(rest):
        others = rest[:k] + rest[k + 1:]
        if not any(before(r, w) for r in others):
            yield from _extensions(others, prefix + (w,), before)
