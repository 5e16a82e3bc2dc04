"""Library interface and the coherence search the memory libraries share.

A library is a method set, a stamping rule, an output space per method,
the stores each event makes, and a consistency oracle.  Oracles are
implemented as witness generators: given the library's slice of a plain
execution they yield every witness (rf, mo, ... choices) together with
the synchronisation order the witness induces.
The checker combines per-library synchronisation orders into the global
happens-before and backtracks across libraries.

The shared-variable and RDMA libraries search the same existentials over
their reads and writes: a reads-from map, a modification order per place
and the reads-before relation they induce.  ``coherence`` enumerates them.
A value is never guessed: a read's value is its rf source's, and a
write's is fixed by its label or carried from the read part of its own
event (a put, get or broadcast moves the value its read part saw).
``final_values`` reads the final memory off such a witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import (Callable, Container, Hashable, Iterable, Iterator, Mapping,
                    NamedTuple, Sequence)

from ..config import NodeConfig
from ..events import (Event, InvalidInput, PlainExecution, SubEvent, po_before,
                      subevent_list)
from ..lang import Pools
from ..relations import IncrementalOrder, Pair
from ..stamps import ppo_before
from ..values import Value


@dataclass
class Witness:
    """One satisfying assignment of a library's existentials.

    ``so`` is the synchronisation order the witness induces: the
    ``explicit`` pairs and, when the witness has an ``order`` (the RDMA
    libraries' issued-before), every pair of that order from an item whose
    index is in ``inst``.  It becomes a pair set only when read; the
    checker grows hb by `add_to`, from the explicit pairs and the order's
    rows.  ``rels`` holds the named component relations for dumps and
    property tests, and may build one on its first read; ``vR`` / ``vW``
    give the value read/written per subevent where meaningful.
    """

    lib: str
    explicit: frozenset
    vR: dict = field(default_factory=dict)
    vW: dict = field(default_factory=dict)
    rels: Mapping = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    order: IncrementalOrder | None = None
    inst: tuple = ()

    @cached_property
    def so(self) -> frozenset:
        if self.order is None:
            return self.explicit
        return self.explicit | self.order.pairs(self.inst)

    def add_to(self, hb: IncrementalOrder) -> bool:
        """Grow ``hb`` by this witness's so; False when a cycle closes."""
        return hb.add_edges(self.explicit) and (
            self.order is None or hb.absorb(self.order, self.inst))


class Library:
    """Base class; concrete libraries override the hooks below."""

    name: str = ""
    methods: frozenset = frozenset()

    def stamping(self, e: Event, cfg: NodeConfig) -> frozenset:
        raise NotImplementedError

    def outputs(self, method: str, args: tuple, tid: int, prior: tuple[Event, ...],
                pools: Pools, cfg: NodeConfig) -> Iterable[Value]:
        """Candidate results of a call by thread ``tid``, given the thread's
        earlier events ``prior``, in ``repr`` order; a read's value
        candidates are what ``pools.read`` says it can see."""
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

    def witnesses(self, plain: PlainExecution, stmp, cfg: NodeConfig,
                  ppo: Callable[[], IncrementalOrder] | None = None,
                  memo: dict | None = None) -> Iterator[Witness]:
        """Every witness of the slice ``plain``.  ``ppo``, when given,
        returns the closed ppo of the whole execution, which the library
        must not change; a library may then skip a witness whose so closes
        a cycle with it, since hb would.  ``None`` asks for every witness.

        ``memo`` is where the library may keep its frame: the checker
        hands the same dict to every execution of this one's shape
        (`checker.shape_key`) in one outcome computation, so a frame holds
        only what the shape decides, with subevents as positions in
        `frame_list` (see `shared_frame`)."""
        raise NotImplementedError

    def post_check(self, w: Witness, hb: Container[Pair]) -> bool:
        """Final veto once the global happens-before is known: the
        checker passes its grown order and ``lambda_consistent`` a pair
        set, so ``hb`` is read only with ``in``."""
        return True

    def final_memory(self, w: Witness, cfg: NodeConfig) -> dict:
        """(loc, node) -> value of the mo-maximal write, where applicable."""
        return {}

    def _require(self, e: Event):
        if e.method not in self.methods:
            raise InvalidInput(f"{e.method} is not a method of {self.name}")


def frame_list(plain: PlainExecution, stmp,
               ppo: Callable[[], IncrementalOrder] | None) -> tuple[list, dict]:
    """The subevent list a library's frame names subevents in, and each
    one's position: the whole execution's, ``ppo().items``, given ``ppo``,
    and else the slice's own `subevent_list`."""
    if ppo is not None:
        order = ppo()
        return order.items, order.index
    subs = subevent_list(plain.events, stmp)
    return subs, {s: i for i, s in enumerate(subs)}


def positions(pos: Mapping[SubEvent, int], pairs: Iterable[Pair]) -> tuple:
    """Each (a, b) of ``pairs`` as (a's position, b's position)."""
    return tuple((pos[a], pos[b]) for a, b in pairs)


def at(subs: Sequence[SubEvent], pairs: Iterable[tuple[int, int]]) -> list:
    """Each (i, j) of ``pairs`` as the subevents at those positions."""
    return [(subs[i], subs[j]) for i, j in pairs]


def shared_frame(memo: dict | None, name: str, plain: PlainExecution, stmp,
                 ppo: Callable[[], IncrementalOrder] | None,
                 build: Callable[[], object], keep: Callable, rebind: Callable):
    """The frame of library ``name`` for the execution ``plain``, shared
    through ``memo`` (see `Library.witnesses`) by the executions of its
    shape.  ``build()`` makes it for the first one, None when the shape has
    no witness.  Once a second one comes, ``keep(frame, pos)`` turns the
    first one's frame into one that names each subevent by its position
    ``pos`` in `frame_list`, and ``rebind(kept, subs, index)`` turns that
    back into the frame of each later execution, whose list is ``subs``."""
    if memo is None:
        return build()
    if name not in memo:
        frame = build()
        memo[name] = frame, None if frame is None else frame_list(plain, stmp, ppo)[1]
        return frame
    kept = memo[name]
    if isinstance(kept, tuple):
        frame, pos = kept
        kept = memo[name] = None if frame is None else keep(frame, pos)
    return None if kept is None else rebind(kept, *frame_list(plain, stmp, ppo))


class CoherenceFrame(NamedTuple):
    """`coherence`'s inputs as a shape decides them, each subevent as its
    position in `frame_list`: the reads and writes, each one's place, the
    reads whose value their event's output pins, the values writes store
    by label, each carried write's read part, and the order the search is
    pruned against, over the whole list (None for no pruning)."""

    reads: tuple
    writes: tuple
    place: tuple
    pinned: tuple
    write_value: tuple
    carrier: tuple
    order: IncrementalOrder | None

    @classmethod
    def of(cls, pos: Mapping[SubEvent, int], search: Mapping) -> "CoherenceFrame":
        """Positional from ``search``, `coherence`'s keyword arguments but
        ``init_of``."""
        return cls(tuple(pos[s] for s in search["reads"]),
                   tuple(pos[s] for s in search["writes"]),
                   tuple((pos[s], p) for s, p in search["place"].items()),
                   tuple(pos[s] for s in search["read_value"]),
                   tuple((pos[s], v) for s, v in search["write_value"].items()),
                   positions(pos, search["carrier"].items()), search["order"])

    def bind(self, subs: list, index: dict) -> dict:
        """`coherence`'s keyword arguments but ``init_of``, for the
        execution whose subevent list is ``subs``, with ``index`` its
        positions."""
        return {"reads": [subs[i] for i in self.reads],
                "writes": [subs[i] for i in self.writes],
                "place": {subs[i]: p for i, p in self.place},
                "read_value": {subs[i]: subs[i].event.output for i in self.pinned},
                "write_value": {subs[i]: v for i, v in self.write_value},
                "carrier": dict(at(subs, self.carrier)),
                "order": None if self.order is None else self.order.rebind(subs, index)}


def check_consistent(lib: Library, exec_, cfg: NodeConfig) -> Witness | None:
    """Validate a given execution against the library oracle.

    The execution carries a synchronisation order; a witness must induce
    exactly that order (the paper-style equality check).  Returns the
    witness, or None when the execution is inconsistent.
    """
    for w in lib.witnesses(exec_.plain, exec_.stmp, cfg):
        if w.so == exec_.so and lib.post_check(w, exec_.hb):
            return w
    return None


# ---------------------------------------------------------------------------
# Shared search helpers


def coherence(reads: Sequence[SubEvent], writes: Sequence[SubEvent],
              place: Mapping[SubEvent, Hashable],
              read_value: Mapping[SubEvent, Value],
              write_value: Mapping[SubEvent, Value],
              carrier: Mapping[SubEvent, SubEvent],
              init_of: Callable[[Hashable], Value],
              order: IncrementalOrder | None = None,
              ) -> Iterator[tuple[frozenset, frozenset, frozenset, dict, dict, dict]]:
    """Every coherent choice of reads-from and modification order.

    A read takes its value from one write of its ``place`` or from the
    place's initial value; a CPU read or CAS must get what ``read_value``
    pins.  A write stores its ``write_value``, or else what its own event's
    read part (``carrier``) saw, so values are found by following rf.
    Reads decide in order, each trying its place's writes and then the
    initial value.  A choice that contradicts a pin or closes an rf cycle
    is pruned at once; a pin whose source still waits on an undecided read
    is passed on to that read in ``need``.

    With ``order``, a closed order over the subevents that must stay
    acyclic with every pair below (the checker's ppo, grown by the so
    pairs every witness holds), each choice grows a copy of it and is
    pruned as soon as it closes a cycle.  Reading w adds
    (w, r) unless `internal_rf`; reading the initial value adds (r, w')
    for every other write w' of r's place; each modification order adds
    its mo and rb pairs.  The choices left keep their order.

    Yields ``(rf, mo, rb, vR, vW, by_place)``: each complete rf choice with
    each of its modification orders (``enumerate_mo`` along ppo, places in
    ``repr`` order), the reads-before relation they induce, the values read
    and written, and each place's writes.
    """
    grouped: dict = {}
    for w in writes:
        grouped.setdefault(place[w], []).append(w)
    by_place = {p: grouped[p] for p in sorted(grouped, key=repr)}
    reads = list(reads)
    rf: dict = {}
    need = dict(read_value)

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

    def grow(o, edges):
        """``o`` grown by ``edges`` on a copy, or False when they close a
        cycle; ``o`` itself when there is no order or nothing to add."""
        if o is None or not edges:
            return o
        o = o.copy()
        return o.add_edges(edges) and o

    def step(i: int, o):
        if i == len(reads):
            vW = {w: walk(w)[0] for w in writes}
            vR = {r: init_of(place[r]) if rf[r] is None else vW[rf[r]] for r in reads}
            rel = frozenset((w, r) for r, w in rf.items() if w is not None)
            for mo in enumerate_mo(list(by_place.values()), ppo_before):
                rb = frozenset((r, w) for r in reads for w in by_place.get(place[r], ())
                               if w != r and (rf[r] is None or (rf[r], w) in mo))
                if grow(o, [*mo, *rb]) is not False:
                    yield rel, mo, rb, vR, vW, by_place
            return
        r = reads[i]
        want = need.get(r)
        for w in by_place.get(place[r], ()):
            rf[r] = w
            have, u = walk(w)
            if have is None and u is None:
                continue                    # an rf cycle
            if want is not None and have is not None and want != have:
                continue
            o2 = o if internal_rf(w, r) else grow(o, ((w, r),))
            if o2 is False:
                continue                    # a cycle with the order
            if want is None or want == have:
                yield from step(i + 1, o2)
            else:
                need[u] = want
                yield from step(i + 1, o2)
                del need[u]
        rf[r] = None
        if want is None or want == init_of(place[r]):
            o2 = grow(o, [(r, w) for w in by_place.get(place[r], ()) if w != r])
            if o2 is not False:
                yield from step(i + 1, o2)
        del rf[r]

    yield from step(0, order)


def internal_rf(w: SubEvent, r: SubEvent) -> bool:
    """A CPU read of its own thread's po-earlier CPU write, which
    synchronises nothing."""
    return (w.stamp.kind == "aCW" and r.stamp.kind == "aCR"
            and po_before(w.event, r.event))


def external_rf(rf: frozenset) -> frozenset:
    """rf without its `internal_rf` pairs."""
    return frozenset((w, r) for w, r in rf if not internal_rf(w, r))


def final_values(w: Witness) -> dict:
    """place -> value of the mo-maximal write, for a witness of ``coherence``."""
    mo = w.rels["mo"]
    out = {}
    for p, group in w.meta["by_place"].items():
        top = next(s for s in group if not any((s, t) in mo for t in group))
        out[p] = w.vW[top]
    return out


def enumerate_mo(groups: Sequence[Sequence[SubEvent]],
                 before: Callable[[SubEvent, SubEvent], bool]) -> Iterator[frozenset]:
    """Total orders per write group, as one relation per combination.

    Each group's orders are its linear extensions under ``before`` (a, b:
    a must precede b), built write by write: the next write is one that no
    remaining write must precede.  Taking the candidates in group order
    gives the orders in the lexicographic order of positions.
    """
    def extensions(rest: tuple, prefix: tuple) -> Iterator[tuple]:
        if not rest:
            yield prefix
            return
        for k, w in enumerate(rest):
            others = rest[:k] + rest[k + 1:]
            if not any(before(r, w) for r in others):
                yield from extensions(others, prefix + (w,))

    per_group = [[[(o[i], o[j]) for i in range(len(o)) for j in range(i + 1, len(o))]
                  for o in extensions(tuple(g), ())]
                 for g in groups]
    for combo in itertools.product(*per_group):
        yield frozenset(p for pairs in combo for p in pairs)
