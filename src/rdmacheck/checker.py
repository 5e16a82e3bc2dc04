"""Multi-library consistency and bounded outcome computation.

An execution is accepted when its happens-before, fixed here to
(ppo ∪ so)+ with so the union of per-library synchronisation orders, is
irreflexive and every library accepts its slice.  Outcomes of a concurrent
program are the output tuples (plus final memory) of its accepted
executions, enumerated from the bounded plain semantics.

hb grows inside the libraries' witness searches, one library after
another, and is never built again: the first library prunes its search
against ppo and each witness it yields hands back ppo grown by its so;
the next library prunes against that order and hands it back grown by
its own so, and the last one's order is the combination's hb.  So
library i's search runs once per combination of the libraries before
it, each choice is checked against the order built so far, and nothing
is replayed or added twice.  Most executions are rejected inside a
search.

Within one ``outcomes`` call each event is stamped once
(`stamp_events`): an event that recurs across executions keeps its
stamps, its library and its part of the shape key, and each library's
slice is the stamping's list of its events, already in program order.
Plain executions that differ only in what their reads return share a
shape, and are checked together, as the rows of one group: each
library's search runs once for the group, with what each row's reads
return as row masks, and each witness holds for a mask of rows.  A
shape is set up once per call, in integer positions (`Shape`): its one
`Numbering`, the positions of its subevent list (`events.subevent_list`)
with each one's event index and stamp and each library's own positions,
which every library's frame reads.  ppo's direct rows come from
per-thread stamp masks (`stamps.ppo_rows`) and are closed once per
shape, before the first library is asked; each library keeps its own
per-shape part of the search there (`Library.witnesses`' ``shape``),
and hb grows from ppo's rows by position.  Nothing here names a
position: a witness and a combination are positions only, and only a
dump names them (`dump.dump_execution`).

An ``outcomes`` call runs with the cyclic garbage collector paused.
Nothing on its path refers to itself, which the tests check on every
pinned input, so reference counting frees everything it drops, and a
collection inside it would find nothing, only walk the live unfolding,
which grows with the cap.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .config import NodeConfig
from .events import Event, InvalidInput, PlainExecution
from .lang import MAX_EVENTS, Pools, interpret_conc
from .libraries.base import Library, Numbering, Shape, Witness, rows_of
from .relations import IncrementalOrder


@dataclass(frozen=True)
class Bounds:
    """The bounds of one outcome computation: ``max_events`` caps each
    thread's events and each plain execution's.  Nothing reads
    ``loop_bound``; it stays first only because the benchmark harness
    builds ``Bounds`` positionally, and ROADMAP item 6, the next change to
    the benchmark, deletes it."""

    loop_bound: int = 4
    max_events: int = MAX_EVENTS


@dataclass(slots=True, unsafe_hash=True)
class Outcome:
    """Thread outputs and final memory; never assigned after construction."""

    outputs: tuple
    memory: frozenset = frozenset()   # ((loc, node), value) items of written cells

    def memory_map(self) -> dict:
        return dict(self.memory)

    def __repr__(self):
        mem = "" if not self.memory else " " + repr(sorted(self.memory, key=repr))
        return f"Outcome{self.outputs!r}{mem}"


@dataclass
class OutcomeResult:
    outcomes: frozenset
    truncated: bool


def method_map(libs: Sequence[Library]) -> dict[str, Library]:
    out: dict[str, Library] = {}
    for lib in libs:
        for m in lib.methods:
            if m in out:
                raise InvalidInput(f"method {m} belongs to two libraries "
                                   f"({out[m].name}, {lib.name})")
            out[m] = lib
    return out


def pools(libs: Sequence[Library], cfg: NodeConfig) -> Pools:
    """The value pools of a program over ``libs``: each call's candidate
    outputs come from the library that owns its method, and so do the
    stores of each event."""
    mm = method_map(libs)

    def lib_of(method: str) -> Library:
        try:
            return mm[method]
        except KeyError:
            raise InvalidInput(f"unknown method {method}")

    return Pools(
        lambda method, args, tid, prior, ps:
            lib_of(method).outputs(method, args, tid, prior, ps, cfg),
        lambda e: lib_of(e.method).stores(e, cfg),
        lambda place: cfg.init_of(*place))


class Stamped(tuple):
    """`stamp_events`' ``(stmp, per_lib)``, with ``key``, the execution's
    shape: per event, its thread, id, method, arguments and stamps, and
    what of its output its library's frame reads (`Library.shape_output`).
    Plain executions with one key differ only in what their reads return."""

    def __new__(cls, stmp: dict, per_lib: dict, key: tuple):
        self = super().__new__(cls, (stmp, per_lib))
        self.key = key
        return self


def stamp_events(plain: PlainExecution, libs: Sequence[Library], cfg: NodeConfig,
                 memo: dict | None = None) -> Stamped:
    """Each event's stamps and each library's events, in program order, in
    one walk over the events that also builds the shape key.  ``memo`` is
    one outcome computation's (`enumerate_consistent`): it keeps, per
    event, its library's name, its stamps and its key element, so an event
    met again costs one lookup and shares its stamp set, whose hash is then
    computed once; it keeps the method map under `method_map`."""
    memo = {} if memo is None else memo
    stmp = {}
    per_lib: dict[str, list[Event]] = {lib.name: [] for lib in libs}
    key = []
    for e in plain.events:
        got = memo.get(e)
        if got is None:
            mm = memo.get(method_map)
            if mm is None:
                mm = memo[method_map] = method_map(libs)
            lib = mm.get(e.method)
            if lib is None:
                raise InvalidInput(f"event {e!r} uses unknown method")
            stamps = lib.stamping(e, cfg)
            got = memo[e] = (lib.name, stamps, (e.tid, e.eid, e.method, e.args, stamps,
                                                lib.shape_output(e)))
        name, stmp[e], elem = got
        per_lib[name].append(e)
        key.append(elem)
    return Stamped(stmp, per_lib, tuple(key))


def ppo_order(num: Numbering) -> IncrementalOrder:
    """Preserved program order, closed over the positions of ``num``
    from its direct rows."""
    return IncrementalOrder(num.direct_ppo)


def enumerate_consistent(group: Sequence[PlainExecution], libs: Sequence[Library],
                         cfg: NodeConfig, memo: dict | None = None,
                         wanted: Sequence[int] = (-1,),
                         stamped: Stamped | None = None) -> Iterator[Mapping]:
    """All accepted (witness-per-library, hb) combinations of a group:
    plain executions of one shape, as rows 0, 1, ... (one execution is a
    group of one).

    The first row is stamped first, unless the caller gives its
    `stamp_events` as ``stamped``, which also gives the shape.  ``memo`` is
    one outcome computation's: it keeps each event's stamping, so an event
    is stamped once per computation, and maps shapes to their `Shape`
    set-ups; a new shape is numbered once (`Numbering`) and its ppo closed
    once, and without a memo the shape is set up afresh.  Each library is
    asked once about the group, as each row's slice, its events of the
    library in program order.  hb grows through the libraries' searches
    (`Library.witnesses`): the first library is given ppo, each witness
    carries the order it was given grown by its so, and that is what the
    next library is given, with the rows the witness holds for, so library
    i's search runs once per combination of the libraries before it and
    yields only witnesses that keep hb acyclic.  ``wanted[0]``, the rows
    the caller still wants, is read by every search as it goes (`Library`).
    Combinations come in the libraries' order and each library's witness
    order, as a dict: ``"witnesses"`` by library name, ``"rows"``, the
    rows all its witnesses hold for, and ``"hb"``, the last witness's
    order, which the libraries' ``post_check`` read.  All of it is in the
    positions of the shape's numbering.
    """
    plain = group[0]
    stamped = stamped or stamp_events(plain, libs, cfg, memo)
    stmp, per_lib = stamped
    shape = None if memo is None else memo.get(stamped.key)
    if shape is None:
        shape = Shape(Numbering(plain.events, stmp, per_lib))
        shape.ppo = ppo_order(shape.numbering)
        if memo is not None:
            memo[stamped.key] = shape
    slices = []
    for lib in libs:
        mine = per_lib[lib.name]
        if len(mine) == len(plain.events):
            slices.append(group)
            continue
        # The rows' events line up with the first row's, position by position.
        mine = set(mine)
        at = [i for i, e in enumerate(plain.events) if e in mine]
        slices.append([PlainExecution(tuple(p.events[i] for i in at)) for p in group])
    yield from _combinations(libs, slices, cfg, shape, shape.ppo, (),
                             (1 << len(group)) - 1, wanted)


def _combinations(libs: Sequence[Library], slices: list, cfg: NodeConfig, shape: Shape,
                  hb: IncrementalOrder, chosen: tuple, alive: int, wanted: Sequence[int]):
    """Each accepted combination that extends ``chosen``, the witnesses of
    the libraries before the next one, whose last grew ``hb``, for the
    rows ``alive`` that each of them holds for."""
    i = len(chosen)
    if i < len(libs):
        for w in libs[i].witnesses(slices[i], shape, cfg, hb, alive, wanted):
            rows = alive & w.rows & wanted[0]
            if rows:
                yield from _combinations(libs, slices, cfg, shape, w.hb, chosen + (w,),
                                         rows, wanted)
    elif all(lib.post_check(w, hb) for lib, w in zip(libs, chosen)):
        yield {"witnesses": {lib.name: w for lib, w in zip(libs, chosen)},
               "rows": alive, "hb": hb}


def final_memory(witnesses: Mapping[str, Witness], libs: Sequence[Library],
                 cfg: NodeConfig) -> frozenset:
    mem = {}
    for lib in libs:
        w = witnesses.get(lib.name)
        if w is not None:
            mem.update(lib.final_memory(w, cfg))
    return frozenset(mem.items())


def outcomes(progs, libs: Sequence[Library], cfg: NodeConfig, bounds: Bounds,
             outputs_only: bool = False) -> OutcomeResult:
    """Outcome set of a concurrent program under the installed libraries.

    The plain executions are grouped by shape (`stamp_events`' key), in
    the order each shape first appears, and each group is checked by one
    `enumerate_consistent` call; an accepted combination gives the outcome
    of each row it holds for.

    With ``outputs_only`` an outcome is the output tuple alone (final
    memory, which varies with the modification order, is then not
    meaningful and left empty), and the group's still-wanted mask holds
    only the rows whose tuple is not in the set yet: a found tuple drops
    every row of it at once, so no row is searched past its first witness,
    and a group with no row wanted is not checked.  Every tuple not yet
    found still has all its rows checked, so the set is the same.  A full
    enumeration, whose outcomes carry final memory, checks every row.  The
    stampings and shape frames live until this call returns.

    The call runs with automatic cyclic collection paused, and leaves the
    collector as it found it, whether it returns or raises.  Nothing it
    builds refers to itself (the tests check that a computation leaves no
    cyclic garbage), so reference counting frees all it drops, and a
    collection here would only walk the unfolding's live, growing heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        interp = interpret_conc(progs, pools(libs, cfg), bounds.max_events)
        memo: dict = {}
        groups: dict = {}   # shape -> (its first row's stamping, its rows)
        for vals, plain in interp.results:
            stamped = stamp_events(plain, libs, cfg, memo)
            groups.setdefault(stamped.key, (stamped, []))[1].append((vals, plain))
        found = set()
        for stamped, rows in groups.values():
            by_vals: dict = {}
            for j, (vals, _plain) in enumerate(rows):
                by_vals[vals] = by_vals.get(vals, 0) | 1 << j
            wanted = [sum(m for vals, m in by_vals.items()
                          if not (outputs_only and Outcome(vals) in found))]
            if not wanted[0]:
                continue
            group = [plain for _vals, plain in rows]
            for acc in enumerate_consistent(group, libs, cfg, memo, wanted, stamped):
                mem = frozenset() if outputs_only else final_memory(acc["witnesses"], libs, cfg)
                for j in rows_of(acc["rows"]):
                    found.add(Outcome(rows[j][0], mem))
                    if outputs_only:
                        wanted[0] &= ~by_vals[rows[j][0]]
                if not wanted[0]:
                    break
        return OutcomeResult(frozenset(found), interp.truncated)
    finally:
        if enabled:
            gc.enable()
