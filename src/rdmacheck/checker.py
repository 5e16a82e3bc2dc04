"""Multi-library consistency and bounded outcome computation.

An execution is accepted when its happens-before, fixed here to
(ppo ∪ so)+ with so the union of per-library synchronisation orders, is
irreflexive and every library accepts its slice.  Outcomes of a concurrent
program are the output tuples (plus final memory) of its accepted
executions, enumerated from the bounded plain semantics.

Libraries are asked before hb is built: each library's witnesses are
drawn once and lazily per plain execution, and hb is built only when
every library has a witness.  Most executions are rejected there.

Plain executions that differ only in what their reads return share a
shape: the same events, stamps and program order.  A shape has one
numbering, the positions of its subevent list (`events.subevent_list`),
and within one ``outcomes`` call its frame is built once, in those
positions, and never rebound: ppo is swept at most once per shape, when
the first library asks for it to prune its search or else for hb, each
library keeps its own per-shape part of the witness search there
(`Library.witnesses`' ``memo``), and hb grows from ppo's rows by
position.  A later execution of a shape builds no subevent unless
something reads one: a witness's relations and values and a
combination's so and hb are named by its subevents on first read.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from itertools import islice, tee
from typing import Iterator, Mapping, Sequence

from .config import NodeConfig
from .events import (Event, Execution, InvalidInput, PlainExecution,
                     subevent_list, subevents)
from .lang import Pools, interpret_conc
from .libraries.base import Library, Witness, check_consistent
from .relations import IncrementalOrder, OnRead
from .stamps import ppo_before


@dataclass(frozen=True)
class Bounds:
    """The bounds of one outcome computation: ``max_events`` caps each
    thread's events and each plain execution's.  Nothing reads
    ``loop_bound``; it stays first only because the benchmark harness
    builds ``Bounds`` positionally, and ROADMAP item 6, the next change to
    the benchmark, deletes it."""

    loop_bound: int = 4
    max_events: int = 14


@dataclass(frozen=True)
class Outcome:
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


def stamp_events(plain: PlainExecution, libs: Sequence[Library], cfg: NodeConfig) -> Stamped:
    """Each event's stamps and each library's events, in one walk over the
    events that also builds the shape key."""
    mm = method_map(libs)
    stmp = {}
    per_lib: dict[str, list[Event]] = {lib.name: [] for lib in libs}
    key = []
    for e in plain.events:
        lib = mm.get(e.method)
        if lib is None:
            raise InvalidInput(f"event {e!r} uses unknown method")
        stamps = stmp[e] = lib.stamping(e, cfg)
        per_lib[lib.name].append(e)
        key.append((e.tid, e.eid, e.method, e.args, stamps, lib.shape_output(e)))
    return Stamped(stmp, per_lib, tuple(key))


def ppo_order(plain: PlainExecution, stmp) -> IncrementalOrder:
    """Preserved program order, closed: ``ppo_before`` swept once over the
    positions of the execution's `subevent_list`."""
    subs = subevent_list(plain.events, stmp)
    return IncrementalOrder(range(len(subs)), lambda i, j: ppo_before(subs[i], subs[j]))


@dataclass
class Shape:
    """What the plain executions of one shape share within one outcome
    computation: ppo's closed rows once swept, over the positions every
    execution of the shape numbers its subevents by, and each library's
    frame, by library name."""

    ppo: IncrementalOrder | None = None
    libs: dict = field(default_factory=dict)


def _peeked(it: Iterator) -> Iterator | None:
    """``it`` with its first item put back, or None when it is empty.  The
    first item is held only until it is drawn again."""
    held = list(islice(it, 1))
    if not held:
        return None

    def replay():
        yield held.pop()
        yield from it
    return replay()


def enumerate_consistent(plain: PlainExecution, libs: Sequence[Library],
                         cfg: NodeConfig, memo: dict | None = None) -> Iterator[Mapping]:
    """All accepted (witness-per-library, so, hb) combinations.

    Stamping first (deterministic), which also gives the execution's
    shape.  ``memo`` maps shapes to the `Shape` frames of one outcome
    computation; without it the execution's frame is built afresh.  Each
    library's witness search then runs at most once, and its first witness
    is drawn in ``libs`` order: a library with none rejects the execution.
    ppo is needed at most once, by the first library that asks for it
    (`Library.witnesses` prunes against it) or else only when every
    library has a witness, and is swept only for the first execution of
    its shape that needs it.  Then combinations are backtracked, in the
    libraries' order and each library's witness order, with incremental
    cycle detection on (ppo ∪ accumulated so)+: each witness grows a copy
    of hb by its explicit pairs and the rows of its order, all by position
    (`Witness.add_to`).  The first library's witnesses are visited once,
    straight from its search; every later library's are drawn lazily into
    a buffer that each visit replays.  A combination is a mapping whose
    ``"so"`` and ``"hb"`` become pair sets, named by this execution's
    subevents, only when read; the libraries' ``post_check`` reads the
    grown order itself.
    """
    stamped = stamp_events(plain, libs, cfg)
    stmp, per_lib = stamped
    shape = Shape() if memo is None else memo.get(stamped.key)
    if shape is None:
        shape = memo[stamped.key] = Shape()

    def ppo() -> IncrementalOrder:
        if shape.ppo is None:
            shape.ppo = ppo_order(plain, stmp)
        return shape.ppo

    drawn = []
    for lib in libs:
        ws = _peeked(lib.witnesses(plain.restrict(per_lib[lib.name]),
                                   stmp, cfg, ppo, shape.libs))
        if ws is None:
            return
        # A tee that is never advanced holds every witness drawn so far;
        # each copy of it replays them and draws the rest on demand.
        drawn.append((lib, tee(ws, 1)[0] if drawn else ws))

    def rec(i: int, order: IncrementalOrder, chosen: list):
        if i == len(drawn):
            if all(lib.post_check(w, order) for lib, w in chosen):
                yield OnRead(
                    {"witnesses": {lib.name: w for lib, w in chosen}, "stmp": stmp},
                    so=lambda: frozenset(p for _, w in chosen for p in w.so),
                    hb=lambda: order.pairs(None, subevent_list(plain.events, stmp)))
            return
        lib, ws = drawn[i]
        for w in copy(ws) if i else ws:
            o2 = order.copy()
            if w.add_to(o2):
                yield from rec(i + 1, o2, chosen + [(lib, w)])

    yield from rec(0, ppo(), [])


def lambda_consistent(exec_: Execution, libs: Sequence[Library],
                      cfg: NodeConfig) -> tuple[bool, dict]:
    """Validate a full execution: its stamping must be the libraries',
    so must decompose per library, hb must be the irreflexive closure of
    ppo ∪ so, and every library slice must pass its oracle with exactly
    its share of so.

    This is the paper's whole-execution check; ``enumerate_consistent``
    searches for what it validates, and the tests hold the two together.
    It closes ppo over the subevents themselves.
    """
    stmp, per_lib = stamp_events(exec_.plain, libs, cfg)
    if dict(exec_.stmp) != stmp:
        return False, {}
    # so relates the execution's subevents and closes with ppo to hb
    # without a cycle.
    sub = subevents(exec_.plain.events, stmp)
    order = IncrementalOrder(subevent_list(exec_.plain.events, stmp), ppo_before)
    if (not all(a in sub and b in sub for a, b in exec_.so)
            or not order.add_edges(exec_.so) or exec_.hb != order.pairs()):
        return False, {}

    mm = method_map(libs)
    for a, b in exec_.so:
        la = mm.get(a.event.method)
        if la is None or la is not mm.get(b.event.method):
            return False, {}

    witnesses = {}
    for lib in libs:
        w = check_consistent(lib, exec_.restrict(per_lib[lib.name]), cfg)
        if w is None:
            return False, {}
        witnesses[lib.name] = w
    return True, witnesses


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

    With ``outputs_only`` the search stops at the first witness per plain
    execution (final memory, which varies with the modification order, is
    then not meaningful and left empty), and a plain execution whose output
    tuple is already in the set is skipped unchecked: an outcome is then
    the output tuple alone, so accepting that execution could add nothing.
    Every tuple not yet found still has all its executions checked, so the
    set is the same.  A full enumeration, whose outcomes carry final
    memory, checks every plain execution.

    The shape frames the search builds live until this call returns.
    """
    interp = interpret_conc(progs, pools(libs, cfg), bounds.max_events)
    found = set()
    memo: dict = {}
    for vals, plain in interp.results:
        if outputs_only and Outcome(vals) in found:
            continue
        for acc in enumerate_consistent(plain, libs, cfg, memo):
            if outputs_only:
                found.add(Outcome(vals))
                break
            found.add(Outcome(vals, final_memory(acc["witnesses"], libs, cfg)))
    return OutcomeResult(frozenset(found), interp.truncated)
