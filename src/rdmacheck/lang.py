"""The program meta-language and its plain (unfolding) semantics.

A sequential program is a value, a method call, a let-binding whose
continuation is a total function from values to programs, or a stop,
which never finishes and so has no unfolding at all.  A continuation may
build the program it is part of again, so repetition is recursion.  The
plain semantics enumerates every bounded unfolding of a program into an
output value plus a plain execution, without yet asking whether any
library accepts the behaviour.  Each call appends its event to the
thread's earlier events, numbered by their count, so each plain execution
is built already in (thread, event id) order.

Method outputs are enumerated from a finite candidate space: a plain
value domain, or a function of the call and the thread's earlier events
(the checker asks the library that owns the method); a read's candidates
are the values that stores can put at its place, which ``Pools`` collects
while ``interpret_conc`` unfolds.

One finite-search deviation from the unbounded semantics, flagged on the
result: the event cap.  A call with an output that would give its thread
more than ``max_events`` events is cut: the unfoldings through it are
dropped and the result is marked bound-limited.  The cap bounds every
recursion that makes a call before it recurses; one that makes none has no
finite unfolding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (AbstractSet, Callable, Hashable, Iterable, Iterator, NamedTuple,
                    Sequence)

from .events import Event, InvalidInput, PlainExecution
from .values import Value


@dataclass(frozen=True)
class Val:
    value: Value


@dataclass(frozen=True)
class Call:
    method: str
    args: tuple


@dataclass(frozen=True)
class LetF:
    prog: "Program"
    cont: Callable[[Value], "Program"]


@dataclass(frozen=True)
class Stop:
    """A program that never finishes: it has no unfolding, and it is not
    cut by any bound."""


Program = Val | Call | LetF | Stop
ConcurrentProgram = Sequence[Program]


def let(p: Program, f: Callable[[Value], Program]) -> Program:
    return LetF(p, f)


def seq(*ps: Program) -> Program:
    """p1 ; p2 ; ... — let-composition discarding intermediate values."""
    if not ps:
        raise InvalidInput("empty sequence")
    if len(ps) == 1:
        return ps[0]
    rest = seq(*ps[1:])
    return LetF(ps[0], lambda _v, _rest=rest: _rest)


# A method-output enumerator: (method, args, tid, prior) -> the call's
# candidate outputs, where ``prior`` is the thread's events before the call.
OutputsFn = Callable[[str, tuple, int, tuple[Event, ...]], Iterable[Value]]


@dataclass(frozen=True)
class Carried:
    """What a store writes when its event moves a value: whatever the
    event's read part saw at ``place`` (a put, a get or a broadcast)."""

    place: Hashable


class Pools:
    """The values that stores put at each place, as the outputs callable of
    an unfolding.

    ``outputs(method, args, tid, prior, pools)`` gives a call's candidate
    outputs and may ask ``read`` what a read of a place can see (or
    ``stored``, for a place with no initial value);
    ``stores(e)`` gives the (place, value or ``Carried``) of each cell the
    event ``e`` writes; ``init_of(place)`` is a place's initial value.

    Each call notes the stores of the thread's last earlier event, so
    every prefix of an unfolding counts, also one that never finishes;
    ``interpret_conc`` notes the last event of each finished unfolding.
    """

    def __init__(self, outputs: Callable, stores: Callable[[Event], Iterable],
                 init_of: Callable[[Hashable], Value]):
        self._outputs = outputs
        self._stores_of = stores
        self._init_of = init_of
        self._stores: dict[Event, tuple] = {}       # event -> its stores
        self._raw: dict = {}        # place -> tid -> values and Carried stored
        self._seen: dict = {}       # tid -> place -> others' stores at first read

    def __call__(self, method, args, tid, prior):
        if prior:
            self.note(prior[-1])
        return self._outputs(method, args, tid, prior, self)

    def note(self, e: Event) -> None:
        """Add the stores of ``e`` to the pools of its thread."""
        if e not in self._stores:
            self._stores[e] = st = tuple(self._stores_of(e))
            for place, v in st:
                self._raw.setdefault(place, {}).setdefault(e.tid, set()).add(v)

    def _resolve(self, stored: Iterable) -> tuple[set, set]:
        """The values ``stored`` stands for, and the places it followed: a
        ``Carried`` place gives its initial value and every thread's stores
        there, followed to a fixpoint over places (broadcasts may form
        cycles)."""
        out, done, todo = set(), set(), list(stored)
        while todo:
            v = todo.pop()
            if not isinstance(v, Carried):
                out.add(v)
            elif v.place not in done:
                done.add(v.place)
                out.add(self._init_of(v.place))
                for vals in self._raw.get(v.place, {}).values():
                    todo.extend(vals)
        return out, done

    def _others(self, place, tid: int) -> int:
        """How many values and ``Carried`` places threads other than
        ``tid`` store at ``place``."""
        return sum(len(vals) for t, vals in self._raw.get(place, {}).items()
                   if t != tid)

    def stored(self, place, tid: int, prior: tuple[Event, ...]) -> set:
        """The values stores can put at ``place`` for a read by thread
        ``tid`` after ``prior``: other threads' stores there, and the
        stores of its own earlier events, each ``Carried`` place followed.

        The thread's later stores are left out.  A read that returns an
        output carries an ``aCR`` or ``aCAS`` stamp, and reading a
        po-later store of its own thread closes an hb cycle, so no outcome
        is lost; and a counter a thread bumps from its own reads (the
        compiled barrier and ring buffer) would otherwise grow the pools
        without end.

        The read place and every place followed are noted with how much
        other threads store there, for :meth:`stale`."""
        raw = self._raw.get(place, {})
        todo = [v for t, vals in raw.items() if t != tid for v in vals]
        if tid in raw:
            todo += [v for e in prior for p, v in self._stores[e] if p == place]
        out, followed = self._resolve(todo)
        followed.add(place)
        seen = self._seen.setdefault(tid, {})
        for q in followed:
            if q not in seen:
                seen[q] = self._others(q, tid)
        return out

    def read(self, place, tid: int, prior: tuple[Event, ...]) -> set:
        """What a read of ``place`` can see: its initial value and what
        :meth:`stored` says stores can put there."""
        out = self.stored(place, tid, prior)
        out.add(self._init_of(place))
        return out

    def start(self, tid: int) -> None:
        """Forget what thread ``tid`` read: it is about to be unfolded."""
        self._seen[tid] = {}

    def stale(self, tid: int) -> bool:
        """Whether other threads store more at a place thread ``tid``'s
        unfolding read or followed than when it first did."""
        return any(self._others(p, tid) > n
                   for p, n in self._seen.get(tid, {}).items())


class InterpResult(NamedTuple):
    results: AbstractSet   # a set view that iterates in a fixed order
    truncated: bool


class _Ctx:
    __slots__ = ("outputs", "max_events", "truncated")

    def __init__(self, outputs, max_events):
        self.outputs = outputs
        self.max_events = max_events
        self.truncated = False


def _interp(p: Program, tid: int, prior: tuple[Event, ...], ctx: _Ctx,
            ) -> Iterator[tuple[Value, tuple[Event, ...]]]:
    """(value, events) pairs: ``prior`` followed by the unfolding's events,
    in program order.  A call's event id is the number of events before it;
    a call with an output that would exceed the event cap is cut."""
    if isinstance(p, Val):
        yield p.value, prior
    elif isinstance(p, Call):
        for out in ctx.outputs(p.method, p.args, tid, prior):
            if len(prior) >= ctx.max_events:    # an output, but no room
                ctx.truncated = True
                return
            yield out, prior + (Event(tid, len(prior), p.method, p.args, out),)
    elif isinstance(p, LetF):
        for v, g in _interp(p.prog, tid, prior, ctx):
            yield from _interp(p.cont(v), tid, g, ctx)
    elif isinstance(p, Stop):
        return
    else:
        raise InvalidInput(f"not a program: {p!r}")


def interpret_seq(p: Program, tid: int,
                  value_domain: Iterable[Value] | OutputsFn,
                  max_events: int = 10_000) -> InterpResult:
    """All bounded unfoldings of ``p`` on thread ``tid``, in the order the
    interpreter generates them: (value, plain execution) pairs.

    ``value_domain`` is either a finite value collection (every method
    call's output ranges over it) or an :data:`OutputsFn`.
    """
    if callable(value_domain):
        outputs = value_domain
    else:
        vals = tuple(value_domain)
        outputs = lambda method, args, tid, prior: vals
    ctx = _Ctx(outputs, max_events)
    results = dict.fromkeys(
        (v, PlainExecution(g)) for v, g in _interp(p, tid, (), ctx)).keys()
    return InterpResult(results, ctx.truncated)


def interpret_conc(progs: ConcurrentProgram,
                   value_domain: Iterable[Value] | OutputsFn | Pools,
                   max_events: int = 10_000) -> InterpResult:
    """Parallel composition of per-thread unfoldings, threads numbered 1..T.

    The result pairs the tuple of thread outputs with the combined plain
    execution.  Products whose events exceed ``max_events`` are dropped and
    mark the result bound-limited.

    With :class:`Pools` as outputs, the threads are unfolded in rounds
    until the pools reach their least fixpoint.  Threads are unfolded in
    order, each thread's last stores are noted right after its run, and a
    thread is unfolded again only while a place it read has gained a value
    it can see.  The products are built from each thread's last unfolding.
    The rounds end when finitely many values can be stored.  Litmus
    clients store literals and values read; the compiled barrier counters
    and ring-buffer heads count up from their own thread's earlier
    stores, which a thread sees only through ``prior``, so only the event
    cap bounds them.

    The results come in a fixed order: the products of the per-thread
    unfoldings in lexicographic order, thread 1 outermost, each thread's
    unfoldings in the order the interpreter generates them.  Threads are
    numbered in order, so a product's events, each thread's concatenated
    in thread order, are in program order by construction.
    """
    pools = value_domain if isinstance(value_domain, Pools) else None
    runs: list = [None] * len(progs)
    again = True
    while again:
        again = False
        for i, p in enumerate(progs):
            if runs[i] is not None and not (pools and pools.stale(i + 1)):
                continue
            if pools:
                pools.start(i + 1)
            runs[i] = interpret_seq(p, i + 1, value_domain, max_events)
            if pools:
                for _o, g in runs[i].results:
                    if g.events:
                        pools.note(g.events[-1])
                again = True
    truncated = any(r.truncated for r in runs)
    per_thread = [[(v, g.events) for v, g in r.results] for r in runs]

    # (values, events) of each partial product; a thread's unfoldings are
    # filtered once per remaining event budget.
    combos: list[tuple[tuple, tuple]] = [((), ())]
    for choices in per_thread:
        fits: dict[int, list] = {}
        nxt = []
        for vals, evs in combos:
            budget = max_events - len(evs)
            fit = fits.get(budget)
            if fit is None:
                fit = fits[budget] = [c for c in choices if len(c[1]) <= budget]
                truncated |= len(fit) < len(choices)
            nxt.extend((vals + (v,), evs + g) for v, g in fit)
        combos = nxt
    results = dict.fromkeys((vals, PlainExecution(evs)) for vals, evs in combos)
    return InterpResult(results.keys(), truncated)
