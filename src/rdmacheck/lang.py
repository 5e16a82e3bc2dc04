"""The program meta-language and its plain (unfolding) semantics.

A sequential program is a value, a method call, a let-binding whose
continuation is a total function from values to programs, an infinite
loop, or a k-level break.  The plain semantics enumerates every bounded
unfolding of a program into an output (value, break-depth) plus a plain
execution, without yet asking whether any library accepts the behaviour.
An unfolding's events are numbered and concatenated in program order, so
each plain execution is built once, already in (thread, event id) order.

Two finite-search deviations from the unbounded semantics, both flagged on
the result:

* method outputs are enumerated from a finite candidate space (a plain
  value domain, or a per-method function supplied by the checker);
* each loop unrolls at most ``loop_bound`` iterations, deeper unfoldings
  are dropped and the result is marked bound-limited.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import AbstractSet, Callable, Iterable, Iterator, NamedTuple, Sequence

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
class Loop:
    body: "Program"


@dataclass(frozen=True)
class Break:
    depth: int
    value: Value

    def __post_init__(self):
        if self.depth < 1:
            raise InvalidInput("break depth must be >= 1")


Program = Val | Call | LetF | Loop | Break
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


class Output(NamedTuple):
    value: Value
    brk: int


@dataclass(frozen=True)
class ThreadState:
    """Per-branch interpreter state threaded through an unfolding.

    ``eid`` numbers events in unfolding order (deterministic reports);
    ``fresh`` feeds reserved fresh-identifier outputs; ``issued`` records
    (identifier, node) pairs already produced on this thread, so polls can
    enumerate exactly the identifiers that program order makes available.
    """

    eid: int = 0
    fresh: int = 0
    issued: tuple = ()

    def next_fresh(self, tid: int) -> tuple[Value, "ThreadState"]:
        ident = _FRESH_BASE + tid * _FRESH_STRIDE + self.fresh
        return ident, replace(self, fresh=self.fresh + 1)

    def record_issue(self, ident: Value, node: int) -> "ThreadState":
        return replace(self, issued=self.issued + ((ident, node),))


_FRESH_BASE = 1_000_000
_FRESH_STRIDE = 1_000

# A method-output enumerator: (method, args, tid, state) -> (output, state) pairs.
OutputsFn = Callable[[str, tuple, int, ThreadState], Iterable[tuple[Value, ThreadState]]]


def uniform_outputs(domain: Iterable[Value]) -> OutputsFn:
    vals = tuple(domain)

    def fn(method, args, tid, state):
        return ((v, state) for v in vals)

    return fn


class InterpResult(NamedTuple):
    results: AbstractSet   # a set view that iterates in a fixed order
    truncated: bool


class _Ctx:
    __slots__ = ("loop_bound", "outputs", "max_events", "truncated")

    def __init__(self, loop_bound, outputs, max_events):
        self.loop_bound = loop_bound
        self.outputs = outputs
        self.max_events = max_events
        self.truncated = False


def _interp(p: Program, tid: int, st: ThreadState, ctx: _Ctx,
            ) -> Iterator[tuple[Output, tuple[Event, ...], ThreadState]]:
    """(output, the unfolding's events in program order, state) triples."""
    if isinstance(p, Val):
        yield Output(p.value, 0), (), st
    elif isinstance(p, Break):
        yield Output(p.value, p.depth), (), st
    elif isinstance(p, Call):
        for out, st2 in ctx.outputs(p.method, p.args, tid, st):
            e = Event(tid, st2.eid, p.method, p.args, out)
            yield Output(out, 0), (e,), replace(st2, eid=st2.eid + 1)
    elif isinstance(p, LetF):
        for o1, g1, st1 in _interp(p.prog, tid, st, ctx):
            if o1.brk != 0:
                yield o1, g1, st1
                continue
            for o2, g2, st2 in _interp(p.cont(o1.value), tid, st1, ctx):
                if len(g1) + len(g2) > ctx.max_events:
                    ctx.truncated = True
                    continue
                yield o2, g1 + g2, st2
    elif isinstance(p, Loop):
        yield from _loop(p.body, tid, st, ctx, (), 0)
    else:
        raise InvalidInput(f"not a program: {p!r}")


def _loop(body, tid, st, ctx, prefix, done):
    if done >= ctx.loop_bound:
        ctx.truncated = True
        return
    for o, g, st2 in _interp(body, tid, st, ctx):
        if len(prefix) + len(g) > ctx.max_events:
            ctx.truncated = True
            continue
        ga = prefix + g
        if o.brk > 0:
            yield Output(o.value, o.brk - 1), ga, st2
        else:
            yield from _loop(body, tid, st2, ctx, ga, done + 1)


def interpret_seq(p: Program, tid: int, loop_bound: int,
                  value_domain: Iterable[Value] | OutputsFn,
                  max_events: int = 10_000) -> InterpResult:
    """All bounded unfoldings of ``p`` on thread ``tid``, in the order the
    interpreter generates them.

    ``value_domain`` is either a finite value collection (every method
    call's output ranges over it) or an :data:`OutputsFn`.
    """
    outputs = value_domain if callable(value_domain) else uniform_outputs(value_domain)
    ctx = _Ctx(loop_bound, outputs, max_events)
    results = dict.fromkeys(
        (o, PlainExecution(g)) for o, g, _ in _interp(p, tid, ThreadState(), ctx)).keys()
    return InterpResult(results, ctx.truncated)


def interpret_conc(progs: ConcurrentProgram, loop_bound: int,
                   value_domain: Iterable[Value] | OutputsFn,
                   max_events: int = 10_000) -> InterpResult:
    """Parallel composition of per-thread unfoldings, threads numbered 1..T.

    Keeps only unfoldings where every thread terminates with break depth 0;
    the result pairs the tuple of thread outputs with the combined plain
    execution.  Products whose events exceed ``max_events`` are dropped and
    mark the result bound-limited.

    The results come in a fixed order: the products of the per-thread
    unfoldings in lexicographic order, thread 1 outermost, each thread's
    unfoldings in the order the interpreter generates them.  Threads are
    numbered in order, so a product's events, each thread's concatenated
    in thread order, are in program order by construction.
    """
    per_thread: list[list[tuple[Value, tuple[Event, ...]]]] = []
    truncated = False
    for i, p in enumerate(progs):
        r = interpret_seq(p, i + 1, loop_bound, value_domain, max_events)
        truncated |= r.truncated
        per_thread.append([(o.value, g.events) for o, g in r.results if o.brk == 0])

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
