"""Events, plain executions, and full executions.

An event is a (thread, id, label) triple where the label is the method
name, the input values, and the output value.  A plain execution is a
finite event set with a per-thread total program order.  A full execution
adds a stamping (event -> non-empty stamp set), a synchronisation order
and a happens-before order over the induced subevents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .values import Value, fmt_value


@dataclass(frozen=True)
class Event:
    tid: int
    eid: int
    method: str
    args: tuple
    output: Value

    # Events and subevents are hashed millions of times as set members and
    # dict keys, so each computes its hash once; equality is the generated
    # field-wise one.  Pickling rebuilds through the constructor, because
    # string hashes differ between processes.
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(
            (self.tid, self.eid, self.method, self.args, self.output)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Event, (self.tid, self.eid, self.method, self.args, self.output)

    def __repr__(self):
        a = ",".join(fmt_value(v) for v in self.args)
        return f"e{self.tid}.{self.eid}:{self.method}({a})={fmt_value(self.output)}"


class InvalidInput(ValueError):
    """Raised when an operation's precondition is violated."""


@dataclass(frozen=True)
class PlainExecution:
    events: frozenset[Event]
    po: frozenset[tuple[Event, Event]]

    @staticmethod
    def empty() -> "PlainExecution":
        return PlainExecution(frozenset(), frozenset())

    @staticmethod
    def single(e: Event) -> "PlainExecution":
        return PlainExecution(frozenset([e]), frozenset())

    def thread_events(self, tid: int) -> list[Event]:
        """Events of one thread, in program order (eids are po-increasing)."""
        return sorted((e for e in self.events if e.tid == tid), key=lambda e: e.eid)

    def tids(self) -> set[int]:
        return {e.tid for e in self.events}

    def restrict(self, events: Iterable[Event]) -> "PlainExecution":
        """The sub-execution on ``events``, program order restricted to it."""
        s = frozenset(events)
        return PlainExecution(s, frozenset((a, b) for a, b in self.po
                                           if a in s and b in s))

    def validate(self) -> None:
        """Check the plain-execution invariants; raises InvalidInput."""
        ids = {(e.tid, e.eid) for e in self.events}
        if len(ids) != len(self.events):
            raise InvalidInput("duplicate (tid, eid) pair")
        for a, b in self.po:
            if a not in self.events or b not in self.events:
                raise InvalidInput("po edge outside event set")
            if a.tid != b.tid:
                raise InvalidInput("po relates events of different threads")
        for t in self.tids():
            evs = self.thread_events(t)
            for i, a in enumerate(evs):
                for b in evs[i + 1:]:
                    if (a, b) not in self.po or (b, a) in self.po:
                        raise InvalidInput(f"po is not a total order on thread {t}")


def seq_compose(g1: PlainExecution, g2: PlainExecution) -> PlainExecution:
    """Order every event of g1 before every event of g2."""
    if g1.events & g2.events:
        raise InvalidInput("sequential composition of overlapping event sets")
    cross = frozenset((a, b) for a in g1.events for b in g2.events)
    return PlainExecution(g1.events | g2.events, g1.po | g2.po | cross)


def par_compose(g1: PlainExecution, g2: PlainExecution) -> PlainExecution:
    """Union of two executions with disjoint threads; no cross edges."""
    if g1.events & g2.events:
        raise InvalidInput("parallel composition of overlapping event sets")
    if g1.tids() & g2.tids():
        raise InvalidInput("parallel composition with a shared thread id")
    return PlainExecution(g1.events | g2.events, g1.po | g2.po)


@dataclass(frozen=True)
class Stamp:
    """One of the eleven stamp kinds; family kinds carry a node index."""

    kind: str
    node: int | None = None

    def __repr__(self):
        return self.kind if self.node is None else f"{self.kind}({self.node})"


@dataclass(frozen=True)
class SubEvent:
    event: Event
    stamp: Stamp

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.event, self.stamp)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return SubEvent, (self.event, self.stamp)

    def __repr__(self):
        return f"<{self.event!r},{self.stamp!r}>"

    @property
    def tid(self) -> int:
        return self.event.tid


Stamping = Mapping[Event, frozenset[Stamp]]


def subevents(events: Iterable[Event], stmp: Stamping) -> frozenset[SubEvent]:
    return frozenset(SubEvent(e, a) for e in events for a in stmp[e])


@dataclass(frozen=True)
class Execution:
    """Plain execution + stamping + synchronisation and happens-before order."""

    plain: PlainExecution
    stmp: Mapping[Event, frozenset[Stamp]]
    so: frozenset[tuple[SubEvent, SubEvent]]
    hb: frozenset[tuple[SubEvent, SubEvent]]

    def subevents(self) -> frozenset[SubEvent]:
        return subevents(self.plain.events, self.stmp)

    def restrict(self, events: Iterable[Event]) -> "Execution":
        plain = self.plain.restrict(events)
        stmp = {e: self.stmp[e] for e in plain.events}
        sub = subevents(plain.events, stmp)
        keep = lambda r: frozenset((a, b) for a, b in r if a in sub and b in sub)
        return Execution(plain, stmp, keep(self.so), keep(self.hb))
