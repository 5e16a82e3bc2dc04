"""Events, plain executions and subevents.

An event is a (thread, id, label) triple where the label is the method
name, the input values, and the output value.  A plain execution is a
finite event set with a per-thread total program order.  The interpreter
numbers each thread's events in program order, so program order is
(thread, event id) order: ``po_before`` is its one definition, and a plain
execution is its events listed in that order.  A stamping (event ->
non-empty stamp set) induces its subevents, which `subevent_list`
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, groupby
from typing import Iterable, Mapping

from .values import Value, fmt_value


@dataclass(slots=True)
class Event:
    """One call of a thread; never assigned after construction."""

    tid: int
    eid: int
    method: str
    args: tuple
    output: Value
    _hash: int = field(init=False, repr=False, compare=False)

    # Events and subevents are hashed millions of times as set members and
    # dict keys, so each computes its hash once, in a slot; equality is the
    # generated field-wise one, which compares no hash.
    def __post_init__(self):
        self._hash = hash((self.tid, self.eid, self.method, self.args, self.output))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        a = ",".join(fmt_value(v) for v in self.args)
        return f"e{self.tid}.{self.eid}:{self.method}({a})={fmt_value(self.output)}"


class InvalidInput(ValueError):
    """Raised when an operation's precondition is violated."""


def po_before(a: Event, b: Event) -> bool:
    """Program order: ``a`` is an earlier event of the same thread."""
    return a.tid == b.tid and a.eid < b.eid


@dataclass(unsafe_hash=True)
class PlainExecution:
    """A finite event set, stored as its events in program order: by
    thread, then by event id.  Its program order ``po`` is derived, not
    stored: the interpreter numbers each thread's events in program order,
    so po is the (tid, eid) order of ``po_before``.  Never assigned after
    construction; it keeps a ``__dict__`` for the cached ``po``."""

    events: tuple[Event, ...]

    @cached_property
    def po(self) -> frozenset[tuple[Event, Event]]:
        """Every (a, b) pair with ``po_before(a, b)``: each thread's events
        taken two at a time."""
        return frozenset(p for _tid, thread in groupby(self.events, key=lambda e: e.tid)
                         for p in combinations(thread, 2))

    def validate(self) -> None:
        """Check the invariant the order relies on: (tid, eid) keys strictly
        increase along ``events``; raises InvalidInput."""
        keys = [(e.tid, e.eid) for e in self.events]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise InvalidInput("events not in strictly increasing (tid, eid) order")


@dataclass(slots=True, unsafe_hash=True)
class Stamp:
    """One of the eleven stamp kinds; family kinds carry a node index.
    Never assigned after construction."""

    kind: str
    node: int | None = None

    def __repr__(self):
        return self.kind if self.node is None else f"{self.kind}({self.node})"


@dataclass(slots=True)
class SubEvent:
    """An event with one of its stamps; never assigned after construction."""

    event: Event
    stamp: Stamp
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._hash = hash((self.event, self.stamp))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<{self.event!r},{self.stamp!r}>"

    @property
    def tid(self) -> int:
        return self.event.tid


Stamping = Mapping[Event, frozenset[Stamp]]


def ordered_stamps(stamps: frozenset[Stamp]) -> Iterable[Stamp]:
    """An event's stamps in the order its subevents are listed: a NIC read
    part before its write part and a failed CAS's fence before its read,
    else by ``repr``."""
    if len(stamps) == 1:
        return stamps
    return sorted(stamps, key=lambda a: (a.kind not in ("nLR", "nRR", "aMF"), repr(a)))


def subevent_list(events: Iterable[Event], stmp: Stamping) -> list[SubEvent]:
    """The subevents of ``events`` as a list: events in order, each one's
    stamps in `ordered_stamps` order.  Its positions are the one numbering
    of an execution's subevents: ppo is swept along it, issued-before's
    fixed part runs forward along it, per-shape frames and witnesses are
    given in its positions (`libraries.base.Numbering`), and a dump names
    them by it (`dump.dump_execution`)."""
    return [SubEvent(e, a) for e in events for a in ordered_stamps(stmp[e])]
