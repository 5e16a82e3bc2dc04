"""Per-test node/role configuration and the client profile shared by all
libraries and implementation stages."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .events import InvalidInput
from .values import Value


@dataclass(frozen=True)
class NodeConfig:
    nodes: frozenset[int]
    thread_node: Mapping[int, int]                  # thread -> node
    loc_node: Mapping[str, int] = field(default_factory=dict)   # location -> node
    barrier: Mapping[str, frozenset[int]] = field(default_factory=dict)  # loc -> participants
    wthd: Mapping[str, int] = field(default_factory=dict)       # ring buffer writer
    rthd: Mapping[str, frozenset[int]] = field(default_factory=dict)     # ring buffer readers
    capacity: Mapping[str, int] = field(default_factory=dict)   # ring buffer size S
    size: Mapping[str, int] = field(default_factory=dict)       # mixed-size width
    init: Mapping[tuple, Value] = field(default_factory=dict)   # (loc, node|None) -> value

    def node_of_thread(self, tid: int) -> int:
        try:
            return self.thread_node[tid]
        except KeyError:
            raise InvalidInput(f"thread {tid} is not mapped to a node")

    def node_of_loc(self, loc: str) -> int:
        try:
            return self.loc_node[loc]
        except KeyError:
            raise InvalidInput(f"location {loc!r} is not mapped to a node")

    def init_of(self, loc: str, node: int | None = None) -> Value:
        if (loc, node) in self.init:
            return self.init[(loc, node)]
        return self.init.get((loc, None), 0)

    def validate(self) -> None:
        for t, n in self.thread_node.items():
            if n not in self.nodes:
                raise InvalidInput(f"thread {t} on undeclared node {n}")
        for x, n in self.loc_node.items():
            if n not in self.nodes:
                raise InvalidInput(f"location {x!r} on undeclared node {n}")
        for x, s in self.capacity.items():
            if s < 1:
                raise InvalidInput(f"ring buffer {x!r} has capacity {s} < 1")
        for x, s in self.size.items():
            if s < 1:
                raise InvalidInput(f"location {x!r} has size {s} < 1")


@dataclass(frozen=True)
class ClientProfile:
    """Static facts about a program, used to size output domains.

    ``scalars``: base scalar domain ({0}, literals, initial values);
    ``locs``: every location the program names; ``counts``: static call
    counts keyed (tid, method, loc); ``tuples``: payload pools per
    location; ``wids``: work identifiers used per thread; ``domains``:
    per-location scalar domains overriding ``scalars``.  A litmus client
    has no ``domains``; an implementation stage's ``extend`` gives the
    locations it introduces theirs (see ``compilers``).
    """

    scalars: frozenset = frozenset({0})
    locs: frozenset = frozenset()
    counts: Mapping = field(default_factory=dict)
    tuples: Mapping = field(default_factory=dict)
    wids: Mapping = field(default_factory=dict)
    domains: Mapping = field(default_factory=dict)

    def count(self, tid: int, method: str, loc: str) -> int:
        return self.counts.get((tid, method, loc), 0)

    def domain(self, loc: str) -> frozenset:
        return self.domains.get(loc, self.scalars)

    def tuple_pool(self, loc: str) -> frozenset:
        return self.tuples.get(loc, frozenset())
