"""Per-test node/role configuration, shared by all libraries and
implementation stages, and the client profile the stages read."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .events import InvalidInput
from .values import Value, zero_tuple


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
        """The initial value of ``loc``'s cell on ``node``: its ``init``, else
        the all-zero tuple of a sized location, else 0."""
        if (loc, node) in self.init:
            return self.init[(loc, node)]
        if (loc, None) in self.init:
            return self.init[(loc, None)]
        return zero_tuple(self.size[loc]) if loc in self.size else 0

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
    """Static facts about a program that an implementation stage compiles:
    ``locs``, every location the program names (a stage replicates or
    refuses them), and ``wids``, the work identifiers each thread uses (a
    compiled wait drains them).  No value is sized here: a read is offered
    what the program's stores can put at its place."""

    locs: frozenset = frozenset()
    wids: Mapping = field(default_factory=dict)
