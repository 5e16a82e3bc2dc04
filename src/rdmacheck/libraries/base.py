"""Library interface and shared witness-search machinery.

A library is a method set, a stamping rule, an output space per method,
and a consistency oracle.  Oracles are implemented as witness generators:
given the library's slice of a plain execution they yield every witness
(rf, mo, ... choices) together with the synchronisation order the witness
induces.
The checker combines per-library synchronisation orders into the global
happens-before and backtracks across libraries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..config import ClientProfile, NodeConfig
from ..events import Event, InvalidInput, PlainExecution, SubEvent
from ..lang import ThreadState
from ..relations import Rel
from ..values import Value


@dataclass
class Witness:
    """One satisfying assignment of a library's existentials.

    ``so`` is the synchronisation order the witness induces; ``rels`` holds
    the named component relations for dumps and property tests; ``vR`` /
    ``vW`` give the value read/written per subevent where meaningful.
    """

    lib: str
    so: Rel
    vR: dict = field(default_factory=dict)
    vW: dict = field(default_factory=dict)
    rels: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


class Library:
    """Base class; concrete libraries override the hooks below."""

    name: str = ""
    methods: frozenset = frozenset()

    def stamping(self, e: Event, cfg: NodeConfig) -> frozenset:
        raise NotImplementedError

    def outputs(self, method: str, args: tuple, tid: int, state: ThreadState,
                profile: ClientProfile, cfg: NodeConfig) -> Iterable[tuple[Value, ThreadState]]:
        """Candidate results of a call; value and payload candidates come
        from ``profile.domain`` and ``profile.tuple_pool``."""
        raise NotImplementedError

    def witnesses(self, plain: PlainExecution, stmp, cfg: NodeConfig) -> Iterator[Witness]:
        raise NotImplementedError

    def post_check(self, w: Witness, hb: Rel) -> bool:
        """Final veto once the global happens-before is known."""
        return True

    def final_memory(self, w: Witness, cfg: NodeConfig) -> dict:
        """(loc, node) -> value of the mo-maximal write, where applicable."""
        return {}

    def _require(self, e: Event):
        if e.method not in self.methods:
            raise InvalidInput(f"{e.method} is not a method of {self.name}")


def check_consistent(lib: Library, exec_, cfg: NodeConfig) -> Witness | None:
    """Validate a given execution against the library oracle.

    The execution carries a synchronisation order; a witness must induce
    exactly that order (the paper-style equality check).  Returns the
    witness, or None when the execution is inconsistent.
    """
    for w in lib.witnesses(exec_.plain, exec_.stmp, cfg):
        if w.so.pairs == frozenset(exec_.so) and lib.post_check(w, Rel(exec_.hb)):
            return w
    return None


# ---------------------------------------------------------------------------
# Shared search helpers


class _Slots:
    """Union-find over subevent value slots with attached constants.

    Internal broadcast/put/get equalities and rf choices unify slots; a
    contradiction (two different constants in one class) kills the branch.
    """

    def __init__(self):
        self.parent: dict = {}
        self.value: dict = {}

    def copy(self) -> "_Slots":
        c = _Slots()
        c.parent = dict(self.parent)
        c.value = dict(self.value)
        return c

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != x:
            self.parent[x] = p = self.parent.setdefault(p, p)
            x = p
            p = self.parent[x]
        return x

    def set_value(self, x, v) -> bool:
        r = self.find(x)
        if r in self.value:
            return self.value[r] == v
        self.value[r] = v
        return True

    def get_value(self, x):
        return self.value.get(self.find(x))

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return True
        vx, vy = self.value.get(rx), self.value.get(ry)
        if vx is not None and vy is not None and vx != vy:
            return False
        self.parent[rx] = ry
        if vx is not None:
            self.value[ry] = vx
        return True


def rslot(s: SubEvent) -> tuple:
    return ("R", s)


def wslot(s: SubEvent) -> tuple:
    return ("W", s)


def choose_rf(reads: Sequence[SubEvent],
              candidates: Callable[[SubEvent], Sequence[SubEvent]],
              fixed: Mapping[tuple, Value],
              eqs: Sequence[tuple],
              init_of: Callable[[SubEvent], Value],
              ) -> Iterator[tuple[dict, _Slots]]:
    """Enumerate reads-from choices with value propagation.

    Each read picks one same-place write or None (initial value).  Values
    live in keyed slots — ``rslot(s)`` / ``wslot(s)`` — because an atomic
    update subevent reads and writes different values.  ``fixed`` pins
    label-determined slots; ``eqs`` are internal equalities (a NIC write
    part carries what its event's read part saw).  Branches with
    contradictory equations are pruned, as are branches leaving a read slot
    valueless (only possible via rf cycles among NIC parts, which always
    induce a synchronisation-order cycle downstream).
    """
    base = _Slots()
    for k, v in fixed.items():
        if not base.set_value(k, v):
            return
    for a, b in eqs:
        if not base.union(a, b):
            return

    reads = list(reads)

    def step(i: int, slots: _Slots, rf: dict) -> Iterator[tuple[dict, _Slots]]:
        if i == len(reads):
            if any(slots.get_value(rslot(r)) is None for r in reads):
                return
            yield rf, slots
            return
        r = reads[i]
        rk = rslot(r)
        rv = slots.get_value(rk)
        for w in candidates(r):
            wv = slots.get_value(wslot(w))
            if rv is not None and wv is not None and rv != wv:
                continue
            s2 = slots.copy()
            if not s2.union(rk, wslot(w)):
                continue
            yield from step(i + 1, s2, {**rf, r: w})
        iv = init_of(r)
        if rv is None or rv == iv:
            s2 = slots.copy()
            if s2.set_value(rk, iv):
                yield from step(i + 1, s2, {**rf, r: None})

    yield from step(0, base, {})


def enumerate_mo(groups: Sequence[Sequence[SubEvent]],
                 before: Callable[[SubEvent, SubEvent], bool]) -> Iterator[Rel]:
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
        yield Rel(p for pairs in combo for p in pairs)


def reads_before(rf: Mapping[SubEvent, SubEvent | None], mo: Rel,
                 reads: Iterable[SubEvent],
                 writes_of: Callable[[SubEvent], Iterable[SubEvent]]) -> Rel:
    """(r, w) pairs: r read the initial value, or from a write mo-before w."""
    pairs = []
    for r in reads:
        src = rf.get(r)
        for w in writes_of(r):
            if w == r:
                continue
            if src is None or (src, w) in mo:
                pairs.append((r, w))
    return Rel(pairs)
