"""Relations and their one transitive closure.

A relation is a ``frozenset`` of pairs; the carrier is whatever hashable
items appear in them, and set operations and comprehensions are the
algebra.  ``IncrementalOrder`` is the only closure, and it is over
positions: ``range(n)``, the subevent list of an execution shape
(`libraries.base.Numbering`), whose direct rows ppo and ib's fixed part
read off stamp tables (`stamps.ppo_rows`), or that a caller with a pair
predicate builds with `forward_rows`.  It closes a relation that runs
forward along the positions, given as each one's row of direct
successors, in one backward sweep, and then grows it edge by edge, or by
the rows of another order, with a cycle veto.  Every order grown from
one shape (the libraries' pruning orders, ib per choice, hb) shares its
numbering, so hb absorbs ib's rows as they are, and a position indexes
its row directly: edges and membership look nothing up.
An order becomes a pair set only when something reads its pairs, named
by the subevents of the execution that reads them: ib, ``inst_ib``, so
and hb are built for a dump or a test, never on the checker's path.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, Hashable, Iterable, Sequence


class IncrementalOrder:
    """Grow-only transitive relation over positions, with a cycle veto,
    over bitset rows.

    ``IncrementalOrder(direct)`` is the closure of the relation over the
    positions ``range(len(direct))`` whose row i, ``direct[i]``, has bit j
    set for each position j that directly follows position i; only later
    positions may, so the base is acyclic.  Row i is an int whose bit j is
    set when position j follows position i.  One backward sweep closes
    the base: row i is the OR, over the bits j of ``direct[i]``, of bit j
    and row j, which is already closed; a bit that an earlier row taken in
    already holds adds nothing and is skipped.  Edges and membership name
    positions, which index the rows directly, and `pairs` names them by
    given names.

    Any addition that would close a cycle fails fast: `add_edges` and
    `absorb` return False (and roll back nothing: copy before speculative
    use) when a cycle would appear.  Adding an edge a -> b ORs b's row
    (plus b) into a and every row that has a's bit, one bit test per row.
    Copies own their rows.
    """

    __slots__ = ("rows",)

    def __init__(self, direct: Sequence[int]):
        rows = self.rows = [0] * len(direct)
        for i in range(len(direct) - 2, -1, -1):
            todo, r = direct[i], 0
            while todo:
                low = todo & -todo
                r |= low | rows[low.bit_length() - 1]
                todo &= ~r
            rows[i] = r

    def copy(self) -> "IncrementalOrder":
        c = IncrementalOrder.__new__(IncrementalOrder)
        c.rows = list(self.rows)
        return c

    def __contains__(self, pair: tuple[int, int]) -> bool:
        i, j = pair
        return self.rows[i] >> j & 1 == 1

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> bool:
        rows = self.rows
        for i, j in edges:
            if i == j or rows[j] >> i & 1:
                return False
            if rows[i] >> j & 1:
                continue
            after = rows[j] | 1 << j
            bit = 1 << i
            rows[i] |= after
            for k, r in enumerate(rows):
                if r & bit:
                    rows[k] = r | after
            if rows[i] & bit:
                return False
        return True

    def absorb(self, other: "IncrementalOrder", sources: Iterable[int]) -> bool:
        """Add every pair (s, j) of ``other``, an order over the same
        positions, for each s in ``sources``, with `add_edges`'s veto.
        Row by row, with no pair list: the bits of each source's row that
        are already present are dropped, and the rest, with their rows,
        are ORed into the source's row and every row that has its bit."""
        rows = self.rows
        for i in sources:
            new = other.rows[i] & ~rows[i]
            after = new
            while new:
                low = new & -new
                after |= rows[low.bit_length() - 1]
                new ^= low
            bit = 1 << i
            if after & bit:
                return False
            if after:
                for k, row in enumerate(rows):
                    if row & bit:
                        rows[k] = row | after
                rows[i] |= after
        return True

    def pairs(self, sources: Iterable[int] | None = None,
              names: Sequence | Mapping | None = None) -> frozenset:
        """The pairs, or only those from the positions ``sources``, each
        position called by its ``names`` entry when names are given."""
        rows = self.rows
        names = range(len(rows)) if names is None else names
        pairs = []
        for i in range(len(rows)) if sources is None else sources:
            r = rows[i]
            while r:
                low = r & -r
                pairs.append((names[i], names[low.bit_length() - 1]))
                r ^= low
        return frozenset(pairs)


def forward_rows(items: Sequence, before: Callable[[Hashable, Hashable], bool]) -> list[int]:
    """Each item's row of direct successors under ``before``, which may
    hold only when its first item is listed before its second: bit j of
    row i is set when ``before(items[i], items[j])``.  Only forward pairs
    are asked."""
    return [sum(1 << j for j in range(i + 1, len(items)) if before(a, items[j]))
            for i, a in enumerate(items)]


class OnRead(Mapping):
    """A mapping whose ``thunks`` are called, once, when their key is first
    read; ``values`` holds the rest."""

    __slots__ = ("_values", "_thunks")

    def __init__(self, values: dict, **thunks: Callable[[], object]):
        self._values, self._thunks = values, thunks

    def __getitem__(self, key):
        if key in self._thunks:
            self._values[key] = self._thunks.pop(key)()
        return self._values[key]

    def __iter__(self):
        return iter([*self._values, *self._thunks])

    def __len__(self) -> int:
        return len(self._values) + len(self._thunks)
