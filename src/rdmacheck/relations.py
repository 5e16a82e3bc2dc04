"""Relations and their one transitive closure.

A relation is a ``frozenset`` of pairs; the carrier is whatever hashable
items appear in them, and set operations and comprehensions are the
algebra.  ``IncrementalOrder`` is the only closure: it closes a base
once and then grows it edge by edge with a cycle veto.  The checker
grows happens-before, (ppo ∪ so)+, in one; ``RdmaLib`` grows
issued-before from its fixed per-execution part, one coherence and NIC
flush choice at a time; ``lambda_consistent`` closes ppo ∪ so in one and
rejects a reflexive pair.
"""

from __future__ import annotations

from typing import Hashable, Iterable

Pair = tuple[Hashable, Hashable]


class IncrementalOrder:
    """Grow-only transitive relation with a cycle veto, over bitset rows.

    Any addition that would close a cycle fails fast: `add_edges` returns
    False (and rolls back nothing: copy before speculative use) when a
    cycle would appear.  The base is not vetoed: a cyclic base gets a
    self pair on every item of a cycle.

    Items are numbered on first sight; row i is an int whose bit j is set
    when item j follows item i.  The base is closed once by bitset
    Warshall, O(n^2) row ORs for n items.  Adding an edge a -> b ORs b's
    row (plus b) into a and every row that has a's bit, one bit test per
    row.  Copies share the numbering, which only grows, and own their rows;
    a row or bit past the end of a copy's rows is empty.
    """

    __slots__ = ("index", "items", "rows")

    def __init__(self, base: Iterable[Pair] = ()):
        self.index: dict = {}
        self.items: list = []
        self.rows: list[int] = []
        for a, b in base:
            i, j = self._id(a), self._id(b)
            self.rows[i] |= 1 << j
        rows = self.rows
        for k in range(len(rows)):
            rk, bit = rows[k], 1 << k
            if rk:
                for i, ri in enumerate(rows):
                    if ri & bit:
                        rows[i] = ri | rk

    def _id(self, item) -> int:
        i = self.index.get(item)
        if i is None:
            i = self.index[item] = len(self.items)
            self.items.append(item)
        rows = self.rows
        if len(rows) < len(self.items):
            rows.extend([0] * (len(self.items) - len(rows)))
        return i

    def copy(self) -> "IncrementalOrder":
        c = IncrementalOrder.__new__(IncrementalOrder)
        c.index, c.items, c.rows = self.index, self.items, list(self.rows)
        return c

    def __contains__(self, pair: Pair) -> bool:
        i, j = self.index.get(pair[0]), self.index.get(pair[1])
        return (i is not None and j is not None and i < len(self.rows)
                and self.rows[i] >> j & 1 == 1)

    def add_edges(self, edges: Iterable[Pair]) -> bool:
        rows = self.rows
        for a, b in edges:
            i, j = self._id(a), self._id(b)
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

    def pairs(self) -> frozenset:
        items = self.items
        pairs = []
        for i, r in enumerate(self.rows):
            while r:
                low = r & -r
                pairs.append((items[i], items[low.bit_length() - 1]))
                r ^= low
        return frozenset(pairs)
