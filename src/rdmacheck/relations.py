"""Relations and their one transitive closure.

A relation is a ``frozenset`` of pairs; the carrier is whatever hashable
items appear in them, and set operations and comprehensions are the
algebra.  ``IncrementalOrder`` is the only closure: it closes a relation
that runs forward along a list of items in one backward sweep, and then
grows it edge by edge with a cycle veto.  The checker grows
happens-before, (ppo ∪ so)+, from ppo in one; ``RdmaLib`` grows
issued-before from its fixed per-execution part, one coherence and NIC
flush choice at a time; ``lambda_consistent`` adds so to ppo and rejects
a cycle.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence

Pair = tuple[Hashable, Hashable]


class IncrementalOrder:
    """Grow-only transitive relation with a cycle veto, over bitset rows.

    ``IncrementalOrder(items, before)`` is the closure of ``before`` over
    ``items``, where ``before(a, b)`` may hold only when ``a`` is listed
    before ``b``; pairs the other way are never asked for, so the base is
    acyclic.  Row i is an int whose bit j is set when item j follows item
    i.  One backward sweep closes the base: row i is the OR, over every
    later j with ``before(items[i], items[j])``, of bit j and row j, which
    is already closed.

    Any addition that would close a cycle fails fast: `add_edges` returns
    False (and rolls back nothing: copy before speculative use) when a
    cycle would appear.  Adding an edge a -> b ORs b's row (plus b) into a
    and every row that has a's bit, one bit test per row.  Edges relate
    listed items only.  Copies share the numbering and own their rows.
    """

    __slots__ = ("index", "items", "rows")

    def __init__(self, items: Sequence, before: Callable[[Hashable, Hashable], bool]):
        items = self.items = list(items)
        self.index = {x: i for i, x in enumerate(items)}
        rows = self.rows = [0] * len(items)
        for i in range(len(items) - 2, -1, -1):
            a, r = items[i], 0
            for j, b in enumerate(items[i + 1:], i + 1):
                if before(a, b):
                    r |= 1 << j | rows[j]
            rows[i] = r

    def copy(self) -> "IncrementalOrder":
        c = IncrementalOrder.__new__(IncrementalOrder)
        c.index, c.items, c.rows = self.index, self.items, list(self.rows)
        return c

    def __contains__(self, pair: Pair) -> bool:
        i, j = self.index.get(pair[0]), self.index.get(pair[1])
        return i is not None and j is not None and self.rows[i] >> j & 1 == 1

    def add_edges(self, edges: Iterable[Pair]) -> bool:
        index, rows = self.index, self.rows
        for a, b in edges:
            i, j = index[a], index[b]
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
