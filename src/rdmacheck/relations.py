"""Relations and their one transitive closure.

A relation is a ``frozenset`` of pairs; the carrier is whatever hashable
items appear in them, and set operations and comprehensions are the
algebra.  ``IncrementalOrder`` is the only closure: it closes a relation
that runs forward along a list of items, given as each item's row of
direct successors, in one backward sweep, and then grows it edge by edge,
or by the rows of another order, with a cycle veto.  On the checker's
path the items are positions: ``range(n)`` over the subevent list of an
execution shape (`libraries.base.Numbering`), whose direct rows ppo and
ib's fixed part read off stamp tables by position (`stamps.ppo_rows`).
Every order grown from them (the libraries' pruning orders, ib per
choice, hb) shares that numbering, so hb absorbs ib's rows as they are,
and a position indexes its row directly: edges and membership look
nothing up.
A caller with a pair predicate builds the direct rows with
`forward_rows`.  An order becomes a pair set only when something reads
its pairs, named by the subevents of the execution that reads them: ib,
``inst_ib``, so and hb are built for a dump or a test, never on the
checker's path.  ``lambda_consistent`` adds so to ppo over the subevents
themselves and rejects a cycle.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, Hashable, Iterable, Sequence

Pair = tuple[Hashable, Hashable]


class IncrementalOrder:
    """Grow-only transitive relation with a cycle veto, over bitset rows.

    ``IncrementalOrder(items, direct)`` is the closure of the relation
    whose row i, ``direct[i]``, has bit j set for each item j that directly
    follows item i; only later items may, so the base is acyclic.  Row i
    is an int whose bit j is set when item j follows item i.  One backward
    sweep closes the base: row i is the OR, over the bits j of
    ``direct[i]``, of bit j and row j, which is already closed; a bit that
    an earlier row taken in already holds adds nothing and is skipped.
    Edges and membership name the items themselves, and `pairs` names them
    by the items or by given names: ppo is closed over ``range(n)``, the
    positions of an execution's subevents.  Over ``range(n)`` an item is
    its own row's index, so edges and membership index the rows directly;
    only an order over other items looks them up in ``index``.

    Any addition that would close a cycle fails fast: `add_edges` and
    `absorb` return False (and roll back nothing: copy before speculative
    use) when a cycle would appear.  Adding an edge a -> b ORs b's row
    (plus b) into a and every row that has a's bit, one bit test per row.
    Edges relate listed items only.  Copies share the items and own their
    rows.
    """

    __slots__ = ("index", "items", "rows")

    def __init__(self, items: Sequence, direct: Sequence[int]):
        if isinstance(items, range):
            self.items, self.index = items, None
        else:
            items = self.items = list(items)
            self.index = {x: i for i, x in enumerate(items)}
        rows = self.rows = [0] * len(items)
        for i in range(len(items) - 2, -1, -1):
            todo, r = direct[i], 0
            while todo:
                low = todo & -todo
                r |= low | rows[low.bit_length() - 1]
                todo &= ~r
            rows[i] = r

    def copy(self) -> "IncrementalOrder":
        c = IncrementalOrder.__new__(IncrementalOrder)
        c.index, c.items, c.rows = self.index, self.items, list(self.rows)
        return c

    def __contains__(self, pair: Pair) -> bool:
        if self.index is None:
            i, j = pair
            return self.rows[i] >> j & 1 == 1
        i, j = self.index.get(pair[0]), self.index.get(pair[1])
        return i is not None and j is not None and self.rows[i] >> j & 1 == 1

    def add_edges(self, edges: Iterable[Pair]) -> bool:
        index, rows = self.index, self.rows
        if index is not None:
            edges = ((index[a], index[b]) for a, b in edges)
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
        """Add every pair (a, b) of ``other`` whose a is the item at index s
        for an s in ``sources``, with `add_edges`'s veto.  ``other``'s items
        must be items here too, in any order.  Row by row, with no pair
        list: each source's row is carried into this numbering (as it is
        when both have the same items, as the orders over one shape's
        positions do), the bits already present are dropped, and the rest,
        with their rows, are ORed into the source's row and every row that
        has its bit."""
        rows = self.rows
        to = None if other.items == self.items else [self.index[x] for x in other.items]
        for s in sources:
            r = other.rows[s]
            if to is None:
                i, new = s, r
            else:
                i, new = to[s], 0
                while r:
                    low = r & -r
                    new |= 1 << to[low.bit_length() - 1]
                    r ^= low
            new &= ~rows[i]
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
        """The pairs, or only those from the items at the indices
        ``sources``, each item called by its ``names`` entry (the item
        itself by default)."""
        names = self.items if names is None else names
        rows = self.rows
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
