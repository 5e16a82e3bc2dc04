"""Small finite-relation algebra: set operations, filters, closures.

Everything the consistency oracles need over subevent pairs; carrier sets
are whatever hashable items appear in the pairs.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

Pair = tuple[Hashable, Hashable]


class Rel:
    """An immutable finite binary relation."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[Pair] = ()):
        self.pairs = frozenset(pairs)

    def __repr__(self):
        return f"Rel({sorted(map(repr, self.pairs))})"

    def __eq__(self, other):
        return isinstance(other, Rel) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.pairs

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __or__(self, other: "Rel") -> "Rel":
        return Rel(self.pairs | other.pairs)

    def __sub__(self, other: "Rel") -> "Rel":
        return Rel(self.pairs - other.pairs)

    def filter(self, pred: Callable[[Hashable, Hashable], bool]) -> "Rel":
        return Rel((a, b) for a, b in self.pairs if pred(a, b))

    def transitive_closure(self) -> "Rel":
        succ: dict = {}
        for a, b in self.pairs:
            succ.setdefault(a, set()).add(b)
        out = set(self.pairs)
        # Per-source DFS; relations here are tiny (tens of elements).
        for src in list(succ):
            seen: set = set()
            stack = list(succ.get(src, ()))
            while stack:
                n = stack.pop()
                if n in seen:
                    continue
                seen.add(n)
                stack.extend(succ.get(n, ()))
            out.update((src, n) for n in seen)
        return Rel(out)

    def is_irreflexive(self) -> bool:
        return all(a != b for a, b in self.pairs)


class IncrementalOrder:
    """Grow-only transitive relation with a cycle veto, over bitset rows.

    Used by the witness search: so edges accumulate across libraries, and
    any addition that would close a cycle with the fixed ppo base must fail
    fast.  `add_edges` returns False (and rolls back nothing: copy before
    speculative use) when a cycle would appear.

    Items are numbered on first sight; row i is an int whose bit j is set
    when item j follows item i.  The base is closed once by bitset
    Warshall, O(n^2) row ORs for n items.  Adding an edge a -> b ORs b's
    row (plus b) into a and every row that has a's bit, one bit test per
    row.  Copies share the numbering, which only grows, and own their rows;
    a row or bit past the end of a copy's rows is empty.
    """

    __slots__ = ("index", "items", "rows")

    def __init__(self, base: Rel | None = None):
        self.index: dict = {}
        self.items: list = []
        self.rows: list[int] = []
        if base is not None:
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

    def to_rel(self) -> Rel:
        items = self.items
        pairs = []
        for i, r in enumerate(self.rows):
            while r:
                low = r & -r
                pairs.append((items[i], items[low.bit_length() - 1]))
                r ^= low
        return Rel(pairs)
