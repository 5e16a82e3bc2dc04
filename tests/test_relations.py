"""Relation algebra: the one closure, the incremental order over positions,
the rows a pair predicate gives it, and the naive oracle.  An item list is
numbered by list index: its order is over the positions, and its pairs are
named through the list."""

from __future__ import annotations

import random

from rdmacheck.relations import IncrementalOrder, forward_rows


def naive_closure(pairs):
    """Fixpoint oracle: iterate one-step extension until stable."""
    work = set(pairs)
    while True:
        new = {(a, d) for a, b in work for c, d in work if b == c} - work
        if not new:
            return work
        work |= new


def order(items, pairs) -> IncrementalOrder:
    """The sweep's closure of ``pairs``, which run forward along ``items``,
    over the items' positions."""
    pairs = frozenset(pairs)
    return IncrementalOrder(forward_rows(items, lambda a, b: (a, b) in pairs))


def closure(items, pairs) -> frozenset:
    return order(items, pairs).pairs(None, items)


def random_dag(rng, n):
    """(items in a topological order, pairs that run forward along it)."""
    items = list(range(n))
    rng.shuffle(items)
    pairs = {(items[i], items[j]) for i, j in
             (sorted(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 12)))
             } if n > 1 else set()
    return items, pairs


def test_empty():
    assert closure((), ()) == frozenset()
    assert order(["x"], ()).pairs() == frozenset()


def test_two_cycle():
    # Only add_edges can close a cycle, and it vetoes it.
    inc = order(["x", "y"], ())
    assert inc.add_edges([(0, 1)])
    assert not inc.add_edges([(1, 0)])
    assert not order(["x"], ()).add_edges([(0, 0)])


def test_three_chain():
    r = frozenset([(1, 2), (2, 3), (3, 4)])
    c = closure([1, 2, 3, 4], r)
    assert all(a != b for a, b in c)
    assert c == frozenset(naive_closure(r))
    assert len(c - r) == 3


def test_the_sweep_asks_only_forward_pairs():
    # The sweep takes direct rows; a predicate gives them pair by pair.
    asked = []
    rows = forward_rows("abcd", lambda a, b: asked.append((a, b)) or True)
    assert sorted(asked) == [(a, b) for i, a in enumerate("abcd") for b in "abcd"[i + 1:]]
    assert rows == [0b1110, 0b1100, 0b1000, 0]


def test_the_sweep_closes_direct_rows():
    # A chain and a fan whose bits the sweep skips once a row taken in
    # holds them.
    inc = IncrementalOrder([0b00110, 0b01000, 0b11000, 0b10000, 0])
    assert inc.rows == [0b11110, 0b11000, 0b11000, 0b10000, 0]


def test_matches_naive_oracle_on_random_relations():
    # Random acyclic relations, each listed along a shuffled topological
    # order, with items that no pair touches.
    rng = random.Random(20240817)
    for _ in range(300):
        items, pairs = random_dag(rng, rng.randint(0, 9))
        assert closure(items, pairs) == frozenset(naive_closure(pairs))


def test_incremental_order_detects_cycles():
    # Edges name items, numbered by their index in a shuffled list.
    rng = random.Random(7)
    # Cyclic relations, loops and two-cycles included, go through
    # add_edges, which vetoes exactly when the closure is reflexive.
    cyclic = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(1, 10))]
        items = rng.sample(range(n), n)
        inc = order(items, ())
        ok = inc.add_edges((items.index(a), items.index(b)) for a, b in edges)
        want = naive_closure(edges)
        assert ok == all(a != b for a, b in want)
        cyclic += not ok
        if ok:
            assert inc.pairs(None, items) == frozenset(want)
    assert cyclic > 50
    # a swept acyclic base, then edges added to a copy
    for _ in range(200):
        n = rng.randint(2, 9)
        items, base = random_dag(rng, n)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(1, 6))]
        inc = order(items, base)
        closed = frozenset(naive_closure(base))
        assert inc.pairs(None, items) == closed
        c = inc.copy()
        ok = c.add_edges([(items.index(a), items.index(b)) for a, b in edges])
        want = naive_closure(base | set(edges))
        assert ok == all(a != b for a, b in want)
        if ok:
            assert c.pairs(None, items) == frozenset(want)
        assert inc.pairs(None, items) == closed
        assert all(((i, j) in inc) == ((a, b) in closed)
                   and (not ok or ((i, j) in c) == ((a, b) in want))
                   for i, a in enumerate(items) for j, b in enumerate(items))


def test_absorb_matches_add_edges_of_the_pairs():
    # The receiver is a swept order; the other is an acyclic order over the
    # same positions, grown edge by edge along a shuffled topological
    # order.  Absorbing the other's rows from some of its positions gives
    # the rows and the veto of add_edges of those positions' pairs.
    rng = random.Random(15)
    vetoed = 0
    for _ in range(400):
        n = rng.randint(1, 9)
        items, base = random_dag(rng, n)
        recv = order(items, base)
        _perm, pairs = random_dag(rng, n)
        other = IncrementalOrder([0] * n)
        assert other.add_edges(pairs)
        sources = rng.sample(range(n), rng.randint(0, n))
        moved = {p for p in other.pairs() if p[0] in sources}
        assert other.pairs(sources) == moved
        ref, got = recv.copy(), recv.copy()
        ok = got.absorb(other, sources)
        assert ok == ref.add_edges(sorted(moved))
        named = {(items[i], items[j]) for i, j in moved}
        want = naive_closure(base | named)
        assert ok == all(a != b for a, b in want)
        vetoed += not ok
        if ok:
            assert got.rows == ref.rows
            assert got.pairs(None, items) == frozenset(want)
        assert recv.pairs(None, items) == frozenset(naive_closure(base))
    assert vetoed > 50


def test_absorb_alone_closes_a_cycle():
    # x, y, z at positions 0, 1, 2.
    recv = order("xyz", {("x", "y")})
    other = IncrementalOrder([0] * 3)
    assert other.add_edges([(2, 1), (1, 0)])
    assert recv.copy().absorb(other, [2])
    assert not recv.copy().absorb(other, [1])
    assert not recv.absorb(other, [2, 1])
