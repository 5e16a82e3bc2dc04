"""Relation algebra: the one closure, the incremental order, the rows a
pair predicate gives it, and the naive oracle."""

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
    """The sweep's closure of ``pairs``, which run forward along ``items``."""
    pairs = frozenset(pairs)
    return IncrementalOrder(items, forward_rows(items, lambda a, b: (a, b) in pairs))


def closure(items, pairs) -> frozenset:
    return order(items, pairs).pairs()


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
    assert inc.add_edges([("x", "y")])
    assert not inc.add_edges([("y", "x")])
    assert not order(["x"], ()).add_edges([("x", "x")])


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
    inc = IncrementalOrder(range(5), [0b00110, 0b01000, 0b11000, 0b10000, 0])
    assert inc.rows == [0b11110, 0b11000, 0b11000, 0b10000, 0]


def test_matches_naive_oracle_on_random_relations():
    # Random acyclic relations, each listed along a shuffled topological
    # order, with items that no pair touches.
    rng = random.Random(20240817)
    for _ in range(300):
        items, pairs = random_dag(rng, rng.randint(0, 9))
        assert closure(items, pairs) == frozenset(naive_closure(pairs))


def test_incremental_order_detects_cycles():
    # Each edge list also grows the same order over positions, which
    # indexes its rows directly: it gives the rows, vetoes and membership
    # of the order over named items.
    rng = random.Random(7)
    # Cyclic relations, loops and two-cycles included, go through
    # add_edges, which vetoes exactly when the closure is reflexive.
    cyclic = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(1, 10))]
        inc = order(rng.sample(range(n), n), ())
        pos = IncrementalOrder(range(n), [0] * n)
        ok = inc.add_edges(edges)
        assert pos.add_edges((inc.index[a], inc.index[b]) for a, b in edges) == ok
        assert pos.rows == inc.rows
        want = naive_closure(edges)
        assert ok == all(a != b for a, b in want)
        cyclic += not ok
        if ok:
            assert inc.pairs() == frozenset(want)
    assert cyclic > 50
    # a swept acyclic base, then edges added to a copy
    for _ in range(200):
        n = rng.randint(2, 9)
        items, base = random_dag(rng, n)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(1, 6))]
        inc = order(items, base)
        pos = IncrementalOrder(range(n), forward_rows(
            range(n), lambda i, j: (items[i], items[j]) in base))
        assert pos.rows == inc.rows
        closed = frozenset(naive_closure(base))
        assert inc.pairs() == closed
        c, cp = inc.copy(), pos.copy()
        ok = c.add_edges(edges)
        assert cp.add_edges([(items.index(a), items.index(b)) for a, b in edges]) == ok
        assert cp.rows == c.rows
        want = naive_closure(base | set(edges))
        assert ok == all(a != b for a, b in want)
        if ok:
            assert c.pairs() == frozenset(want)
            assert all((a, b) in c for a, b in want)
        assert inc.pairs() == closed
        assert all(((a, b) in inc) == ((a, b) in closed) == ((i, j) in pos)
                   and ((a, b) in c) == ((i, j) in cp)
                   for i, a in enumerate(items) for j, b in enumerate(items))


def test_absorb_matches_add_edges_of_the_pairs():
    # The receiver is a swept order; the other is an acyclic order over a
    # shuffled sub-list of its items, numbered apart.  Absorbing the other's
    # rows from some of its items gives the rows and the veto of add_edges
    # of those items' pairs.
    rng = random.Random(15)
    vetoed = 0
    for _ in range(400):
        n = rng.randint(1, 9)
        items, base = random_dag(rng, n)
        recv = order(items, base)
        sub = rng.sample(items, rng.randint(1, n))
        perm, pairs = random_dag(rng, len(sub))
        pairs = {(sub[a], sub[b]) for a, b in pairs}
        other = order([sub[i] for i in perm], pairs)
        sources = rng.sample(range(len(sub)), rng.randint(0, len(sub)))
        moved = {p for p in other.pairs() if p[0] in {other.items[s] for s in sources}}
        assert other.pairs(sources) == moved
        ref, got = recv.copy(), recv.copy()
        ok = got.absorb(other, sources)
        assert ok == ref.add_edges(sorted(moved))
        want = naive_closure(base | moved)
        assert ok == all(a != b for a, b in want)
        vetoed += not ok
        if ok:
            assert got.rows == ref.rows
            assert got.pairs() == frozenset(want)
        assert recv.pairs() == frozenset(naive_closure(base))
    assert vetoed > 50


def test_absorb_alone_closes_a_cycle():
    recv = order("xyz", {("x", "y")})
    other = order("zyx", {("z", "y"), ("y", "x")})
    assert recv.copy().absorb(other, [0])
    assert not recv.copy().absorb(other, [1])
    assert not recv.absorb(other, [0, 1])
