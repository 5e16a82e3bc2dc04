"""Relation algebra: the one closure, the incremental order, and the naive
oracle."""

from __future__ import annotations

import random

from rdmacheck.relations import IncrementalOrder


def naive_closure(pairs):
    """Fixpoint oracle: iterate one-step extension until stable."""
    work = set(pairs)
    while True:
        new = {(a, d) for a, b in work for c, d in work if b == c} - work
        if not new:
            return work
        work |= new


def closure(pairs) -> frozenset:
    return IncrementalOrder(pairs).pairs()


def test_empty():
    assert closure(()) == frozenset()


def test_two_cycle():
    # A cyclic base is closed, not vetoed: every item on the cycle gets
    # its reflexive pair.
    c = closure([("x", "y"), ("y", "x")])
    assert c == {("x", "y"), ("y", "x"), ("x", "x"), ("y", "y")}


def test_three_chain():
    r = frozenset([(1, 2), (2, 3), (3, 4)])
    c = closure(r)
    assert all(a != b for a, b in c)
    assert c == frozenset(naive_closure(r))
    assert len(c - r) == 3


def test_a_cycle_off_a_chain_makes_only_its_own_items_reflexive():
    c = closure([(0, 1), (1, 2), (2, 1), (2, 3)])
    assert c == frozenset(naive_closure([(0, 1), (1, 2), (2, 1), (2, 3)]))
    assert {a for a, b in c if a == b} == {1, 2}


def test_matches_naive_oracle_on_random_relations():
    # Random bases, cyclic ones included: loops, two-cycles and longer.
    rng = random.Random(20240817)
    cyclic = 0
    for _ in range(300):
        n = rng.randint(0, 8)
        items = list(range(n))
        pairs = {(rng.choice(items), rng.choice(items))
                 for _ in range(rng.randint(0, 12))} if items else set()
        c = closure(pairs)
        want = naive_closure(pairs)
        assert c == frozenset(want)
        cyclic += any(a == b for a, b in want)
    assert cyclic > 50


def test_incremental_order_detects_cycles():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 7)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(1, 10))]
        inc = IncrementalOrder()
        ok = inc.add_edges(edges)
        want = all(a != b for a, b in naive_closure(edges))
        assert ok == want
        if ok:
            assert inc.pairs() == frozenset(naive_closure(edges))
    # a closed acyclic base, then edges added to a copy, over items first
    # seen in the base, in the edges, or in neither
    for _ in range(200):
        n = rng.randint(2, 9)
        items = [("s", k) for k in range(n)]
        base = {(items[a], items[b]) for a, b in
                (sorted(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 8)))}
        edges = [(rng.choice(items), rng.choice(items))
                 for _ in range(rng.randint(1, 6))]
        inc = IncrementalOrder(base)
        closed = frozenset(naive_closure(base))
        assert inc.pairs() == closed
        c = inc.copy()
        ok = c.add_edges(edges)
        want = naive_closure(base | set(edges))
        assert ok == all(a != b for a, b in want)
        if ok:
            assert c.pairs() == frozenset(want)
            assert all((a, b) in c for a, b in want)
        assert inc.pairs() == closed
        assert all(((a, b) in inc) == ((a, b) in closed)
                   for a in items for b in items)
