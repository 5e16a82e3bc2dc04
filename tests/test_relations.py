"""Relation algebra: closures, the incremental order, and the naive oracle."""

from __future__ import annotations

import random

from rdmacheck.relations import IncrementalOrder, Rel


def naive_closure(pairs):
    """Fixpoint oracle: iterate one-step extension until stable."""
    work = set(pairs)
    while True:
        new = {(a, d) for a, b in work for c, d in work if b == c} - work
        if not new:
            return work
        work |= new


def test_empty():
    c = Rel().transitive_closure()
    assert c.pairs == frozenset() and c.is_irreflexive()


def test_two_cycle():
    c = Rel([("x", "y"), ("y", "x")]).transitive_closure()
    assert ("x", "x") in c and not c.is_irreflexive()


def test_three_chain():
    r = Rel([(1, 2), (2, 3), (3, 4)])
    c = r.transitive_closure()
    assert c.is_irreflexive()
    assert c.pairs == frozenset(naive_closure(r.pairs))
    assert len(c.pairs - r.pairs) == 3


def test_matches_naive_oracle_on_random_relations():
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randint(0, 8)
        items = list(range(n))
        pairs = {(rng.choice(items), rng.choice(items))
                 for _ in range(rng.randint(0, 12))} if items else set()
        c = Rel(pairs).transitive_closure()
        want = naive_closure(pairs)
        assert c.pairs == frozenset(want)
        assert c.is_irreflexive() == all(a != b for a, b in want)


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
            assert inc.to_rel().pairs == frozenset(naive_closure(edges))
    # a closed acyclic base, then edges added to a copy, over items first
    # seen in the base, in the edges, or in neither
    for _ in range(200):
        n = rng.randint(2, 9)
        items = [("s", k) for k in range(n)]
        base = {(items[a], items[b]) for a, b in
                (sorted(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 8)))}
        edges = [(rng.choice(items), rng.choice(items))
                 for _ in range(rng.randint(1, 6))]
        inc = IncrementalOrder(Rel(base))
        closed = frozenset(naive_closure(base))
        assert inc.to_rel().pairs == closed
        c = inc.copy()
        ok = c.add_edges(edges)
        want = naive_closure(base | set(edges))
        assert ok == all(a != b for a, b in want)
        if ok:
            assert c.to_rel().pairs == frozenset(want)
            assert all((a, b) in c for a, b in want)
        assert inc.to_rel().pairs == closed
        assert all(((a, b) in inc) == ((a, b) in closed)
                   for a in items for b in items)
