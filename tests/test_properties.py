"""Generated-input properties: the mo enumeration against the permutation
filter it replaced, and derived program order against the po that the
cross-product sequential composition used to store."""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from rdmacheck.events import Event
from rdmacheck.lang import Break, Call, LetF, Loop, Output, Val, interpret_seq
from rdmacheck.libraries.base import enumerate_mo
from rdmacheck.relations import Rel


def permutation_filter_mo(groups, forbidden):
    """Every permutation of each group, minus those placing a before b for
    a forbidden (a, b); one relation per combination of groups."""
    per_group = []
    for g in groups:
        orders = []
        for perm in itertools.permutations(g):
            pairs = [(perm[i], perm[j]) for i in range(len(perm))
                     for j in range(i + 1, len(perm))]
            if any(p in forbidden for p in pairs):
                continue
            orders.append(pairs)
        per_group.append(orders)
    for combo in itertools.product(*per_group):
        yield Rel(p for pairs in combo for p in pairs)


@st.composite
def mo_problems(draw):
    sizes = draw(st.lists(st.integers(0, 4), max_size=3))
    n = sum(sizes)
    labels = draw(st.permutations(range(n)))
    groups, k = [], 0
    for size in sizes:
        groups.append(labels[k:k + size])
        k += size
    if not n:
        return groups, set()
    item = st.sampled_from(labels)
    return groups, draw(st.sets(st.tuples(item, item), max_size=12))


@settings(max_examples=300, deadline=None)
@given(mo_problems())
def test_enumerate_mo_is_the_permutation_filter_in_order(problem):
    groups, before = problem
    forbidden = {(b, a) for a, b in before}
    got = list(enumerate_mo(groups, lambda a, b: (a, b) in before))
    assert got == list(permutation_filter_mo(groups, forbidden))


# --- derived po against the stored cross-product po ------------------------

DOM = (0, 1)
LOOP_BOUND = 2
MAX_EVENTS = 4


def cross_product_seq(g1, g2):
    """Sequential composition as po used to be stored: both po sets plus
    every event of g1 before every event of g2."""
    (ev1, po1), (ev2, po2) = g1, g2
    assert not ev1 & ev2
    return ev1 | ev2, po1 | po2 | {(a, b) for a in ev1 for b in ev2}


EMPTY = (frozenset(), frozenset())


def stored_po_unfoldings(p, eid):
    """(output, (events, po), next eid) for each unfolding of ``p`` on
    thread 1, under the interpreter's bounds, with po built by
    ``cross_product_seq``."""
    if isinstance(p, Val):
        yield Output(p.value, 0), EMPTY, eid
    elif isinstance(p, Break):
        yield Output(p.value, p.depth), EMPTY, eid
    elif isinstance(p, Call):
        for v in DOM:
            e = Event(1, eid, p.method, p.args, v)
            yield Output(v, 0), (frozenset([e]), frozenset()), eid + 1
    elif isinstance(p, LetF):
        for o1, g1, n1 in stored_po_unfoldings(p.prog, eid):
            if o1.brk:
                yield o1, g1, n1
                continue
            for o2, g2, n2 in stored_po_unfoldings(p.cont(o1.value), n1):
                g = cross_product_seq(g1, g2)
                if len(g[0]) <= MAX_EVENTS:
                    yield o2, g, n2
    else:
        yield from stored_po_loop(p.body, eid, EMPTY, 0)


def stored_po_loop(body, eid, prefix, done):
    if done >= LOOP_BOUND:
        return
    for o, g, n in stored_po_unfoldings(body, eid):
        ga = cross_product_seq(prefix, g)
        if len(ga[0]) > MAX_EVENTS:
            continue
        if o.brk:
            yield Output(o.value, o.brk - 1), ga, n
        else:
            yield from stored_po_loop(body, n, ga, done + 1)


def _let(prog, conts):
    return LetF(prog, lambda v: conts[v % len(conts)])


leaves = st.one_of(st.builds(Val, st.sampled_from(DOM)),
                   st.builds(Call, st.sampled_from("abc"), st.just(())),
                   st.builds(Break, st.integers(1, 2), st.sampled_from(DOM)))
programs = st.recursive(
    leaves,
    lambda kids: st.one_of(st.builds(Loop, kids),
                           st.builds(_let, kids, st.lists(kids, min_size=1, max_size=2))),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(programs)
def test_derived_po_is_the_cross_product_po(p):
    stored = {(o, g[0]): g[1] for o, g, _n in stored_po_unfoldings(p, 0)}
    got = interpret_seq(p, 1, LOOP_BOUND, DOM, max_events=MAX_EVENTS).results
    assert {(o, g.events) for o, g in got} == set(stored)
    for o, g in got:
        assert g.po == stored[(o, g.events)]
