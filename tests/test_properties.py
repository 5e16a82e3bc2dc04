"""Generated-input properties: the mo enumeration against the permutation
filter it replaced, the coherence search against the union-find rf search
it replaced, and derived program order against the po that the
cross-product sequential composition used to store."""

from __future__ import annotations

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdmacheck.events import Event, SubEvent
from rdmacheck.lang import Call, LetF, Val, interpret_conc, interpret_seq
from rdmacheck.libraries.base import coherence, enumerate_mo
from rdmacheck.stamps import ACAS, ACR, ACW, nLR, nRW, ppo_before


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
        yield frozenset(p for pairs in combo for p in pairs)


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


@settings(max_examples=300)
@given(mo_problems())
def test_enumerate_mo_is_the_permutation_filter_in_order(problem):
    groups, before = problem
    forbidden = {(b, a) for a, b in before}
    got = list(enumerate_mo(groups, lambda a, b: (a, b) in before))
    assert got == list(permutation_filter_mo(groups, forbidden))


# --- coherence against the union-find rf search ---------------------------


class Slots:
    """Union-find over value slots with attached constants: a contradiction
    (two different constants in one class) kills the branch."""

    def __init__(self):
        self.parent: dict = {}
        self.value: dict = {}

    def copy(self) -> "Slots":
        c = Slots()
        c.parent = dict(self.parent)
        c.value = dict(self.value)
        return c

    def find(self, x):
        while self.parent.get(x, x) != x:
            x = self.parent[x]
        return x

    def set_value(self, x, v) -> bool:
        r = self.find(x)
        if r in self.value:
            return self.value[r] == v
        self.value[r] = v
        return True

    def get_value(self, x):
        return self.value.get(self.find(x))

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return True
        vx, vy = self.value.get(rx), self.value.get(ry)
        if vx is not None and vy is not None and vx != vy:
            return False
        self.parent[rx] = ry
        if vx is not None:
            self.value[ry] = vx
        return True


def choose_rf(reads, candidates, fixed, eqs, init_of):
    """(rf map, slots) for each read's choice of a candidate write or the
    initial value (None), with slots ("R", s) / ("W", s) unified along rf
    and ``eqs``; branches that contradict ``fixed`` or leave a read
    valueless are dropped."""
    base = Slots()
    for k, v in fixed.items():
        if not base.set_value(k, v):
            return
    for a, b in eqs:
        if not base.union(a, b):
            return

    def step(i, slots, rf):
        if i == len(reads):
            if all(slots.get_value(("R", r)) is not None for r in reads):
                yield rf, slots
            return
        r = reads[i]
        rv = slots.get_value(("R", r))
        for w in candidates(r):
            wv = slots.get_value(("W", w))
            if rv is not None and wv is not None and rv != wv:
                continue
            s2 = slots.copy()
            if s2.union(("R", r), ("W", w)):
                yield from step(i + 1, s2, {**rf, r: w})
        iv = init_of(r)
        if rv is None or rv == iv:
            s2 = slots.copy()
            if s2.set_value(("R", r), iv):
                yield from step(i + 1, s2, {**rf, r: None})

    yield from step(0, base, {})


def rf_cycle(rfmap, carrier) -> bool:
    """Some read's value would come, through rf and carried writes, from
    itself.  The union-find keeps such a map when a pinned read hangs off
    the cycle; it always puts an rf/iso cycle into so."""
    for r in rfmap:
        seen = set()
        while r not in seen:
            seen.add(r)
            w = rfmap[r]
            if w is None or w not in carrier:
                break
            r = carrier[w]
        else:
            return True
    return False


def union_find_coherence(reads, writes, place, read_value, write_value,
                         carrier, init_of):
    """``choose_rf`` with the acyclic maps kept, then every mo of each and
    the rb it induces."""
    by_place: dict = {}
    for w in writes:
        by_place.setdefault(place[w], []).append(w)
    groups = [by_place[p] for p in sorted(by_place, key=repr)]
    fixed = {**{("R", r): v for r, v in read_value.items()},
             **{("W", w): v for w, v in write_value.items()}}
    eqs = [(("R", r), ("W", w)) for w, r in carrier.items()]
    for rfmap, slots in choose_rf(reads, lambda r: by_place.get(place[r], ()),
                                  fixed, eqs, lambda r: init_of(place[r])):
        if rf_cycle(rfmap, carrier):
            continue
        rf = frozenset((w, r) for r, w in rfmap.items() if w is not None)
        vR = {r: slots.get_value(("R", r)) for r in reads}
        vW = {w: slots.get_value(("W", w)) for w in writes}
        for mo in enumerate_mo(groups, ppo_before):
            rb = frozenset((r, w) for r in reads for w in by_place.get(place[r], ())
                           if w != r and (rfmap[r] is None or (rfmap[r], w) in mo))
            yield rf, mo, rb, vR, vW


VALUES = st.integers(0, 2)
PLACES = st.integers(0, 2)


@st.composite
def coherence_problems(draw):
    """Subevents of up to six events on two threads over up to three
    places: pinned CPU reads, label-fixed CPU writes, CASes that read and
    write one place, and NIC (read part, carried write part) pairs whose
    parts may share a place, so rf cycles arise."""
    reads, writes = [], []
    place, read_value, write_value, carrier = {}, {}, {}, {}
    eids = {1: 0, 2: 0}
    for kind in draw(st.lists(st.sampled_from(["read", "write", "cas", "nic"]),
                              max_size=6)):
        tid = draw(st.sampled_from([1, 2]))
        e = Event(tid, eids[tid], kind, (), 0)
        eids[tid] += 1
        if kind == "nic":
            r, w = SubEvent(e, nLR(1)), SubEvent(e, nRW(1))
            place[r], place[w] = draw(PLACES), draw(PLACES)
            reads.append(r)
            writes.append(w)
            carrier[w] = r
            continue
        s = SubEvent(e, {"read": ACR, "write": ACW, "cas": ACAS}[kind])
        place[s] = draw(PLACES)
        if kind in ("read", "cas"):
            reads.append(s)
            read_value[s] = draw(VALUES)
        if kind in ("write", "cas"):
            writes.append(s)
            write_value[s] = draw(VALUES)
    init = draw(st.lists(VALUES, min_size=3, max_size=3))
    return reads, writes, place, read_value, write_value, carrier, init.__getitem__


@settings(max_examples=300)
@given(coherence_problems())
def test_coherence_is_the_union_find_search_in_order(problem):
    got = [(rf, mo, rb, vR, vW) for rf, mo, rb, vR, vW, _ in coherence(*problem)]
    assert got == list(union_find_coherence(*problem))


# --- derived po against the stored cross-product po ------------------------

DOM = (0, 1)
MAX_EVENTS = 4


def cross_product_seq(g1, g2):
    """Sequential composition as po used to be stored: both po sets plus
    every event of g1 before every event of g2."""
    (ev1, po1), (ev2, po2) = g1, g2
    assert not ev1 & ev2
    return ev1 | ev2, po1 | po2 | {(a, b) for a in ev1 for b in ev2}


EMPTY = (frozenset(), frozenset())


def stored_po_unfoldings(p, eid, truncated):
    """(value, (events, po), next eid) for each unfolding of ``p`` on
    thread 1, under the interpreter's event cap, with po built by
    ``cross_product_seq``.  ``truncated[0]`` is set where an unfolding is
    dropped: a let over the event cap."""
    if isinstance(p, Val):
        yield p.value, EMPTY, eid
    elif isinstance(p, Call):
        for v in DOM:
            e = Event(1, eid, p.method, p.args, v)
            yield v, (frozenset([e]), frozenset()), eid + 1
    else:
        for v1, g1, n1 in stored_po_unfoldings(p.prog, eid, truncated):
            for v2, g2, n2 in stored_po_unfoldings(p.cont(v1), n1, truncated):
                g = cross_product_seq(g1, g2)
                if len(g[0]) <= MAX_EVENTS:
                    yield v2, g, n2
                else:
                    truncated[0] = True


def _let(prog, conts):
    return LetF(prog, lambda v: conts[v % len(conts)])


leaves = st.one_of(st.builds(Val, st.sampled_from(DOM)),
                   st.builds(Call, st.sampled_from("abc"), st.just(())))
programs = st.recursive(
    leaves,
    lambda kids: st.builds(_let, kids, st.lists(kids, min_size=1, max_size=2)),
    max_leaves=8)


def _calls(names, conts):
    """Calls of ``names`` in sequence, the last one's output picking from
    ``conts``."""
    p = _let(Call(names[-1], ()), conts)
    for name in reversed(names[:-1]):
        p = _let(Call(name, ()), [p])
    return p


# Five calls overrun the event cap; so do a let's first two calls and
# its continuation's three.
@example(_calls("abcab", [Val(0)]))
@example(_let(_calls("ab", [Val(0)]), [_calls("abc", [Val(0)])]))
@settings(max_examples=300)
@given(programs)
def test_derived_po_is_the_cross_product_po(p):
    truncated = [False]
    stored = {(v, g[0]): g[1] for v, g, _n in stored_po_unfoldings(p, 0, truncated)}
    r = interpret_seq(p, 1, DOM, max_events=MAX_EVENTS)
    assert {(v, frozenset(g.events)) for v, g in r.results} == set(stored)
    for v, g in r.results:
        assert g.po == stored[(v, frozenset(g.events))]
    assert r.truncated == truncated[0]


def union_products(progs):
    """Products of the threads' unfoldings composed as event sets used to
    be: (output values, union of the event sets, union of the po sets), in
    lexicographic order, dropping those over the event cap."""
    per_thread = [list(interpret_seq(p, tid, DOM, max_events=MAX_EVENTS).results)
                  for tid, p in enumerate(progs, 1)]
    for combo in itertools.product(*per_thread):
        events = frozenset().union(*(frozenset(g.events) for _v, g in combo))
        if len(events) <= MAX_EVENTS:
            yield (tuple(v for v, _g in combo), events,
                   frozenset().union(*(g.po for _v, g in combo)))


@settings(max_examples=200)
@given(st.lists(programs, min_size=2, max_size=2))
def test_concurrent_products_are_the_union_composition(progs):
    got = interpret_conc(progs, DOM, max_events=MAX_EVENTS).results
    for _vals, g in got:
        g.validate()
    assert [(vals, frozenset(g.events), g.po) for vals, g in got] == \
        list(union_products(progs))
