"""Generated-input properties: the mo enumeration against the permutation
filter it replaced, the coherence search against the union-find rf search
it replaced, derived program order against the po that the cross-product
sequential composition used to store, and, on generated stamped
executions, ppo and ib's fixed part read off stamp masks against the
pairwise sweeps they replaced."""

from __future__ import annotations

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_rdma_ib import coherence, internal_rf, whole_position_ib
from test_relations import naive_closure
from rdmacheck.checker import ppo_order
from rdmacheck.config import NodeConfig
from rdmacheck.events import Event, PlainExecution, SubEvent, subevent_list
from rdmacheck.lang import Call, LetF, Val, interpret_conc, interpret_seq
from rdmacheck.libraries import RdmaWaitLib
from rdmacheck.libraries.base import Coherence, Numbering, _mo_choices, rows_of
from rdmacheck.relations import IncrementalOrder, forward_rows
from rdmacheck.stamps import (ACAS, ACR, ACW, AMF, AWT, GF, KINDS, derive_ppo, nF,
                              nLR, nLW, nRR, nRW, ppo_before)
from rdmacheck.values import UNIT


def enumerate_mo(groups, before):
    """Total orders per write group, as one relation per combination: the
    product of each group's linear extensions under ``before`` (a, b: a
    must precede b), in order."""
    for combo in itertools.product(*_mo_choices(groups, before)):
        yield frozenset((o[i], o[j]) for o in combo
                        for i in range(len(o)) for j in range(i + 1, len(o)))


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
    got = []
    for rf, mo, rb, vR, vW, _by_place, order in coherence(*problem):
        assert order is None
        got.append((rf, mo, rb, vR, vW))
    assert got == list(union_find_coherence(*problem))


def positional(problem):
    """(subevents, their positions, `Coherence` over the positions) of a
    coherence problem, with mo extended under ``ppo_before``."""
    reads, writes, place, _read_value, write_value, carrier, _init_of = problem
    subs = sorted({*reads, *writes}, key=lambda s: (s.tid, s.event.eid, repr(s.stamp)))
    at = {s: i for i, s in enumerate(subs)}
    return subs, at, Coherence([at[r] for r in reads], [at[w] for w in writes],
                               {at[s]: p for s, p in place.items()},
                               {at[w]: v for w, v in write_value.items()},
                               {at[w]: at[r] for w, r in carrier.items()},
                               lambda w, r: internal_rf(subs[w], subs[r]),
                               lambda a, b: ppo_before(subs[a], subs[b]))


@settings(max_examples=300)
@given(coherence_problems(), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                                      max_size=3))
def test_a_pruned_coherence_search_keeps_what_its_order_allows_in_order(problem, extra):
    """Over positions, with an order (ppo and a few drawn pairs), the
    search yields exactly the unpruned choices whose external rf, mo and
    rb keep that order acyclic, in their order, each with the order
    grown by all of them: covering pairs close to the same order."""
    _reads, _writes, _place, read_value, _write_value, _carrier, init_of = problem
    subs, at, search = positional(problem)
    order = IncrementalOrder(forward_rows(subs, ppo_before))
    if not order.add_edges((a, b) for a, b in extra if a < len(subs) and b < len(subs)):
        return
    rows = list(order.rows)
    pins = {at[r]: {v: 1} for r, v in read_value.items()}
    want = []
    for rf, mo, rb, vR, vW, _by_place, none, _rows in search.search(pins, init_of):
        assert none is None
        grown = order.copy()
        external = [(w, r) for w, r in rf if not internal_rf(subs[w], subs[r])]
        if grown.add_edges([*external, *mo, *rb]):
            want.append((rf, mo, rb, vR, vW, grown.rows))
    got = [(rf, mo, rb, vR, vW, o.rows)
           for rf, mo, rb, vR, vW, _by_place, o, _rows in search.search(pins, init_of, order)]
    assert got == want
    assert order.rows == rows


@st.composite
def multi_row_problems(draw):
    """A coherence problem, one to four rows, each pinning its own value
    on every pinned read and on some NIC read parts, so that a value may
    be passed on to a pinned read, the live rows and whether ppo prunes."""
    problem = draw(coherence_problems())
    nic = sorted(problem[5].values(), key=repr)
    pinned = [*problem[3], *(draw(st.lists(st.sampled_from(nic), unique=True)) if nic else ())]
    rows = draw(st.lists(st.fixed_dictionaries({r: VALUES for r in pinned}),
                         min_size=1, max_size=4))
    return problem, rows, draw(st.integers(1, 2 ** len(rows) - 1)), draw(st.booleans())


@settings(max_examples=300)
@given(multi_row_problems())
def test_a_multi_row_coherence_search_is_each_rows_search_in_order(case):
    """One search for many rows, each read's pins as row masks, yields,
    expanded per live row, exactly that row's search asked alone, in its
    order, and every choice holds for rows that agree on its pinned
    values."""
    problem, rows, live, ordered = case
    subs, at, search = positional(problem)
    init_of = problem[-1]
    order = IncrementalOrder(forward_rows(subs, ppo_before)) if ordered else None
    pins: dict = {}
    for j, row in enumerate(rows):
        for r, v in row.items():
            by_value = pins.setdefault(at[r], {})
            by_value[v] = by_value.get(v, 0) | 1 << j
    key = lambda rf, mo, rb, vR, vW, _by_place, o, _rows: (rf, mo, rb, vR, vW, o and o.rows)
    multi = list(search.search(pins, init_of, order, live))
    for j, row in enumerate(rows):
        alone = [key(*c) for c in search.search({at[r]: {v: 1} for r, v in row.items()},
                                                init_of, order)]
        got = [key(*c) for c in multi if c[-1] >> j & 1]
        assert got == (alone if live >> j & 1 else [])
    for c in multi:
        assert c[-1] and not c[-1] & ~live
        assert all(c[3][at[r]] == v for j in rows_of(c[-1]) for r, v in rows[j].items())


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


# --- ppo and ib's fixed part from stamp masks -------------------------------

FAMILIES = (nLR, nRW, nRR, nLW, nF, GF)


def stamps_on(nodes: int):
    """Any of the eleven stamp kinds, a family's at one of ``nodes`` nodes."""
    return st.one_of(st.sampled_from([ACR, ACW, ACAS, AMF, AWT]),
                     st.builds(lambda f, n: f(n), st.sampled_from(FAMILIES),
                               st.integers(1, nodes)))


@st.composite
def stamped_executions(draw):
    """(plain execution, stamping): 1 to 3 threads of up to 4 events, each
    stamped with 1 to 3 stamps of any kind over 1 to 3 nodes."""
    stamp = stamps_on(draw(st.integers(1, 3)))
    stmp = {}
    for tid in range(1, draw(st.integers(1, 3)) + 1):
        for eid in range(draw(st.integers(0, 4))):
            stmp[Event(tid, eid, "m", (), 0)] = draw(st.frozensets(stamp, min_size=1,
                                                                  max_size=3))
    return PlainExecution(tuple(stmp)), stmp


@settings(max_examples=200)
@given(stamped_executions())
def test_the_mask_swept_ppo_is_the_closure_of_derive_ppo(ex):
    plain, stmp = ex
    kinds = {a.kind for stamps in stmp.values() for a in stamps}
    assert kinds <= set(KINDS)
    ppo = ppo_order(Numbering(plain.events, stmp, {}))
    assert (ppo.pairs(None, subevent_list(plain.events, stmp))
            == frozenset(naive_closure(derive_ppo(plain, stmp))))


# Each call of the wait-based model by role, on a thread whose node holds
# ``here``, toward a location ``there`` on any node, with work identifier
# ``d``: (method, arguments, output).
RDMA_CALLS = {
    "write": lambda here, there, n, d: ("write", (here, 1), UNIT),
    "read": lambda here, there, n, d: ("read", (here,), 0),
    "cas": lambda here, there, n, d: ("cas", (here, 0, 1), 0),
    "failed cas": lambda here, there, n, d: ("cas", (here, 0, 1), 1),
    "mfence": lambda here, there, n, d: ("mfence", (), UNIT),
    "rfence": lambda here, there, n, d: ("rfence", (n,), UNIT),
    "get": lambda here, there, n, d: ("get", (here, there, d), UNIT),
    "put": lambda here, there, n, d: ("put", (there, here, d), UNIT),
    "wait": lambda here, there, n, d: ("wait", (d,), UNIT),
}


@st.composite
def rdma_executions(draw):
    """(node config, whole execution, stamping, the wait-based model's
    slice): 1 to 3 threads of up to 5 events over 1 to 3 nodes, each a
    call of the model, or of another library with 1 to 3 stamps of any
    kind."""
    n_nodes = draw(st.integers(1, 3))
    nodes = st.integers(1, n_nodes)
    threads = draw(st.integers(1, 3))
    cfg = NodeConfig(nodes=frozenset(range(1, n_nodes + 1)),
                     thread_node={t: draw(nodes) for t in range(1, threads + 1)},
                     loc_node={f"x{n}": n for n in range(1, n_nodes + 1)})
    rl = RdmaWaitLib()
    stmp, mine = {}, []
    for tid in range(1, threads + 1):
        here = f"x{cfg.node_of_thread(tid)}"
        for eid in range(draw(st.integers(0, 5))):
            role = draw(st.sampled_from(sorted(RDMA_CALLS) + ["other"]))
            if role == "other":
                e = Event(tid, eid, "other", (), 0)
                stmp[e] = draw(st.frozensets(stamps_on(n_nodes), min_size=1, max_size=3))
                continue
            n = draw(nodes)
            e = Event(tid, eid, *RDMA_CALLS[role](here, f"x{n}", n, draw(st.sampled_from("df"))))
            stmp[e] = rl.stamping(e, cfg)
            mine.append(e)
    return cfg, PlainExecution(tuple(stmp)), stmp, PlainExecution(tuple(mine))


@settings(max_examples=200)
@given(rdma_executions())
def test_the_mask_swept_ib_fixed_part_is_the_whole_position_sweep(ex):
    cfg, plain, stmp, sl = ex
    rl = RdmaWaitLib()
    f = rl.frame(sl, stmp, cfg)
    want = whole_position_ib(rl, plain, sl, stmp)
    assert f.fixed.rows == want.rows
