"""Barrier library: rounds, counts, role discipline, the two variants."""

from __future__ import annotations

from conftest import C, cfg2, out_set
from reference import named, slice_witnesses
from rdmacheck.config import NodeConfig
from rdmacheck.events import Event, PlainExecution, SubEvent
from rdmacheck.lang import seq
from rdmacheck.libraries import BarrierLib
from rdmacheck.stamps import ACR, GF

CFG = cfg2(barrier={"z": frozenset({1, 2})})


def witnesses_of(events, po, cfg, variant="weak"):
    lib = BarrierLib(variant)
    plain = PlainExecution(tuple(sorted(events, key=lambda e: (e.tid, e.eid))))
    assert plain.po == frozenset(po)
    stmp = {e: lib.stamping(e, cfg) for e in events}
    return [named(w, stmp) for w in slice_witnesses(lib, plain, stmp, cfg)]


def bar(tid, eid, x="z"):
    return Event(tid, eid, "bar", (x,), ())


def test_stamping_weak_covers_participant_nodes():
    lib = BarrierLib("weak")
    cfg = NodeConfig(nodes=frozenset({1, 2, 3}), thread_node={1: 1, 2: 2, 3: 3},
                     barrier={"z": frozenset({1, 2})})
    assert lib.stamping(bar(1, 0), cfg) == {GF(1), GF(2), ACR}


def test_stamping_transitive_covers_all_nodes():
    lib = BarrierLib("transitive")
    cfg = NodeConfig(nodes=frozenset({1, 2, 3}), thread_node={1: 1, 2: 2, 3: 3},
                     barrier={"z": frozenset({1, 2})})
    assert lib.stamping(bar(1, 0), cfg) == {GF(1), GF(2), GF(3), ACR}


def test_no_events_trivial():
    ws = witnesses_of([], [], CFG)
    assert len(ws) == 1 and ws[0].so == frozenset()


def test_single_round_synchronises_entry_to_exit():
    b1, b2 = bar(1, 0), bar(2, 0)
    ws = witnesses_of([b1, b2], [], CFG)
    assert len(ws) == 1
    w = ws[0]
    assert w.meta["rounds"] == {b1: 1, b2: 1}
    so = w.so
    for e1 in (b1, b2):
        for e2 in (b1, b2):
            for n in (1, 2):
                assert (SubEvent(e1, GF(n)), SubEvent(e2, ACR)) in so


def test_unbalanced_counts_inconsistent():
    b1a, b1b, b2 = bar(1, 0), bar(1, 1), bar(2, 0)
    assert witnesses_of([b1a, b1b, b2], [(b1a, b1b)], CFG) == []


def test_nonparticipant_caller_inconsistent():
    cfg = cfg2(barrier={"z": frozenset({1})})
    assert witnesses_of([bar(2, 0)], [], cfg) == []


def test_missing_participant_inconsistent():
    # only thread 1 calls while both participate
    assert witnesses_of([bar(1, 0)], [], CFG) == []


def test_rounds_match_by_position():
    b1a, b1b = bar(1, 0), bar(1, 1)
    b2a, b2b = bar(2, 0), bar(2, 1)
    ws = witnesses_of([b1a, b1b, b2a, b2b],
                      [(b1a, b1b), (b2a, b2b)], CFG)
    assert len(ws) == 1
    w = ws[0]
    assert w.meta["rounds"] == {b1a: 1, b1b: 2, b2a: 1, b2b: 2}
    # rounds never cross-synchronise
    assert (SubEvent(b1a, GF(1)), SubEvent(b2b, ACR)) not in w.so
    assert (SubEvent(b1b, GF(1)), SubEvent(b2b, ACR)) in w.so


def test_ordering_strictly_increasing_along_po():
    b1a, b1b = bar(1, 0), bar(1, 1)
    b2a, b2b = bar(2, 0), bar(2, 1)
    ws = witnesses_of([b1a, b1b, b2a, b2b], [(b1a, b1b), (b2a, b2b)], CFG)
    rounds = ws[0].meta["rounds"]
    assert rounds[b1a] < rounds[b1b] and rounds[b2a] < rounds[b2b]
