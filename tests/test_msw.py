"""Mixed-size writes: failures need no justification, successes do."""

from __future__ import annotations

from conftest import C, cfg2, out_set
from reference import named, slice_witnesses
from rdmacheck.config import NodeConfig
from rdmacheck.events import Event, PlainExecution
from rdmacheck.lang import seq
from rdmacheck.libraries import MixedSizeLib
from rdmacheck.stamps import ACR, ACW, AWT
from rdmacheck.values import BOT

msw = MixedSizeLib()
CFG = cfg2({"x": 1, "y": 2}, size={"x": 2, "y": 2})


def witnesses_of(events, po, cfg=CFG):
    plain = PlainExecution(tuple(sorted(events, key=lambda e: (e.tid, e.eid))))
    assert plain.po == frozenset(po)
    stmp = {e: msw.stamping(e, cfg) for e in events}
    return [named(w, stmp) for w in slice_witnesses(msw, plain, stmp, cfg)]


def test_stamping_success_vs_failure():
    assert msw.stamping(Event(1, 0, "msw_tryread", ("x",), (1, 2)), CFG) == {ACR}
    assert msw.stamping(Event(1, 0, "msw_tryread", ("x",), BOT), CFG) == {AWT}
    assert msw.stamping(Event(1, 0, "msw_write", ("x", (1, 2)), ()), CFG) == {ACW}


def test_lone_failed_read_is_consistent():
    assert witnesses_of([Event(1, 0, "msw_tryread", ("x",), BOT)], [])


def test_read_back_same_thread():
    w = Event(1, 0, "msw_write", ("x", (1, 2)), ())
    r = Event(1, 1, "msw_tryread", ("x",), (1, 2))
    assert witnesses_of([w, r], [(w, r)])


def test_success_needs_justification():
    r = Event(1, 0, "msw_tryread", ("x",), (9, 9))
    assert witnesses_of([r], []) == []


def test_zero_tuple_readable_initially():
    r = Event(1, 0, "msw_tryread", ("x",), (0, 0))
    assert witnesses_of([r], [])


def test_a_read_of_the_wrong_size_has_no_witness():
    # No write stores a tuple of another size than its location's, and
    # the initial value is the all-zero tuple of that size.
    w = Event(1, 0, "msw_write", ("x", (1, 2)), ())
    for out in [(1, 2, 3), (0, 0, 0), (1,)]:
        r = Event(1, 1, "msw_tryread", ("x",), out)
        assert witnesses_of([w, r], [(w, r)]) == []


def test_a_payload_that_is_no_tuple_has_no_witness():
    w = Event(1, 0, "msw_write", ("x", BOT), ())
    assert witnesses_of([w], []) == []


def test_size_discipline():
    w = Event(1, 0, "msw_write", ("x", (1,)), ())
    assert witnesses_of([w], []) == []
    g = Event(1, 0, "msw_get", ("x", "y", "d"), ())
    assert witnesses_of([g], [])  # both size 2
    cfg = cfg2({"x": 1, "y": 2}, size={"x": 2, "y": 3})
    assert witnesses_of([g], [], cfg=cfg) == []


def test_remote_transfer_outcomes():
    t1 = seq(C("msw_write", "x", (1, 2)), C("msw_put", "y", "x", "d"),
             C("msw_wait", "d"))
    cfg = NodeConfig(nodes=frozenset({1, 2}), thread_node={1: 1, 2: 2},
                     loc_node={"x": 1, "y": 2}, size={"x": 2, "y": 2})
    got = out_set([t1, C("msw_tryread", "y")], [msw], cfg)
    vals = {o[1] for o in got}
    assert vals == {BOT, (0, 0), (1, 2)}
