"""Shared-variable library: stamping, witness search, broadcast semantics."""

from __future__ import annotations

import pytest

from conftest import C, cfg2, out_set
from reference import named, slice_witnesses
from rdmacheck.config import NodeConfig
from rdmacheck.events import Event, InvalidInput, PlainExecution
from rdmacheck.libraries import SharedVarLib
from rdmacheck.stamps import ACR, ACW, AWT, GF, nLR, nRW

sv = SharedVarLib()


def stamps(method, args, out=(), cfg=None):
    e = Event(1, 0, method, args, out)
    return sv.stamping(e, cfg or cfg2())


class TestStamping:
    def test_wait(self):
        assert stamps("sv_wait", ("d",)) == {AWT}

    def test_write_read(self):
        assert stamps("sv_write", ("x", 1)) == {ACW}
        assert stamps("sv_read", ("x",), 1) == {ACR}

    def test_gf_per_node(self):
        assert stamps("sv_gf", (frozenset({1, 2}),)) == {GF(1), GF(2)}

    def test_bcast_read_write_pair_per_target(self):
        got = stamps("sv_bcast", ("x", "d", frozenset({1, 2})))
        assert got == {nLR(1), nRW(1), nLR(2), nRW(2)}

    def test_unknown_method(self):
        with pytest.raises(InvalidInput):
            stamps("read", ("x",))


def witnesses_of(events, po, cfg):
    plain = PlainExecution(tuple(sorted(events, key=lambda e: (e.tid, e.eid))))
    assert plain.po == frozenset(po)
    stmp = {e: sv.stamping(e, cfg) for e in events}
    return [named(w, stmp) for w in slice_witnesses(sv, plain, stmp, cfg)]


class TestWitnessSearch:
    def test_empty_execution_trivial(self):
        ws = witnesses_of([], [], cfg2())
        assert len(ws) == 1 and ws[0].so == frozenset()

    def test_initial_read_has_empty_rf(self):
        e = Event(1, 0, "sv_read", ("x",), 0)
        ws = witnesses_of([e], [], cfg2())
        assert len(ws) == 1
        assert ws[0].rels["rf"] == frozenset()

    def test_read_of_unwritten_value_inconsistent(self):
        e = Event(1, 0, "sv_read", ("x",), 5)
        assert witnesses_of([e], [], cfg2()) == []

    def test_write_then_read_forced(self):
        w = Event(1, 0, "sv_write", ("x", 1), ())
        r = Event(1, 1, "sv_read", ("x",), 0)
        # reading 0 past an earlier same-thread write is rejected
        assert witnesses_of([w, r], [(w, r)], cfg2()) == []

    def test_replicas_are_per_node(self):
        # a write on node 1 never feeds a read on node 2 without a broadcast
        w = Event(1, 0, "sv_write", ("x", 1), ())
        r = Event(2, 0, "sv_read", ("x",), 1)
        assert witnesses_of([w, r], [], cfg2()) == []


class TestOutcomes:
    def test_bcast_message_passing_forbidden(self):
        cfg = cfg2()
        t1 = C("sv_write", "x", 1)
        # covered end to end by the corpus; here: remote replica readable
        # only after a broadcast targets it
        t1b = C("sv_bcast", "x", "d", frozenset({2}))
        from rdmacheck.lang import seq
        got = out_set([seq(t1, t1b), C("sv_read", "x")], [sv], cfg)
        assert got == {((), 0), ((), 1)}

    def test_wait_synchronises_with_bcast_reads(self):
        # polls-from relates the broadcast's NIC read to the later wait
        from rdmacheck.events import SubEvent
        b = Event(1, 0, "sv_bcast", ("x", "d", frozenset({2})), ())
        w = Event(1, 1, "sv_wait", ("d",), ())
        other = Event(1, 2, "sv_wait", ("e",), ())
        ws = witnesses_of([b, w, other], [(b, w), (b, other), (w, other)], cfg2())
        assert ws
        pf = ws[0].rels["pf"]
        assert (SubEvent(b, nLR(2)), SubEvent(w, AWT)) in pf
        assert (SubEvent(b, nLR(2)), SubEvent(other, AWT)) not in pf
