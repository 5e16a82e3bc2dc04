"""Plain-semantics tests: composition operators and the unfolding rules."""

from __future__ import annotations

import itertools

import pytest

from rdmacheck.checker import Bounds, stamp_events
from rdmacheck.config import NodeConfig
from rdmacheck.events import Event, InvalidInput, PlainExecution
from rdmacheck.lang import (MAX_EVENTS, Call, LetF, Stop, Val, interpret_conc,
                            interpret_seq, let, seq)
from rdmacheck.libraries import BarrierLib, SharedVarLib


def ev(tid, eid, m="m", args=(), out=0):
    return Event(tid, eid, m, tuple(args), out)


def plain(events, po=()):
    g = PlainExecution(tuple(sorted(events, key=lambda e: (e.tid, e.eid))))
    assert g.po == frozenset(po)
    return g


class TestPlainExecution:
    def test_validate_accepts_program_order(self):
        plain([ev(2, 0), ev(1, 1), ev(1, 0)], [(ev(1, 0), ev(1, 1))]).validate()

    @pytest.mark.parametrize("keys", [[(1, 1), (1, 0)], [(2, 0), (1, 0)],
                                      [(1, 0), (1, 0)]])
    def test_validate_rejects_out_of_order_and_duplicate_keys(self, keys):
        g = PlainExecution(tuple(ev(t, i, out=k) for k, (t, i) in enumerate(keys)))
        with pytest.raises(InvalidInput):
            g.validate()

    def test_a_library_slice_keeps_program_order(self):
        """A library's slice, the stamping's list of its events, is in the
        execution's order, so its program order is the execution's on its
        events."""
        evs = [ev(1, 0, "sv_write", ("x", 1)), ev(1, 1, "bar", ("b",)),
               ev(1, 2, "sv_read", ("x",)), ev(2, 0, "bar", ("b",)),
               ev(2, 1, "sv_write", ("x", 2))]
        g = plain(evs, [(a, b) for a, b in itertools.combinations(evs, 2)
                        if a.tid == b.tid])
        cfg = NodeConfig(nodes=frozenset({1, 2}), thread_node={1: 1, 2: 2})
        _stmp, per_lib = stamp_events(g, [SharedVarLib(), BarrierLib()], cfg)
        for name, mine in (("sv", [evs[0], evs[2], evs[4]]), ("bal", [evs[1], evs[3]])):
            sub = PlainExecution(tuple(per_lib[name]))
            assert sub.events == tuple(mine)
            assert sub.po == {(a, b) for a, b in g.po if a in mine and b in mine}
        assert PlainExecution(tuple(per_lib["sv"])).po == {(evs[0], evs[2])}


DOM = frozenset({0, 1, 7})


def repeat(body):
    """``body`` forever: the program runs it, then itself again."""
    return LetF(body, lambda _v: repeat(body))


class TestInterpretSeq:
    def test_value(self):
        r = interpret_seq(Val(7), 1, DOM)
        assert r.results == {(7, plain([]))}
        assert not r.truncated

    def test_call_enumerates_domain(self):
        r = interpret_seq(Call("m", ("x",)), 1, DOM)
        assert len(r.results) == len(DOM)
        for out, g in r.results:
            (e,) = g.events
            assert e.output == out and e.method == "m"

    def test_infinite_loop_truncates(self):
        r = interpret_seq(repeat(Call("m", ())), 1, DOM, max_events=4)
        assert r.results == frozenset() and r.truncated

    def test_endless_recursion_is_cut_at_the_default_cap(self):
        # The default cap is the outcome computation's, and it cuts an
        # endless recursion well within the interpreter's recursion limit.
        assert MAX_EVENTS == Bounds().max_events
        r = interpret_seq(repeat(Call("m", ())), 1, frozenset({0}))
        assert r.results == frozenset() and r.truncated
        r = interpret_conc([Call("m", ()), repeat(Call("m", ()))], frozenset({0}))
        assert set(r.results) == frozenset() and r.truncated

    @pytest.mark.parametrize("p", [Stop(), LetF(Call("m", ()), lambda v: Stop()),
                                   repeat(Stop())],
                             ids=["alone", "after_call", "loop_body"])
    def test_stop_has_no_unfolding_and_no_truncation(self, p):
        r = interpret_seq(p, 1, DOM, max_events=4)
        assert r.results == frozenset() and not r.truncated

    def test_only_a_call_with_an_output_meets_the_cap(self):
        # past the cap, a call with no output blocks as it would within it
        outputs = lambda m, args, tid, prior: () if m == "blocked" else (0,)
        blocked = seq(Call("m", ()), Call("blocked", ()))
        r = interpret_seq(blocked, 1, outputs, max_events=1)
        assert r.results == frozenset() and not r.truncated
        r = interpret_seq(seq(Call("m", ()), Call("m", ())), 1, outputs, max_events=1)
        assert r.results == frozenset() and r.truncated

    def test_po_total_per_thread(self):
        p = seq(Call("a", ()), Call("b", ()), Call("c", ()))
        r = interpret_seq(p, 1, frozenset({0}))
        for _out, g in r.results:
            g.validate()
            evs = [e for e in g.events if e.tid == 1]
            assert [e.method for e in evs] == ["a", "b", "c"]

    def test_event_cap_monotone(self):
        # a recursion that ends after a data-dependent number of calls
        def flip():
            return let(Call("flip", ()), lambda v: Val(v) if v else flip())
        prev: frozenset = frozenset()
        for cap in range(5):
            r = interpret_seq(flip(), 1, frozenset({0, 1}), max_events=cap)
            assert prev <= r.results and r.truncated
            assert {len(g.events) for _v, g in r.results} == set(range(1, cap + 1))
            prev = r.results

    def test_let_compositional(self):
        # the let rule recomputed from its parts, brute force
        p1 = Call("m", ())
        f = lambda v: Call("k", (v,)) if v else Val(9)
        combined = interpret_seq(LetF(p1, f), 1, DOM).results
        expected = set()
        for out1, g1 in interpret_seq(p1, 1, DOM).results:
            # continuation events are numbered after the prefix
            for out2, g2 in interpret_seq(f(out1), 1, DOM).results:
                shifted = plain(
                    [Event(e.tid, e.eid + len(g1.events), e.method, e.args, e.output)
                     for e in g2.events])
                expected.add((out2, PlainExecution(g1.events + shifted.events)))
        assert combined == frozenset(expected)


class TestInterpretConc:
    def test_all_values(self):
        r = interpret_conc([Val(1), Val(2)], DOM)
        assert set(r.results) == {((1, 2), plain([]))}

    def test_nonterminating_thread_kills_all(self):
        r = interpret_conc([Val(1), repeat(Call("m", ()))], DOM, max_events=4)
        assert set(r.results) == frozenset() and r.truncated

    def test_stopped_thread_kills_all_without_truncation(self):
        r = interpret_conc([Call("m", ()), Stop()], DOM)
        assert set(r.results) == frozenset() and not r.truncated

    def test_sb_skeleton_shapes(self):
        # store-buffering skeleton: one write-like and one read-like call per
        # thread; hand count: |DOM| read results per thread, independent
        w = lambda x: Call("w", (x, 1))
        rd = lambda x: Call("r", (x,))
        r = interpret_conc([seq(w("x"), rd("y")), seq(w("y"), rd("x"))],
                           frozenset({0, 1}))
        assert len(r.results) == (2 * 2) * (2 * 2)
        for vals, g in r.results:
            g.validate()
            assert len(g.events) == 4

    def test_max_events_cap(self):
        p = seq(*[Call("m", ()) for _ in range(5)])
        r = interpret_conc([p], frozenset({0}), max_events=3)
        assert set(r.results) == frozenset() and r.truncated

    def test_max_events_cap_across_threads(self):
        # each thread fits alone; only their product exceeds the cap
        p = seq(Call("m", ()), Call("m", ()))
        r = interpret_conc([p, p], frozenset({0}), max_events=3)
        assert set(r.results) == frozenset() and r.truncated
        r = interpret_conc([p, p], frozenset({0}), max_events=4)
        assert len(r.results) == 1 and not r.truncated

    def test_products_in_lexicographic_order(self):
        r = interpret_conc([Call("m", ()), Call("m", ())], (0, 1))
        assert [vals for vals, _g in r.results] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_a_literal_domain_that_repeats_a_value_offers_it_once(self):
        r = interpret_conc([Call("m", ()), Val(5)], (1, 0, 1, 0))
        assert [vals for vals, _g in r.results] == [(1, 5), (0, 5)]
        assert len(interpret_seq(Call("m", ()), 1, [3, 3]).results) == 1
