"""Plain-semantics tests: composition operators and the unfolding rules."""

from __future__ import annotations

import itertools

import pytest

from rdmacheck.events import Event, InvalidInput, PlainExecution
from rdmacheck.lang import (Break, Call, LetF, Loop, Output, Stop, Val,
                            interpret_conc, interpret_seq, let, seq)


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

    def test_restrict_keeps_program_order(self):
        evs = [ev(1, 0), ev(1, 1), ev(1, 2), ev(2, 0), ev(2, 1)]
        g = plain(evs, [(a, b) for a, b in itertools.combinations(evs, 2)
                        if a.tid == b.tid])
        sub = g.restrict([evs[4], evs[2], evs[0]])
        assert sub.events == (evs[0], evs[2], evs[4])
        assert sub.po == {(evs[0], evs[2])}
        assert g.restrict(reversed(evs)) is g


DOM = frozenset({0, 1, 7})


class TestInterpretSeq:
    def test_value(self):
        r = interpret_seq(Val(7), 1, 4, DOM)
        assert r.results == {(Output(7, 0), plain([]))}
        assert not r.truncated

    def test_break(self):
        r = interpret_seq(Break(2, 5), 1, 4, DOM)
        assert r.results == {(Output(5, 2), plain([]))}

    def test_call_enumerates_domain(self):
        r = interpret_seq(Call("m", ("x",)), 1, 4, DOM)
        assert len(r.results) == len(DOM)
        for out, g in r.results:
            assert out.brk == 0 and len(g.events) == 1
            (e,) = g.events
            assert e.output == out.value and e.method == "m"

    def test_loop_break_decrements(self):
        r = interpret_seq(Loop(Break(1, 3)), 1, 4, DOM)
        assert r.results == {(Output(3, 0), plain([]))}

    def test_let_propagates_break(self):
        boom = lambda v: Call("never", ())
        r = interpret_seq(LetF(Break(1, 9), boom), 1, 4, DOM)
        assert r.results == {(Output(9, 1), plain([]))}

    def test_infinite_loop_truncates(self):
        r = interpret_seq(Loop(Val(0)), 1, 4, DOM)
        assert r.results == frozenset() and r.truncated

    @pytest.mark.parametrize("p", [Stop(), LetF(Call("m", ()), lambda v: Stop()),
                                   Loop(Stop())],
                             ids=["alone", "after_call", "loop_body"])
    def test_stop_has_no_unfolding_and_no_truncation(self, p):
        r = interpret_seq(p, 1, 4, DOM)
        assert r.results == frozenset() and not r.truncated

    def test_po_total_per_thread(self):
        p = seq(Call("a", ()), Call("b", ()), Call("c", ()))
        r = interpret_seq(p, 1, 4, frozenset({0}))
        for _out, g in r.results:
            g.validate()
            evs = [e for e in g.events if e.tid == 1]
            assert [e.method for e in evs] == ["a", "b", "c"]

    def test_loop_bound_monotone(self):
        # a loop breaking after a data-dependent number of iterations
        body = let(Call("flip", ()), lambda v: Break(1, v) if v else Val(0))
        p = Loop(body)
        prev: frozenset = frozenset()
        for b in range(5):
            r = interpret_seq(p, 1, b, frozenset({0, 1}))
            assert prev <= r.results
            prev = r.results

    def test_let_compositional(self):
        # the let rule recomputed from its parts, brute force
        p1 = Call("m", ())
        f = lambda v: Call("k", (v,)) if v else Val(9)
        combined = interpret_seq(LetF(p1, f), 1, 4, DOM).results
        expected = set()
        for out1, g1 in interpret_seq(p1, 1, 4, DOM).results:
            if out1.brk:
                expected.add((out1, g1))
                continue
            # continuation events are numbered after the prefix
            for out2, g2 in interpret_seq(f(out1.value), 1, 4, DOM).results:
                shifted = plain(
                    [Event(e.tid, e.eid + len(g1.events), e.method, e.args, e.output)
                     for e in g2.events])
                expected.add((out2, PlainExecution(g1.events + shifted.events)))
        assert combined == frozenset(expected)


class TestInterpretConc:
    def test_all_values(self):
        r = interpret_conc([Val(1), Val(2)], 4, DOM)
        assert r.results == {((1, 2), plain([]))}

    def test_nonterminating_thread_kills_all(self):
        r = interpret_conc([Val(1), Loop(Val(0))], 4, DOM)
        assert r.results == frozenset() and r.truncated

    def test_stopped_thread_kills_all_without_truncation(self):
        r = interpret_conc([Call("m", ()), Stop()], 4, DOM)
        assert r.results == frozenset() and not r.truncated

    def test_sb_skeleton_shapes(self):
        # store-buffering skeleton: one write-like and one read-like call per
        # thread; hand count: |DOM| read results per thread, independent
        w = lambda x: Call("w", (x, 1))
        rd = lambda x: Call("r", (x,))
        r = interpret_conc([seq(w("x"), rd("y")), seq(w("y"), rd("x"))], 4,
                           frozenset({0, 1}))
        assert len(r.results) == (2 * 2) * (2 * 2)
        for vals, g in r.results:
            g.validate()
            assert len(g.events) == 4

    def test_max_events_cap(self):
        p = seq(*[Call("m", ()) for _ in range(5)])
        r = interpret_conc([p], 4, frozenset({0}), max_events=3)
        assert r.results == frozenset() and r.truncated

    def test_max_events_cap_across_threads(self):
        # each thread fits alone; only their product exceeds the cap
        p = seq(Call("m", ()), Call("m", ()))
        r = interpret_conc([p, p], 4, frozenset({0}), max_events=3)
        assert r.results == frozenset() and r.truncated
        r = interpret_conc([p, p], 4, frozenset({0}), max_events=4)
        assert len(r.results) == 1 and not r.truncated

    def test_products_in_lexicographic_order(self):
        r = interpret_conc([Call("m", ()), Call("m", ())], 4, (0, 1))
        assert [vals for vals, _g in r.results] == [(0, 0), (0, 1), (1, 0), (1, 1)]
