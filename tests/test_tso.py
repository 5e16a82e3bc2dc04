"""Poll-based RDMA model: polls-from discipline and set bookkeeping."""

from __future__ import annotations

import pytest

from conftest import C, cfg2, out_set, outs, unfold_compiled
from rdmacheck.checker import pools
from rdmacheck.compilers import _set_loc
from rdmacheck.events import Event
from rdmacheck.lang import Val, interpret_seq, let, seq
from rdmacheck.libraries import RdmaTsoLib
from rdmacheck.stamps import AMF, AWT
from rdmacheck.values import UNIT

tso = RdmaTsoLib()
CFG = cfg2({"x": 1, "z": 2})

# Puts from t1 on n1 toward x on n2, then a wait.
PUTS = """name puts
nodes n1 n2
libs rl
loc x @ n2
thread t1 @ n1 {{
{puts}
  wait d
}}
"""


def z_finals(prog):
    r = outs([prog], [tso], CFG, memory=True)
    return {o.memory_map().get(("z", 2), 0) for o in r.outcomes}


class TestPolling:
    def test_one_put_one_poll(self):
        p = seq(C("tso_put", "z", "x"), C("poll", 2), C("tso_write", "x", 1))
        assert z_finals(p) == {0}

    def test_two_puts_one_poll(self):
        p = seq(C("tso_put", "z", "x"), C("tso_put", "z", "x"),
                C("poll", 2), C("tso_write", "x", 1))
        assert z_finals(p) == {0, 1}

    def test_two_puts_two_polls(self):
        p = seq(C("tso_put", "z", "x"), C("tso_put", "z", "x"),
                C("poll", 2), C("poll", 2), C("tso_write", "x", 1))
        assert z_finals(p) == {0}

    def test_poll_without_operation_blocks(self):
        assert out_set([C("poll", 2)], [tso], CFG) == set()

    def test_pf_clauses_on_witnesses(self):
        from rdmacheck.checker import enumerate_consistent, stamp_events
        from reference import named
        from rdmacheck.lang import interpret_conc
        p = seq(C("tso_put", "z", "x"), C("tso_put", "z", "x"),
                C("poll", 2), C("poll", 2))
        fn = pools([tso], CFG)
        seen = 0
        for vals, plain in interpret_conc([p], fn, 14).results:
            stmp = stamp_events(plain, [tso], CFG)[0]
            for acc in enumerate_consistent([plain], [tso], CFG):
                pf = named(acc, stmp).witnesses["tso"].rels["pf"]
                assert len(pf) == 2
                for w, pl in pf:
                    # within program order and identifier-matched
                    assert (w.event, pl.event) in plain.po
                    assert w.event.output == pl.event.output
                # oldest-first: first put polled by first poll
                puts = sorted((w for w, _ in pf), key=lambda s: s.event.eid)
                polls = sorted((pl for _, pl in pf), key=lambda s: s.event.eid)
                assert dict(pf) == {puts[0]: polls[0], puts[1]: polls[1]}
                seen += 1
        assert seen > 0


class TestIdentifiers:
    def unfold(self, *calls):
        """Thread 2's unfoldings of ``calls``, in the interpreter's order."""
        fn = pools([tso], CFG)
        return [g.events for _o, g in interpret_seq(seq(*calls), 2, fn).results]

    def test_gets_and_puts_are_numbered_per_thread(self):
        (evs,) = self.unfold(C("tso_get", "z", "x"), C("tso_write", "z", 1),
                             C("tso_put", "x", "z"))
        assert [e.output for e in evs] == [1_002_000, UNIT, 1_002_001]

    def test_poll_offers_the_oldest_unpolled_operation_toward_its_node(self):
        # toward n1, n2, n1: the get reads x, the puts write z and then x
        ops = (C("tso_get", "z", "x"), C("tso_put", "z", "z"), C("tso_put", "x", "z"))
        polled = [[e.output for e in evs[3:]]
                  for evs in self.unfold(*ops, C("poll", 1), C("poll", 2),
                                         C("poll", 1))]
        assert polled == [[1_002_000, 1_002_001, 1_002_002]]
        # a third poll of n1 has nothing left to poll, and blocks
        assert self.unfold(*ops, C("poll", 1), C("poll", 1), C("poll", 1)) == []
        assert self.unfold(C("poll", 1), *ops) == []


class TestSets:
    def test_isempty_true_requires_removal(self):
        p = seq(C("set_add", "s", 5), C("set_isempty", "s"))
        got = out_set([p], [tso], CFG)
        assert got == {(False,)}

    def test_isempty_true_after_remove(self):
        p = seq(C("set_add", "s", 5), C("set_remove", "s", 5),
                C("set_isempty", "s"))
        got = out_set([p], [tso], CFG)
        assert got == {(True,), (False,)}

    def test_isempty_is_offered_true_only_when_every_add_was_removed_since(self):
        fn = pools([tso], CFG)

        def offered(*calls):
            return {g.events[-1].output for _o, g in
                    interpret_seq(seq(*calls, C("set_isempty", "s")), 1, fn).results}

        add, remove = (lambda v: C("set_add", "s", v)), (lambda v: C("set_remove", "s", v))
        assert offered() == {True, False}
        assert offered(add(5), add(5), remove(5)) == {True, False}
        assert offered(add(5), remove(5), add(5)) == {False}
        assert offered(add(5), add(6), remove(5)) == {False}
        assert offered(add(5), C("set_add", "t", 6), remove(5)) == {True, False}

    def test_set_ops_are_fences(self):
        e = Event(1, 0, "set_add", ("s", 1), UNIT)
        assert tso.stamping(e, CFG) == {AMF}
        e = Event(1, 0, "poll", (2,), 3)
        assert tso.stamping(e, CFG) == {AWT}

    def test_wait_loop_shape_drains_set(self):
        # hand-rolled drain in the meta-language: poll until empty
        def drain(n):
            return let(C("set_isempty", "s"),
                       lambda b: Val(UNIT) if b is True
                       else let(C("poll", n),
                                lambda v: seq(C("set_remove", "s", v), drain(n))))
        p = seq(let(C("tso_put", "z", "x"),
                    lambda v: C("set_add", "s", v)), drain(2))
        got = out_set([p], [tso], CFG)
        assert got == {((),)}

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_a_compiled_wait_polls_each_put_once(self, tmp_path, k):
        # Each put is a tso_write of its value, a tso_put and a set_add; the
        # wait drains n1's empty set with one check and n2's with k rounds
        # of a check, a poll and a remove, then a last check: 6k + 2 events.
        path = tmp_path / "puts.litmus"
        path.write_text(PUTS.format(puts="\n".join(["  putc x 1 d"] * k)))
        _cfg, _libs, res = unfold_compiled(path, ["w"], 6 * k + 2)
        assert res.results and not res.truncated
        toward_n2 = (_set_loc(1, "d", 2),)
        for _vals, plain in res.results:
            methods = [e.method for e in plain.events]
            assert methods.count("poll") == k
            assert [e.args for e in plain.events
                    if e.method == "set_isempty"].count(toward_n2) == k + 1
        # One event less cuts every drain: the event cap is the only bound.
        _cfg, _libs, res = unfold_compiled(path, ["w"], 6 * k + 1)
        assert not res.results and res.truncated
