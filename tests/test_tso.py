"""Poll-based RDMA model: polls-from discipline and set bookkeeping."""

from __future__ import annotations

from conftest import C, cfg2, out_set, outs
from rdmacheck.config import NodeConfig
from rdmacheck.events import Event
from rdmacheck.lang import Break, Call, Loop, Val, let, seq
from rdmacheck.libraries import RdmaTsoLib
from rdmacheck.stamps import AMF, AWT
from rdmacheck.values import UNIT

tso = RdmaTsoLib()
CFG = cfg2({"x": 1, "z": 2})


def z_finals(prog, scalars={0, 1}):
    r = outs([prog], [tso], CFG, scalars=scalars, memory=True)
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
        from rdmacheck.checker import enumerate_consistent, merged_outputs
        from rdmacheck.lang import interpret_conc
        from rdmacheck.config import ClientProfile
        profile = ClientProfile(scalars=frozenset({0, 1}))
        p = seq(C("tso_put", "z", "x"), C("tso_put", "z", "x"),
                C("poll", 2), C("poll", 2))
        fn = merged_outputs([tso], profile, CFG)
        seen = 0
        for vals, plain in interpret_conc([p], 4, fn, 14).results:
            for acc in enumerate_consistent(plain, [tso], CFG):
                pf = acc["witnesses"]["tso"].rels["pf"]
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


class TestSets:
    def test_isempty_true_requires_removal(self):
        p = seq(C("set_add", "s", 5), C("set_isempty", "s"))
        got = out_set([p], [tso], CFG, scalars={0, 5})
        assert got == {(False,)}

    def test_isempty_true_after_remove(self):
        p = seq(C("set_add", "s", 5), C("set_remove", "s", 5),
                C("set_isempty", "s"))
        got = out_set([p], [tso], CFG, scalars={0, 5})
        assert got == {(True,), (False,)}

    def test_set_ops_are_fences(self):
        e = Event(1, 0, "set_add", ("s", 1), UNIT)
        assert tso.stamping(e, CFG) == {AMF}
        e = Event(1, 0, "poll", (2,), 3)
        assert tso.stamping(e, CFG) == {AWT}

    def test_wait_loop_shape_drains_set(self):
        # hand-rolled drain loop in the meta-language: poll until empty
        def drain(n):
            return Loop(let(C("set_isempty", "s"),
                            lambda b: Break(1, UNIT) if b is True
                            else let(C("poll", n),
                                     lambda v: C("set_remove", "s", v))))
        p = seq(let(C("tso_put", "z", "x"),
                    lambda v: C("set_add", "s", v)), drain(2))
        got = out_set([p], [tso], CFG)
        assert got == {((),)}
