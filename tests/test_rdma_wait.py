"""Wait-based RDMA model: stamping, wait/fence ordering, outcome checks."""

from __future__ import annotations

import pytest

from conftest import C, cfg2, out_set, outs
from rdmacheck.config import NodeConfig
from rdmacheck.events import Event, InvalidInput
from rdmacheck.lang import seq
from rdmacheck.libraries import RdmaWaitLib
from rdmacheck.stamps import ACAS, ACR, ACW, AMF, AWT, nF, nLR, nLW, nRR, nRW

rl = RdmaWaitLib()
CFG = cfg2({"x": 1, "y": 1, "z": 2, "u": 2})


def stamps(method, args, out=()):
    return rl.stamping(Event(1, 0, method, args, out), CFG)


class TestStamping:
    def test_cpu_ops(self):
        assert stamps("write", ("x", 1)) == {ACW}
        assert stamps("read", ("x",), 0) == {ACR}
        assert stamps("mfence", ()) == {AMF}
        assert stamps("wait", ("d",)) == {AWT}
        assert stamps("rfence", (2,)) == {nF(2)}

    def test_cas_success_vs_failure(self):
        assert stamps("cas", ("x", 1, 2), 1) == {ACAS}
        assert stamps("cas", ("x", 1, 2), 3) == {AMF, ACR}

    def test_put_stamps_follow_remote_location(self):
        assert stamps("put", ("z", "x", "d")) == {nLR(2), nRW(2)}

    def test_get_stamps_follow_remote_location(self):
        assert stamps("get", ("x", "z", "d")) == {nRR(2), nLW(2)}

    def test_unknown(self):
        with pytest.raises(InvalidInput):
            stamps("sv_read", ("x",))


class TestNodeDiscipline:
    def test_remote_cpu_write_inconsistent(self):
        # thread 1 on node 1 cannot CPU-write a node-2 location
        got = out_set([C("write", "z", 1)], [rl], CFG)
        assert got == set()

    def test_local_ops_fine(self):
        assert out_set([C("write", "x", 1)], [rl], CFG) == {((),)}


class TestWaitSemantics:
    def test_waited_put_reads_before_later_write(self):
        r = outs([seq(C("put", ("z"), "x", "d"), C("wait", "d"),
                      C("write", "x", 1))], [rl], CFG, memory=True)
        finals = {o.memory_map().get(("z", 2), 0) for o in r.outcomes}
        assert finals == {0}

    def test_unwaited_put_may_read_later_value(self):
        r = outs([seq(C("put", "z", "x", "d"), C("write", "x", 1))],
                 [rl], CFG, memory=True)
        finals = {o.memory_map().get(("z", 2), 0) for o in r.outcomes}
        assert finals == {0, 1}

    def test_wait_targets_identifier_not_position(self):
        r = outs([seq(C("put", "z", "x", "e"), C("put", "z", "x", "d"),
                      C("wait", "d"), C("write", "x", 1))], [rl], CFG,
                 memory=True)
        finals = {o.memory_map().get(("z", 2), 0) for o in r.outcomes}
        assert finals == {0}


class TestCas:
    def test_cas_success_updates(self):
        r = outs([seq(C("cas", "x", 0, 7), C("read", "x"))], [rl], CFG)
        got = {o.outputs[0] for o in r.outcomes}
        assert got == {7}

    def test_cas_failure_reads_current(self):
        p = seq(C("write", "x", 7), C("cas", "x", 1, 9))
        r = outs([p], [rl], CFG, memory=True)
        finals = {o.memory_map().get(("x", 1), 0) for o in r.outcomes}
        assert finals == {7}

    def test_cas_atomic_between_threads(self):
        # two successful CAS from 0: impossible for both to win
        cfg = NodeConfig(nodes=frozenset({1}), thread_node={1: 1, 2: 1},
                         loc_node={"x": 1})
        got = out_set([C("cas", "x", 0, 1), C("cas", "x", 0, 2)], [rl], cfg)
        # the loser must observe the winner's value
        assert got == {(0, 1), (2, 0)}


class TestFences:
    def test_mfence_orders_write_before_read(self):
        # store buffering with fences on both sides is forbidden
        cfg = NodeConfig(nodes=frozenset({1}), thread_node={1: 1, 2: 1},
                         loc_node={"x": 1, "y": 1})
        t1 = seq(C("write", "x", 1), C("mfence", ), C("read", "y"))
        t2 = seq(C("write", "y", 1), C("mfence", ), C("read", "x"))
        got = out_set([t1, t2], [rl], cfg)
        assert (0, 0) not in got and (1, 1) in got

    def test_rfence_orders_nic_writes(self):
        # put ; rfence ; put toward the same node: the second put's write
        # cannot land before the first's
        p = seq(C("write", "x", 1), C("put", "z", "x", "d"),
                C("rfence", 2), C("write", "x", 2), C("put", "z", "x", "e"))
        r = outs([p], [rl], CFG, memory=True)
        finals = {o.memory_map().get(("z", 2), 0) for o in r.outcomes}
        # mo must follow the fence-induced order, so the final value is the
        # second put's payload
        assert 1 not in finals
