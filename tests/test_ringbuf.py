"""Ring-buffer library: reads-from discipline, fails-before, both modes."""

from __future__ import annotations

import pytest

from conftest import C, cfg2, out_set
from rdmacheck import runner
from rdmacheck.config import NodeConfig
from rdmacheck.events import Event, PlainExecution
from rdmacheck.lang import seq
from rdmacheck.libraries import RingBufferLib
from rdmacheck.stamps import ACR, ACW, AWT, nRW
from rdmacheck.values import BOT

CFG = cfg2(wthd={"x": 1}, rthd={"x": frozenset({2})}, capacity={"x": 4})

# t2 sees f's broadcast, which t1 makes after its submit, and then fails
# to receive the message: a fails-before pair against hb.  Weak mode
# exports rf only, so only its post_check can veto that execution.
POST_CHECK_VETO = """nodes n1 n2
libs rbl=weak sv
ring x : writer t1 readers t2 cap 4
svar f
thread t1 @ n1 {
  a = submit x (1)
  svwrite f 1
  bcast f d n2
}
thread t2 @ n2 {
  b = svread f
  c = receive x
}
assert forbidden a = true & b = 1 & c = bot
assert allowed a = true & b = 1 & c = (1)
"""


def witnesses_of(events, po, cfg=CFG, mode="strict"):
    lib = RingBufferLib(mode)
    plain = PlainExecution(tuple(sorted(events, key=lambda e: (e.tid, e.eid))))
    assert plain.po == frozenset(po)
    stmp = {e: lib.stamping(e, cfg) for e in events}
    return list(lib.witnesses([plain], stmp, cfg))


def sub(tid, eid, out=True, x="x", payload=(1,)):
    return Event(tid, eid, "submit", (x, payload), out)


def rcv(tid, eid, out, x="x"):
    return Event(tid, eid, "receive", (x,), out)


class TestStamping:
    def test_successful_submit_stamps(self):
        lib = RingBufferLib()
        assert lib.stamping(sub(1, 0), CFG) == {ACW, nRW(2)}

    def test_local_reader_needs_no_remote_write(self):
        cfg = NodeConfig(nodes=frozenset({1}), thread_node={1: 1, 2: 1},
                         wthd={"x": 1}, rthd={"x": frozenset({2})},
                         capacity={"x": 4})
        lib = RingBufferLib()
        assert lib.stamping(sub(1, 0), cfg) == {ACW}

    def test_failures_are_waits(self):
        lib = RingBufferLib()
        assert lib.stamping(sub(1, 0, out=False), CFG) == {AWT}
        assert lib.stamping(rcv(2, 0, BOT), CFG) == {AWT}
        assert lib.stamping(rcv(2, 0, (1,)), CFG) == {ACR}


class TestWitnesses:
    def test_submit_without_receive(self):
        ws = witnesses_of([sub(1, 0)], [])
        assert ws and ws[0].rels["rf"] == frozenset()

    def test_receive_needs_a_source(self):
        assert witnesses_of([rcv(2, 0, (1,))], []) == []

    def test_payloads_must_match(self):
        assert witnesses_of([sub(1, 0, payload=(1,)), rcv(2, 0, (2,))], []) == []

    def test_role_violations_rejected(self):
        assert witnesses_of([sub(2, 0)], []) == []
        assert witnesses_of([rcv(1, 0, (1,))], []) == []

    def test_message_read_once_per_thread(self):
        s = sub(1, 0)
        r1, r2 = rcv(2, 0, (1,)), rcv(2, 1, (1,))
        assert witnesses_of([s, r1, r2], [(r1, r2)]) == []

    def test_two_readers_may_read_same_message(self):
        cfg = cfg2(wthd={"x": 1}, rthd={"x": frozenset({2})}, capacity={"x": 4})
        cfg = NodeConfig(nodes=frozenset({1, 2}), thread_node={1: 1, 2: 2, 3: 2},
                         wthd={"x": 1}, rthd={"x": frozenset({2, 3})},
                         capacity={"x": 4})
        ws = witnesses_of([sub(1, 0), rcv(2, 0, (1,)), rcv(3, 0, (1,))], [],
                          cfg=cfg)
        assert ws

    def test_no_jumping_messages(self):
        s1, s2 = sub(1, 0, payload=(1,)), sub(1, 1, payload=(2,))
        r = rcv(2, 0, (2,))
        # reading message 2 without having read message 1 first is invalid
        assert witnesses_of([s1, s2, r], [(s1, s2)]) == []
        r1, r2 = rcv(2, 0, (1,)), rcv(2, 1, (2,))
        assert witnesses_of([s1, s2, r1, r2], [(s1, s2), (r1, r2)])

    def test_fails_before_excludes_consumed(self):
        s = sub(1, 0)
        r = rcv(2, 0, (1,))
        f = rcv(2, 1, BOT)
        ws = witnesses_of([s, r, f], [(r, f)])
        assert ws
        fb = ws[0].rels["fb"]
        assert fb == frozenset()   # the only message was consumed

    def test_fails_before_unconsumed(self):
        s = sub(1, 0)
        f = rcv(2, 0, BOT)
        ws = witnesses_of([s, f], [])
        assert ws
        (pair,) = ws[0].rels["fb"]
        assert pair[0].event == f and pair[1].event == s

    def test_weak_mode_so_is_rf_only(self):
        s = sub(1, 0)
        f = rcv(2, 0, BOT)
        strict = witnesses_of([s, f], [])[0]
        weak = witnesses_of([s, f], [], mode="weak")[0]
        assert strict.so > weak.so
        assert weak.so == weak.rels["rf"]


@pytest.mark.parametrize("mode", ["weak", "strict"])
def test_a_failed_receive_after_the_messages_signal_is_forbidden(tmp_path, monkeypatch, mode):
    vetoes = []
    post_check = RingBufferLib.post_check

    def counted(self, w, hb):
        ok = post_check(self, w, hb)
        vetoes.append(not ok)
        return ok

    monkeypatch.setattr(RingBufferLib, "post_check", counted)
    path = tmp_path / "post_check_veto.litmus"
    path.write_text(POST_CHECK_VETO.replace("rbl=weak", f"rbl={mode}"))
    assert runner.run_file(path).verdict == runner.PASS
    # Strict mode's so holds fb, so hb vetoes that execution before
    # post_check is asked.
    assert sum(vetoes) == (1 if mode == "weak" else 0)
