"""Reads take their values from stores: what ``Pools`` offers a read, and
the literal domains it replaced as the reference."""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import C, out_set, soundness
from rdmacheck.checker import pools
from rdmacheck.compilers import _await
from rdmacheck.config import NodeConfig
from rdmacheck.lang import Pools, interpret_conc, let, seq
from rdmacheck.libraries import RdmaWaitLib
from rdmacheck.litmus import parse_litmus
from rdmacheck.runner import PASS, run_litmus
from rdmacheck.values import UNIT

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "corpus").glob("*.litmus")) + [
    ROOT / "perfbench" / "inputs" / "msw_put_tryread.litmus"]

# The reader is thread 1 and the writer thread 2, so the reader's first
# unfolding sees no store at the get's source: a is 1, or (1,2), only if
# the reader is unfolded again once the writer has stored there.
GET_THEN_READ = """name get_then_read
nodes n1 n2
libs rl
loc x @ n1
loc w @ n2
thread t1 @ n1 {
  get x w d
  wait d
  a = read x
}
thread t2 @ n2 {
  write w 1
}
assert allowed a = 0
assert allowed a = 1
"""
MGET_THEN_TRYREAD = """name mget_then_tryread
nodes n1 n2
libs msw
loc x @ n1
loc y @ n2
msize x 2
msize y 2
thread t1 @ n1 {
  mswget x y d
  mswwait d
  a = tryread x
}
thread t2 @ n2 {
  mswwrite y (1,2)
}
assert allowed a = (0,0)
assert allowed a = (1,2)
assert allowed a = bot
"""
INLINE = {"get_then_read": GET_THEN_READ, "mget_then_tryread": MGET_THEN_TRYREAD}
SOURCES = {p.stem: p.read_text() for p in FILES} | INLINE

rl = RdmaWaitLib()
# Two threads on one node, so each can read what the other writes.
ONE_NODE = NodeConfig(nodes=frozenset({1}), thread_node={1: 1, 2: 1},
                      loc_node={"x": 1, "y": 1})


def test_a_read_is_not_offered_its_own_threads_later_store():
    p = let(C("read", "x"), lambda v: C("write", "x", 1))
    res = interpret_conc([p], pools([rl], ONE_NODE), 14)
    assert [vals for vals, _g in res.results] == [(UNIT,)]
    # Thread 1 reads y, which thread 2 writes, so it is unfolded again with
    # its own store of x in the pools: the read of x still sees only 0.
    t1 = seq(C("read", "y"), p)
    res = interpret_conc([t1, C("write", "y", 1)], pools([rl], ONE_NODE), 14)
    assert sorted(g.events[1].output for _vals, g in res.results) == [0, 0]


def test_threads_that_await_each_others_store_both_finish():
    # Each store comes before its thread blocks, so it counts although no
    # unfolding of its thread has finished yet.
    t1 = seq(C("write", "x", 1), _await(C("read", "y"), lambda v: v == 1))
    t2 = seq(C("write", "y", 1), _await(C("read", "x"), lambda v: v == 1))
    res = interpret_conc([t1, t2], pools([rl], ONE_NODE), 14)
    assert len(res.results) == 1 and not res.truncated
    assert out_set([t1, t2], [rl], ONE_NODE) == {(UNIT, UNIT)}


@pytest.mark.parametrize("name, want", [
    ("get_then_read", ["a=0", "a=1"]),
    ("mget_then_tryread", ["a=(0,0)", "a=(1,2)", "a=bot"])])
def test_a_reader_numbered_before_the_writer_sees_a_carried_store(name, want):
    report = run_litmus(parse_litmus(INLINE[name]))
    assert report.verdict == PASS and not report.truncated
    assert report.outcomes == want


@pytest.mark.parametrize("name, impl, n", [
    ("get_then_read", "w", 2), ("mget_then_tryread", "msw", 3)])
def test_a_compiled_reader_numbered_before_the_writer_sees_a_carried_store(
        tmp_path, name, impl, n):
    # The compiled get fills cells on the reader's node that its read reads.
    path = tmp_path / f"{name}.litmus"
    path.write_text(INLINE[name])
    rep = soundness(path, [impl], 30)
    assert rep.included and len(rep.impl_outcomes) == len(rep.spec_outcomes) == n


def _literals(v, out: set) -> None:
    if isinstance(v, bool) or not isinstance(v, (int, tuple)):
        return
    out.add(v)
    if isinstance(v, tuple):
        for s in v:
            _literals(s, out)


def _record(report) -> tuple:
    return (report.verdict, report.outcomes, report.truncated,
            report.witness_dump)


@pytest.mark.parametrize("name", SOURCES)
def test_pools_give_the_literal_domains_runs(monkeypatch, name):
    # The reference offers every read each literal of the file and 0, as
    # the value domains did, besides the cell's initial value ``read``
    # adds.  Every value a consistent execution reads is one of them.
    test = parse_litmus(SOURCES[name], name=name)
    lits = {0}
    for instrs in test.programs.values():
        for ins in instrs:
            for a in ins.args:
                _literals(a, lits)
    for _loc, _node, v in test.inits:
        _literals(v, lits)
    got = _record(run_litmus(test, dump_witness=True))
    monkeypatch.setattr(Pools, "stored", lambda self, place, tid, prior: set(lits))
    assert _record(run_litmus(test, dump_witness=True)) == got
