"""The search ``enumerate_consistent``: every accepted combination passes
the whole-execution check ``lambda_consistent``, and an execution that
differs from one in stamping, so or hb does not.  It yields the same
combinations, in the same order, as a search that builds hb first and
restarts each library's search for every combination before it; and it
runs each library's search once, building ppo at most once, when a
library asks for it or every library has a witness.  A witness search
pruned by ppo drops only witnesses that hb would veto.  Its one-sweep ppo
is the closure of ``derive_ppo``, and it builds no relation as a pair set
unless something reads it."""

from __future__ import annotations

import weakref
from pathlib import Path

import pytest

from conftest import C, cfg2, compiled, unfold_compiled, unfold_file
from test_rdma_ib import CLIENTS
from test_relations import naive_closure
from rdmacheck import checker, runner
from rdmacheck.checker import (Bounds, enumerate_consistent, lambda_consistent,
                               outcomes, pools, stamp_events)
from rdmacheck.events import Execution, SubEvent, subevent_list
from rdmacheck.lang import interpret_conc
from rdmacheck.libraries.base import Library, Witness
from rdmacheck.relations import IncrementalOrder
from rdmacheck.stamps import ACR, AMF, derive_ppo, ppo_before
from rdmacheck.values import UNIT

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
FILES = sorted(CORPUS.glob("*.litmus"))


def accepted(path: Path):
    """(execution, libs, cfg) of every combination the search accepts."""
    built, libs, res = unfold_file(path)
    for _vals, plain in res.results:
        for acc in enumerate_consistent(plain, libs, built.cfg):
            yield (Execution(plain, acc["stmp"], acc["so"], acc["hb"]),
                   libs, built.cfg)


@pytest.mark.parametrize("path", FILES, ids=[p.stem for p in FILES])
def test_accepted_combinations_pass_the_whole_execution_check(path):
    n = 0
    for ex, libs, cfg in accepted(path):
        ok, ws = lambda_consistent(ex, libs, cfg)
        assert ok
        assert set(ws) == {lib.name for lib in libs}
        n += 1
    assert n > 0


def _first(stem: str):
    return next(accepted(CORPUS / f"{stem}.litmus"))


def test_rejects_a_stamping_that_is_not_the_libraries():
    ex, libs, cfg = _first("fig2a_wait")
    e = next(iter(ex.plain.events))
    stmp = {**ex.stmp, e: ex.stmp[e] | {AMF}}
    assert lambda_consistent(ex, libs, cfg)[0]
    assert not lambda_consistent(Execution(ex.plain, stmp, ex.so, ex.hb), libs, cfg)[0]


def test_rejects_a_missing_so_or_hb_edge():
    ex, libs, cfg = _first("fig4_gf_sb")
    so_edge = next(iter(ex.so))
    less_so = Execution(ex.plain, ex.stmp, ex.so - {so_edge}, ex.hb)
    assert not lambda_consistent(less_so, libs, cfg)[0]
    hb_edge = next(iter(ex.hb))
    less_hb = Execution(ex.plain, ex.stmp, ex.so, ex.hb - {hb_edge})
    assert not lambda_consistent(less_hb, libs, cfg)[0]


def eager_combinations(plain, libs, cfg):
    """The search with ppo and hb built first and each library's search
    restarted for every combination of the libraries before it:
    (so per library, hb) of each accepted combination."""
    stmp, per_lib = stamp_events(plain, libs, cfg)
    slices = [(lib, plain.restrict(per_lib[lib.name])) for lib in libs]

    def rec(i, order, chosen):
        if i == len(slices):
            hb = order.pairs()
            if all(lib.post_check(w, hb) for lib, w in chosen):
                yield [(lib.name, w.so) for lib, w in chosen], hb
            return
        lib, sl = slices[i]
        for w in lib.witnesses(sl, stmp, cfg):
            o2 = order.copy()
            if o2.add_edges(w.so):
                yield from rec(i + 1, o2, chosen + [(lib, w)])

    subevents = [SubEvent(e, a) for e in plain.events for a in stmp[e]]
    yield from rec(0, IncrementalOrder(subevents, ppo_before), [])


# The corpus workload's files and two compiled sides of the soundness
# workloads at their benchmark bounds: one where the RDMA libraries reject
# most executions, one where the shared-variable search does.
SEARCHED = ([(p.stem, p, None) for p in
             FILES + [ROOT / "perfbench/inputs/msw_put_tryread.litmus"]]
            + [("w/fig3_sb_get_wait", CORPUS / "fig3_sb_get_wait.litmus", ("w", 32)),
               ("bal_buggy/bug1_barrier", CORPUS / "bug1_barrier.litmus",
                ("bal_buggy", 26))])


def unfold_searched(path, tower):
    """(node config, libraries, interpretation result) of a SEARCHED item."""
    if tower is None:
        built, libs, res = unfold_file(path)
        return built.cfg, libs, res
    impl, events = tower
    return unfold_compiled(path, [impl], events)


# The RDMA clients where a free nfo orientation or an internal fr edge
# decides, written out by the test.
COMBINED = SEARCHED + [(f"clients/{n}", n, None) for n in sorted(CLIENTS)]


@pytest.mark.parametrize("path, tower", [(p, t) for _, p, t in COMBINED],
                         ids=[n for n, _, _ in COMBINED])
def test_same_combinations_in_the_same_order_as_the_eager_search(tmp_path, path, tower):
    if isinstance(path, str):
        name, path = path, tmp_path / f"{path}.litmus"
        path.write_text(CLIENTS[name])
    cfg, libs, res = unfold_searched(path, tower)
    n = 0
    for _vals, plain in res.results:
        got = [([(name, w.so) for name, w in acc["witnesses"].items()], acc["hb"])
               for acc in enumerate_consistent(plain, libs, cfg)]
        assert got == list(eager_combinations(plain, libs, cfg))
        n += len(got)
    assert n > 0


@pytest.mark.parametrize("path, tower", [(p, t) for _, p, t in SEARCHED],
                         ids=[n for n, _, _ in SEARCHED])
def test_the_swept_ppo_is_the_closure_of_derive_ppo(path, tower):
    cfg, libs, res = unfold_searched(path, tower)
    for _vals, plain in res.results:
        stmp, _per_lib = stamp_events(plain, libs, cfg)
        # ppo is swept over positions, named by the execution's list.
        assert (checker.ppo_order(plain, stmp).pairs(None, subevent_list(plain.events, stmp))
                == frozenset(naive_closure(derive_ppo(plain, stmp))))
    assert res.results


def witness_key(w):
    return w.so, w.rels["rf"], w.rels["mo"], w.vR, w.vW


# A CPU read of its own thread's write, then store buffering.  hb holds
# no internal rf pair: a search pruned by one would drop the witness where
# t2's write to x is mo-first, whose cycle runs through b's rb edge.
OWN_WRITE_SB = """nodes n1
libs rl
loc x @ n1
loc y @ n1
thread t1 @ n1 {
  write x 1
  a = read x
  b = read y
}
thread t2 @ n1 {
  write y 1
  write x 2
}
"""

# The SEARCHED items, the RDMA clients, and a compiled side where the
# shared-variable search builds witnesses that hb vetoes.
PRUNED = COMBINED + [("clients/own_write_sb", "own_write_sb", None),
                     ("rbl/appf_rbl_bal", CORPUS / "appf_rbl_bal.litmus", ("rbl", 30))]


@pytest.mark.parametrize("name, path, tower", PRUNED, ids=[n for n, _, _ in PRUNED])
def test_pruning_by_ppo_drops_only_witnesses_that_hb_vetoes(tmp_path, name, path, tower):
    if isinstance(path, str):
        path = tmp_path / f"{path}.litmus"
        path.write_text({**CLIENTS, "own_write_sb": OWN_WRITE_SB}[path.stem])
    cfg, libs, res = unfold_searched(path, tower)
    dropped = 0
    for _vals, plain in res.results:
        stmp, per_lib = stamp_events(plain, libs, cfg)
        ppo = checker.ppo_order(plain, stmp)
        rows = list(ppo.rows)
        for lib in libs:
            if lib.name not in ("sv", "rl", "tso", "msw"):
                continue
            sl = plain.restrict(per_lib[lib.name])
            pruned = lib.witnesses(sl, stmp, cfg, lambda: ppo)
            # The pruned witnesses are an in-order subsequence of all of
            # them, and each one left out closes a cycle with ppo.
            nxt = next(pruned, None)
            for w in lib.witnesses(sl, stmp, cfg):
                if nxt is not None and witness_key(nxt) == witness_key(w):
                    nxt = next(pruned, None)
                else:
                    assert not w.add_to(ppo.copy())
                    dropped += 1
            assert nxt is None
        assert ppo.rows == rows
    assert res.results
    if name == "rbl/appf_rbl_bal":
        assert dropped > 0


class Counted(Library):
    """A one-method library with ``n`` witnesses of empty so on every
    slice; counts the calls of ``witnesses`` and the witnesses drawn,
    keeps a weak reference to each witness and, with ``asks_ppo``, the
    ppo order it got."""

    def __init__(self, method: str, n: int, asks_ppo: bool = False):
        self.name = method
        self.methods = frozenset({method})
        self.n = n
        self.asks_ppo = asks_ppo
        self.calls = self.drawn = 0
        self.refs, self.ppos = [], []

    def stamping(self, e, cfg):
        return frozenset({ACR})

    def outputs(self, method, args, tid, state, profile, cfg):
        return ((UNIT, state),)

    def witnesses(self, plain, stmp, cfg, ppo=None, memo=None):
        self.calls += 1
        if self.asks_ppo:
            self.ppos.append(ppo())
        for _ in range(self.n):
            self.drawn += 1
            w = Witness(self.name, frozenset())
            self.refs.append(weakref.ref(w))
            yield w


def _one_plain(libs, cfg):
    progs = [C("a"), C("b")]
    res = interpret_conc(progs, pools(libs, cfg), 14)
    (_vals, plain), = res.results
    return progs, plain


@pytest.fixture
def ppo_calls(monkeypatch):
    """The plain executions whose ppo order the checker builds."""
    calls = []
    ppo_order = checker.ppo_order

    def counted(plain, stmp):
        calls.append(plain)
        return ppo_order(plain, stmp)

    monkeypatch.setattr(checker, "ppo_order", counted)
    return calls


@pytest.mark.parametrize("na, nb", [(3, 2), (0, 2), (3, 0), (0, 0)])
def test_each_search_runs_once_and_ppo_waits_for_every_library(ppo_calls, na, nb):
    a, b = Counted("a", na), Counted("b", nb)
    cfg = cfg2()
    _progs, plain = _one_plain([a, b], cfg)
    assert len(list(enumerate_consistent(plain, [a, b], cfg))) == na * nb
    # Past the first witness, a's are drawn only when b has one too; b's
    # search is replayed for each of them but runs once, and is not
    # started when a has no witness.
    assert (a.calls, a.drawn) == (1, na if nb else min(na, 1))
    assert (b.calls, b.drawn) == ((1, nb) if na else (0, 0))
    assert len(ppo_calls) == (1 if na and nb else 0)


def test_a_library_that_asks_for_ppo_gets_the_order_hb_grows_from(ppo_calls, monkeypatch):
    copied = []
    copy_order = IncrementalOrder.copy

    def counted(self):
        copied.append(self)
        return copy_order(self)

    monkeypatch.setattr(IncrementalOrder, "copy", counted)
    a, b = Counted("a", 2, asks_ppo=True), Counted("b", 2, asks_ppo=True)
    cfg = cfg2()
    _progs, plain = _one_plain([a, b], cfg)
    assert len(list(enumerate_consistent(plain, [a, b], cfg))) == 4
    (ppo,) = {id(o): o for o in a.ppos + b.ppos}.values()
    assert len(ppo_calls) == 1
    # hb starts from a copy of that very order, which nothing changed.
    assert copied[0] is ppo
    stmp, _per_lib = stamp_events(plain, [a, b], cfg)
    assert ppo.pairs() == frozenset(naive_closure(derive_ppo(plain, stmp)))


def test_the_first_library_holds_no_witness_it_has_moved_past():
    a, b = Counted("a", 3), Counted("b", 2)
    cfg = cfg2()
    _progs, plain = _one_plain([a, b], cfg)
    live = []
    for acc in enumerate_consistent(plain, [a, b], cfg):
        live.append([r() is not None for r in a.refs])
        del acc
    # a's witness of each combination is live, and none before it; b's
    # are replayed for each of a's.
    assert live == [[True], [True]] + [[False, True]] * 2 + [[False, False, True]] * 2
    assert all(r() is not None for r in b.refs)


def test_outputs_only_draws_only_an_accepted_first_witness():
    a, b = Counted("a", 4), Counted("b", 4)
    cfg = cfg2()
    progs, _plain = _one_plain([a, b], cfg)
    r = outcomes(progs, [a, b], cfg, Bounds(), outputs_only=True)
    assert len(r.outcomes) == 1
    assert (a.calls, a.drawn, b.calls, b.drawn) == (1, 1, 1, 1)


@pytest.fixture
def pairs_calls(monkeypatch):
    """The orders whose pairs are built as a set."""
    calls = []
    pairs = IncrementalOrder.pairs

    def counted(self, *args):
        calls.append(self)
        return pairs(self, *args)

    monkeypatch.setattr(IncrementalOrder, "pairs", counted)
    return calls


def test_the_checker_builds_no_pair_set(pairs_calls):
    # An RDMA tower's compiled side, a corpus file through the runner, and
    # a full enumeration whose outcomes carry final memory.
    progs, cfg, libs = compiled(CORPUS / "fig3_sb_get_wait.litmus", ["w"])
    assert outcomes(progs, libs, cfg, Bounds(max_events=32), outputs_only=True).outcomes
    assert not pairs_calls
    assert runner.run_file(CORPUS / "fig3_sb_get_wait.litmus").verdict == runner.PASS
    assert not pairs_calls
    built, libs, _res = unfold_file(CORPUS / "fig3_sb_get_wait.litmus")
    r = outcomes(built.programs, libs, built.cfg, Bounds())
    assert any(o.memory for o in r.outcomes) and not pairs_calls


def test_so_hb_and_ib_are_built_when_read(pairs_calls):
    built, libs, res = unfold_file(CORPUS / "fig3_sb_get_wait.litmus")
    acc = next(acc for _vals, plain in res.results
               for acc in enumerate_consistent(plain, libs, built.cfg))
    w = acc["witnesses"]["rl"]
    assert not pairs_calls
    assert acc["hb"] and len(pairs_calls) == 1
    # The combination's so is the witness's, which takes inst_ib from
    # the rows of its ib order.
    assert acc["so"] == w.so and len(pairs_calls) == 2
    assert w.rels["ib"] and len(pairs_calls) == 3
    assert w.so >= w.rels["iso"] and w.rels["ib"] >= w.rels["iso"]
    # A second read builds nothing.
    assert (acc["so"], acc["hb"], w.so, w.rels["ib"]) and len(pairs_calls) == 3
