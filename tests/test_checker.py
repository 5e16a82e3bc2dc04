"""The search ``enumerate_consistent``: every accepted combination passes
the whole-execution check ``lambda_consistent``, and an execution that
differs from one in stamping, so or hb does not.  It yields the same
combinations, in the same order, as a search that takes each library's
unpruned witnesses, grows a copy of ppo by each one's so and then asks
``post_check``; it closes ppo once per shape, before the first library,
and runs library i's search once per combination of the libraries before
it, given the order that combination grew.  A witness search pruned by
an order drops only witnesses whose so closes a cycle with it, and hands
each one it keeps back with that order grown by its so.  Its one-sweep
ppo is the closure of ``derive_ppo``, and the checker's path builds no
relation as a pair set and no subevent: only a dump names positions.
``outcomes`` starts no collection of the cyclic collector and leaves it
as it found it, and no corpus file or pinned tower verdict leaves
anything for that collector, which is what makes the pause safe."""

from __future__ import annotations

import gc
import json
import sys
import weakref
from pathlib import Path

import pytest

from conftest import C, cfg2, compiled, soundness, unfold_compiled, unfold_file
from reference import Execution, forward_rows, lambda_consistent, named, slice_witnesses
from test_rdma_ib import CLIENTS
from test_relations import naive_closure
from test_ringbuf import POST_CHECK_VETO
from test_tower_verdicts import ITEMS, SNAPSHOT, item_id
from rdmacheck import checker, runner
from rdmacheck.checker import Bounds, enumerate_consistent, outcomes, pools, stamp_events
from rdmacheck.dump import dump_execution
from rdmacheck.events import InvalidInput, PlainExecution, SubEvent, subevent_list
from rdmacheck.lang import interpret_conc
from rdmacheck.libraries.base import Library, Numbering, Witness
from rdmacheck.litmus import build_test, parse_litmus
from rdmacheck.relations import IncrementalOrder
from rdmacheck.runner import _mk_libs
from rdmacheck.stamps import ACR, AMF, derive_ppo, ppo_before
from rdmacheck.values import UNIT

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
FILES = sorted(CORPUS.glob("*.litmus"))

# Clients written out by the tests: the RDMA clients where a free nfo
# orientation or an internal fr edge decides, and a weak ring buffer
# whose post_check vetoes an execution.
TEXTS = {**CLIENTS, "post_check_veto": POST_CHECK_VETO}


def written(tmp_path, path):
    """``path``, or the client ``TEXTS`` names by it written to ``tmp_path``."""
    if isinstance(path, str):
        name, path = path, tmp_path / f"{path}.litmus"
        path.write_text(TEXTS[name])
    return path


def accepted(path: Path):
    """(execution, libs, cfg) of every combination the search accepts."""
    built, libs, res = unfold_file(path)
    for _vals, plain in res.results:
        stmp = stamp_events(plain, libs, built.cfg)[0]
        for acc in enumerate_consistent([plain], libs, built.cfg):
            n = named(acc, stmp)
            yield Execution(plain, stmp, n.so, n.hb), libs, built.cfg


@pytest.mark.parametrize("path", FILES + ["post_check_veto"],
                         ids=[p.stem for p in FILES] + ["clients/post_check_veto"])
def test_accepted_combinations_pass_the_whole_execution_check(tmp_path, path):
    n = 0
    for ex, libs, cfg in accepted(written(tmp_path, path)):
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
    """The reference search: each library's unpruned witnesses, in
    ``libs`` order, each growing a copy of ppo (swept from
    ``ppo_before``) by its so, restarted for every combination of the
    libraries before it, and ``post_check`` on the order so grown:
    (so per library, hb) of each accepted combination."""
    stmp, per_lib = stamp_events(plain, libs, cfg)
    slices = [(lib, PlainExecution(tuple(per_lib[lib.name]))) for lib in libs]
    subevents = subevent_list(plain.events, stmp)

    def rec(i, order, chosen):
        if i == len(slices):
            if all(lib.post_check(w, order) for lib, w in chosen):
                yield ([(lib.name, named(w, stmp).so) for lib, w in chosen],
                       order.pairs(None, subevents))
            return
        lib, sl = slices[i]
        for w in slice_witnesses(lib, sl, stmp, cfg):
            assert w.hb is None
            o2 = order.copy()
            if o2.add_edges(w.so):
                yield from rec(i + 1, o2, chosen + [(lib, w)])

    yield from rec(0, IncrementalOrder(forward_rows(subevents, ppo_before)), [])


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
VETOED = [("clients/post_check_veto", "post_check_veto", None)]
# The compiled sides of the pinned tower verdicts.
TOWERS = [(f"towers/{item_id(it)}", ROOT / f"{it[1]}.litmus", (it[0], it[2]))
          for it in ITEMS]


@pytest.mark.parametrize("path, tower", [(p, t) for _, p, t in COMBINED + VETOED + TOWERS],
                         ids=[n for n, _, _ in COMBINED + VETOED + TOWERS])
def test_same_combinations_in_the_same_order_as_the_eager_search(tmp_path, path, tower):
    cfg, libs, res = unfold_searched(written(tmp_path, path), tower)
    n = 0
    for _vals, plain in res.results:
        stmp = stamp_events(plain, libs, cfg)[0]
        got = [([(name, w.so) for name, w in c.witnesses.items()], c.hb)
               for c in (named(acc, stmp) for acc in enumerate_consistent([plain], libs, cfg))]
        assert got == list(eager_combinations(plain, libs, cfg))
        n += len(got)
    assert n > 0


@pytest.mark.parametrize("path, tower", [(p, t) for _, p, t in SEARCHED],
                         ids=[n for n, _, _ in SEARCHED])
def test_the_swept_ppo_is_the_closure_of_derive_ppo(path, tower):
    cfg, libs, res = unfold_searched(path, tower)
    for _vals, plain in res.results:
        stmp, per_lib = stamp_events(plain, libs, cfg)
        # ppo is swept over positions, named by the execution's list.
        ppo = checker.ppo_order(Numbering(plain.events, stmp, per_lib))
        assert (ppo.pairs(None, subevent_list(plain.events, stmp))
                == frozenset(naive_closure(derive_ppo(plain, stmp))))
    assert res.results


def witness_key(w, stmp):
    n = named(w, stmp)
    return n.so, n.rels, n.vR, n.vW


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
    """Each library, given ppo or, past the first, the order an earlier
    library's first witness handed back, yields an in-order subsequence
    of its unpruned witnesses: each one it leaves out closes a cycle with
    that order, and each one it keeps carries that order grown by its so.
    The order given is not changed."""
    if isinstance(path, str):
        path = tmp_path / f"{path}.litmus"
        path.write_text({**CLIENTS, "own_write_sb": OWN_WRITE_SB}[path.stem])
    cfg, libs, res = unfold_searched(path, tower)
    dropped = 0
    for _vals, plain in res.results:
        stmp, per_lib = stamp_events(plain, libs, cfg)
        hb = checker.ppo_order(Numbering(plain.events, stmp, per_lib))
        for lib in libs:
            rows = list(hb.rows)
            sl = PlainExecution(tuple(per_lib[lib.name]))
            pruned = slice_witnesses(lib, sl, stmp, cfg, hb)
            first = nxt = next(pruned, None)
            for w in slice_witnesses(lib, sl, stmp, cfg):
                assert w.hb is None
                grown = hb.copy()
                if not grown.add_edges(w.so):
                    grown = None
                if nxt is not None and witness_key(nxt, stmp) == witness_key(w, stmp):
                    assert grown is not None and nxt.hb.rows == grown.rows
                    nxt = next(pruned, None)
                else:
                    assert grown is None
                    dropped += 1
            assert nxt is None
            assert hb.rows == rows
            if first is None:
                break
            hb = first.hb
    assert res.results
    if name == "rbl/appf_rbl_bal":
        assert dropped > 0


class Counted(Library):
    """A one-method library with ``n`` witnesses of empty so on every
    slice, each handing back the order it was given; counts the calls of
    ``witnesses`` and the witnesses drawn, and keeps a weak reference to
    each witness and the order each call was given."""

    def __init__(self, method: str, n: int):
        self.name = method
        self.methods = frozenset({method})
        self.n = n
        self.calls = self.drawn = 0
        self.refs, self.given = [], []

    def stamping(self, e, cfg):
        return frozenset({ACR})

    def outputs(self, method, args, tid, state, profile, cfg):
        return ((UNIT, state),)

    def witnesses(self, group, shape, cfg, hb=None, alive=1, wanted=(-1,)):
        self.calls += 1
        self.given.append(hb)
        for _ in range(self.n):
            self.drawn += 1
            w = Witness(self.name, frozenset(), hb=hb)
            self.refs.append(weakref.ref(w))
            yield w


def _one_plain(libs, cfg):
    progs = [C("a"), C("b")]
    res = interpret_conc(progs, pools(libs, cfg), 14)
    (_vals, plain), = res.results
    return progs, plain


@pytest.fixture
def ppo_calls(monkeypatch):
    """The numberings whose ppo order the checker builds."""
    calls = []
    ppo_order = checker.ppo_order

    def counted(num):
        calls.append(num)
        return ppo_order(num)

    monkeypatch.setattr(checker, "ppo_order", counted)
    return calls


@pytest.mark.parametrize("na, nb", [(3, 2), (0, 2), (3, 0), (0, 0)])
def test_each_search_runs_once_and_ppo_waits_for_every_library(ppo_calls, na, nb):
    """The first library's search runs once and the second's once per
    witness of the first, each drawn to its end; ppo is closed once for
    the shape, before the first library, whether or not any has a
    witness."""
    a, b = Counted("a", na), Counted("b", nb)
    cfg = cfg2()
    _progs, plain = _one_plain([a, b], cfg)
    assert len(list(enumerate_consistent([plain], [a, b], cfg))) == na * nb
    assert (a.calls, a.drawn) == (1, na)
    assert (b.calls, b.drawn) == (na, na * nb)
    assert len(ppo_calls) == 1


def test_a_library_that_asks_for_ppo_gets_the_order_hb_grows_from(ppo_calls):
    """The first library is given the shape's ppo, the closure of
    ``derive_ppo``; the second is given the order each of the first's
    witnesses handed back, here that same order, and nothing changed
    it."""
    a, b = Counted("a", 2), Counted("b", 2)
    cfg = cfg2()
    _progs, plain = _one_plain([a, b], cfg)
    assert len(list(enumerate_consistent([plain], [a, b], cfg))) == 4
    (ppo,) = a.given
    assert len(ppo_calls) == 1
    assert b.given == [ppo, ppo] and all(o is ppo for o in b.given)
    stmp, _per_lib = stamp_events(plain, [a, b], cfg)
    assert ppo.pairs() == frozenset(naive_closure(derive_ppo(plain, stmp)))
    assert ppo.rows == checker.ppo_order(ppo_calls[0]).rows


def test_the_first_library_holds_no_witness_it_has_moved_past():
    """Neither library holds a witness it has moved past: at each
    combination only its own witnesses are live."""
    a, b = Counted("a", 3), Counted("b", 2)
    cfg = cfg2()
    _progs, plain = _one_plain([a, b], cfg)
    live = []
    for acc in enumerate_consistent([plain], [a, b], cfg):
        live.append(([r() is not None for r in a.refs], [r() is not None for r in b.refs]))
        del acc
    assert [la for la, _lb in live] == ([[True], [True]] + [[False, True]] * 2
                                        + [[False, False, True]] * 2)
    assert [lb for _la, lb in live] == [[False] * k + [True] for k in range(6)]


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


@pytest.fixture
def subevents_built(monkeypatch):
    """How many subevents are constructed, in a one-item list."""
    built = [0]
    init = SubEvent.__post_init__

    def counted(self):
        built[0] += 1
        init(self)

    monkeypatch.setattr(SubEvent, "__post_init__", counted)
    return built


def dumped_pairs(text: str) -> dict:
    """Each section of a dump (its header line, stripped) with the pair
    lines under it."""
    sections, header = {}, None
    for line in text.splitlines():
        if " -> " in line:
            sections[header].add(line.strip())
        else:
            header = line.strip()
            sections.setdefault(header, set())
    return sections


def pair_lines(rel) -> set:
    name = lambda s: f"e{s.event.tid}.{s.event.eid}/{s.stamp!r}"
    return {f"{name(a)} -> {name(b)}" for a, b in rel}


@pytest.mark.parametrize("stem, impl, events", [("fig3_sb_get_wait", "w", 32),
                                                ("appf_rbl_bal", "rbl", 30)])
def test_the_checker_names_nothing_and_a_dump_names_the_same_pairs(
        pairs_calls, subevents_built, stem, impl, events):
    """Neither a full outcome computation nor a soundness check builds an
    order's pair set or a subevent.  A dump of an accepted combination
    names its so, its hb and each witness's relations as the tests'
    naming does, and an RDMA witness's so, which takes inst_ib from the
    rows of its ib order, holds iso, as ib does."""
    path = CORPUS / f"{stem}.litmus"
    progs, cfg, libs = compiled(path, [impl])
    assert outcomes(progs, libs, cfg, Bounds(max_events=events)).outcomes
    assert soundness(path, [impl], events).included
    assert not pairs_calls and subevents_built == [0]
    res = interpret_conc(progs, pools(libs, cfg), events)
    plain, acc = next((plain, acc) for _vals, plain in res.results
                      for acc in enumerate_consistent([plain], libs, cfg))
    stmp = stamp_events(plain, libs, cfg)[0]
    n = named(acc, stmp)
    want = {"so": pair_lines(n.so), "hb": pair_lines(n.hb)}
    want.update((f"{lib}.{k}", pair_lines(r))
                for lib, w in n.witnesses.items() for k, r in w.rels.items())
    got = dumped_pairs(dump_execution(plain, stmp, acc["witnesses"], acc["hb"]))
    assert {k: got[k] for k in want} == want
    assert want["so"] and want["hb"]
    rdma = [w for w in n.witnesses.values() if "ib" in w.rels]
    assert bool(rdma) == (impl == "w")
    for w in rdma:
        assert w.so >= w.rels["iso"] and w.rels["ib"] >= w.rels["iso"]


def test_coherence_grows_the_order_by_covering_pairs(tmp_path, monkeypatch):
    """One thread writes x a hundred times and then reads it.  Each of
    the read's rf choices grows the order by mo's consecutive pairs and
    one rb pair, not by every mo and rb pair: the pairs handed to
    ``add_edges`` stay far below the 4,950 of one whole mo per choice."""
    path = tmp_path / "writes.litmus"
    body = "\n".join(["  write x 1"] * 100 + ["  a = read x"])
    path.write_text(f"nodes n1\nlibs rl\nloc x @ n1\nthread t1 @ n1 {{\n{body}\n}}\n"
                    "bounds events=200\n")
    pairs = []
    add_edges = IncrementalOrder.add_edges

    def counted(self, edges):
        edges = list(edges)
        pairs.append(len(edges))
        return add_edges(self, edges)

    monkeypatch.setattr(IncrementalOrder, "add_edges", counted)
    assert runner.run_file(path).verdict == runner.PASS
    assert 0 < sum(pairs) < 25_000


def _outcome_case(stem, impl, events):
    """(programs, libraries, node config, bounds): a corpus file at its
    own bounds, or its compiled side under ``impl`` at the cap ``events``."""
    if impl is None:
        test = parse_litmus((CORPUS / f"{stem}.litmus").read_text(), name=stem)
        built = build_test(test)
        return built.programs, _mk_libs(built.libs), built.cfg, test.bounds
    progs, cfg, libs = compiled(CORPUS / f"{stem}.litmus", [impl])
    return progs, libs, cfg, Bounds(max_events=events)


def assert_no_cyclic_garbage(run) -> None:
    """``run()``, which must give a true result, leaves nothing for the
    cyclic collector once it has run before.  This is what lets
    ``outcomes`` run with the collector paused: all it drops is freed by
    reference counting.  What exists before the second run is frozen, so
    the collection that counts looks only at what that run made."""
    assert run()
    gc.disable()
    gc.freeze()
    try:
        assert run()
        assert gc.collect() == 0
    finally:
        gc.unfreeze()
        gc.enable()


@pytest.mark.parametrize("stem, impl, events", [
    *[(p.stem, None, None) for p in FILES],
    ("bug1_barrier", "bal_buggy", 26), ("fig4_gf_sb", "sv", 32),
    ("fig3_sb_get_wait", "w", 32), ("appf_rbl_bal", "rbl", 30)])
def test_an_outcome_computation_leaves_no_cyclic_garbage(stem, impl, events):
    """No search function, and no body the unfolding calls, refers to
    itself, so a warm outcome computation leaves nothing for the cyclic
    collector: on every corpus file, checked whole through ``run_file``,
    and on compiled sides."""
    if impl is None:
        path = CORPUS / f"{stem}.litmus"
        assert_no_cyclic_garbage(lambda: runner.run_file(path).verdict == runner.PASS)
    else:
        progs, libs, cfg, bounds = _outcome_case(stem, impl, events)
        assert_no_cyclic_garbage(lambda: outcomes(progs, libs, cfg, bounds).outcomes)


# Each pinned tower verdict with whether it is included, as pinned, and
# fig5_barrier under bal_weak at a cap of 30, which is included.
PINNED = json.loads(SNAPSHOT.read_text())
SOUNDNESS_CASES = [*[(*it, PINNED[item_id(it)]["included"]) for it in ITEMS],
                   ("bal_weak", "corpus/fig5_barrier", 30, True)]


@pytest.mark.parametrize(
    "impl, client, events, included", SOUNDNESS_CASES,
    ids=[f"{Path(c).name}-{i}-{e}" for i, c, e, _ in SOUNDNESS_CASES])
def test_a_soundness_check_leaves_no_cyclic_garbage(impl, client, events, included):
    """No client program the litmus front end builds, no substitution
    that compiles it and no compiled body the unfolding calls refers to
    itself, so a warm soundness check, from building the client to the
    verdict, leaves nothing for the cyclic collector: on every pinned
    tower verdict, each of which must stay as pinned and rest on some
    compiled outcomes."""

    def run():
        rep = soundness(ROOT / f"{client}.litmus", [impl], events)
        return rep.included is included and rep.impl_outcomes

    assert_no_cyclic_garbage(run)


@pytest.fixture
def collector_on():
    """The collector on when the test starts, and on again after it."""
    gc.enable()
    yield
    gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_outcomes_leaves_the_collector_as_it_found_it(collector_on, enabled):
    """``outcomes`` pauses the collector and restores it, whether it was on
    or off, whether the call returns or raises, and through the two
    nested calls of a soundness check."""
    progs, libs, cfg, bounds = _outcome_case("fig6c_bcast_cycle", None, None)
    (gc.enable if enabled else gc.disable)()
    assert outcomes(progs, libs, cfg, bounds).outcomes
    assert gc.isenabled() is enabled
    with pytest.raises(InvalidInput):
        outcomes([C("no_such_method")], libs, cfg, bounds)
    assert gc.isenabled() is enabled
    assert soundness(CORPUS / "fig5_barrier.litmus", ["bal_weak"], 20).included
    assert gc.isenabled() is enabled


def test_no_automatic_collection_starts_inside_an_outcome_computation(collector_on):
    """With the collector on, a computation that allocates far more than
    a generation's threshold starts no collection while it runs (one may
    start once it has returned)."""
    cases = [_outcome_case(*case) for case in [
        ("fig6c_bcast_cycle", "sv", 32), ("bug1_barrier", "bal_buggy", 26),
        ("appf_rbl_bal", "rbl", 30)]]
    starts = []

    def count(phase, _info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not outcomes.__code__:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            starts.append(phase)

    gc.collect()
    gc.callbacks.append(count)
    try:
        for progs, libs, cfg, bounds in cases:
            assert outcomes(progs, libs, cfg, bounds).outcomes
    finally:
        gc.callbacks.remove(count)
    assert starts == []
