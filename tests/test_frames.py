"""Per-shape frames: plain executions that differ only in what their reads
return share their numbering, their ppo, and each library's shape-decided
part of the witness search, within one outcome computation.  Frames name
subevents by position, so the frame a later execution of a shape takes
from a memo shared by every execution of an item equals one built afresh
for it, and frames are read off positions: no execution builds a
subevent unless something reads one, and each shape of an outcome
computation is numbered once for all its libraries and searched once for
all its plain executions.  The search gives the same combinations, in
the same order, with a shared memo as with a fresh one.  Each event
lists its read part first, so ib's fixed part runs forward along ppo's
positions.  No frame outlives the ``outcomes`` call that built it."""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import compiled, soundness, unfold_compiled, unfold_file
from reference import named, slice_shape
from test_rdma_ib import CLIENTS
from test_tower_verdicts import ITEMS, item_id
from rdmacheck import checker, compilers
from rdmacheck.checker import enumerate_consistent, stamp_events
from rdmacheck.events import PlainExecution, SubEvent
from rdmacheck.lang import interpret_conc
from rdmacheck.libraries.base import Coherence, Numbering, Shape
from rdmacheck.libraries.rdma_core import RdmaLib
from rdmacheck.relations import IncrementalOrder

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
FILES = sorted(CORPUS.glob("*.litmus")) + [ROOT / "perfbench/inputs/msw_put_tryread.litmus"]

# The corpus workload's files, the compiled sides of the pinned tower
# verdicts, and the RDMA clients where nfo and internal fr decide.
CASES = ([(p.stem, p, None) for p in FILES]
         + [(item_id(it), ROOT / f"{it[1]}.litmus", it) for it in ITEMS]
         + [(f"clients/{n}", n, None) for n in sorted(CLIENTS)])


def unfold_case(tmp_path, path, item):
    """(node config, libraries, interpretation result) of a CASES entry."""
    if isinstance(path, str):
        name, path = path, tmp_path / f"{path}.litmus"
        path.write_text(CLIENTS[name])
    if item is None:
        built, libs, res = unfold_file(path)
        return built.cfg, libs, res
    impl, _client, events = item
    return unfold_compiled(path, [impl], events)


# What a search keeps in a frame as it runs: the last hb it grew from.
RUN_FIELDS = {"base"}


def comparable(x):
    """``x`` with each order as its rows, each numbering as its
    positions, each coherence search as its fields and each frame as its
    fields but `RUN_FIELDS`, so that frames built for two executions of a
    shape compare equal field by field."""
    if isinstance(x, IncrementalOrder):
        return x.rows
    if isinstance(x, Numbering):
        return x.own, x.event, x.tid, x.stamp, x.direct_ppo
    if isinstance(x, Coherence):
        return {k: comparable(getattr(x, k)) for k in Coherence.__slots__}
    if isinstance(x, dict):
        return {k: comparable(v) for k, v in x.items()}
    if isinstance(x, SimpleNamespace):
        return comparable({k: v for k, v in vars(x).items() if k not in RUN_FIELDS})
    return x


@pytest.mark.parametrize("path, item", [(p, it) for _, p, it in CASES],
                         ids=[n for n, _, _ in CASES])
def test_a_rebound_frame_is_the_frame_built_afresh(tmp_path, path, item):
    """The frame a later execution of a shape takes from the memo, as it
    is, equals the frame built afresh for it, and so do the shape's
    numbering and ppo, and the order each frame grows from that ppo."""
    cfg, libs, res = unfold_case(tmp_path, path, item)
    memo = {}
    later = 0
    for _vals, plain in res.results:
        stamped = stamp_events(plain, libs, cfg)
        stmp, per_lib = stamped
        later += stamped.key in memo
        num = Numbering(plain.events, stmp, per_lib)
        if stamped.key not in memo:
            memo[stamped.key] = Shape(num)
            memo[stamped.key].ppo = checker.ppo_order(num)
        shape = memo[stamped.key]
        assert comparable(shape.numbering) == comparable(num)
        fresh = checker.ppo_order(num)
        assert shape.ppo.rows == fresh.rows
        for lib in libs:
            if not hasattr(lib, "_build_frame"):
                continue
            sl = PlainExecution(tuple(per_lib[lib.name]))
            got = lib.frame(shape, cfg)
            want = lib.frame(slice_shape(sl, stmp, lib.name), cfg)
            assert comparable(got) == comparable(want)
            if want is not None:
                assert (comparable(lib.grown_hb(got, shape.ppo))
                        == comparable(lib.grown_hb(want, fresh)))
    assert res.results
    if path == CORPUS / "fig3_sb_get_wait.litmus":
        assert later == 3


@pytest.mark.parametrize("path, item", [(p, it) for _, p, it in CASES],
                         ids=[n for n, _, _ in CASES])
def test_each_event_lists_its_read_part_first(tmp_path, path, item):
    """A put's or get's read part, and a failed CAS's fence, stand before
    the part they are ordered before, and ib's fixed part holds that iso
    pair, so it runs forward along the positions ppo is swept over."""
    cfg, libs, res = unfold_case(tmp_path, path, item)
    for _vals, plain in res.results:
        stmp, per_lib = stamp_events(plain, libs, cfg)
        for lib in libs:
            if not isinstance(lib, RdmaLib):
                continue
            sl = PlainExecution(tuple(per_lib[lib.name]))
            f = lib.frame(slice_shape(sl, stmp, lib.name), cfg)
            if f is None:
                continue
            moves = sum(lib.role_of.get(e.method) in ("put", "get") for e in sl.events)
            assert len(f.iso) >= moves
            for r, w in f.iso:
                assert r < w and (r, w) in f.fixed


def test_later_executions_of_a_shape_build_no_subevent(monkeypatch):
    """With ``outputs_only`` nothing reads a witness's relations, and
    frames and ppo are read off positions, so no execution builds a
    subevent.  Each shape of an outcome computation is numbered once, by
    the checker, for all its libraries, and searched once, for all its
    plain executions: there are as many searches as shapes, and fewer
    than plain executions."""
    built = []      # per search: [shape, rows, subevents, numberings]
    init, number = SubEvent.__post_init__, Numbering.__init__

    def counted(self):
        built[-1][2] += 1
        init(self)

    def numbered(self, *args):
        built[-1][3] += 1
        number(self, *args)

    enumerate_ = checker.enumerate_consistent

    def counted_enumerate(group, libs, cfg, *args):
        built.append([stamp_events(group[0], libs, cfg).key, len(group), 0, 0])
        yield from enumerate_(group, libs, cfg, *args)

    monkeypatch.setattr(SubEvent, "__post_init__", counted)
    monkeypatch.setattr(Numbering, "__init__", numbered)
    monkeypatch.setattr(checker, "enumerate_consistent", counted_enumerate)
    # An RDMA tower's compiled side, and one over two libraries.
    for stem, impl, events, n_libs in [("fig3_sb_get_wait", "w", 32, 1),
                                       ("appf_rbl_bal", "rbl", 30, 2)]:
        progs, cfg, libs = compiled(CORPUS / f"{stem}.litmus", [impl])
        assert len(libs) == n_libs
        res = interpret_conc(progs, checker.pools(libs, cfg), events)
        shapes = {stamp_events(plain, libs, cfg).key for _vals, plain in res.results}
        del built[:]
        assert checker.outcomes(progs, libs, cfg, checker.Bounds(max_events=events),
                                outputs_only=True).outcomes
        assert sorted(key for key, *_ in built) == sorted(shapes)
        assert len(shapes) < len(res.results)
        assert sum(rows for _key, rows, _n, _k in built) == len(res.results)
        assert [(n, k) for _key, _rows, n, k in built] == [(0, 1)] * len(shapes)


@pytest.mark.parametrize("path, item", [(p, it) for _, p, it in CASES],
                         ids=[n for n, _, _ in CASES])
def test_same_combinations_with_a_shared_memo_as_with_a_fresh_one(tmp_path, path, item):
    cfg, libs, res = unfold_case(tmp_path, path, item)

    def combinations(plain, memo=None):
        stmp = stamp_events(plain, libs, cfg)[0]
        return [([(name, w.so, w.vR, w.vW) for name, w in c.witnesses.items()], c.hb)
                for c in (named(acc, stmp)
                          for acc in enumerate_consistent([plain], libs, cfg, memo))]

    memo = {}
    n = 0
    for _vals, plain in res.results:
        got = combinations(plain, memo)
        assert got == combinations(plain)
        n += len(got)
    assert n > 0


def test_no_frame_outlives_its_outcome_computation(monkeypatch):
    """Each ``outcomes`` call of a soundness check sweeps ppo once per
    shape of the executions it checks and searches each shape once, for
    all its executions, and a second check does it all again."""
    sweeps, searches = [], []
    calls = 0
    ppo_order, enumerate_ = checker.ppo_order, checker.enumerate_consistent
    outcomes = compilers.outcomes

    def counted_ppo(num):
        sweeps.append(num)
        return ppo_order(num)

    def counted_enumerate(group, libs, cfg, *args):
        searches.append((calls, stamp_events(group[0], libs, cfg).key, len(group)))
        return enumerate_(group, libs, cfg, *args)

    def counted_outcomes(*args, **kwargs):
        nonlocal calls
        calls += 1
        return outcomes(*args, **kwargs)

    monkeypatch.setattr(checker, "ppo_order", counted_ppo)
    monkeypatch.setattr(checker, "enumerate_consistent", counted_enumerate)
    monkeypatch.setattr(compilers, "outcomes", counted_outcomes)
    counts = []
    for _ in range(2):
        del sweeps[:], searches[:]
        rep = soundness(CORPUS / "fig3_sb_get_wait.litmus", ["w"], 32)
        assert rep.included
        shapes = {(call, key) for call, key, _rows in searches}
        counts.append((len(sweeps), len(searches), len(shapes),
                       sum(rows for _call, _key, rows in searches)))
    (n_sweeps, n_searches, n_shapes, n_execs), again = counts
    assert again == counts[0]
    assert n_sweeps == n_searches == n_shapes < n_execs


@pytest.mark.parametrize("stem, impl", [("fig3_sb_get_wait", "w"),
                                        ("fig6c_bcast_cycle", "sv")])
def test_each_event_is_stamped_once_per_outcome_computation(monkeypatch, stem, impl):
    """A full enumeration stamps every event of every plain execution, and
    an event that recurs across executions and shapes is stamped once per
    ``outcomes`` call; a second call stamps it again."""
    progs, cfg, libs = compiled(CORPUS / f"{stem}.litmus", [impl])
    bounds = checker.Bounds(max_events=32)
    res = interpret_conc(progs, checker.pools(libs, cfg), bounds.max_events)
    events = {e for _vals, plain in res.results for e in plain.events}
    stamped = Counter()
    for lib in libs:
        stamping = lib.stamping
        monkeypatch.setattr(lib, "stamping", lambda e, cfg, stamping=stamping:
                            stamped.update([e]) or stamping(e, cfg))
    for calls in (1, 2):
        assert checker.outcomes(progs, libs, cfg, bounds).outcomes
        assert stamped == Counter({e: calls for e in events})
    assert len(events) < sum(len(plain.events) for _vals, plain in res.results)


@pytest.mark.parametrize("path", FILES, ids=[p.stem for p in FILES])
def test_a_warm_stamping_is_the_fresh_one(path):
    """With a memo warmed by every earlier execution of the file, and by
    the same execution once more, `stamp_events` gives the stamping, the
    per-library lists and the key of a fresh call."""
    built, libs, res = unfold_file(path)
    cfg = built.cfg
    memo = {}
    for _vals, plain in res.results:
        fresh = stamp_events(plain, libs, cfg)
        for _ in range(2):
            warm = stamp_events(plain, libs, cfg, memo)
            assert tuple(warm) == tuple(fresh) and warm.key == fresh.key
    assert res.results
