"""Per-shape frames: plain executions that differ only in what their reads
return share their ppo, and each library's shape-decided part of the
witness search, within one outcome computation.  Frames name subevents by
position, so the frame a later execution of a shape takes from a memo
shared by every execution of an item equals one built afresh for it, and
such an execution builds no subevent unless something reads one.  The
search gives the same combinations, in the same order, with a shared memo
as with a fresh one.  Each event lists its read part first, so ib's fixed
part runs forward along ppo's positions.  No frame outlives the
``outcomes`` call that built it."""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import compiled, soundness, unfold_compiled, unfold_file
from test_rdma_ib import CLIENTS
from test_tower_verdicts import ITEMS, item_id
from rdmacheck import checker, compilers
from rdmacheck.checker import enumerate_consistent, stamp_events
from rdmacheck.events import SubEvent
from rdmacheck.libraries.base import Coherence, Numbering
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


def comparable(x):
    """``x`` with each order as its items and rows, each numbering as its
    library's positions, and each coherence search as its fields, so that
    frames built for two executions of a shape compare equal field by
    field."""
    if isinstance(x, IncrementalOrder):
        return x.items, x.rows
    if isinstance(x, Numbering):
        return x.own
    if isinstance(x, Coherence):
        return {k: comparable(getattr(x, k)) for k in Coherence.__slots__}
    if isinstance(x, dict):
        return {k: comparable(v) for k, v in x.items()}
    if isinstance(x, SimpleNamespace):
        return comparable(vars(x))
    return x


def shared_ppo(shape, plain, stmp):
    """The shape's ppo, swept for ``plain`` when it is the first to ask."""
    if shape.ppo is None:
        shape.ppo = checker.ppo_order(plain, stmp)
    return shape.ppo


@pytest.mark.parametrize("path, item", [(p, it) for _, p, it in CASES],
                         ids=[n for n, _, _ in CASES])
def test_a_rebound_frame_is_the_frame_built_afresh(tmp_path, path, item):
    """The frame a later execution of a shape takes from the memo, as it
    is, equals the frame built afresh for it, and so does the shape's
    ppo."""
    cfg, libs, res = unfold_case(tmp_path, path, item)
    memo = {}
    later = 0
    for _vals, plain in res.results:
        stamped = stamp_events(plain, libs, cfg)
        stmp, per_lib = stamped
        later += stamped.key in memo
        shape = memo.setdefault(stamped.key, checker.Shape())
        ppo = shared_ppo(shape, plain, stmp)
        fresh = checker.ppo_order(plain, stmp)
        assert (ppo.items, ppo.rows) == (fresh.items, fresh.rows)
        for lib in libs:
            if not hasattr(lib, "frame"):
                continue
            sl = plain.restrict(per_lib[lib.name])
            got = lib.frame(sl, stmp, cfg, lambda: ppo, shape.libs)
            want = lib.frame(sl, stmp, cfg, lambda: fresh)
            assert comparable(got) == comparable(want)
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
        ppo = checker.ppo_order(plain, stmp)
        for lib in libs:
            if not isinstance(lib, RdmaLib):
                continue
            sl = plain.restrict(per_lib[lib.name])
            f = lib.frame(sl, stmp, cfg, lambda: ppo)
            if f is None:
                continue
            moves = sum(lib.role_of.get(e.method) in ("put", "get") for e in sl.events)
            assert len(f.iso) >= moves
            for r, w in f.iso:
                assert r < w and (r, w) in f.fixed


def test_later_executions_of_a_shape_build_no_subevent(monkeypatch):
    """With ``outputs_only`` nothing reads a witness's relations, so only
    the first execution of each shape builds subevents: for its frames and
    its ppo."""
    built = []
    init = SubEvent.__post_init__

    def counted(self):
        built[-1][1] += 1
        init(self)

    enumerate_ = checker.enumerate_consistent

    def counted_enumerate(plain, libs, cfg, memo=None):
        built.append([stamp_events(plain, libs, cfg).key, 0])
        yield from enumerate_(plain, libs, cfg, memo)

    progs, cfg, libs = compiled(CORPUS / "fig3_sb_get_wait.litmus", ["w"])
    monkeypatch.setattr(SubEvent, "__post_init__", counted)
    monkeypatch.setattr(checker, "enumerate_consistent", counted_enumerate)
    assert checker.outcomes(progs, libs, cfg, checker.Bounds(max_events=32),
                            outputs_only=True).outcomes
    seen, firsts, later = set(), [], []
    for key, n in built:
        (later if key in seen else firsts).append(n)
        seen.add(key)
    assert later and not any(later)
    assert all(firsts)


@pytest.mark.parametrize("path, item", [(p, it) for _, p, it in CASES],
                         ids=[n for n, _, _ in CASES])
def test_same_combinations_with_a_shared_memo_as_with_a_fresh_one(tmp_path, path, item):
    cfg, libs, res = unfold_case(tmp_path, path, item)

    def combinations(plain, memo=None):
        return [([(name, w.so, w.vR, w.vW) for name, w in acc["witnesses"].items()],
                 acc["hb"]) for acc in enumerate_consistent(plain, libs, cfg, memo)]

    memo = {}
    n = 0
    for _vals, plain in res.results:
        got = combinations(plain, memo)
        assert got == combinations(plain)
        n += len(got)
    assert n > 0


def test_no_frame_outlives_its_outcome_computation(monkeypatch):
    """Each ``outcomes`` call of a soundness check sweeps ppo once per
    shape of the executions it checks, and a second check does it all
    again."""
    sweeps, shapes = [], []
    calls = 0
    ppo_order, enumerate_ = checker.ppo_order, checker.enumerate_consistent
    outcomes = compilers.outcomes

    def counted_ppo(plain, stmp):
        sweeps.append(plain)
        return ppo_order(plain, stmp)

    def counted_enumerate(plain, libs, cfg, memo=None):
        shapes.append((calls, stamp_events(plain, libs, cfg).key))
        return enumerate_(plain, libs, cfg, memo)

    def counted_outcomes(*args, **kwargs):
        nonlocal calls
        calls += 1
        return outcomes(*args, **kwargs)

    monkeypatch.setattr(checker, "ppo_order", counted_ppo)
    monkeypatch.setattr(checker, "enumerate_consistent", counted_enumerate)
    monkeypatch.setattr(compilers, "outcomes", counted_outcomes)
    counts = []
    for _ in range(2):
        del sweeps[:], shapes[:]
        rep = soundness(CORPUS / "fig3_sb_get_wait.litmus", ["w"], 32)
        assert rep.included
        counts.append((len(sweeps), len(set(shapes)), len(shapes)))
    (n_sweeps, n_shapes, n_execs), again = counts
    assert again == counts[0]
    assert n_sweeps == n_shapes < n_execs
