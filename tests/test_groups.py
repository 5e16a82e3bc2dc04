"""One search per shape: ``outcomes`` checks the plain executions of one
shape together, as the rows of one group, and each library searches once
for the whole group.  The reference is the per-execution enumeration it
replaced, kept here: every plain execution checked alone, as a group of
one.  The two give the same outcome sets, final memory included, on
every corpus file and on the compiled sides of the pinned tower
verdicts.  A group's combinations, expanded per row, are each row's
combinations checked alone, in order, by position and named by the
row's subevents (`reference.named`).  A witness holds for several
rows only when they differ in an output that no library reads, such as
``set_isempty``'s; ``SHARED`` is a client where they do."""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import compiled
from reference import named
from test_tower_verdicts import ITEMS, item_id
from rdmacheck.checker import (Bounds, Outcome, OutcomeResult, enumerate_consistent,
                               final_memory, outcomes, pools, stamp_events)
from rdmacheck.lang import interpret_conc
from rdmacheck.litmus import build_test, parse_litmus
from rdmacheck.runner import _mk_libs

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "corpus").glob("*.litmus"))

# Two threads each ask whether a set is empty, which it is, so each may
# answer either way: four executions of one shape, whose witnesses each
# hold for all four rows and four output tuples.
SHARED = """name shared
nodes n1 n2
libs tso
loc x @ n1
loc y @ n2
thread t1 @ n1 {
  tsowrite x 1
  a = setisempty s
  b = tsoread x
}
thread t2 @ n2 {
  c = setisempty s
  tsowrite y 1
}
"""

# Every corpus file at its own bounds, the compiled side of every pinned
# tower verdict at its event cap, and the ``SHARED`` client.
CASES = ([(p.stem, p, None) for p in FILES]
         + [(f"towers/{item_id(it)}", ROOT / f"{it[1]}.litmus", (it[0], it[2]))
            for it in ITEMS]
         + [("clients/shared", "shared", None)])


def case(tmp_path, path, tower):
    """(programs, libraries, node config, bounds) of a CASES entry."""
    if isinstance(path, str):
        path = tmp_path / f"{path}.litmus"
        path.write_text(SHARED)
    if tower is None:
        test = parse_litmus(path.read_text(), name=path.stem)
        built = build_test(test)
        return built.programs, _mk_libs(built.libs), built.cfg, test.bounds
    impl, events = tower
    progs, cfg, libs = compiled(path, [impl])
    return progs, libs, cfg, Bounds(max_events=events)


def per_execution_outcomes(progs, libs, cfg, bounds: Bounds,
                           outputs_only: bool = False) -> OutcomeResult:
    """The reference: each plain execution checked alone, as a group of
    one, in the interpreter's order.  With ``outputs_only`` an execution
    stops at its first combination, and one whose output tuple is already
    found is not checked."""
    res = interpret_conc(progs, pools(libs, cfg), bounds.max_events)
    found, memo = set(), {}
    for vals, plain in res.results:
        if outputs_only and Outcome(vals) in found:
            continue
        for acc in enumerate_consistent([plain], libs, cfg, memo):
            if outputs_only:
                found.add(Outcome(vals))
                break
            found.add(Outcome(vals, final_memory(acc["witnesses"], libs, cfg)))
    return OutcomeResult(frozenset(found), res.truncated)


@pytest.mark.parametrize("outputs_only", [True, False], ids=["outputs_only", "full"])
@pytest.mark.parametrize("path, tower", [(p, t) for _, p, t in CASES],
                         ids=[n for n, _, _ in CASES])
def test_per_shape_outcomes_are_the_per_execution_ones(tmp_path, path, tower, outputs_only):
    progs, libs, cfg, bounds = case(tmp_path, path, tower)
    got = outcomes(progs, libs, cfg, bounds, outputs_only)
    want = per_execution_outcomes(progs, libs, cfg, bounds, outputs_only)
    assert got.outcomes and got.outcomes == want.outcomes
    assert got.truncated == want.truncated


def positional(acc) -> list:
    """A combination by position: per library, its witness's explicit so,
    relations (an order as its rows) and values, and the order it grew."""
    return [(name, w.explicit, {k: getattr(r, "rows", r) for k, r in w.relations.items()},
             w.values, w.hb.rows)
            for name, w in acc["witnesses"].items()]


@pytest.mark.parametrize("path, tower", [(p, t) for _, p, t in CASES],
                         ids=[n for n, _, _ in CASES])
def test_a_group_is_its_rows_checked_alone(tmp_path, path, tower):
    progs, libs, cfg, bounds = case(tmp_path, path, tower)
    res = interpret_conc(progs, pools(libs, cfg), bounds.max_events)
    groups: dict = {}
    for _vals, plain in res.results:
        groups.setdefault(stamp_events(plain, libs, cfg).key, []).append(plain)
    shared = 0
    for group in groups.values():
        combos = list(enumerate_consistent(group, libs, cfg))
        for j, plain in enumerate(group):
            alone = list(enumerate_consistent([plain], libs, cfg))
            mine = [acc for acc in combos if acc["rows"] >> j & 1]
            assert [positional(acc) for acc in mine] == [positional(acc) for acc in alone]
            stmp = stamp_events(plain, libs, cfg)[0]
            for acc, own in zip(mine, alone):
                assert own["rows"] == 1
                assert named(acc, stmp) == named(own, stmp)
                # A row above the lowest one the combination holds for.
                shared += acc["rows"] & (1 << j) - 1 != 0
    assert (shared > 0) == (path == "shared")
