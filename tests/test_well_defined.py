"""Well-definedness of the builtin implementations on the calls their
corpus clients make."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from conftest import unfold_file
from rdmacheck.compilers import builtin_impl, check_well_defined
from rdmacheck.lang import Break, Val
from rdmacheck.values import UNIT

ROOT = Path(__file__).resolve().parent.parent
CASES = [("sv", "corpus/fig4_gf_sb"), ("bal_weak", "corpus/fig5_barrier"),
         ("bal_buggy", "corpus/bug1_barrier"), ("rbl", "corpus/appf_rbl_bal"),
         ("w", "corpus/fig8a_sb"), ("msw", "perfbench/inputs/msw_put_tryread")]


def impl_and_grid(name: str, client: str):
    """The implementation built for a client, and the argument grid of the
    source-library calls in the client's unfoldings."""
    built, _libs, res = unfold_file(ROOT / f"{client}.litmus")
    impl = builtin_impl(name, built.cfg, built.profile)
    grid: dict = {}
    for _vals, plain in res.results:
        for e in plain.events:
            if e.method in impl.source_methods():
                grid.setdefault(e.method, set()).add(e.args)
    return impl, built.cfg, {m: sorted(a, key=repr) for m, a in grid.items()}


@pytest.mark.parametrize("name, client", CASES, ids=[n for n, _ in CASES])
def test_builtin_implementation_is_well_defined(name, client):
    impl, cfg, grid = impl_and_grid(name, client)
    assert grid
    assert check_well_defined(impl, cfg, grid) == []


def test_break_out_and_empty_bodies_are_reported():
    impl, cfg, grid = impl_and_grid("sv", "corpus/fig4_gf_sb")
    breaks = replace(impl, mapping=lambda t, m, args: Break(1, UNIT))
    problems = check_well_defined(breaks, cfg, grid)
    assert problems and all("break depth 1" in p for p in problems)
    empty = replace(impl, mapping=lambda t, m, args: Val(UNIT))
    problems = check_well_defined(empty, cfg, grid)
    assert problems and all("empty successful unfolding" in p for p in problems)
