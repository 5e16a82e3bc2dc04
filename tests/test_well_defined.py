"""Well-definedness of the builtin implementations on the calls their
corpus clients make."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from conftest import unfold_file
from rdmacheck.compilers import builtin_impl, check_well_defined
from rdmacheck.lang import Call, Val, let
from rdmacheck.values import UNIT

ROOT = Path(__file__).resolve().parent.parent
CASES = [("sv", "corpus/fig4_gf_sb"), ("bal_weak", "corpus/fig5_barrier"),
         ("bal_buggy", "corpus/bug1_barrier"), ("rbl", "corpus/appf_rbl_bal"),
         ("w", "corpus/fig8a_sb"), ("msw", "perfbench/inputs/msw_put_tryread")]


def impl_and_grid(name: str, client: str):
    """The implementation, the client's built test, and the argument grid
    of the source-library calls in the client's unfoldings."""
    built, _libs, res = unfold_file(ROOT / f"{client}.litmus")
    impl = builtin_impl(name)
    grid: dict = {}
    for _vals, plain in res.results:
        for e in plain.events:
            if e.method in impl.source_methods():
                grid.setdefault(e.method, set()).add(e.args)
    return impl, built, {m: sorted(a, key=repr) for m, a in grid.items()}


@pytest.mark.parametrize("name, client", CASES, ids=[n for n, _ in CASES])
def test_builtin_implementation_is_well_defined(name, client):
    impl, built, grid = impl_and_grid(name, client)
    assert grid
    assert check_well_defined(impl, built.cfg, built.profile, grid) == []


def test_empty_bodies_are_reported():
    impl, built, grid = impl_and_grid("sv", "corpus/fig4_gf_sb")
    empty = replace(impl, mapping=lambda cfg, prof, t, m, args: Val(UNIT))
    problems = check_well_defined(empty, built.cfg, built.profile, grid)
    assert problems and all("empty successful unfolding" in p for p in problems)
    # A body that ends before its first call on some path is reported for
    # the arguments that take that path.
    maybe = replace(impl, mapping=lambda cfg, prof, t, m, args:
                    let(Val(1 in args[0]), lambda b: Val(UNIT) if b
                        else Call("mfence", ())))
    problems = check_well_defined(maybe, built.cfg, built.profile, grid)
    assert problems and all("(frozenset({1}),)" in p for p in problems)
