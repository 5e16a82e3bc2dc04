"""Soundness verdicts of compiled towers on corpus clients."""

from __future__ import annotations

from pathlib import Path

import pytest

from rdmacheck.checker import Bounds
from rdmacheck.compilers import builtin_impl, check_soundness
from rdmacheck.libraries import make_library
from rdmacheck.litmus import build_test, parse_litmus

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _libs(names):
    return [make_library(n, bal_variant=v or "weak", rbl_mode=v or "strict")
            for n, v in names]


def soundness(stem: str, impl_name: str, loop: int, events: int):
    """``impl_name`` compiled onto the corpus client ``stem``: the spec side
    at the file's bounds, the compiled side at (loop, events)."""
    test = parse_litmus((CORPUS / f"{stem}.litmus").read_text(), name=stem)
    built = build_test(test)
    impl = builtin_impl(impl_name, built.cfg, built.profile)
    target = [(n, v) for n, v in built.libs if n != impl.source]
    target += [(t, None) for t in impl.targets
               if t not in {n for n, _ in target}]
    return check_soundness(built.programs, impl, _libs(built.libs),
                           _libs(target), built.cfg, test.bounds,
                           built.profile, impl_bounds=Bounds(loop, events))


@pytest.mark.parametrize("stem, impl, loop, events", [
    ("bug1_barrier", "bal_weak", 3, 24),
    ("fig11_rbl_strict", "rbl", 3, 22),
])
def test_no_compiled_outcome_under_truncation_is_inconclusive(stem, impl, loop, events):
    rep = soundness(stem, impl, loop, events)
    assert rep.impl_outcomes == frozenset() and rep.impl_truncated
    assert rep.inconclusive and not rep.included
    assert rep.counterexamples == []
    assert rep.summary().startswith("inconclusive")


def test_buggy_barrier_is_not_included():
    rep = soundness("bug1_barrier", "bal_buggy", 3, 26)
    assert not rep.included and not rep.inconclusive
    assert rep.counterexamples == [((), (), (0,))]
    assert rep.summary().startswith("NOT included")


def test_weak_barrier_is_included():
    rep = soundness("bug1_barrier", "bal_weak", 3, 26)
    assert rep.impl_outcomes and rep.impl_outcomes <= rep.spec_outcomes
    assert rep.included and not rep.inconclusive
    assert rep.summary().startswith("included")
