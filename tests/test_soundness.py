"""Soundness verdicts of compiled towers on corpus clients."""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import soundness as soundness_of
from rdmacheck.compilers import builtin_impl, compile_stack
from rdmacheck.litmus import build_test, parse_litmus

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def soundness(stem: str, impls: str, loop: int, events: int):
    """The chain ``impls`` (comma-separated stage names) compiled onto the
    corpus client ``stem``: the spec side at the file's bounds, the
    compiled side at (loop, events)."""
    return soundness_of(CORPUS / f"{stem}.litmus", impls.split(","),
                        loop, events)


@pytest.mark.parametrize("stem, impl, loop, events", [
    ("bug1_barrier", "bal_weak", 3, 24),
    ("fig11_rbl_strict", "rbl", 3, 22),
    ("fig5_barrier", "bal_weak,sv", 3, 20),
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


def test_buggy_barrier_down_to_rdma_is_not_included():
    rep = soundness("bug1_barrier", "bal_buggy,sv", 3, 26)
    assert not rep.included and not rep.inconclusive
    assert rep.counterexamples == [((), (), (0,))]


def test_weak_barrier_is_included():
    rep = soundness("bug1_barrier", "bal_weak", 3, 26)
    assert rep.impl_outcomes and rep.impl_outcomes <= rep.spec_outcomes
    assert rep.included and not rep.inconclusive
    assert rep.summary().startswith("included")


def test_shared_variables_down_to_polling_are_included():
    rep = soundness("fig4_gf_sb", "sv,w", 4, 36)
    assert rep.included and not rep.inconclusive
    assert len(rep.impl_outcomes) == len(rep.spec_outcomes) == 3
    assert rep.impl_outcomes == rep.spec_outcomes


TWO_ROUNDS = """name two_rounds
nodes n1 n2
libs bal
barrier z : t1 t2
thread t1 @ n1 {
  bar z
  bar z
}
thread t2 @ n2 {
  bar z
  bar z
}
"""


def test_replicas_of_a_barrier_counter_keep_its_domain():
    built = build_test(parse_litmus(TWO_ROUNDS))
    stages = [builtin_impl("bal_weak"), builtin_impl("sv")]
    _progs, cfg, profile = compile_stack(built.programs, stages, built.cfg,
                                         built.profile)
    counter = profile.domain("__bal_z_t1")
    assert counter == frozenset({0, 1, 2}) != profile.scalars
    for n in sorted(cfg.nodes):
        assert profile.domain(f"__sv___bal_z_t1_{n}") == counter
        assert cfg.node_of_loc(f"__sv___bal_z_t1_{n}") == n
