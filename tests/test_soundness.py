"""Soundness verdicts of compiled towers on corpus clients."""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import soundness as soundness_of
from rdmacheck import compilers
from rdmacheck.compilers import builtin_impl, compile_stack
from rdmacheck.lang import Break, Loop, Val, let
from rdmacheck.litmus import build_test, parse_litmus
from rdmacheck.values import UNIT

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


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


# A participant that never calls ``bar``, and a ``bar`` by a thread outside
# the barrier: every compiled unfolding blocks in an await.
BLOCKED_BARRIERS = {
    "missing_participant": """name missing_participant
nodes n1 n2
libs rl bal
loc x @ n1
loc y @ n2
barrier z : t1 t2
thread t1 @ n1 {
  bar z
  a = read x
}
thread t2 @ n2 {
  b = read y
}
""",
    "outsider": """name outsider
nodes n1 n2
libs rl bal
loc x @ n1
barrier z : t1
thread t1 @ n1 {
  bar z
  a = read x
}
thread t2 @ n2 {
  bar z
}
""",
}


@pytest.mark.parametrize("name", sorted(BLOCKED_BARRIERS))
def test_no_compiled_outcome_without_truncation_is_inconclusive(tmp_path, name):
    path = tmp_path / f"{name}.litmus"
    path.write_text(BLOCKED_BARRIERS[name])
    rep = soundness_of(path, ["bal_weak"], 3, 30)
    assert rep.impl_outcomes == frozenset() and not rep.impl_truncated
    assert rep.inconclusive and not rep.included
    assert rep.counterexamples == []


@pytest.mark.parametrize("impl, loop, events", [
    ("bal_buggy", 3, 26), ("bal_buggy,sv", 3, 26),
    ("bal_buggy", 3, 30), ("bal_buggy,sv", 3, 30),
])
def test_buggy_barrier_is_not_included(impl, loop, events):
    rep = soundness("bug1_barrier", impl, loop, events)
    assert not rep.included and not rep.inconclusive
    assert rep.counterexamples == [((), (), (0,))]
    assert not rep.impl_truncated
    assert rep.summary().startswith("NOT included")


@pytest.mark.parametrize("stem, impl, loop, events", [
    ("bug1_barrier", "bal_weak", 3, 26),
    ("fig5_barrier", "bal_weak,sv", 3, 30),
])
def test_weak_barrier_is_included(stem, impl, loop, events):
    rep = soundness(stem, impl, loop, events)
    assert rep.impl_outcomes and rep.impl_outcomes <= rep.spec_outcomes
    assert rep.included and not rep.inconclusive
    assert not rep.impl_truncated
    assert rep.summary().startswith("included")


def test_the_strict_ring_buffer_reaches_three_of_its_outcomes():
    rep = soundness("fig11_rbl_strict", "rbl", 3, 32)
    assert rep.included and not rep.inconclusive
    assert not rep.impl_truncated and not rep.spec_truncated
    assert (len(rep.impl_outcomes), len(rep.spec_outcomes)) == (3, 8)


def _loop_spin(call, exits):
    """The barrier spin as a loop that repeats ``call`` until ``exits``
    holds: the reference for ``compilers._await``."""
    return Loop(let(call, lambda v: Break(1, UNIT) if exits(v) else Val(UNIT)))


@pytest.mark.parametrize("impl", ["bal_weak", "bal_transitive", "bal_buggy"])
@pytest.mark.parametrize("stem", ["fig5_barrier", "fig12_weakbar",
                                  "fig12_transbar", "bug1_barrier",
                                  "appf_rbl_bal"])
def test_awaits_give_the_loop_spins_verdicts(monkeypatch, stem, impl):
    for events in (24, 26):
        awaits = soundness(stem, impl, 3, events)
        with monkeypatch.context() as m:
            m.setattr(compilers, "_await", _loop_spin)
            loops = soundness(stem, impl, 3, events)
        assert loops.impl_truncated   # a loop spin always meets the bound
        # Deleting a spin's failed reads keeps an execution consistent, so
        # the await reaches every outcome the loop reaches within its bounds.
        assert loops.impl_outcomes <= awaits.impl_outcomes
        assert loops.impl_outcomes == awaits.impl_outcomes
        assert loops.included == awaits.included
        assert loops.counterexamples == awaits.counterexamples


def test_shared_variables_down_to_polling_are_included():
    rep = soundness("fig4_gf_sb", "sv,w", 4, 36)
    assert rep.included and not rep.inconclusive
    assert len(rep.impl_outcomes) == len(rep.spec_outcomes) == 3
    assert rep.impl_outcomes == rep.spec_outcomes


# A poll is offered only the operation it must poll, and an identifier set
# is empty only when drained, so the drain loop of a compiled wait ends
# within the loop bound.
@pytest.mark.parametrize("path, impl, loop, events", [
    (ROOT / "perfbench/inputs/msw_put_tryread.litmus", "msw,w", 4, 32),
    (CORPUS / "fig4_gf_sb.litmus", "sv,w", 3, 32),
])
def test_towers_down_to_polling_are_included_within_their_bounds(path, impl, loop, events):
    rep = soundness_of(path, impl.split(","), loop, events)
    assert rep.included and not rep.inconclusive
    assert not rep.impl_truncated
    assert rep.impl_outcomes == rep.spec_outcomes


# A mixed-size cell with an initial value: the compiled slots start at its
# digest and its parts.
MSW_INIT = """name msw_init
nodes n1
libs msw
loc x @ n1
msize x 2
init x = (1,2)
thread t1 @ n1 {
  a = tryread x
}
"""


def test_a_mixed_size_initial_value_reaches_the_compiled_slots(tmp_path):
    path = tmp_path / "msw_init.litmus"
    path.write_text(MSW_INIT)
    rep = soundness_of(path, ["msw"], 4, 32)
    assert rep.included and not rep.inconclusive
    assert rep.impl_outcomes == {(((1, 2),),)}


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


def test_a_barrier_counter_has_a_replica_on_each_node():
    built = build_test(parse_litmus(TWO_ROUNDS))
    stages = [builtin_impl("bal_weak"), builtin_impl("sv")]
    _progs, cfg, profile = compile_stack(built.programs, stages, built.cfg,
                                         built.profile)
    assert "__bal_z_t1" in profile.locs
    for n in sorted(cfg.nodes):
        assert f"__sv___bal_z_t1_{n}" in profile.locs
        assert cfg.node_of_loc(f"__sv___bal_z_t1_{n}") == n
