"""Soundness verdicts of compiled towers on corpus clients."""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import soundness as soundness_of
from rdmacheck import compilers
from rdmacheck.compilers import builtin_impl, compile_stack
from rdmacheck.lang import Val, let
from rdmacheck.litmus import build_test, parse_litmus
from rdmacheck.values import BOT, UNIT

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
MSW_INPUT = ROOT / "perfbench/inputs/msw_put_tryread.litmus"


def soundness(stem: str, impls: str, events: int):
    """The chain ``impls`` (comma-separated stage names) compiled onto the
    corpus client ``stem``: the spec side at the file's bounds, the
    compiled side at the event cap ``events``."""
    return soundness_of(CORPUS / f"{stem}.litmus", impls.split(","), events)


def cases(*rows):
    """``rows`` as parameters, each named by its values with a ``3`` before
    the event cap, its last value.  The ``3`` is the loop bound the compiled
    side had when the case was written; no bound reads it now, and it stays
    only in the name, since the names are tracked from one change to the
    next."""
    return [pytest.param(*row, id="-".join(map(str, (*row[:-1], 3, row[-1]))))
            for row in rows]


@pytest.mark.parametrize("stem, impl, events", cases(
    ("bug1_barrier", "bal_weak", 24),
    ("fig11_rbl_strict", "rbl", 22),
    ("fig5_barrier", "bal_weak,sv", 20),
))
def test_no_compiled_outcome_under_truncation_is_inconclusive(stem, impl, events):
    rep = soundness(stem, impl, events)
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
    rep = soundness_of(path, ["bal_weak"], 30)
    assert rep.impl_outcomes == frozenset() and not rep.impl_truncated
    assert rep.inconclusive and not rep.included
    assert rep.counterexamples == []


@pytest.mark.parametrize("impl, events", cases(
    ("bal_buggy", 26), ("bal_buggy,sv", 26),
    ("bal_buggy", 30), ("bal_buggy,sv", 30),
))
def test_buggy_barrier_is_not_included(impl, events):
    rep = soundness("bug1_barrier", impl, events)
    assert not rep.included and not rep.inconclusive
    assert rep.counterexamples == [((), (), (0,))]
    assert not rep.impl_truncated
    assert rep.summary().startswith("NOT included")


@pytest.mark.parametrize("stem, impl, events", cases(
    ("bug1_barrier", "bal_weak", 26),
    ("fig5_barrier", "bal_weak,sv", 30),
))
def test_weak_barrier_is_included(stem, impl, events):
    rep = soundness(stem, impl, events)
    assert rep.impl_outcomes and rep.impl_outcomes <= rep.spec_outcomes
    assert rep.included and not rep.inconclusive
    assert not rep.impl_truncated
    assert rep.summary().startswith("included")


def test_the_strict_ring_buffer_reaches_three_of_its_outcomes():
    rep = soundness("fig11_rbl_strict", "rbl", 32)
    assert rep.included and not rep.inconclusive
    assert not rep.impl_truncated and not rep.spec_truncated
    assert (len(rep.impl_outcomes), len(rep.spec_outcomes)) == (3, 8)


def _spin(call, exits):
    """The barrier spin, written as recursion, that repeats ``call`` until
    ``exits`` holds: the reference for ``compilers._await``."""
    return let(call, lambda v: Val(UNIT) if exits(v) else _spin(call, exits))


# Each client at one event cap with room for failed reads beyond the
# await's own events.  Only the cap bounds a spin, and its failed reads
# multiply its plain executions: on appf_rbl_bal under bal_buggy, 1,980 at
# cap 20 and 12,240 at cap 26, against 4 for the await.
SPIN_CAPS = {"fig5_barrier": 24, "fig12_weakbar": 28, "fig12_transbar": 28,
             "bug1_barrier": 26, "appf_rbl_bal": 20}


@pytest.mark.parametrize("impl", ["bal_weak", "bal_transitive", "bal_buggy"])
@pytest.mark.parametrize("stem", list(SPIN_CAPS))
def test_awaits_give_the_loop_spins_verdicts(monkeypatch, stem, impl):
    awaits = soundness(stem, impl, SPIN_CAPS[stem])
    with monkeypatch.context() as m:
        m.setattr(compilers, "_await", _spin)
        spins = soundness(stem, impl, SPIN_CAPS[stem])
    assert spins.impl_truncated   # a spin always meets the event cap
    assert awaits.impl_outcomes
    # Deleting a spin's failed reads keeps an execution consistent, so
    # the await reaches every outcome the spin reaches within the cap.
    assert spins.impl_outcomes == awaits.impl_outcomes
    assert spins.included == awaits.included
    assert spins.counterexamples == awaits.counterexamples


def test_shared_variables_down_to_polling_are_included():
    rep = soundness("fig4_gf_sb", "sv,w", 36)
    assert rep.included and not rep.inconclusive
    assert len(rep.impl_outcomes) == len(rep.spec_outcomes) == 3
    assert rep.impl_outcomes == rep.spec_outcomes


# A poll is offered only the operation it must poll, and an identifier set
# is empty only when drained, so the drain of a compiled wait ends after
# one poll per operation, within the event cap.
# The ids keep the loop bounds of 4 and 3 these cases were written with.
@pytest.mark.parametrize("path, impl, events", [
    pytest.param(MSW_INPUT, "msw,w", 32, id="path0-msw,w-4-32"),
    pytest.param(CORPUS / "fig4_gf_sb.litmus", "sv,w", 32, id="path1-sv,w-3-32"),
])
def test_towers_down_to_polling_are_included_within_their_bounds(path, impl, events):
    rep = soundness_of(path, impl.split(","), events)
    assert rep.included and not rep.inconclusive
    assert not rep.impl_truncated
    assert rep.impl_outcomes == rep.spec_outcomes


def test_mixed_size_cells_down_to_polling_reach_every_outcome():
    # Toward n2 the compiled wait polls three slot puts, so its drain asks
    # set_isempty four times; only the event cap bounds it.
    rep = soundness_of(MSW_INPUT, ["msw", "w"], 32)
    assert rep.included and not rep.inconclusive
    assert not rep.impl_truncated and not rep.spec_truncated
    assert len(rep.impl_outcomes) == len(rep.spec_outcomes) == 3


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
    rep = soundness_of(path, ["msw"], 32)
    assert rep.included and not rep.inconclusive
    assert rep.impl_outcomes == {(((1, 2),),)}


# A payload register that holds bot: writing or submitting it is an
# invalid call, with no unfolding on either side, so each side's outcomes
# are those where the register holds a tuple.
BOT_PAYLOAD = {"msw": """name bot_payload
nodes n1
libs msw
loc x @ n1
msize x 2
thread t1 @ n1 {
  a = tryread x
  mswwrite x a
}
""", "rbl": """name bot_payload
nodes n1 n2
libs rbl
ring x : writer t2 readers t1 cap 4
ring y : writer t1 readers t2 cap 4
thread t1 @ n1 {
  a = submit y (1)
  d = receive x
}
thread t2 @ n2 {
  b = receive y
  c = submit x b
}
"""}


@pytest.mark.parametrize("impl, call, spec", [
    ("msw", (1, "msw_write", "x"), {(((0, 0),),)}),
    ("rbl", (2, "submit", "x"), {((True, (1,)), ((1,), True)), ((True, BOT), ((1,), True)),
                                 ((True, BOT), ((1,), False))}),
], ids=["msw", "rbl"])
def test_a_payload_register_that_holds_bot_is_an_invalid_call(tmp_path, impl, call, spec):
    path = tmp_path / "bot_payload.litmus"
    path.write_text(BOT_PAYLOAD[impl])
    built = build_test(parse_litmus(path.read_text()))
    tid, method, loc = call
    assert builtin_impl(impl).mapping(built.cfg, built.profile, tid, method,
                                      (loc, BOT)) is compilers.DEAD
    rep = soundness_of(path, [impl], 30)
    assert rep.spec_outcomes == spec
    assert rep.included and not rep.inconclusive and not rep.impl_truncated


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
