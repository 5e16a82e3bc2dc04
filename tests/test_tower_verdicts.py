"""Single-stage soundness verdicts pinned against a snapshot.

Each item compiles a corpus client with one builtin implementation and
checks it against the client's specification: the specification side at
the file's bounds, the compiled side at an event cap.  The items are the
benchmark's tower items.  A change that alters a verdict, an outcome set
or a truncation flag on purpose regenerates the snapshot with

    PYTHONPATH=src python tests/test_tower_verdicts.py

and says in its description which record changed and why.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import soundness

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = ROOT / "tests" / "data" / "tower_verdicts.json"

# (implementation, client file without .litmus, event cap)
ITEMS = [
    *[("sv", f"corpus/{s}", 32) for s in
      ("fig4_gf_sb", "fig6a_bcast_mp", "fig6b_bcast_3node", "fig6c_bcast_cycle")],
    *[("w", f"corpus/{s}", 32) for s in
      ("fig2a_wait", "fig2b_wait", "fig3_sb_put_wait", "fig3_sb_get_wait",
       "fig8a_sb", "fig8b_mp", "fig8c_rmp")],
    ("msw", "perfbench/inputs/msw_put_tryread", 32),
    ("bal_weak", "corpus/fig5_barrier", 20),
    ("bal_weak", "corpus/fig12_weakbar", 28),
    ("bal_weak", "corpus/bug1_barrier", 26),
    ("bal_buggy", "corpus/fig12_weakbar", 24),
    ("bal_buggy", "corpus/bug1_barrier", 26),
    ("rbl", "corpus/appf_rbl_bal", 30),
]


def item_id(item) -> str:
    """The record's name, such as ``bal_weak/fig5_barrier@3,20``.  The ``3,``
    is the loop bound the compiled side had when the snapshot was made;
    no bound reads it now, and it stays only as part of the name, since the
    names are tracked from one change to the next."""
    impl, client, events = item
    return f"{impl}/{Path(client).name}@3,{events}"


def record(item) -> dict:
    """What the snapshot pins of one verdict; outcome tuples as their repr."""
    impl, client, events = item
    rep = soundness(ROOT / f"{client}.litmus", [impl], events)
    return {
        "included": rep.included,
        "inconclusive": rep.inconclusive,
        "counterexamples": [repr(o) for o in rep.counterexamples],
        "impl_outcomes": sorted(repr(o) for o in rep.impl_outcomes),
        "spec_outcomes": sorted(repr(o) for o in rep.spec_outcomes),
        "impl_truncated": rep.impl_truncated,
        "spec_truncated": rep.spec_truncated,
    }


@pytest.fixture(scope="module")
def snapshot() -> dict:
    return json.loads(SNAPSHOT.read_text())


def test_snapshot_covers_exactly_the_items(snapshot):
    assert sorted(snapshot) == sorted(item_id(it) for it in ITEMS)


@pytest.mark.parametrize("item", ITEMS, ids=[item_id(it) for it in ITEMS])
def test_verdict_matches_snapshot(snapshot, item):
    assert record(item) == snapshot[item_id(item)]


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps({item_id(it): record(it) for it in ITEMS},
                                   indent=1, sort_keys=True) + "\n")
