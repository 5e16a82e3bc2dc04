"""Litmus runs pinned against a snapshot.

Each item is one file of the benchmark's corpus workload (the corpus plus
``perfbench/inputs/msw_put_tryread.litmus``) run through ``run_file`` with
its first witness dumped.  The snapshot pins the verdict, the outcome
strings (these carry final memory), the truncation flag and the
``--dump-witness`` text.  A change that alters one of them on purpose
regenerates the snapshot with

    PYTHONPATH=src python tests/test_corpus_runs.py

and says in its description which record changed and why.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from rdmacheck.runner import run_file

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = ROOT / "tests" / "data" / "corpus_runs.json"

FILES = sorted((ROOT / "corpus").glob("*.litmus")) + [
    ROOT / "perfbench" / "inputs" / "msw_put_tryread.litmus"]


def item_id(path: Path) -> str:
    return str(path.relative_to(ROOT).with_suffix(""))


def record(path: Path) -> dict:
    r = run_file(path, dump_witness=True)
    return {"verdict": r.verdict, "outcomes": r.outcomes,
            "truncated": r.truncated, "witness_dump": r.witness_dump}


@pytest.fixture(scope="module")
def snapshot() -> dict:
    return json.loads(SNAPSHOT.read_text())


def test_snapshot_covers_exactly_the_files(snapshot):
    assert sorted(snapshot) == sorted(item_id(p) for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=[item_id(p) for p in FILES])
def test_run_matches_snapshot(snapshot, path):
    assert record(path) == snapshot[item_id(path)]


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps({item_id(p): record(p) for p in FILES},
                                   indent=1, sort_keys=True) + "\n")
