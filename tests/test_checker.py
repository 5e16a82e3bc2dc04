"""The whole-execution check ``lambda_consistent`` against the search
``enumerate_consistent``: every accepted combination passes it, and an
execution that differs from one in stamping, so or hb does not."""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import unfold_file
from rdmacheck.checker import enumerate_consistent, lambda_consistent
from rdmacheck.events import Execution
from rdmacheck.stamps import AMF

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
FILES = sorted(CORPUS.glob("*.litmus"))


def accepted(path: Path):
    """(execution, libs, cfg) of every combination the search accepts."""
    built, libs, res = unfold_file(path)
    for _vals, plain in res.results:
        for acc in enumerate_consistent(plain, libs, built.cfg):
            yield (Execution(plain, acc["stmp"], acc["so"].pairs, acc["hb"].pairs),
                   libs, built.cfg)


@pytest.mark.parametrize("path", FILES, ids=[p.stem for p in FILES])
def test_accepted_combinations_pass_the_whole_execution_check(path):
    n = 0
    for ex, libs, cfg in accepted(path):
        ok, ws = lambda_consistent(ex, libs, cfg)
        assert ok
        assert set(ws) == {lib.name for lib in libs}
        n += 1
    assert n > 0


def _first(stem: str):
    return next(accepted(CORPUS / f"{stem}.litmus"))


def test_rejects_a_stamping_that_is_not_the_libraries():
    ex, libs, cfg = _first("fig2a_wait")
    e = next(iter(ex.plain.events))
    stmp = {**ex.stmp, e: ex.stmp[e] | {AMF}}
    assert lambda_consistent(ex, libs, cfg)[0]
    assert not lambda_consistent(Execution(ex.plain, stmp, ex.so, ex.hb), libs, cfg)[0]


def test_rejects_a_missing_so_or_hb_edge():
    ex, libs, cfg = _first("fig4_gf_sb")
    so_edge = next(iter(ex.so))
    less_so = Execution(ex.plain, ex.stmp, ex.so - {so_edge}, ex.hb)
    assert not lambda_consistent(less_so, libs, cfg)[0]
    hb_edge = next(iter(ex.hb))
    less_hb = Execution(ex.plain, ex.stmp, ex.so, ex.hb - {hb_edge})
    assert not lambda_consistent(less_hb, libs, cfg)[0]
