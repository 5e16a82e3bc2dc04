"""The litmus corpus end to end, and the outputs-only search against full
enumeration on every corpus file."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rdmacheck
from rdmacheck.checker import outcomes
from rdmacheck.litmus import build_test, parse_litmus
from rdmacheck.runner import PASS, _mk_libs, run_file

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
FILES = sorted(CORPUS.glob("*.litmus"))
IDS = [p.stem for p in FILES]


@pytest.mark.parametrize("path", FILES, ids=IDS)
def test_corpus_file_passes(path):
    r = run_file(path)
    assert r.verdict == PASS, r.failures


@pytest.mark.parametrize("path", FILES, ids=IDS)
def test_outputs_only_matches_full_enumeration(path):
    test = parse_litmus(path.read_text(), name=path.stem)
    built = build_test(test)
    args = (built.programs, _mk_libs(built.libs), built.cfg, test.bounds)
    fast = outcomes(*args, outputs_only=True)
    full = outcomes(*args, outputs_only=False)
    assert {o.outputs for o in fast.outcomes} == {o.outputs for o in full.outcomes}
    assert fast.truncated == full.truncated


def _check_dump(path: Path, hash_seed: str) -> str:
    src = str(Path(rdmacheck.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
    out = subprocess.run(
        [sys.executable, "-m", "rdmacheck.cli", "check", str(path),
         "--dump-witness", "-v"],
        env=env, capture_output=True, text=True, check=True).stdout
    return re.sub(r"\(\d+\.\d+s, ", "(", out)


@pytest.mark.parametrize("stem", ["fig4_gf_sb", "appf_rbl_bal"])
def test_witness_dump_is_independent_of_hash_seed(stem):
    path = CORPUS / f"{stem}.litmus"
    first = _check_dump(path, "0")
    assert "(no consistent execution)" not in first
    assert _check_dump(path, "1") == first
