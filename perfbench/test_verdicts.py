"""Tests of the benchmark's own verdict checks and failure counting.

    python3 -m pytest -q perfbench/test_verdicts.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workload  # noqa: E402
from rdmacheck import compilers  # noqa: E402
from rdmacheck.compilers import SoundnessReport  # noqa: E402


def one_pass(items) -> workload.Passes:
    passes = workload.Passes([workload.prepare(it) for it in items], seed=0)
    passes.run_pass()
    return passes


def fake_report(included: bool, impl: set, spec: set) -> SoundnessReport:
    return SoundnessReport(included=included,
                           counterexamples=sorted(impl - spec, key=repr),
                           spec_outcomes=frozenset(spec),
                           impl_outcomes=frozenset(impl),
                           spec_truncated=False, impl_truncated=True)


def patch_soundness(monkeypatch, report) -> None:
    def fake(*_args, **_kwargs):
        if isinstance(report, Exception):
            raise report
        return report
    monkeypatch.setattr(compilers, "check_soundness", fake)


FIG12 = workload.Item(workload.CORPUS / "fig12_weakbar.litmus", "bal_weak", 3, 28)
BUG1 = [it for it in workload.tower_sv_items()
        if it.counterexample is not None][0]


def test_vacuous_included_is_a_failed_operation(monkeypatch):
    patch_soundness(monkeypatch,
                    fake_report(True, set(), {((), (), (0,)), ((), (), (1,))}))
    p = one_pass([FIG12])
    assert (p.attempted, p.failed) == (1, 1)
    assert "vacuous" in p.failures[FIG12.name]


def test_missing_bug1_counterexample_is_a_failed_operation(monkeypatch):
    ok = {((), (), (1,))}
    patch_soundness(monkeypatch, fake_report(True, ok, ok))
    p = one_pass([BUG1])
    assert (p.attempted, p.failed) == (1, 1)
    assert "counterexample" in p.failures[BUG1.name]


def test_wrong_counterexample_is_a_failed_operation(monkeypatch):
    spec = {((), (), (1,))}
    patch_soundness(monkeypatch, fake_report(False, spec | {((), (), (2,))}, spec))
    assert one_pass([BUG1]).failed == 1


def test_spec_breaking_an_assertion_is_a_failed_operation(monkeypatch):
    # fig12_weakbar allows a = 0; a spec side without it breaks the file
    one = {((), (), (1,))}
    patch_soundness(monkeypatch, fake_report(True, one, one))
    p = one_pass([FIG12])
    assert p.failed == 1 and "assertions" in p.failures[FIG12.name]


def test_exception_is_a_failed_operation(monkeypatch):
    patch_soundness(monkeypatch, RuntimeError("boom"))
    p = one_pass([FIG12, BUG1])
    assert (p.attempted, p.failed) == (2, 2)


def test_failing_corpus_verdict_is_a_failed_operation(tmp_path):
    text = (workload.CORPUS / "fig5_barrier.litmus").read_text()
    wrong = tmp_path / "fig5_wrong.litmus"
    wrong.write_text(text.replace("{ (1,1) }", "{ (0,0) }"))
    p = one_pass([workload.Item(wrong), workload.Item(workload.CORPUS / "fig5_barrier.litmus")])
    assert (p.attempted, p.failed) == (2, 1)
    assert p.failures["fig5_wrong"].startswith("fail")


def test_real_verdicts_pass():
    items = [workload.Item(workload.MSW_INPUT),
             workload.Item(workload.MSW_INPUT, "msw", 3, 32),
             workload.Item(workload.CORPUS / "bug1_barrier.litmus", "bal_buggy",
                           3, 24, workload.BUG1_COUNTEREXAMPLE)]
    p = one_pass(items)
    assert (p.attempted, p.failed) == (3, 0), p.failures


def test_every_workload_builds():
    for make in workload.WORKLOADS.values():
        for it in make():
            workload.prepare(it)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_refuses_to_run_without_the_program(tmp_path, trace):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    r = subprocess.run(cmd + ["--workload", "corpus", "--seed", "1",
                              "--seconds", "1", "--trace", trace],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert r.returncode != 0
    assert r.stdout == ""


def test_traced_run_repeats_its_counts(tmp_path):
    out = tmp_path / "trace.jsonl"
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=str(HERE.parent / "src"))
    r = subprocess.run([sys.executable, str(HERE / "workload.py"),
                        "--workload", "corpus", "--seed", "1", "--seconds", "0",
                        "--mode", "trace", "--trace-out", str(out)],
                       capture_output=True, text=True, timeout=120, env=env)
    assert r.returncode == 0, r.stderr
    raw = json.loads(r.stdout.splitlines()[-1])
    assert raw["failed"] == 0
    passes = [p for p in raw["counts"] if p.startswith("pass")]
    assert len(passes) == workload.MIN_PASSES
    assert all(raw["counts"][p] == raw["counts"]["pass0"] for p in passes)
    for lib in ("rl", "tso", "sv", "bal", "rbl", "msw"):
        assert raw["counts"]["pass0"][f"libraries.{lib}.witnesses"] > 0

    lines = out.read_text().splitlines()
    spans = [json.loads(line) for line in lines[1:]]
    assert spans and all(end >= start for _n, start, end, _p, _ph in spans)
    assert all(p is None or p < i for i, (*_, p, _ph) in enumerate(spans))
    # self times add up to the time the outermost spans cover
    top = sum(end - start for _n, start, end, p, ph in spans
              if p is None and ph == "pass0")
    self_sum = sum(raw["self_s"]["pass0"].values())
    assert abs(top - self_sum) < 1e-6 * len(spans) + 1e-3
