"""Litmus execution: outcome computation, assertion verdicts, corpus runs.

A test passes when every allowed pattern is matched by some computed
outcome, no forbidden pattern is matched, and exact-set assertions match
exactly.  A bound-limited enumeration can never confirm a forbidden
pattern's absence, so such tests report ``bound-limited`` instead of
``pass`` unless the assertion set needs no absence claims.  Truncation only
removes outcomes, so under it an allowed pattern not found, or an
exact-set tuple missing, is ``bound-limited`` too, not a failure; a
forbidden pattern found, or an exact-set tuple outside the set, still
fails.  A test with no consistent execution at all fails, since every
forbidden pattern would then hold vacuously.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .checker import Bounds, Outcome, enumerate_consistent, outcomes, pools
from .config import NodeConfig
from .dump import dump_execution
from .lang import interpret_conc
from .libraries import make_library
from .litmus import Assertion, BuiltTest, LitmusTest, build_test, parse_litmus

REPORT_SCHEMA = "rdmacheck-report-v1"

PASS, FAIL, BOUND_LIMITED, ERROR = "pass", "fail", "bound-limited", "error"


@dataclass
class TestReport:
    name: str
    verdict: str
    outcomes: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    truncated: bool = False
    seconds: float = 0.0
    notes: list = field(default_factory=list)
    witness_dump: str | None = None

    def to_json(self) -> dict:
        return {"name": self.name, "verdict": self.verdict,
                "outcomes": self.outcomes, "failures": self.failures,
                "bound_limited": self.truncated,
                "seconds": round(self.seconds, 3), "notes": self.notes}


def _mk_libs(pairs) -> list:
    """Libraries from (name, variant | None) pairs, a variant defaulting
    to its library's first."""
    return [make_library(n, bal_variant=v or "weak", rbl_mode=v or "strict")
            for n, v in pairs]


def _reg_positions(built: BuiltTest) -> dict:
    """register -> (thread index, position in that thread's output tuple)."""
    pos: dict = {}
    per_thread: dict = {}
    for tname, reg in built.registers:
        idx = [t for t, _ in built.test.threads].index(tname)
        k = per_thread.get(idx, 0)
        pos[reg] = (idx, k)
        per_thread[idx] = k + 1
    return pos


def _outcome_desc(o: Outcome, built: BuiltTest, regpos: Mapping) -> str:
    from .values import fmt_value
    regs = sorted(regpos, key=lambda r: regpos[r])
    parts = [f"{r}={fmt_value(o.outputs[regpos[r][0]][regpos[r][1]])}" for r in regs]
    for (loc, node), v in sorted(o.memory, key=repr):
        parts.append(f"[{loc}@n{node}]={fmt_value(v)}")
    return " ".join(parts) if parts else "()"


def _matches(o: Outcome, a_terms, built: BuiltTest, regpos, cfg: NodeConfig) -> bool:
    mem = o.memory_map()
    for kind, key, want in a_terms:
        if kind == "reg":
            ti, pi = regpos[key]
            if o.outputs[ti][pi] != want:
                return False
        else:
            loc, node_name = key
            if node_name is None:
                node = cfg.loc_node.get(loc)
            else:
                node = built.test.node_id(node_name)
            have = mem.get((loc, node), cfg.init_of(loc, node))
            if have != want:
                return False
    return True


def run_litmus(test: LitmusTest, overrides: Mapping | None = None,
               dump_witness: bool = False) -> TestReport:
    """Compute the outcome set of a parsed test and evaluate its assertions."""
    overrides = dict(overrides or {})
    t0 = time.perf_counter()
    built = build_test(test, variants=overrides.get("variants"))
    bounds = test.bounds
    if "max_events" in overrides:
        bounds = Bounds(max_events=overrides["max_events"])
    libs = _mk_libs(built.libs)
    res = outcomes(built.programs, libs, built.cfg, bounds,
                   outputs_only=not built.uses_memory)
    regpos = _reg_positions(built)

    failures, missing = [], []
    if not res.outcomes and not res.truncated:
        failures.append("no execution is consistent")
    needs_absence = False
    for a in test.assertions:
        if a.kind == "allowed":
            if not any(_matches(o, a.terms, built, regpos, built.cfg)
                       for o in res.outcomes):
                missing.append(f"allowed outcome not found: {_assert_desc(a)}")
        elif a.kind == "forbidden":
            needs_absence = True
            hits = [o for o in res.outcomes
                    if _matches(o, a.terms, built, regpos, built.cfg)]
            if hits:
                failures.append(f"forbidden outcome found: {_assert_desc(a)}")
        else:
            needs_absence = True
            got = frozenset(
                tuple(o.outputs[regpos[r][0]][regpos[r][1]] for r in a.regs)
                for o in res.outcomes)
            if got != a.tuples:
                lost = a.tuples - got
                (failures if got - a.tuples else missing).append(
                    f"exact-set mismatch on ({', '.join(a.regs)}): "
                    f"got {sorted(got, key=repr)}"
                    + (f", missing {sorted(lost, key=repr)}" if lost else ""))

    if failures or (missing and not res.truncated):
        verdict = FAIL
    elif res.truncated and (needs_absence or missing):
        verdict = BOUND_LIMITED
    else:
        verdict = PASS
    failures += missing

    notes = []
    for name, variant in built.libs:
        if name == "rbl" and (variant or "strict") == "weak":
            notes.append("weak ring-buffer mode selected (experimental "
                         "interaction with external happens-before)")
    report = TestReport(
        name=test.name, verdict=verdict,
        outcomes=sorted(_outcome_desc(o, built, regpos) for o in res.outcomes),
        failures=failures, truncated=res.truncated,
        seconds=time.perf_counter() - t0, notes=notes)
    if dump_witness:
        report.witness_dump = _dump_first_witness(built, libs, bounds)
    return report


def _assert_desc(a: Assertion) -> str:
    from .litmus import _print_assert
    return _print_assert(a)


def _dump_first_witness(built: BuiltTest, libs, bounds: Bounds) -> str:
    interp = interpret_conc(built.programs, pools(libs, built.cfg),
                            bounds.max_events)
    for vals, plain in interp.results:
        for acc in enumerate_consistent([plain], libs, built.cfg):
            return dump_execution(plain, acc["stmp"], acc["so"], acc["hb"],
                                  acc["witnesses"], outputs=vals)
    return "(no consistent execution)"


def run_file(path: Path, overrides: Mapping | None = None,
             dump_witness: bool = False) -> TestReport:
    try:
        test = parse_litmus(path.read_text(), name=path.stem)
    except Exception as e:
        return TestReport(name=path.stem, verdict=ERROR,
                          failures=[f"parse error: {e}"])
    try:
        return run_litmus(test, overrides, dump_witness=dump_witness)
    except Exception as e:
        return TestReport(name=test.name, verdict=ERROR,
                          failures=[f"run error: {e}"])


@dataclass
class CorpusSummary:
    reports: list
    seconds: float

    def counts(self) -> dict:
        c = {PASS: 0, FAIL: 0, BOUND_LIMITED: 0, ERROR: 0}
        for r in self.reports:
            c[r.verdict] += 1
        return c

    def exit_code(self) -> int:
        c = self.counts()
        if c[FAIL] or c[ERROR]:
            return 1
        if c[BOUND_LIMITED]:
            return 3
        return 0

    def to_json(self) -> dict:
        return {"schema": REPORT_SCHEMA, "seconds": round(self.seconds, 3),
                "counts": self.counts(),
                "tests": [r.to_json() for r in self.reports]}


def run_corpus(directory: Path, filters: Sequence[str] = (),
               overrides: Mapping | None = None) -> CorpusSummary:
    t0 = time.perf_counter()
    paths = sorted(directory.glob("*.litmus"))
    if filters:
        paths = [p for p in paths if any(f in p.stem for f in filters)]
    reports = [run_file(p, overrides) for p in paths]
    return CorpusSummary(reports=reports, seconds=time.perf_counter() - t0)


def write_json_report(summary: CorpusSummary, path: Path) -> None:
    path.write_text(json.dumps(summary.to_json(), indent=2, sort_keys=True)
                    + "\n")
