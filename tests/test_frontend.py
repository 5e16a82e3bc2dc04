"""The litmus printer against the parser, and the CLI's exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import unfold_file
from rdmacheck import runner
from rdmacheck.checker import Outcome, OutcomeResult
from rdmacheck.cli import main
from rdmacheck.litmus import LitmusError, _strip, _tokens, parse_litmus, print_litmus
from rdmacheck.runner import FAIL, PASS, run_litmus

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
LITMUS = sorted(CORPUS.glob("*.litmus")) + [ROOT / "perfbench/inputs/msw_put_tryread.litmus"]


@pytest.mark.parametrize("path", LITMUS, ids=[p.stem for p in LITMUS])
def test_print_then_parse_is_identity(path):
    t = parse_litmus(path.read_text(), name=path.stem)
    assert parse_litmus(print_litmus(t), name=path.stem) == t


def depth_scan_tokens(line: str) -> list[str]:
    """The tokeniser as a per-character depth scan on every line: a
    parenthesised tuple, nested or not, stays one token."""
    out, buf, depth = [], "", 0
    for ch in line:
        if ch.isspace() and depth == 0:
            if buf:
                out.append(buf)
                buf = ""
        else:
            buf += ch
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
    if buf:
        out.append(buf)
    return out


def test_tokens_are_the_depth_scan_on_every_line():
    lines = [line for path in LITMUS for line in path.read_text().splitlines()]
    lines += ["r = cas((x, y), (1, (2, 3)), 4)", "x = ((1,2), ( 3 , 4 ))\t# tuple",
              " \t a b\x0bc   ", "a) b (c", "x) y", "", "   "]
    lines += [_strip(line) for line in lines]
    assert any("(" in line for line in lines)
    for line in lines:
        assert _tokens(line) == depth_scan_tokens(line), line


def test_the_printer_writes_only_the_event_cap():
    for path in LITMUS:
        text = print_litmus(parse_litmus(path.read_text(), name=path.stem))
        assert "loop=" not in text
        assert text.splitlines()[-1] == "bounds events=14"


ONE_THREAD = """name {name}
nodes n1 n2
libs rl
loc x @ n1
thread t1 @ n1 {{
  write x 1
  a = read x
}}
{asserts}
"""


def exit_code(argv) -> int:
    try:
        return main([str(a) for a in argv])
    except SystemExit as e:  # argparse reports usage errors this way
        return e.code


def litmus_file(tmp_path: Path, name: str, asserts: str) -> Path:
    p = tmp_path / f"{name}.litmus"
    p.write_text(ONE_THREAD.format(name=name, asserts=asserts))
    return p


def test_exit_0_on_a_passing_file():
    assert exit_code(["check", CORPUS / "fig2a_wait.litmus"]) == 0


def test_the_package_runs_as_a_module():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    r = subprocess.run([sys.executable, "-m", "rdmacheck", "check",
                        "corpus/fig1a_poll.litmus"],
                       cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr


def test_exit_1_on_a_false_assertion(tmp_path, capsys):
    p = litmus_file(tmp_path, "own_write", "assert forbidden a = 1")
    assert exit_code(["check", p]) == 1
    assert "forbidden outcome found" in capsys.readouterr().out


def test_exit_2_on_a_parse_error(tmp_path):
    p = tmp_path / "bad.litmus"
    p.write_text("name bad\nnodes n1\nlibs rl\nthread t1 @ n1 {\n  frobnicate x\n}\n")
    assert exit_code(["check", p]) == 2


def test_exit_2_on_a_missing_file(tmp_path):
    assert exit_code(["check", tmp_path / "absent.litmus"]) == 2
    assert exit_code(["corpus", tmp_path / "absent"]) == 2


@pytest.mark.parametrize("directory, flags", [
    (None, []), (CORPUS, ["--filter", "no_such_test"])], ids=["empty", "filter"])
def test_exit_2_when_a_corpus_run_has_no_file(tmp_path, capsys, directory, flags):
    assert exit_code(["corpus", directory or tmp_path, *flags]) == 2
    out, err = capsys.readouterr()
    assert "no *.litmus file" in err and "total:" not in out


@pytest.mark.parametrize("flags", [
    ["--variant", "bal"], ["--variant", "bal=nope"], ["--variant", "xyz=weak"],
    ["--loop-bound", "3"], ["--max-events", "0"], ["--max-events", "two"],
])
def test_exit_2_on_a_bad_option(flags):
    assert exit_code(["check", CORPUS / "fig2a_wait.litmus", *flags]) == 2


def test_exit_3_when_the_event_cap_hides_a_forbidden_outcome(tmp_path):
    p = litmus_file(tmp_path, "capped", "assert forbidden a = 0")
    assert exit_code(["check", p]) == 0
    assert exit_code(["check", p, "--max-events", "1"]) == 3


# Truncation only removes outcomes: under it, an expected outcome that is
# missing is bound-limited and still named in the report.
@pytest.mark.parametrize("asserts, message", [
    ("assert allowed a = 1", "allowed outcome not found: assert allowed a = 1"),
    ("assert exact (a) in { (1) }", "exact-set mismatch on (a): got [], missing [(1,)]"),
], ids=["allowed", "exact"])
def test_exit_3_when_the_event_cap_hides_an_expected_outcome(tmp_path, capsys,
                                                              asserts, message):
    p = litmus_file(tmp_path, "capped", asserts)
    assert exit_code(["check", p]) == 0
    assert exit_code(["check", p, "--max-events", "1"]) == 3
    assert message in capsys.readouterr().out


def truncated_with_a_1(monkeypatch):
    """Make the runner's outcome set ``a = 1`` alone, bound-limited."""
    found = OutcomeResult(frozenset({Outcome(((1,),))}), True)
    monkeypatch.setattr(runner, "outcomes", lambda *args, **kw: found)


def test_a_forbidden_outcome_found_under_truncation_fails(monkeypatch):
    truncated_with_a_1(monkeypatch)
    test = parse_litmus(ONE_THREAD.format(name="t", asserts="assert forbidden a = 1"))
    report = run_litmus(test)
    assert report.verdict == FAIL and report.truncated
    assert report.failures == ["forbidden outcome found: assert forbidden a = 1"]


def test_an_exact_set_tuple_outside_the_set_under_truncation_fails(monkeypatch):
    truncated_with_a_1(monkeypatch)
    test = parse_litmus(ONE_THREAD.format(name="t", asserts="assert exact (a) in { (0) }"))
    report = run_litmus(test)
    assert report.verdict == FAIL and report.truncated
    assert report.failures == ["exact-set mismatch on (a): got [(1,)], missing [(0,)]"]


@pytest.mark.parametrize("bad", [
    "name", "msize x abc", "bounds loop=x", "bounds loop=0", "libs foo",
    "libs bal=bogus", "libs rl", "msize y 2",
    "thread t2 @ n2 {\n  b = read x\n}",
    "name again", "nodes n1 n2 n3", "bounds loop=2\nbounds loop=3",
    "loc x @ n2", "svar x", "loc y @ n1\nmsize y 2\nmsize y 2",
    "svar y\nthread t2 @ n2 {\n  b = read y\n}",
    "svar y\nassert forbidden [y] = 1", "assert allowed [x@n2] = 0",
    "assert allowed b = 1", "barrier z : t1\nassert forbidden [z] = 1",
    "ring q : writer t1 readers t1 cap 1\nassert allowed [q@n1] = 0",
    "init x @ n9 = 1", "init y = 1", "init x = 1\ninit x = 2",
    "ring __q : writer t1 readers t1 cap 2", "loc y @ n3", "barrier z : t9",
    "ring q : writer t1 readers t9 cap 1", "ring q : writer t1 readers t1 cap 0",
    "init x @ n2 = 1", "init x = 1\ninit x @ n1 = 2", "init x @ n1 = 1\ninit x = 2",
    "barrier z : t1\ninit z = 5", "ring q : writer t1 readers t1 cap 1\ninit q = 3",
    "loc y @ n1\nmsize y 2\ninit y = 7", "loc y @ n1\nmsize y 2\ninit y = (1,2,3)",
    "init x = (1,2)", "svar y\ninit y @ n2 = (1,2)",
    "bounds loop=2 loop=3", "barrier z : t1 t1", "ring q : writer t1 readers t1 t1 cap 2",
    "bounds", "bounds events=0", "bounds events=x", "bounds events=9 events=9",
])
def test_exit_2_with_the_line_of_a_bad_directive(tmp_path, capsys, bad):
    text = ONE_THREAD.format(name="bad", asserts="assert allowed a = 1") + bad + "\n"
    p = tmp_path / "bad.litmus"
    p.write_text(text)
    assert exit_code(["check", p]) == 2
    lines = text.splitlines()
    line = len(lines) - (lines[-1] == "}")   # a thread's last instruction
    if "loop=" in bad:      # no loop bound: its first directive fails
        line = next(i for i, ln in enumerate(lines, 1) if "loop=" in ln)
    assert f"parse error: line {line}:" in capsys.readouterr().out


@pytest.mark.parametrize("instr", ["bcast x d n2 n2", "gf n2 n2"])
def test_exit_2_with_the_line_of_a_repeated_node(tmp_path, capsys, instr):
    """A node set names each node once, as a barrier's threads and a
    ring's readers do."""
    p = tmp_path / "dup.litmus"
    p.write_text("nodes n1 n2\nlibs rl sv\nsvar x\n"
                 f"thread t1 @ n1 {{\n  {instr}\n}}\n")
    assert exit_code(["check", p]) == 2
    assert "parse error: line 5: node 'n2' given twice" in capsys.readouterr().out


@pytest.mark.parametrize("text, line", [
    ("nodes n1 n1\nthread t1 @ n1 {\n  mfence\n}\n", 1),
    ("nodes n1\nlibs rl\nthread t1 @ n1 {\n  mfence\n}\n"
     "thread t1 @ n1 {\n  mfence\n}\n", 6),
])
def test_exit_2_with_the_line_of_a_duplicate_name(tmp_path, capsys, text, line):
    p = tmp_path / "dup.litmus"
    p.write_text(text)
    assert exit_code(["check", p]) == 2
    assert f"parse error: line {line}:" in capsys.readouterr().out


@pytest.mark.parametrize("text, line", [
    ("name nonodes\nlibs rl\nthread t1 @ n1 {\n  mfence\n}\n", 3),
    ("name nonodes\nlibs rl\n", 1),
    ("nodes n1\nlibs rl\nthread t1 @ n1 {\n  mfence\n}\n"
     "thread t2 @ n3 {\n  mfence\n}\n", 6),
])
def test_exit_2_with_the_line_of_a_structural_error(tmp_path, capsys, text, line):
    p = tmp_path / "bad.litmus"
    p.write_text(text)
    assert exit_code(["check", p]) == 2
    assert f"parse error: line {line}:" in capsys.readouterr().out


def test_exit_1_when_no_execution_is_consistent(tmp_path, capsys):
    # t2 is no participant of barrier z, so its call has no witness.
    p = tmp_path / "stuck.litmus"
    p.write_text("name stuck\nnodes n1 n2\nlibs bal rl\nbarrier z : t1\n"
                 "loc x @ n1\nthread t1 @ n1 {\n  bar z\n  a = read x\n}\n"
                 "thread t2 @ n2 {\n  bar z\n}\nassert forbidden a = 1\n")
    assert exit_code(["check", p]) == 1
    assert "no execution is consistent" in capsys.readouterr().out


NODE_INIT = """name nodeinit
nodes n1 n2
libs {lib}
loc x @ n1
{msize}init x @ n1 = {init}
thread t1 @ n1 {{
  a = {read} x
}}
assert allowed a = {init}
assert forbidden a = {zero}
"""


@pytest.mark.parametrize("fields", [
    dict(lib="rl", msize="", init="1", read="read", zero="0"),
    dict(lib="msw", msize="msize x 2\n", init="(1,2)", read="tryread", zero="(0,0)"),
])
def test_a_node_qualified_init_is_the_cell_on_that_node(tmp_path, fields):
    p = tmp_path / "nodeinit.litmus"
    p.write_text(NODE_INIT.format(**fields))
    assert exit_code(["check", p]) == 0


UNWRITTEN_MSW = """name unwritten
nodes n1
libs msw
loc x @ n1
msize x 2
thread t1 @ n1 {{
  a = tryread x
}}
assert {kind} [x] = (0,0)
"""


@pytest.mark.parametrize("kind, verdict", [("forbidden", FAIL), ("allowed", PASS)])
def test_an_unwritten_sized_cell_holds_the_zero_tuple(kind, verdict):
    report = run_litmus(parse_litmus(UNWRITTEN_MSW.format(kind=kind)))
    assert report.verdict == verdict


def test_a_node_id_joins_no_value_domain(tmp_path):
    # rfence's node n3 is no value a read could return: the reads of x are
    # offered its initial 0 and the stored 1, and the read of y, which
    # nothing writes, only its initial 0, so the three reads give 2 x 2 x 1
    # plain executions.
    p = tmp_path / "rfence.litmus"
    p.write_text("name rfence\nnodes n1 n2 n3\nlibs rl\nloc x @ n1\nloc y @ n1\n"
                 "thread t1 @ n1 {\n  write x 1\n  rfence n3\n  a = read x\n}\n"
                 "thread t2 @ n1 {\n  b = read x\n  c = read y\n}\n")
    _built, _libs, res = unfold_file(p)
    assert len(res.results) == 4 and not res.truncated
    assert {vals[1][1] for vals, _g in res.results} == {0}


SV_WRITE = """name svmem
nodes n1 n2
libs sv
svar x
thread t1 @ n1 {{
  svwrite x 1
}}
assert forbidden [{term}] = 1
"""


def test_a_shared_variable_term_must_name_its_replica(tmp_path, capsys):
    p = tmp_path / "svmem.litmus"
    p.write_text(SV_WRITE.format(term="x"))
    assert exit_code(["check", p]) == 2
    assert "parse error: line 8: shared variable 'x'" in capsys.readouterr().out
    p.write_text(SV_WRITE.format(term="x@n1"))
    assert exit_code(["check", p]) == 1
    assert "forbidden outcome found: assert forbidden [x@n1] = 1" in capsys.readouterr().out


def test_an_instruction_without_its_library_names_its_line_once():
    text = ONE_THREAD.format(name="nolib", asserts="")
    with pytest.raises(LitmusError) as e:
        parse_litmus(text.replace("a = read x", "a = svread x"))
    assert str(e.value) == "line 7: svread needs library sv"


def test_msw_location_without_msize_is_a_parse_error():
    text = ("name unsized\nnodes n1\nlibs msw\nloc x @ n1\n"
            "thread t1 @ n1 {\n  a = tryread x\n}\n")
    with pytest.raises(LitmusError) as e:
        parse_litmus(text)
    assert e.value.line == 6 and "msize" in str(e.value)
    parse_litmus(text.replace("loc x @ n1\n", "loc x @ n1\nmsize x 2\n"))


@pytest.mark.parametrize("cmd", ["check", "corpus"])
def test_exit_2_before_running_when_the_json_directory_is_missing(tmp_path, capsys, cmd):
    target = CORPUS / "fig2a_wait.litmus" if cmd == "check" else CORPUS
    assert exit_code([cmd, target, "--json", tmp_path / "absent" / "r.json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--json" in err


@pytest.mark.parametrize("cmd", ["check", "corpus"])
def test_exit_2_before_running_when_the_json_path_is_a_directory(tmp_path, capsys, cmd):
    target = CORPUS / "fig2a_wait.litmus" if cmd == "check" else CORPUS
    assert exit_code([cmd, target, "--json", tmp_path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--json" in err


@pytest.mark.parametrize("flags", [[], ["--dump-witness"]], ids=["plain", "dump_witness"])
def test_the_json_report_holds_the_witness_dump_only_when_asked(tmp_path, capsys, flags):
    path = tmp_path / "r.json"
    assert exit_code(["check", CORPUS / "fig2a_wait.litmus", "--json", path, *flags]) == 0
    out, _err = capsys.readouterr()
    report = json.loads(path.read_text())
    if flags:
        assert report["witness_dump"].startswith("outputs ") and report["witness_dump"] in out
    else:
        assert "witness_dump" not in report
    assert exit_code(["corpus", CORPUS, "--filter", "fig2a_wait", "--json", path]) == 0
    assert all("witness_dump" not in t for t in json.loads(path.read_text())["tests"])
