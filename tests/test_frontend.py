"""The litmus printer against the parser, and the CLI's exit codes."""

from __future__ import annotations

from pathlib import Path

import pytest

from rdmacheck.cli import main
from rdmacheck.litmus import LitmusError, parse_litmus, print_litmus

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
LITMUS = sorted(CORPUS.glob("*.litmus")) + [ROOT / "perfbench/inputs/msw_put_tryread.litmus"]


@pytest.mark.parametrize("path", LITMUS, ids=[p.stem for p in LITMUS])
def test_print_then_parse_is_identity(path):
    t = parse_litmus(path.read_text(), name=path.stem)
    assert parse_litmus(print_litmus(t), name=path.stem) == t


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


@pytest.mark.parametrize("flags", [
    ["--variant", "bal"], ["--variant", "bal=nope"], ["--variant", "xyz=weak"],
    ["--loop-bound", "-1"], ["--loop-bound", "0"], ["--max-events", "0"],
    ["--loop-bound", "two"],
])
def test_exit_2_on_a_bad_option(flags):
    assert exit_code(["check", CORPUS / "fig2a_wait.litmus", *flags]) == 2


def test_exit_2_on_no_workers():
    assert exit_code(["corpus", CORPUS, "--jobs", "0"]) == 2


def test_exit_3_when_the_event_cap_hides_a_forbidden_outcome(tmp_path):
    p = litmus_file(tmp_path, "capped", "assert forbidden a = 0")
    assert exit_code(["check", p]) == 0
    assert exit_code(["check", p, "--max-events", "1"]) == 3


@pytest.mark.parametrize("bad", [
    "name", "msize x abc", "bounds loop=x", "bounds loop=0", "libs foo",
    "libs bal=bogus", "libs rl", "msize y 2",
    "thread t2 @ n2 {\n  b = read x\n}",
])
def test_exit_2_with_the_line_of_a_bad_directive(tmp_path, capsys, bad):
    text = ONE_THREAD.format(name="bad", asserts="assert allowed a = 1") + bad + "\n"
    p = tmp_path / "bad.litmus"
    p.write_text(text)
    assert exit_code(["check", p]) == 2
    lines = text.splitlines()
    line = len(lines) - (lines[-1] == "}")   # a thread's last instruction
    assert f"parse error: line {line}:" in capsys.readouterr().out


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
