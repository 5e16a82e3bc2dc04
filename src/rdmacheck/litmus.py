"""Litmus test format: text grammar, builder to programs, round-trip printer.

A test names its nodes, threads (with their nodes), installed libraries
(with optional variants), location declarations, initial values, one
straight-line instruction block per thread, outcome assertions, and
optional bounds.  Example::

    name fig5_barrier
    nodes n1 n2
    libs rl bal=transitive
    loc x @ n2
    loc y @ n1
    barrier z : t1 t2
    thread t1 @ n1 {
      putc x 1 d
      bar z
      a = read y
    }
    thread t2 @ n2 {
      putc y 1 e
      bar z
      b = read x
    }
    assert exact (a, b) in { (1,1) }
    bounds events=14

Instructions (registers on the left where the method returns a value):

    rl   write x v | a = read x | a = cas x v1 v2 | mfence |
         put x y d | putc x v [d] | get x y d | wait d | rfence n
    sv   svwrite x v | a = svread x | bcast x d n... | svwait d | gf n...
    tso  tsowrite x v | a = tsoread x | a = tsocas x v1 v2 | tsomfence |
         a = tsoput x y | a = tsoget x y | tsoputc x v | a = poll n |
         tsorfence n | setadd x v | setremove x v | a = setisempty x
    bal  bar z
    rbl  a = submit x (v,...) | a = receive x
    msw  mswwrite x (v,...) | a = tryread x | mswput x y d |
         mswget x y d | mswwait d

Write arguments may name registers bound earlier in the same thread.
Assertions: ``assert allowed <conj>``, ``assert forbidden <conj>`` with
conjunctions of ``reg = value`` and ``[loc] = value`` / ``[loc@node] =
value`` terms, and ``assert exact (r1, ...) in { (v,...) ; ... }``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .checker import Bounds
from .config import ClientProfile, NodeConfig
from .lang import Call, LetF, Program, Val
from .libraries import LIBRARIES, VARIANTS
from .libraries.rdma_core import LOCAL_ARG
from .values import BOT, Value, fmt_value, is_reserved_loc


class LitmusError(ValueError):
    def __init__(self, msg: str, line: int | None = None):
        self.line = line
        super().__init__(msg if line is None else f"line {line}: {msg}")


@dataclass(frozen=True)
class RegRef:
    name: str


@dataclass(frozen=True)
class Instr:
    op: str
    dest: str | None
    args: tuple
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Assertion:
    kind: str                      # allowed | forbidden | exact
    terms: tuple = ()              # ((kind, key, value), ...) for conjunctions
    regs: tuple = ()               # exact mode: register tuple
    tuples: frozenset = frozenset()  # exact mode: expected value tuples
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class LitmusTest:
    name: str
    nodes: tuple                     # node names, 1-based ids by position
    threads: tuple                   # (thread name, node name) pairs
    libs: tuple                      # (lib name, variant | None)
    loc_nodes: Mapping[str, str]
    svars: tuple
    barriers: Mapping[str, tuple]
    rings: Mapping[str, tuple]       # x -> (writer, readers tuple, capacity)
    msizes: Mapping[str, int]
    inits: tuple                     # ((loc, node name | None, value), ...)
    programs: Mapping[str, tuple]    # thread name -> instruction tuple
    assertions: tuple
    bounds: Bounds = Bounds()

    def node_id(self, name: str) -> int:
        return self.nodes.index(name) + 1

    def thread_id(self, name: str) -> int:
        return [t for t, _ in self.threads].index(name) + 1


_VALUE_RE = re.compile(r"-?\d+$")


def _parse_value(tok: str, line: int) -> Value:
    if tok == "true":
        return True
    if tok == "false":
        return False
    if tok == "bot":
        return BOT
    if tok == "()":
        return ()
    if tok.startswith("(") and tok.endswith(")"):
        inner = tok[1:-1].strip()
        if not inner:
            return ()
        parts = [p.strip() for p in inner.split(",") if p.strip()]
        return tuple(_parse_value(p, line) for p in parts)
    if _VALUE_RE.match(tok):
        return int(tok)
    raise LitmusError(f"not a value: {tok!r}", line)


def _is_value_tok(tok: str) -> bool:
    return (tok in ("true", "false", "bot", "()") or tok.startswith("(")
            or _VALUE_RE.match(tok) is not None)


def _positive(tok: str, what: str, line: int) -> int:
    if not (tok.isascii() and tok.isdigit()) or int(tok) < 1:
        raise LitmusError(f"{what} must be an integer of at least 1, got {tok!r}", line)
    return int(tok)


def _distinct(toks: Sequence[str], what: str, line: int) -> tuple:
    for k, t in enumerate(toks):
        if t in toks[:k]:
            raise LitmusError(f"{what} {t!r} given twice", line)
    return tuple(toks)


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*$")


def _check_name(tok: str, what: str, line: int) -> str:
    if not _NAME_RE.match(tok) or is_reserved_loc(tok):
        raise LitmusError(f"bad {what} name {tok!r}", line)
    return tok


# litmus op -> (library, method, argument kinds, returns a value)
# kinds: loc, vreg (value or register), wid, owid (optional wid), node,
#        nodeset (rest of line), payload (tuple value or register)
_INSTRS: dict[str, tuple[str, str, tuple, bool]] = {
    "write": ("rl", "write", ("loc", "vreg"), False),
    "read": ("rl", "read", ("loc",), True),
    "cas": ("rl", "cas", ("loc", "vreg", "vreg"), True),
    "mfence": ("rl", "mfence", (), False),
    "put": ("rl", "put", ("loc", "loc", "wid"), False),
    "putc": ("rl", "put", ("loc", "vreg", "owid"), False),
    "get": ("rl", "get", ("loc", "loc", "wid"), False),
    "wait": ("rl", "wait", ("wid",), False),
    "rfence": ("rl", "rfence", ("node",), False),
    "svwrite": ("sv", "sv_write", ("loc", "vreg"), False),
    "svread": ("sv", "sv_read", ("loc",), True),
    "bcast": ("sv", "sv_bcast", ("loc", "wid", "nodeset"), False),
    "svwait": ("sv", "sv_wait", ("wid",), False),
    "gf": ("sv", "sv_gf", ("nodeset",), False),
    "tsowrite": ("tso", "tso_write", ("loc", "vreg"), False),
    "tsoread": ("tso", "tso_read", ("loc",), True),
    "tsocas": ("tso", "tso_cas", ("loc", "vreg", "vreg"), True),
    "tsomfence": ("tso", "tso_mfence", (), False),
    "tsoput": ("tso", "tso_put", ("loc", "loc"), True),
    "tsoputc": ("tso", "tso_put", ("loc", "vreg"), False),
    "tsoget": ("tso", "tso_get", ("loc", "loc"), True),
    "poll": ("tso", "poll", ("node",), True),
    "tsorfence": ("tso", "tso_rfence", ("node",), False),
    "setadd": ("tso", "set_add", ("loc", "vreg"), False),
    "setremove": ("tso", "set_remove", ("loc", "vreg"), False),
    "setisempty": ("tso", "set_isempty", ("loc",), True),
    "bar": ("bal", "bar", ("loc",), False),
    "submit": ("rbl", "submit", ("loc", "payload"), True),
    "receive": ("rbl", "receive", ("loc",), True),
    "mswwrite": ("msw", "msw_write", ("loc", "payload"), False),
    "tryread": ("msw", "msw_tryread", ("loc",), True),
    "mswput": ("msw", "msw_put", ("loc", "loc", "wid"), False),
    "mswget": ("msw", "msw_get", ("loc", "loc", "wid"), False),
    "mswwait": ("msw", "msw_wait", ("wid",), False),
}


def _strip(line: str) -> str:
    if "#" in line:
        line = line[:line.index("#")]
    return line.strip()


def _tokens(line: str) -> list[str]:
    # keep parenthesised tuples as single tokens; with no parenthesis,
    # whitespace splits (str.split and str.isspace agree on what it is)
    if "(" not in line and ")" not in line:
        return line.split()
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


def parse_litmus(text: str, name: str = "test") -> LitmusTest:
    nodes: list[str] = []
    threads: list[tuple] = []
    libs: list[tuple] = []
    loc_nodes: dict = {}
    svars: list[str] = []
    barriers: dict = {}
    rings: dict = {}
    msizes: dict = {}
    msize_lines: dict = {}
    inits: list = []
    programs: dict = {}
    assertions: list = []
    bounds = Bounds()
    tname = name
    once: dict = {}        # name / nodes / bounds -> its line
    loc_lines: dict = {}   # location -> the line declaring it
    thread_lines: dict = {}  # thread -> the line of its header
    init_lines: list = []  # the line of each init, in the order of ``inits``

    def declare(x: str, ln: int) -> str:
        if x in loc_lines:
            raise LitmusError(f"location {x!r} already declared on line "
                              f"{loc_lines[x]}", ln)
        loc_lines[x] = ln
        return x

    lines = text.splitlines()
    i = 0
    while i < len(lines):
        raw = _strip(lines[i])
        ln = i + 1
        i += 1
        if not raw:
            continue
        toks = _tokens(raw)
        head = toks[0]
        if head in ("name", "nodes", "bounds"):
            if head in once:
                raise LitmusError(f"{head} already given on line {once[head]}", ln)
            once[head] = ln
        if head == "name":
            if len(toks) != 2:
                raise LitmusError("expected: name <name>", ln)
            tname = toks[1]
        elif head == "nodes":
            nodes = [_check_name(t, "node", ln) for t in toks[1:]]
            if len(set(nodes)) != len(nodes):
                raise LitmusError("duplicate node names", ln)
        elif head == "libs":
            for t in toks[1:]:
                lib, eq, var = t.partition("=")
                if lib not in LIBRARIES:
                    raise LitmusError(f"unknown library {lib!r}", ln)
                if eq and var not in VARIANTS.get(lib, ()):
                    raise LitmusError(f"unknown variant {t!r}", ln)
                if lib in {l for l, _ in libs}:
                    raise LitmusError(f"library {lib!r} declared twice", ln)
                libs.append((lib, var if eq else None))
        elif head == "loc":
            if len(toks) != 4 or toks[2] != "@":
                raise LitmusError("expected: loc <x> @ <node>", ln)
            loc_nodes[declare(_check_name(toks[1], "location", ln), ln)] = toks[3]
        elif head == "svar":
            svars += [declare(_check_name(t, "location", ln), ln) for t in toks[1:]]
        elif head == "barrier":
            if len(toks) < 4 or toks[2] != ":":
                raise LitmusError("expected: barrier <x> : <threads>", ln)
            barriers[declare(_check_name(toks[1], "location", ln), ln)] = \
                _distinct(toks[3:], "barrier thread", ln)
        elif head == "ring":
            m = re.match(r"ring\s+(\w+)\s*:\s*writer\s+(\w+)\s+readers\s+(.*?)\s+cap\s+(\d+)$", raw)
            if not m:
                raise LitmusError("expected: ring <x> : writer <t> readers <t...> cap <n>", ln)
            x = declare(_check_name(m.group(1), "location", ln), ln)
            rings[x] = (m.group(2), _distinct(m.group(3).split(), "ring reader", ln),
                        int(m.group(4)))
        elif head == "msize":
            if len(toks) != 3:
                raise LitmusError("expected: msize <x> <size>", ln)
            if toks[1] in msize_lines:
                raise LitmusError(f"msize of {toks[1]!r} already given on line "
                                  f"{msize_lines[toks[1]]}", ln)
            msizes[_check_name(toks[1], "location", ln)] = _positive(toks[2], "size", ln)
            msize_lines[toks[1]] = ln
        elif head == "init":
            m = re.match(r"init\s+(\w+)\s*(?:@\s*(\w+))?\s*=\s*(.+)$", raw)
            if not m:
                raise LitmusError("expected: init <x>[@node] = <value>", ln)
            init_lines.append(ln)
            inits.append((m.group(1), m.group(2), _parse_value(m.group(3).strip(), ln)))
        elif head == "thread":
            if len(toks) < 4 or toks[2] != "@" or toks[-1] != "{":
                raise LitmusError("expected: thread <t> @ <node> {", ln)
            t = _check_name(toks[1], "thread", ln)
            if t in thread_lines:
                raise LitmusError(f"thread {t!r} already declared on line "
                                  f"{thread_lines[t]}", ln)
            thread_lines[t] = ln
            threads.append((t, toks[3]))
            body: list[Instr] = []
            while True:
                if i >= len(lines):
                    raise LitmusError("unterminated thread block", ln)
                raw2 = _strip(lines[i])
                ln2 = i + 1
                i += 1
                if raw2 == "}":
                    break
                if not raw2:
                    continue
                body.append(_parse_instr(raw2, ln2))
            programs[t] = tuple(body)
        elif head == "assert":
            assertions.append(_parse_assert(raw, ln))
        elif head == "bounds":
            key, eq, val = (toks[1] if len(toks) == 2 else "").partition("=")
            if key != "events" or not eq:
                raise LitmusError("expected: bounds events=<n>", ln)
            bounds = Bounds(max_events=_positive(val, key, ln))
        else:
            raise LitmusError(f"unknown directive {head!r}", ln)
    for x, ln in msize_lines.items():
        if x not in loc_nodes:
            raise LitmusError(f"sized location {x!r} has no loc line", ln)
    cells: dict = {}  # (location, node name | None) -> the line initialising it
    for (x, n, v), ln in zip(inits, init_lines):
        if x not in loc_lines:
            raise LitmusError(f"init of undeclared location {x!r}", ln)
        if n is not None and n not in nodes:
            raise LitmusError(f"init on undeclared node {n!r}", ln)
        if x in barriers or x in rings:
            raise LitmusError(f"{x!r} is a barrier or ring and has no memory to "
                              f"initialise", ln)
        if n is not None and loc_nodes.get(x, n) != n:
            raise LitmusError(f"location {x!r} is on node {loc_nodes[x]}, not {n}", ln)
        if x in msizes and not (isinstance(v, tuple) and len(v) == msizes[x]):
            raise LitmusError(f"init of {x!r} must be a {msizes[x]}-tuple", ln)
        if x not in msizes and isinstance(v, tuple):
            raise LitmusError(f"tuple init of unsized location {x!r}", ln)
        # A loc location has one cell, so ``init x`` and ``init x @ <its
        # node>`` name the same one.
        cell = (x, None if x in loc_nodes else n)
        if cell in cells:
            raise LitmusError(f"{x!r} already initialised on line {cells[cell]}", ln)
        cells[cell] = ln

    test = LitmusTest(name=tname, nodes=tuple(nodes), threads=tuple(threads),
                      libs=tuple(libs), loc_nodes=loc_nodes, svars=tuple(svars),
                      barriers=barriers, rings=rings, msizes=msizes,
                      inits=tuple(inits), programs=programs,
                      assertions=tuple(assertions), bounds=bounds)
    _validate(test, loc_lines, thread_lines)
    return test


def _parse_instr(raw: str, ln: int) -> Instr:
    toks = _tokens(raw)
    dest = None
    if len(toks) >= 2 and toks[1] == "=":
        dest = _check_name(toks[0], "register", ln)
        toks = toks[2:]
    if not toks:
        raise LitmusError("empty instruction", ln)
    op = toks[0]
    spec = _INSTRS.get(op)
    if spec is None:
        raise LitmusError(f"unknown instruction {op!r}", ln)
    _lib, _method, kinds, returns = spec
    if dest is not None and not returns:
        raise LitmusError(f"{op} returns no value", ln)
    rest = toks[1:]
    args: list = []
    for j, kind in enumerate(kinds):
        if kind == "nodeset":
            if not rest:
                raise LitmusError(f"{op}: empty node set", ln)
            args.append(_distinct(rest, "node", ln))
            rest = []
            break
        if kind == "owid":
            if rest:
                args.append(rest.pop(0))
            else:
                args.append(None)
            continue
        if not rest:
            raise LitmusError(f"{op}: missing argument {j + 1}", ln)
        tok = rest.pop(0)
        if kind in ("loc", "wid", "node"):
            args.append(tok)
        elif kind == "vreg":
            args.append(_parse_value(tok, ln) if _is_value_tok(tok) else RegRef(tok))
        elif kind == "payload":
            if _is_value_tok(tok):
                v = _parse_value(tok, ln)
                if not isinstance(v, tuple):
                    raise LitmusError(f"{op}: payload must be a tuple", ln)
                args.append(v)
            else:
                args.append(RegRef(tok))
        else:
            raise AssertionError(kind)
    if rest:
        raise LitmusError(f"{op}: too many arguments", ln)
    return Instr(op=op, dest=dest, args=tuple(args), line=ln)


_TERM_RE = re.compile(r"(?:\[(\w+)(?:@(\w+))?\]|(\w+))\s*=\s*(\(.*?\)|\S+)")


def _parse_assert(raw: str, ln: int) -> Assertion:
    body = raw[len("assert"):].strip()
    if body.startswith("exact"):
        m = re.match(r"exact\s*\(([^)]*)\)\s*in\s*\{(.*)\}$", body)
        if not m:
            raise LitmusError("expected: assert exact (regs) in { tuples }", ln)
        regs = tuple(r.strip() for r in m.group(1).split(",") if r.strip())
        tuples = set()
        for part in m.group(2).split(";"):
            part = part.strip()
            if not part:
                continue
            v = _parse_value(part, ln)
            if not isinstance(v, tuple) or len(v) != len(regs):
                raise LitmusError(f"expected a {len(regs)}-tuple: {part}", ln)
            tuples.add(v)
        return Assertion(kind="exact", regs=regs, tuples=frozenset(tuples), line=ln)
    for kind in ("allowed", "forbidden"):
        if body.startswith(kind):
            terms = []
            for part in body[len(kind):].split("&"):
                part = part.strip()
                m = _TERM_RE.match(part)
                if not m or m.end() != len(part):
                    raise LitmusError(f"bad assertion term {part!r}", ln)
                loc, node, reg, val = m.groups()
                v = _parse_value(val, ln)
                if reg:
                    terms.append(("reg", reg, v))
                else:
                    terms.append(("mem", (loc, node), v))
            if not terms:
                raise LitmusError("empty assertion", ln)
            return Assertion(kind=kind, terms=tuple(terms), line=ln)
    raise LitmusError("expected: assert allowed|forbidden|exact ...", ln)


def _validate(test: LitmusTest, loc_lines: Mapping[str, int],
              thread_lines: Mapping[str, int]) -> None:
    """Cross-directive checks, each reported at the line of the directive
    at fault: the declaring line of a location or thread, and the first
    thread header (or line 1) when there is no nodes line."""
    if not test.nodes:
        raise LitmusError("no nodes declared", min(thread_lines.values(), default=1))
    names = [t for t, _ in test.threads]
    for t, n in test.threads:
        if n not in test.nodes:
            raise LitmusError(f"thread {t} on undeclared node {n}", thread_lines[t])
    for x, n in test.loc_nodes.items():
        if n not in test.nodes:
            raise LitmusError(f"location {x} on undeclared node {n}", loc_lines[x])
    for x, ts in test.barriers.items():
        for t in ts:
            if t not in names:
                raise LitmusError(f"barrier {x} names undeclared thread {t}",
                                  loc_lines[x])
    for x, (w, rs, cap) in test.rings.items():
        for t in (w, *rs):
            if t not in names:
                raise LitmusError(f"ring {x} names undeclared thread {t}", loc_lines[x])
        if cap < 1:
            raise LitmusError(f"ring {x} capacity must be >= 1", loc_lines[x])

    declared = (set(test.loc_nodes) | set(test.svars) | set(test.barriers)
                | set(test.rings) | set(test.msizes))
    lib_names = {l for l, _ in test.libs}
    regs: set[str] = set()
    for t, node in test.threads:
        seen: set[str] = set()
        for ins in test.programs.get(t, ()):
            lib, method, kinds, _ret = _INSTRS[ins.op]
            if lib not in lib_names:
                raise LitmusError(f"{ins.op} needs library {lib}", ins.line)
            role_of = getattr(LIBRARIES[lib], "role_of", None)
            k = LOCAL_ARG.get((role_of or {}).get(method))
            local = ins.args[k] if k is not None and kinds[k] == "loc" else None
            if test.loc_nodes.get(local, node) != node:
                raise LitmusError(f"{ins.op}: location {local!r} is not on "
                                  f"{t}'s node {node}", ins.line)
            for kind, a in zip(kinds, ins.args):
                if kind == "loc" and ins.op not in ("setadd", "setremove",
                                                    "setisempty"):
                    if a not in declared:
                        raise LitmusError(f"undeclared location {a!r}", ins.line)
                    if role_of is not None and a not in test.loc_nodes:
                        raise LitmusError(f"{ins.op}: location {a!r} has no loc line",
                                          ins.line)
                    if lib == "msw" and a not in test.msizes:
                        raise LitmusError(f"msw location {a!r} has no msize", ins.line)
                if kind == "node" or kind == "nodeset":
                    for nn in (a if isinstance(a, tuple) else (a,)):
                        if nn not in test.nodes:
                            raise LitmusError(f"undeclared node {nn!r}", ins.line)
                if isinstance(a, RegRef) and a.name not in seen:
                    raise LitmusError(f"register {a.name!r} unbound", ins.line)
            if ins.dest:
                if ins.dest in regs:
                    raise LitmusError(f"register {ins.dest!r} reused", ins.line)
                regs.add(ins.dest)
                seen.add(ins.dest)
    for a in test.assertions:
        for kind, key, _v in a.terms:
            if kind == "reg" and key not in regs:
                raise LitmusError(f"assertion references unbound register {key!r}",
                                  a.line)
            if kind == "mem":
                loc, node = key
                if loc not in declared:
                    raise LitmusError(f"assertion references undeclared location "
                                      f"{loc!r}", a.line)
                if node is not None and node not in test.nodes:
                    raise LitmusError(f"assertion references undeclared node {node!r}",
                                      a.line)
                if loc in test.barriers or loc in test.rings:
                    raise LitmusError(f"{loc!r} is a barrier or ring and has no "
                                      f"memory to assert on", a.line)
                if node is None and loc in test.svars:
                    raise LitmusError(f"shared variable {loc!r} has one replica per "
                                      f"node: write [{loc}@<node>]", a.line)
                if node is not None and test.loc_nodes.get(loc, node) != node:
                    raise LitmusError(f"location {loc!r} is on node "
                                      f"{test.loc_nodes[loc]}, not {node}", a.line)
        for r in a.regs:
            if r not in regs:
                raise LitmusError(f"assertion references unbound register {r!r}",
                                  a.line)


# ---------------------------------------------------------------------------
# Printer (parse . print == id on the structured form)


def print_litmus(test: LitmusTest) -> str:
    out = [f"name {test.name}", "nodes " + " ".join(test.nodes)]
    out.append("libs " + " ".join(l if v is None else f"{l}={v}"
                                  for l, v in test.libs))
    for x in sorted(test.loc_nodes):
        out.append(f"loc {x} @ {test.loc_nodes[x]}")
    if test.svars:
        out.append("svar " + " ".join(test.svars))
    for x in sorted(test.barriers):
        out.append(f"barrier {x} : " + " ".join(test.barriers[x]))
    for x in sorted(test.rings):
        w, rs, cap = test.rings[x]
        out.append(f"ring {x} : writer {w} readers {' '.join(rs)} cap {cap}")
    for x in sorted(test.msizes):
        out.append(f"msize {x} {test.msizes[x]}")
    for loc, node, v in test.inits:
        at = "" if node is None else f" @ {node}"
        out.append(f"init {loc}{at} = {fmt_value(v)}")
    for t, n in test.threads:
        out.append(f"thread {t} @ {n} {{")
        for ins in test.programs[t]:
            out.append("  " + _print_instr(ins))
        out.append("}")
    for a in test.assertions:
        out.append(_print_assert(a))
    out.append(f"bounds events={test.bounds.max_events}")
    return "\n".join(out) + "\n"


def _print_instr(ins: Instr) -> str:
    parts = [ins.op]
    for kind, a in zip(_INSTRS[ins.op][2], ins.args):
        if a is None:
            continue        # an absent optional work identifier
        if kind == "nodeset":
            parts.extend(a)
        elif isinstance(a, RegRef):
            parts.append(a.name)
        elif isinstance(a, str):
            parts.append(a)  # location, work identifier or node name
        else:
            parts.append(fmt_value(a))
    s = " ".join(parts)
    return f"{ins.dest} = {s}" if ins.dest else s


def _print_assert(a: Assertion) -> str:
    if a.kind == "exact":
        tuples = " ; ".join(fmt_value(v) for v in sorted(a.tuples, key=repr))
        return f"assert exact ({', '.join(a.regs)}) in {{ {tuples} }}"
    terms = []
    for kind, key, v in a.terms:
        if kind == "reg":
            terms.append(f"{key} = {fmt_value(v)}")
        else:
            loc, node = key
            at = "" if node is None else f"@{node}"
            terms.append(f"[{loc}{at}] = {fmt_value(v)}")
    return f"assert {a.kind} " + " & ".join(terms)


# ---------------------------------------------------------------------------
# Builder: litmus test -> programs + config + profile


@dataclass
class BuiltTest:
    test: LitmusTest
    programs: list
    cfg: NodeConfig
    profile: ClientProfile
    libs: tuple                 # (name, variant) resolved
    registers: tuple            # (thread name, reg) in output order per thread
    uses_memory: bool


def build_test(test: LitmusTest, variants: Mapping[str, str] | None = None) -> BuiltTest:
    variants = dict(variants or {})
    node_id = {n: i + 1 for i, n in enumerate(test.nodes)}
    thread_id = {t: i + 1 for i, (t, _n) in enumerate(test.threads)}

    loc_node = {x: node_id[n] for x, n in test.loc_nodes.items()}
    init: dict = {}
    for loc, node, v in test.inits:
        init[(loc, None if node is None else node_id[node])] = v

    wids: dict = {}
    aux = 0

    programs = []
    registers = []
    for t, nname in test.threads:
        tid = thread_id[t]
        instrs = list(test.programs.get(t, ()))
        regs = [i.dest for i in instrs if i.dest]
        registers.extend((t, r) for r in regs)

        calls = []
        for ins in instrs:
            _lib, method, kinds, _ret = _INSTRS[ins.op]
            args = list(ins.args)
            for k, (kind, a) in enumerate(zip(kinds, ins.args)):
                if kind == "wid":
                    wids.setdefault(tid, set()).add(a)
                elif kind == "node":
                    args[k] = node_id[a]
                elif kind == "nodeset":
                    args[k] = frozenset(node_id[n] for n in a)
            if ins.op in ("putc", "tsoputc"):
                nonlocal_aux = f"__tmp_t{tid}_{aux}"
                aux += 1
                loc_node[nonlocal_aux] = node_id[nname]
                x, v, *rest = args
                d = rest[0] if rest and rest[0] else f"__dput{aux}"
                wmeth = "write" if method == "put" else "tso_write"
                calls.append((None, wmeth, (nonlocal_aux, v), ins))
                pargs = (x, nonlocal_aux, d) if method == "put" else (x, nonlocal_aux)
                calls.append((None, method, pargs, ins))
                if method == "put":
                    wids.setdefault(tid, set()).add(d)
            else:
                calls.append((ins.dest, method, tuple(args), ins))

        programs.append(_chain(calls, regs, 0, {}))

    cfg = NodeConfig(
        nodes=frozenset(node_id.values()),
        thread_node={thread_id[t]: node_id[n] for t, n in test.threads},
        loc_node=loc_node,
        barrier={x: frozenset(thread_id[t] for t in ts)
                 for x, ts in test.barriers.items()},
        wthd={x: thread_id[w] for x, (w, _rs, _c) in test.rings.items()},
        rthd={x: frozenset(thread_id[r] for r in rs)
              for x, (_w, rs, _c) in test.rings.items()},
        capacity={x: c for x, (_w, _rs, c) in test.rings.items()},
        size=dict(test.msizes),
        init=init,
    )
    cfg.validate()

    all_locs = (set(test.loc_nodes) | set(test.svars) | set(test.barriers)
                | set(test.rings) | set(test.msizes))
    profile = ClientProfile(
        locs=frozenset(all_locs),
        wids={t: frozenset(ws) for t, ws in wids.items()},
    )
    libs = tuple((l, variants.get(l, v)) for l, v in test.libs)
    uses_memory = any(k == "mem" for a in test.assertions
                      for k, _key, _v in a.terms)
    return BuiltTest(test=test, programs=programs, cfg=cfg, profile=profile,
                     libs=libs, registers=tuple(registers),
                     uses_memory=uses_memory)


def _chain(calls: Sequence[tuple], out_regs: Sequence[str], i: int,
           env: dict) -> Program:
    """Straight-line calls from the ``i``-th on, with the registers ``env``
    set, to a program returning the register tuple.  A module function, so
    no closure refers to itself."""
    if i == len(calls):
        return Val(tuple(env[r] for r in out_regs))
    dest, method, args, _ins = calls[i]
    resolved = tuple(env[a.name] if isinstance(a, RegRef) else a for a in args)
    return LetF(Call(method, resolved),
                lambda v: _chain(calls, out_regs, i + 1,
                                 {**env, dest: v} if dest else env))
