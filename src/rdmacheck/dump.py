"""Line-oriented debug dump of executions: events, subevents, relations.

The format is stable across runs (events keyed by (thread, id), relations
sorted) so dumps can be diffed.
"""

from __future__ import annotations

from .events import PlainExecution
from .values import fmt_value


def _ename(e) -> str:
    return f"e{e.tid}.{e.eid}"


def _sname(s) -> str:
    return f"{_ename(s.event)}/{s.stamp!r}"


def dump_execution(plain: PlainExecution, stmp, so, hb,
                   witnesses: dict | None = None, outputs=None) -> str:
    lines = []
    if outputs is not None:
        lines.append("outputs " + fmt_value(tuple(outputs)))
    lines.append("events")
    for e in plain.events:
        args = ",".join(fmt_value(a) for a in e.args)
        stamps = " ".join(sorted(repr(a) for a in stmp[e]))
        lines.append(f"  {_ename(e)} t{e.tid} {e.method}({args}) = "
                     f"{fmt_value(e.output)} : {stamps}")
    lines.append("po")
    for a, b in sorted(plain.po, key=lambda p: (p[0].tid, p[0].eid,
                                                p[1].tid, p[1].eid)):
        lines.append(f"  {_ename(a)} -> {_ename(b)}")

    def rel_lines(name, rel):
        lines.append(name)
        for a, b in sorted(rel, key=lambda p: (repr(p[0]), repr(p[1]))):
            lines.append(f"  {_sname(a)} -> {_sname(b)}")

    rel_lines("so", so)
    rel_lines("hb", hb)
    for lib in sorted(witnesses or {}):
        w = witnesses[lib]
        lines.append(f"witness {lib}")
        for name in sorted(w.rels):
            rel_lines(f"  {lib}.{name}", w.rels[name])
        if w.vR:
            lines.append(f"  {lib}.vR")
            for s in sorted(w.vR, key=repr):
                lines.append(f"    {_sname(s)} = {fmt_value(w.vR[s])}")
        if w.vW:
            lines.append(f"  {lib}.vW")
            for s in sorted(w.vW, key=repr):
                lines.append(f"    {_sname(s)} = {fmt_value(w.vW[s])}")
    return "\n".join(lines) + "\n"
