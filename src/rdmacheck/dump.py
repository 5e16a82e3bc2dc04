"""Line-oriented debug dump of executions: events, subevents, relations.

The format is stable across runs (events keyed by (thread, id), relations
sorted) so dumps can be diffed.
"""

from __future__ import annotations

from .events import PlainExecution, subevent_list
from .relations import IncrementalOrder
from .values import fmt_value


def _ename(e) -> str:
    return f"e{e.tid}.{e.eid}"


def _sname(s) -> str:
    return f"{_ename(s.event)}/{s.stamp!r}"


def dump_execution(plain: PlainExecution, stmp, witnesses: dict, hb: IncrementalOrder,
                   outputs=None) -> str:
    """The execution ``plain`` under the stamping ``stmp`` with an accepted
    combination's ``witnesses`` (by library name) and ``hb``.  This is the
    one place that names positions: every pair and value the witnesses and
    hb give by position is named by the execution's subevent list
    (`events.subevent_list`)."""
    subs = subevent_list(plain.events, stmp)

    def named(rel) -> frozenset:
        if isinstance(rel, IncrementalOrder):
            return rel.pairs(None, subs)
        return frozenset((subs[a], subs[b]) for a, b in rel)

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
        for a, b in sorted(named(rel), key=lambda p: (repr(p[0]), repr(p[1]))):
            lines.append(f"  {_sname(a)} -> {_sname(b)}")

    rel_lines("so", frozenset().union(*(w.so for w in witnesses.values())))
    rel_lines("hb", hb)
    for lib in sorted(witnesses):
        w = witnesses[lib]
        lines.append(f"witness {lib}")
        for name in sorted(w.relations):
            rel_lines(f"  {lib}.{name}", w.relations[name])
        for label, at in zip(("vR", "vW"), w.values):
            if at:
                lines.append(f"  {lib}.{label}")
                for s, v in sorted(((subs[p], v) for p, v in at.items()),
                                   key=lambda sv: repr(sv[0])):
                    lines.append(f"    {_sname(s)} = {fmt_value(v)}")
    return "\n".join(lines) + "\n"
