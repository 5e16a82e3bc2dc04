"""The whole-execution check the search is tested against, and the one
way the tests name positions.

The checker and the libraries work in the positions of an execution's
subevent list (`libraries.base.Numbering`) and name nothing.  Here a
full execution (`Execution`) is named: its so and hb relate subevents,
and ``lambda_consistent``, the paper's whole-execution check, validates
one.  ``named`` names a witness or an accepted combination by a row's
subevents, and ``slice_witnesses`` asks a library about one slice alone,
over a shape of its own (``slice_shape``).  ``ring_witnesses`` is the
ring buffer's search that its forced witness replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Hashable, Mapping, Sequence

from rdmacheck.checker import method_map, stamp_events
from rdmacheck.config import NodeConfig
from rdmacheck.events import (Event, PlainExecution, Stamp, Stamping, SubEvent, po_before,
                              subevent_list)
from rdmacheck.libraries.base import Library, Numbering, Shape, Witness
from rdmacheck.relations import IncrementalOrder
from rdmacheck.stamps import ppo_before


@dataclass(frozen=True)
class Execution:
    """Plain execution + stamping + synchronisation and happens-before order."""

    plain: PlainExecution
    stmp: Mapping[Event, frozenset[Stamp]]
    so: frozenset[tuple[SubEvent, SubEvent]]
    hb: frozenset[tuple[SubEvent, SubEvent]]


def forward_rows(items: Sequence, before: Callable[[Hashable, Hashable], bool]) -> list[int]:
    """Each item's row of direct successors under ``before``, which may
    hold only when its first item is listed before its second: bit j of
    row i is set when ``before(items[i], items[j])``.  Only forward pairs
    are asked."""
    return [sum(1 << j for j in range(i + 1, len(items)) if before(a, items[j]))
            for i, a in enumerate(items)]


def slice_shape(plain: PlainExecution, stmp: Stamping, lib: str) -> Shape:
    """A fresh shape for a library asked alone: the events ``stmp`` stamps
    numbered in program order, with the slice ``plain``'s events as
    library ``lib``'s."""
    events = sorted(stmp, key=lambda e: (e.tid, e.eid))
    return Shape(Numbering(events, stmp, {lib: plain.events}))


def slice_witnesses(lib: Library, plain: PlainExecution, stmp: Stamping, cfg: NodeConfig,
                    hb: IncrementalOrder | None = None):
    """``lib``'s witnesses of its slice ``plain`` alone, over a fresh
    `slice_shape`, pruned by ``hb`` when one is given: the library is
    given the execution ``stmp`` stamps, whole, as a group of one."""
    whole = PlainExecution(tuple(sorted(stmp, key=lambda e: (e.tid, e.eid))))
    return lib.witnesses([whole], slice_shape(plain, stmp, lib.name), cfg, hb)


def named(x, stmp: Stamping) -> SimpleNamespace:
    """``x``, a witness or an accepted combination of
    `checker.enumerate_consistent`, with its positions named by the
    subevents of the execution ``stmp`` stamps (a row's stamping): its
    events in program order, each one's stamps in `events.subevent_list`
    order, which is the list the search numbers.  A witness gives ``so``,
    ``rels``, ``vR`` and ``vW``, and its ``meta`` as it is; a combination
    gives ``so``, its witnesses' so together, ``hb`` and ``witnesses``,
    each one named."""
    subs = subevent_list(sorted(stmp, key=lambda e: (e.tid, e.eid)), stmp)

    def rel(r) -> frozenset:
        if isinstance(r, IncrementalOrder):
            return r.pairs(None, subs)
        return frozenset((subs[a], subs[b]) for a, b in r)

    if isinstance(x, Witness):
        vR, vW = ({subs[p]: v for p, v in at.items()} for at in x.values)
        return SimpleNamespace(so=rel(x.so), rels={k: rel(r) for k, r in x.relations.items()},
                               vR=vR, vW=vW, meta=x.meta)
    ws = {name: named(w, stmp) for name, w in x["witnesses"].items()}
    return SimpleNamespace(so=frozenset().union(*(w.so for w in ws.values())),
                           hb=rel(x["hb"]), witnesses=ws)


def lambda_consistent(exec_: Execution, libs: Sequence[Library],
                      cfg: NodeConfig) -> tuple[bool, dict]:
    """Validate a full execution: its stamping must be the libraries',
    so must decompose per library, hb must be the irreflexive closure of
    ppo ∪ so, and every library slice must pass its oracle with exactly
    its share of so.

    This is the paper's whole-execution check; ``enumerate_consistent``
    searches for what it validates, and the tests hold the two together.
    It numbers the execution once, by its subevent list, and closes ppo
    over those positions asking ``ppo_before`` of each forward pair, not
    the stamp masks the search reads.  Each library's witnesses are given
    in the same positions, and its ``post_check`` reads that order.
    """
    plain = exec_.plain
    stmp, per_lib = stamp_events(plain, libs, cfg)
    if dict(exec_.stmp) != stmp:
        return False, {}
    # so relates the execution's subevents and closes with ppo to hb
    # without a cycle.
    subs = subevent_list(plain.events, stmp)
    pos = {s: i for i, s in enumerate(subs)}
    order = IncrementalOrder(forward_rows(subs, ppo_before))
    if (not all(a in pos and b in pos for a, b in exec_.so)
            or not order.add_edges((pos[a], pos[b]) for a, b in exec_.so)
            or exec_.hb != order.pairs(None, subs)):
        return False, {}

    mm = method_map(libs)
    for a, b in exec_.so:
        la = mm.get(a.event.method)
        if la is None or la is not mm.get(b.event.method):
            return False, {}

    shape = Shape(Numbering(plain.events, stmp, per_lib))
    witnesses = {}
    for lib in libs:
        share = frozenset((a, b) for a, b in exec_.so if mm[a.event.method] is lib)
        w = next((w for w in lib.witnesses([plain], shape, cfg)
                  if named(w, stmp).so == share and lib.post_check(w, order)), None)
        if w is None:
            return False, {}
        witnesses[lib.name] = w
    return True, witnesses


def ring_witnesses(lib: Library, plain: PlainExecution, stmp: Stamping,
                   cfg: NodeConfig) -> list[tuple]:
    """The ring buffer ``lib``'s witnesses of its slice ``plain``, by the
    search its forced witness replaced, as (so, rf, fb, vR, vW) in the
    positions of a fresh `slice_shape`: each rf map that gives every
    successful receive a write of its payload on its node, one its thread
    has not read yet, and that skips no message, with the fails-before
    pairs of each failed receive to the messages its thread had not
    consumed."""
    for e in plain.events:
        x = e.args[0]
        if e.method == "submit" and e.tid != cfg.wthd.get(x):
            return []
        if e.method == "receive" and e.tid not in cfg.rthd.get(x, frozenset()):
            return []
    node = cfg.node_of_thread
    own = slice_shape(plain, stmp, lib.name).numbering.own[lib.name]
    ev = {p: plain.events[k] for p, k, _a in own}
    # Write subevents of message m on node n: exactly one per (m, n).
    writes: dict[tuple, list[int]] = {}   # (x, n) -> po-ordered writes
    for p, _k, a in own:
        e = ev[p]
        if e.method == "submit" and e.output is True:
            n = node(e.tid) if a.kind == "aCW" else a.node
            writes.setdefault((e.args[0], n), []).append(p)
    reads = [p for p, _k, a in own if ev[p].method == "receive" and a.kind == "aCR"]
    fails = [p for p, _k, a in own if ev[p].method == "receive" and a.kind == "aWT"]

    def place(s: int) -> tuple:
        return ev[s].args[0], node(ev[s].tid)

    def rf_maps(i: int, rf: dict):
        """Each rf map extending ``rf`` from read i on: read i takes a
        write of its payload, a message its thread has not read yet."""
        if i == len(reads):
            yield rf
            return
        r = reads[i]
        taken = {(ev[w], ev[rr].tid) for rr, w in rf.items()}
        for w in writes.get(place(r), ()):
            if ev[w].args[1] == ev[r].output and (ev[w], ev[r].tid) not in taken:
                yield from rf_maps(i + 1, {**rf, r: w})

    out = []
    for rfmap in rf_maps(0, {}):
        # No jumping: a read of message m implies an earlier (po) read, by
        # the same thread, of every same-place message po-before m.
        if not all(any(ww == w1 and (r1 == r or po_before(ev[r1], ev[r]))
                       for r1, ww in rfmap.items())
                   for r, w in rfmap.items() for w1 in writes.get(place(r), ())
                   if po_before(ev[w1], ev[w])):
            continue
        rf = frozenset((w, r) for r, w in rfmap.items())
        fb = frozenset((f, w) for f in fails for w in writes.get(place(f), ())
                       if ev[w] not in {ev[w2] for r, w2 in rfmap.items()
                                        if po_before(ev[r], ev[f])})
        out.append((rf | fb if lib.mode == "strict" else rf, rf, fb,
                    {r: ev[r].output for r in reads},
                    {w: ev[w].args[1] for ws in writes.values() for w in ws}))
    return out
