"""Multi-library consistency and bounded outcome computation.

An execution is accepted when its happens-before, fixed here to
(ppo ∪ so)+ with so the union of per-library synchronisation orders, is
irreflexive and every library accepts its slice.  Outcomes of a concurrent
program are the output tuples (plus final memory) of its accepted
executions, enumerated from the bounded plain semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .config import ClientProfile, NodeConfig
from .events import Event, Execution, InvalidInput, PlainExecution
from .lang import OutputsFn, interpret_conc
from .libraries.base import Library, Witness, check_consistent
from .relations import IncrementalOrder, Rel
from .stamps import derive_ppo


@dataclass(frozen=True)
class Bounds:
    loop_bound: int = 4
    max_events: int = 14


@dataclass(frozen=True)
class Outcome:
    outputs: tuple
    memory: frozenset = frozenset()   # ((loc, node), value) items of written cells

    def memory_map(self) -> dict:
        return dict(self.memory)

    def __repr__(self):
        mem = "" if not self.memory else " " + repr(sorted(self.memory, key=repr))
        return f"Outcome{self.outputs!r}{mem}"


@dataclass
class OutcomeResult:
    outcomes: frozenset
    truncated: bool


def method_map(libs: Sequence[Library]) -> dict[str, Library]:
    out: dict[str, Library] = {}
    for lib in libs:
        for m in lib.methods:
            if m in out:
                raise InvalidInput(f"method {m} belongs to two libraries "
                                   f"({out[m].name}, {lib.name})")
            out[m] = lib
    return out


def merged_outputs(libs: Sequence[Library], profile: ClientProfile,
                   cfg: NodeConfig) -> OutputsFn:
    mm = method_map(libs)

    def fn(method, args, tid, state):
        try:
            lib = mm[method]
        except KeyError:
            raise InvalidInput(f"unknown method {method}")
        return lib.outputs(method, args, tid, state, profile, cfg)

    return fn


def stamp_events(plain: PlainExecution, libs: Sequence[Library], cfg: NodeConfig):
    mm = method_map(libs)
    stmp = {}
    per_lib: dict[str, list[Event]] = {lib.name: [] for lib in libs}
    for e in sorted(plain.events, key=lambda e: (e.tid, e.eid)):
        if e.method not in mm:
            raise InvalidInput(f"event {e!r} uses unknown method")
        lib = mm[e.method]
        stmp[e] = lib.stamping(e, cfg)
        per_lib[lib.name].append(e)
    return stmp, per_lib


def enumerate_consistent(plain: PlainExecution, libs: Sequence[Library],
                         cfg: NodeConfig) -> Iterator[dict]:
    """All accepted (witness-per-library, so, hb) combinations.

    Stamping first (deterministic), then per-library witness backtracking
    with incremental cycle detection on (ppo ∪ accumulated so)+.
    """
    stmp, per_lib = stamp_events(plain, libs, cfg)
    ppo = derive_ppo(plain, stmp)
    base = IncrementalOrder(ppo)
    slices = [(lib, plain.restrict(per_lib[lib.name])) for lib in libs]

    def rec(i: int, order: IncrementalOrder, chosen: list):
        if i == len(slices):
            hb = order.to_rel()
            if all(lib.post_check(w, hb) for lib, w in chosen):
                yield {
                    "witnesses": {lib.name: w for lib, w in chosen},
                    "so": Rel(p for _, w in chosen for p in w.so),
                    "hb": hb,
                    "stmp": stmp,
                    "ppo": ppo,
                }
            return
        lib, sl = slices[i]
        for w in lib.witnesses(sl, stmp, cfg):
            o2 = order.copy()
            if not o2.add_edges(w.so):
                continue
            yield from rec(i + 1, o2, chosen + [(lib, w)])

    yield from rec(0, base, [])


def lambda_consistent(exec_: Execution, libs: Sequence[Library],
                      cfg: NodeConfig) -> tuple[bool, dict]:
    """Validate a full execution: its stamping must be the libraries',
    so must decompose per library, hb must be the irreflexive closure of
    ppo ∪ so, and every library slice must pass its oracle with exactly
    its share of so.

    This is the paper's whole-execution check; ``enumerate_consistent``
    searches for what it validates, and the tests hold the two together.
    """
    stmp, per_lib = stamp_events(exec_.plain, libs, cfg)
    if dict(exec_.stmp) != stmp:
        return False, {}
    ppo = derive_ppo(exec_.plain, stmp)
    so = Rel(exec_.so)
    hb = (ppo | so).transitive_closure()
    if Rel(exec_.hb) != hb or not hb.is_irreflexive():
        return False, {}

    mm = method_map(libs)
    for a, b in so:
        la = mm.get(a.event.method)
        lb = mm.get(b.event.method)
        if la is None or la is not lb:
            return False, {}

    witnesses = {}
    for lib in libs:
        w = check_consistent(lib, exec_.restrict(per_lib[lib.name]), cfg)
        if w is None:
            return False, {}
        if not lib.post_check(w, hb):
            return False, {}
        witnesses[lib.name] = w
    return True, witnesses


def final_memory(witnesses: Mapping[str, Witness], libs: Sequence[Library],
                 cfg: NodeConfig) -> frozenset:
    mem = {}
    for lib in libs:
        w = witnesses.get(lib.name)
        if w is not None:
            mem.update(lib.final_memory(w, cfg))
    return frozenset(mem.items())


def outcomes(progs, libs: Sequence[Library], cfg: NodeConfig, bounds: Bounds,
             profile: ClientProfile, outputs_only: bool = False) -> OutcomeResult:
    """Outcome set of a concurrent program under the installed libraries.

    With ``outputs_only`` the search stops at the first witness per plain
    execution (final memory, which varies with the modification order, is
    then not meaningful and left empty), and a plain execution whose output
    tuple is already in the set is skipped unchecked: an outcome is then
    the output tuple alone, so accepting that execution could add nothing.
    Every tuple not yet found still has all its executions checked, so the
    set is the same.  A full enumeration, whose outcomes carry final
    memory, checks every plain execution.
    """
    fn = merged_outputs(libs, profile, cfg)
    interp = interpret_conc(progs, bounds.loop_bound, fn, bounds.max_events)
    found = set()
    for vals, plain in interp.results:
        if outputs_only and Outcome(vals) in found:
            continue
        for acc in enumerate_consistent(plain, libs, cfg):
            if outputs_only:
                found.add(Outcome(vals))
                break
            found.add(Outcome(vals, final_memory(acc["witnesses"], libs, cfg)))
    return OutcomeResult(frozenset(found), interp.truncated)
