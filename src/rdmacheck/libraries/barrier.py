"""Barrier library: one method, round-matched global synchronisation.

bar(x) has no output; the location names the barrier and the configuration
names its participating threads.  Entry points are global-fence stamps
(per participating node, or per every node in the transitive variant),
the exit point is a CPU-read stamp; calls with equal round number on the
same location synchronise entry-to-exit, pairwise and with themselves.

The round number is forced: each participant makes the same number of
calls per location and rounds increase strictly along program order, so
the i-th call of a thread is round i.
"""

from __future__ import annotations

from typing import Iterator

from ..config import ClientProfile, NodeConfig
from ..events import Event, PlainExecution, SubEvent
from ..relations import Rel
from ..stamps import ACR, GF
from ..values import UNIT
from .base import Library, Witness

BAR = "bar"

WEAK, TRANSITIVE = "weak", "transitive"


class BarrierLib(Library):
    name = "bal"
    methods = frozenset({BAR})

    def __init__(self, variant: str = WEAK):
        if variant not in (WEAK, TRANSITIVE):
            raise ValueError(f"unknown barrier variant {variant!r}")
        self.variant = variant

    def stamping(self, e: Event, cfg: NodeConfig) -> frozenset:
        self._require(e)
        if self.variant == TRANSITIVE:
            nodes = cfg.nodes
        else:
            nodes = {cfg.node_of_thread(t) for t in cfg.barrier.get(e.args[0], ())}
        return frozenset({GF(n) for n in nodes} | {ACR})

    def outputs(self, method, args, tid, state, profile: ClientProfile, cfg):
        return ((UNIT, state),)

    def witnesses(self, plain: PlainExecution, stmp, cfg: NodeConfig) -> Iterator[Witness]:
        for e in plain.events:
            self._require(e)

        by_loc: dict = {}
        for e in sorted(plain.events, key=lambda e: (e.tid, e.eid)):
            x = e.args[0]
            if e.tid not in cfg.barrier.get(x, frozenset()):
                return  # non-participating caller: no consistent execution
            by_loc.setdefault(x, {}).setdefault(e.tid, []).append(e)

        rounds: dict[Event, int] = {}
        for x, per_thread in by_loc.items():
            participants = cfg.barrier[x]
            counts = {len(v) for v in per_thread.values()}
            if len(counts) != 1:
                return
            (c_x,) = counts
            if set(per_thread) != set(participants):
                return  # some participant made a different number (zero) of calls
            for evs in per_thread.values():
                for i, e in enumerate(evs):
                    rounds[e] = i + 1

        so = []
        for x, per_thread in by_loc.items():
            calls = [e for evs in per_thread.values() for e in evs]
            for e1 in calls:
                for e2 in calls:
                    if rounds[e1] != rounds[e2]:
                        continue
                    for a in stmp[e1]:
                        if a.kind == "GF":
                            so.append((SubEvent(e1, a), SubEvent(e2, ACR)))
        yield Witness(lib=self.name, so=Rel(so),
                      meta={"rounds": rounds,
                            "c": {x: len(next(iter(pt.values())))
                                  for x, pt in by_loc.items()}})
