"""Barrier library: one method, round-matched global synchronisation.

bar(x) has no output; the location names the barrier and the configuration
names its participating threads.  Entry points are global-fence stamps
(per participating node, or per every node in the transitive variant),
the exit point is a CPU-read stamp; calls with equal round number on the
same location synchronise entry-to-exit, pairwise and with themselves.

The round number is forced: each participant makes the same number of
calls per location and rounds increase strictly along program order, so
the i-th call of a thread is round i.  The one witness is therefore
decided by the execution's shape: `frame` builds it once per shape in
one outcome computation, and it holds for every row of a group of the
shape's executions, whose barrier calls are the same events.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterator

from ..config import NodeConfig
from ..events import Event, PlainExecution
from ..stamps import ACR, GF
from ..values import UNIT
from .base import Library, Shape, Witness, lowest, slice_shape

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

    def outputs(self, method, args, tid, prior, pools, cfg):
        return (UNIT,)

    def _build_frame(self, plain: PlainExecution, shape: Shape, cfg: NodeConfig):
        """The shape of ``plain`` decides its one witness: its ``so``, by
        position, and its ``meta``, with ``base`` for `grown_hb`; None when
        a caller does not take part or the participants' call counts
        differ, so that there is none."""
        for e in plain.events:
            self._require(e)

        by_loc: dict = {}
        for e in plain.events:
            x = e.args[0]
            if e.tid not in cfg.barrier.get(x, frozenset()):
                return None  # non-participating caller: no consistent execution
            by_loc.setdefault(x, {}).setdefault(e.tid, []).append(e)

        rounds: dict[Event, int] = {}
        for x, per_thread in by_loc.items():
            participants = cfg.barrier[x]
            counts = {len(v) for v in per_thread.values()}
            if len(counts) != 1:
                return None
            (c_x,) = counts
            if set(per_thread) != set(participants):
                return None  # some participant made a different number (zero) of calls
            for evs in per_thread.values():
                for i, e in enumerate(evs):
                    rounds[e] = i + 1

        # Subevents are positions (`base.Numbering`): each call's global
        # fences and its exit.
        fences: dict[Event, list[int]] = {}
        exit_: dict[Event, int] = {}
        for p, k, a in shape.numbering.own[self.name]:
            if a.kind == "GF":
                fences.setdefault(plain.events[k], []).append(p)
            else:
                exit_[plain.events[k]] = p
        so = []
        for x, per_thread in by_loc.items():
            calls = [e for evs in per_thread.values() for e in evs]
            for e1 in calls:
                for e2 in calls:
                    if rounds[e1] == rounds[e2]:
                        so.extend((p, exit_[e2]) for p in fences.get(e1, ()))
        return SimpleNamespace(so=frozenset(so), base=(None, None), meta={
            "rounds": rounds, "c": {x: len(next(iter(pt.values()))) for x, pt in by_loc.items()}})

    def _grow_fixed(self, f, order) -> bool:
        return order.add_edges(f.so)

    def witnesses(self, group, stmp, cfg: NodeConfig, hb=None, shape=None,
                  alive=1, wanted=(-1,)) -> Iterator[Witness]:
        """The one witness, which holds for every row of ``alive``."""
        shape = shape or slice_shape(group[0], stmp, self.name)
        f = self.frame(group[0], stmp, cfg, shape)
        grown = False if f is None else self.grown_hb(f, hb)
        if grown is not False and alive:
            names = shape.numbering.names(self.name, group[lowest(alive)].events)
            yield Witness(self.name, f.so, names=names, meta=f.meta, hb=grown, rows=alive)
