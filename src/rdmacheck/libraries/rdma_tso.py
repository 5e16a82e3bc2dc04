"""Poll-based RDMA model: the compilation target of the wait-based model.

Methods: tso_write/tso_read/tso_cas/tso_mfence, tso_get(x,y)/tso_put(x,y)
returning a unique operation identifier, poll(n) returning the identifier
of the polled operation, tso_rfence(n), and per-thread identifier-set
bookkeeping set_add/set_remove/set_isempty.

Identifiers are read off the thread's earlier events: the k-th get or put
of thread t (from 0) returns 1_000_000 + 1_000·t + k, and poll(n) may
return the identifier of any earlier get or put toward node n, in program
order.

A poll blocks for the oldest not-yet-polled NIC write toward the node and
is the only cross-benefit synchronisation: only polls of *get* local
writes certify completion to other threads.  Everything else is the
wait-based model of ``RdmaLib``.
"""

from __future__ import annotations

from ..config import NodeConfig
from ..events import Event, PlainExecution, SubEvent, po_before
from ..lang import Pools
from ..stamps import AMF, AWT
from .rdma_core import RdmaLib

TSO_WRITE, TSO_READ, TSO_CAS, TSO_MFENCE = "tso_write", "tso_read", "tso_cas", "tso_mfence"
TSO_GET, TSO_PUT, POLL, TSO_RFENCE = "tso_get", "tso_put", "poll", "tso_rfence"
SET_ADD, SET_REMOVE, SET_ISEMPTY = "set_add", "set_remove", "set_isempty"


class RdmaTsoLib(RdmaLib):
    name = "tso"
    roles = {"write": TSO_WRITE, "read": TSO_READ, "cas": TSO_CAS,
             "mfence": TSO_MFENCE, "rfence": TSO_RFENCE, "get": TSO_GET,
             "put": TSO_PUT}
    methods = frozenset(roles.values()) | {POLL, SET_ADD, SET_REMOVE, SET_ISEMPTY}

    def stamping(self, e: Event, cfg: NodeConfig) -> frozenset:
        if e.method == POLL:
            return frozenset({AWT})
        if e.method in (SET_ADD, SET_REMOVE, SET_ISEMPTY):
            return frozenset({AMF})
        return super().stamping(e, cfg)

    def outputs(self, method, args, tid, prior, pools: Pools, cfg):
        if method in (TSO_GET, TSO_PUT, POLL):
            ops = [e for e in prior if e.method in (TSO_GET, TSO_PUT)]
            if method == POLL:
                return [e.output for e in ops if cfg.node_of_loc(
                    e.args[1] if e.method == TSO_GET else e.args[0]) == args[0]]
            return (1_000_000 + 1_000 * tid + len(ops),)
        if method == SET_ISEMPTY:
            return (True, False)
        return super().outputs(method, args, tid, prior, pools, cfg)

    def polls_from(self, plain: PlainExecution, stmp):
        ops: dict = {}
        for e in plain.events:
            if e.method in (TSO_GET, TSO_PUT):
                if e.output in ops:
                    return None  # operation identifiers must be unique
                ops[e.output] = e

        def nic_write(e: Event) -> SubEvent:
            kind = "nLW" if e.method == TSO_GET else "nRW"
            (a,) = [a for a in stmp[e] if a.kind == kind]
            return SubEvent(e, a)

        pf = {}
        for p in plain.events:
            if p.method != POLL:
                continue
            src = ops.get(p.output)
            if src is None:
                return None  # every poll polls from exactly one NIC write
            w = nic_write(src)
            if w.stamp.node != p.args[0] or not po_before(src, p):
                return None
            if w in pf:
                return None  # a NIC write is polled at most once
            pf[w] = SubEvent(p, AWT)

        # Oldest-first: a polled write's po-earlier same-node writes were
        # polled by po-earlier polls.
        for w2, p2 in pf.items():
            for e1 in plain.events:
                if e1.method not in (TSO_GET, TSO_PUT) or not po_before(e1, w2.event):
                    continue
                w1 = nic_write(e1)
                if w1.stamp.node != w2.stamp.node:
                    continue
                p1 = pf.get(w1)
                if p1 is None or not po_before(p1.event, p2.event):
                    return None

        rel = frozenset(pf.items())
        so_pf = frozenset((w, p) for w, p in rel if w.stamp.kind == "nLW")
        return so_pf, rel, {"pf": rel}

    def extra_valid(self, plain: PlainExecution, cfg: NodeConfig) -> bool:
        # Per-thread set soundness: an empty verdict means every earlier
        # add of the set was removed in between.
        for e3 in plain.events:
            if e3.method != SET_ISEMPTY or e3.output is not True:
                continue
            for e1 in plain.events:
                if (e1.method != SET_ADD or e1.args[0] != e3.args[0]
                        or not po_before(e1, e3)):
                    continue
                if not any(e2.method == SET_REMOVE
                           and e2.args[:2] == (e1.args[0], e1.args[1])
                           and po_before(e1, e2) and po_before(e2, e3)
                           for e2 in plain.events):
                    return False
        return True
