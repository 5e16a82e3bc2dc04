"""Poll-based RDMA model: the compilation target of the wait-based model.

Methods: tso_write/tso_read/tso_cas/tso_mfence, tso_get(x,y)/tso_put(x,y)
returning a unique operation identifier, poll(n) returning the identifier
of the polled operation, tso_rfence(n), and per-thread identifier-set
bookkeeping set_add/set_remove/set_isempty.

Identifiers are read off the thread's earlier events: the k-th get or put
of thread t (from 0) returns 1_000_000 + 1_000·t + k, and poll(n) returns
the identifier of the oldest earlier get or put toward node n that no
earlier poll returned, or blocks.  set_isempty may return True only when
every earlier set_add of the set has a later set_remove.

A poll is the only cross-benefit synchronisation: only polls of *get* local
writes certify completion to other threads.  Everything else is the
wait-based model of ``RdmaLib``.
"""

from __future__ import annotations

from ..config import NodeConfig
from ..events import Event
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
        if method in (TSO_GET, TSO_PUT):
            ops = [e for e in prior if e.method in (TSO_GET, TSO_PUT)]
            return (1_000_000 + 1_000 * tid + len(ops),)
        if method == POLL:
            # The oldest not-yet-polled operation toward the node: the k-th
            # when k polls of the node came before.
            toward = [e.output for e in prior if e.method in (TSO_GET, TSO_PUT)
                      and cfg.node_of_loc(e.args[1] if e.method == TSO_GET
                                          else e.args[0]) == args[0]]
            polled = sum(1 for e in prior if e.method == POLL and e.args == args)
            return toward[polled:polled + 1]
        if method == SET_ISEMPTY:
            # Empty only when every earlier add to the set was removed since.
            pending = set()
            for e in prior:
                if e.method == SET_ADD and e.args[0] == args[0]:
                    pending.add(e.args[1])
                elif e.method == SET_REMOVE and e.args[0] == args[0]:
                    pending.discard(e.args[1])
            return (False,) if pending else (True, False)
        return super().outputs(method, args, tid, prior, pools, cfg)

    def shape_output(self, e: Event):
        """`polls_from` reads the identifiers of gets, puts and polls."""
        return e.output if e.method in (TSO_GET, TSO_PUT, POLL) else None

    def polls_from(self, events, at):
        """Each poll polls from the NIC write of the operation whose
        identifier it returns.

        Identifiers are unique while each thread issues fewer than 1_000
        gets and puts: the k-th of thread t returns 1_000_000 + 1_000·t + k.
        A poll is offered only the oldest operation of
        its own thread's earlier ones toward its node that no earlier poll
        returned, so each NIC write is polled at most once, by a po-later
        poll, and the writes toward a node are polled in program order.
        """
        ops = {e.output: k for k, e in enumerate(events) if e.method in (TSO_GET, TSO_PUT)}
        pf, so_pf = [], []
        for k, p in enumerate(events):
            if p.method == POLL:
                src = ops[p.output]
                pair = (at[src, "nLW" if events[src].method == TSO_GET else "nRW"],
                        at[k, "aWT"])
                pf.append(pair)
                if events[src].method == TSO_GET:
                    so_pf.append(pair)
        rel = frozenset(pf)
        return frozenset(so_pf), rel, {"pf": rel}
