"""Mixed-size write library: tuple-valued cells over the wait-based model.

Methods: msw_write(x, payload), msw_tryread(x) returning a payload or bot,
msw_get(x,y,d), msw_put(x,y,d), msw_wait(d).  Consistency is the
wait-based predicate of ``RdmaLib`` over tuple values with two changes:
events must agree with the declared per-location size, and a failed
msw_tryread is excluded from reads entirely — it may fail without
justification, its stamp is a wait stamp.  A successful read therefore
returns a written payload or the all-zero payload.
"""

from __future__ import annotations

from ..config import ClientProfile, NodeConfig
from ..events import Event, PlainExecution
from ..stamps import AWT
from ..values import BOT, zero_tuple
from .rdma_core import RdmaLib

MSW_WRITE, MSW_TRYREAD = "msw_write", "msw_tryread"
MSW_GET, MSW_PUT, MSW_WAIT = "msw_get", "msw_put", "msw_wait"


class MixedSizeLib(RdmaLib):
    name = "msw"
    roles = {"write": MSW_WRITE, "read": MSW_TRYREAD, "get": MSW_GET,
             "put": MSW_PUT, "wait": MSW_WAIT}
    methods = frozenset(roles.values())

    def stamping(self, e: Event, cfg: NodeConfig) -> frozenset:
        if e.method == MSW_TRYREAD and e.output is BOT:
            return frozenset({AWT})
        return super().stamping(e, cfg)

    def outputs(self, method, args, tid, state, profile: ClientProfile, cfg):
        if method == MSW_TRYREAD:
            size = cfg.size[args[0]]
            pool = {t for t in profile.tuple_pool(args[0]) if len(t) == size}
            pool.add(zero_tuple(size))
            outs = [BOT] + sorted(pool, key=repr)
            return ((v, state) for v in outs)
        return super().outputs(method, args, tid, state, profile, cfg)

    def extra_valid(self, plain: PlainExecution, cfg: NodeConfig) -> bool:
        for e in plain.events:
            if e.method == MSW_WRITE:
                if len(e.args[1]) != cfg.size[e.args[0]]:
                    return False
            elif e.method == MSW_TRYREAD and e.output is not BOT:
                if len(e.output) != cfg.size[e.args[0]]:
                    return False
            elif e.method in (MSW_GET, MSW_PUT):
                if cfg.size[e.args[0]] != cfg.size[e.args[1]]:
                    return False
        return True

    def init_of(self, loc: str, cfg: NodeConfig):
        if (loc, None) in cfg.init:
            return cfg.init[(loc, None)]
        return zero_tuple(cfg.size[loc])
