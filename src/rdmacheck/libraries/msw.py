"""Mixed-size write library: tuple-valued cells over the wait-based model.

Methods: msw_write(x, payload), msw_tryread(x) returning a payload or bot,
msw_get(x,y,d), msw_put(x,y,d), msw_wait(d).  Consistency is the
wait-based predicate of ``RdmaLib`` over tuple values with two changes:
writes, puts and gets must agree with the declared per-location size,
and a failed msw_tryread is excluded from reads entirely — it may fail
without justification, its stamp is a wait stamp.  A successful read
therefore returns a written payload or the all-zero payload.
"""

from __future__ import annotations

from ..config import NodeConfig
from ..events import Event
from ..stamps import AWT
from ..lang import Pools
from ..values import BOT
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

    def outputs(self, method, args, tid, prior, pools: Pools, cfg):
        if method == MSW_TRYREAD:
            x = args[0]
            size, p = cfg.size[x], (x, cfg.node_of_loc(x))
            return [BOT] + sorted((v for v in pools.read(p, tid, prior)
                                   if isinstance(v, tuple) and len(v) == size),
                                  key=repr)
        return super().outputs(method, args, tid, prior, pools, cfg)

    def extra_valid(self, events, cfg: NodeConfig) -> bool:
        """Each write stores a tuple of its location's size, and each put
        or get joins locations of one size."""
        for e in events:
            if e.method == MSW_WRITE:
                if not isinstance(e.args[1], tuple) or len(e.args[1]) != cfg.size[e.args[0]]:
                    return False
            elif e.method in (MSW_GET, MSW_PUT):
                if cfg.size[e.args[0]] != cfg.size[e.args[1]]:
                    return False
        return True
