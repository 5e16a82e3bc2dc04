"""Wait-based RDMA model: TSO CPU operations plus put/get/wait/rfence.

Methods: write(x,v), read(x), cas(x,v1,v2), mfence(), get(x,y,d) (remote
read of y into local x), put(x,y,d) (local read of y into remote x),
wait(d), rfence(n).  Every location lives on one node; local arguments
must be on the caller's node.  A wait synchronises with the *local write*
part of earlier gets with the same work identifier (so waiting for a put
does not certify its remote write).  The model itself is ``RdmaLib``;
this library only names its methods.
"""

from __future__ import annotations

from .rdma_core import RdmaLib

WRITE, READ, CAS, MFENCE = "write", "read", "cas", "mfence"
GET, PUT, WAIT, RFENCE = "get", "put", "wait", "rfence"


class RdmaWaitLib(RdmaLib):
    name = "rl"
    roles = {"write": WRITE, "read": READ, "cas": CAS, "mfence": MFENCE,
             "rfence": RFENCE, "get": GET, "put": PUT, "wait": WAIT}
    methods = frozenset(roles.values())
