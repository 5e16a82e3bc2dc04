"""Ring-buffer library: single-writer multi-reader FIFO broadcast queue.

submit(x, payload) returns true/false, and has no output when the payload
is not a tuple; receive(x) returns a payload tuple or bot.  A successful
submit carries a CPU-write stamp plus one NIC remote-write stamp per
reader node other than the writer's; failed calls (false / bot) carry
wait stamps and a succeeding receive a CPU-read stamp.

The witness is forced: a thread reads each message at most once and
skips none, so its i-th successful receive of a buffer reads (rf) the
buffer's i-th message on its node, and a failing receive fails-before
(fb) every same-node message its thread has not consumed.  Strict mode
exports rf ∪ fb as synchronisation; weak mode exports rf only but
refuses witnesses where fb contradicts the global happens-before.  The
witness is decided once per shape (`frame`) and holds for the rows whose
receives return their messages' payloads, which the shape leaves out.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterator, Sequence

from ..config import NodeConfig
from ..events import Event
from ..lang import Pools
from ..relations import IncrementalOrder
from ..stamps import ACR, ACW, AWT, nRW
from ..values import BOT
from .base import Library, Shape, Witness, pins_of

SUBMIT, RECEIVE = "submit", "receive"

STRICT, WEAK = "strict", "weak"


class RingBufferLib(Library):
    name = "rbl"
    methods = frozenset({SUBMIT, RECEIVE})

    def __init__(self, mode: str = STRICT):
        if mode not in (STRICT, WEAK):
            raise ValueError(f"unknown ring buffer mode {mode!r}")
        self.mode = mode

    def stamping(self, e: Event, cfg: NodeConfig) -> frozenset:
        self._require(e)
        if e.method == SUBMIT:
            if e.output is True:
                t = e.tid
                remotes = {cfg.node_of_thread(r) for r in cfg.rthd.get(e.args[0], ())}
                remotes.discard(cfg.node_of_thread(t))
                return frozenset({ACW} | {nRW(n) for n in remotes})
            return frozenset({AWT})
        if e.output is BOT:
            return frozenset({AWT})
        return frozenset({ACR})

    def outputs(self, method, args, tid, prior, pools: Pools, cfg):
        if method == SUBMIT:
            return (True, False) if isinstance(args[1], tuple) else ()
        return [BOT] + sorted(pools.stored((args[0], None), tid, prior), key=repr)

    def stores(self, e: Event, cfg: NodeConfig):
        """A successful submit stores its payload in the buffer, a place
        of its own with no initial value."""
        if e.method == SUBMIT and e.output is True:
            return (((e.args[0], None), e.args[1]),)
        return ()

    def post_check(self, w: Witness, hb: IncrementalOrder) -> bool:
        if self.mode == STRICT:
            return True
        return not any((b, a) in hb for a, b in w.relations["fb"])

    def _build_frame(self, events: Sequence[Event], shape: Shape, cfg: NodeConfig):
        """The shape of the slice ``events`` decides its one witness: its
        ``so``, ``rf`` and ``fb`` by position, the values ``vR`` and
        ``vW``, and the ``pinned`` receives (position, index of the event
        in the whole execution), with ``base`` for `grown_hb`.  None on a
        role violation or an invalid payload, or when a thread receives
        more messages than were sent to its node, so that there is none."""
        for e in events:
            self._require(e)
            x = e.args[0]
            if e.method == SUBMIT and (e.tid != cfg.wthd.get(x)
                                       or not isinstance(e.args[1], tuple)):
                return None
            if e.method == RECEIVE and e.tid not in cfg.rthd.get(x, frozenset()):
                return None
        node, num = cfg.node_of_thread, shape.numbering
        # Each (buffer, node)'s messages in the writer's program order: a
        # successful submit's CPU write on its own node, its remote writes
        # on the others.
        sent: dict[tuple, list[int]] = {}
        rf, fb, vR, vW = [], [], {}, {}
        for p, k, a in num.own[self.name]:
            if a.kind in ("aCW", "nRW"):
                e = events[k]
                at = node(e.tid) if a.node is None else a.node
                sent.setdefault((e.args[0], at), []).append(p)
                vW[p] = e.args[1]
        taken: dict[tuple, int] = {}     # (buffer, thread) -> messages read
        for p, k, a in num.own[self.name]:
            e = events[k]
            if e.method != RECEIVE:
                continue
            msgs = sent.get((e.args[0], node(e.tid)), [])
            i = taken.get((e.args[0], e.tid), 0)
            if a.kind == "aWT":
                fb.extend((p, w) for w in msgs[i:])
            elif i == len(msgs):
                return None
            else:
                taken[e.args[0], e.tid] = i + 1
                rf.append((msgs[i], p))
                vR[p] = vW[msgs[i]]
        rf, fb = frozenset(rf), frozenset(fb)
        return SimpleNamespace(so=rf | fb if self.mode == STRICT else rf, rf=rf, fb=fb,
                               vR=vR, vW=vW, pinned=tuple((p, num.event[p]) for p in vR),
                               base=(None, None))

    def witnesses(self, group, shape, cfg: NodeConfig, hb=None,
                  alive=1, wanted=(-1,)) -> Iterator[Witness]:
        """The one witness, which holds for the rows of ``alive`` whose
        receives each return their message's payload."""
        f = self.frame(shape, cfg)
        if f is None:
            return
        pins = pins_of(group, f.pinned, alive)
        for p, _k in f.pinned:
            alive &= pins[p].get(f.vR[p], 0)
        grown = self.grown_hb(f, hb) if alive else False
        if grown is not False:
            yield Witness(self.name, f.so, vR=f.vR, vW=f.vW,
                          rels={"rf": f.rf, "fb": f.fb}, hb=grown, rows=alive)
