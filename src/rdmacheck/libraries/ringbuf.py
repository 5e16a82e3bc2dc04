"""Ring-buffer library: single-writer multi-reader FIFO broadcast queue.

submit(x, payload) returns true/false; receive(x) returns a payload tuple
or bot.  A successful submit carries a CPU-write stamp plus one NIC
remote-write stamp per reader node other than the writer's; failed calls
(false / bot) carry wait stamps and a succeeding receive a CPU-read stamp.

The witness is a reads-from map pairing each successful receive with one
write subevent on its node, subject to: same buffer and payload, at most
one read of a message per thread, and no skipped messages.  A failing
receive fails-before every same-node message it did not already consume.
Strict mode exports rf ∪ fb as synchronisation; weak mode exports rf only
but refuses witnesses where fb contradicts the global happens-before.
"""

from __future__ import annotations

from typing import Iterator

from ..config import NodeConfig
from ..events import Event, PlainExecution, po_before
from ..lang import Pools
from ..relations import IncrementalOrder
from ..stamps import ACR, ACW, AWT, nRW
from ..values import BOT
from .base import Library, Witness, grow

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
            return (True, False)
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

    def _row_witnesses(self, plain: PlainExecution, cfg: NodeConfig,
                       hb, shape) -> Iterator[Witness]:
        # The search reads the receives' payloads: each row alone.
        for e in plain.events:
            self._require(e)
            x = e.args[0]
            if e.method == SUBMIT and e.tid != cfg.wthd.get(x):
                return
            if e.method == RECEIVE and e.tid not in cfg.rthd.get(x, frozenset()):
                return

        node = cfg.node_of_thread
        # Subevents are positions (`base.Numbering`); ``ev`` is each one's event.
        num = shape.numbering
        own = num.own[self.name]
        ev = {p: plain.events[k] for p, k, _a in own}

        # Write subevents of message m on node n: exactly one per (m, n).
        # A successful submit's stamps are writes, its CPU write first.
        writes: dict[tuple, list[int]] = {}   # (x, n) -> po-ordered writes
        for p, _k, a in own:
            e = ev[p]
            if e.method == SUBMIT and e.output is True:
                n = node(e.tid) if a.kind == "aCW" else a.node
                writes.setdefault((e.args[0], n), []).append(p)

        reads = [p for p, _k, a in own if ev[p].method == RECEIVE and a.kind == "aCR"]
        fails = [p for p, _k, a in own if ev[p].method == RECEIVE and a.kind == "aWT"]

        def place(s: int) -> tuple:
            return (ev[s].args[0], node(ev[s].tid))

        # Each receive's candidates: the same place's writes of its payload.
        candidates = [[w for w in writes.get(place(r), ()) if ev[w].args[1] == ev[r].output]
                      for r in reads]
        for rfmap in _rf_maps(reads, candidates, ev, 0, {}):
            # No jumping: a read of message m implies an earlier (po) read,
            # by the same thread, of every same-place message po-before m.
            ok = True
            for r, w in rfmap.items():
                for w1 in writes.get(place(r), ()):
                    if not po_before(ev[w1], ev[w]):
                        continue
                    if not any((r1, ww) for r1, ww in rfmap.items()
                               if ww == w1 and (r1 == r or
                                                po_before(ev[r1], ev[r]))):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            rf = frozenset((w, r) for r, w in rfmap.items())
            fb = []
            for f in fails:
                consumed = {ev[w] for r, w in rfmap.items()
                            if ev[r].tid == ev[f].tid
                            and po_before(ev[r], ev[f])}
                for w in writes.get(place(f), ()):
                    if ev[w] not in consumed:
                        fb.append((f, w))
            fb = frozenset(fb)
            so = rf | fb if self.mode == STRICT else rf
            grown = grow(hb, so)
            if grown is False:
                continue
            yield Witness(self.name, so, names=num.names(self.name, plain.events),
                          vR={r: ev[r].output for r in reads},
                          vW={w: ev[w].args[1] for ws in writes.values() for w in ws},
                          rels={"rf": rf, "fb": fb},
                          meta={"mode": self.mode}, hb=grown)


def _rf_maps(reads: list, candidates: list, ev: dict, i: int, rf: dict) -> Iterator[dict]:
    """Each rf map of the successful receives ``reads`` from the i-th on,
    extending ``rf``: read i takes one of its ``candidates``, a message
    its thread has not read yet."""
    if i == len(reads):
        yield rf
        return
    r = reads[i]
    taken = {(ev[w], ev[rr].tid) for rr, w in rf.items()}
    for w in candidates[i]:
        if (ev[w], ev[r].tid) in taken:
            continue  # a thread reads each message at most once
        yield from _rf_maps(reads, candidates, ev, i + 1, {**rf, r: w})
