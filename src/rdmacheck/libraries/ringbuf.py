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

import itertools
from typing import Iterator

from ..config import ClientProfile, NodeConfig
from ..events import Event, PlainExecution, SubEvent
from ..relations import Rel
from ..stamps import ACR, ACW, AWT, nRW
from ..values import BOT
from .base import Library, Witness

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

    def outputs(self, method, args, tid, state, profile: ClientProfile, cfg):
        if method == SUBMIT:
            return ((True, state), (False, state))
        pool = sorted(profile.tuple_pool(args[0]), key=repr)
        return itertools.chain(((BOT, state),), ((v, state) for v in pool))

    def post_check(self, w: Witness, hb: Rel) -> bool:
        if self.mode == STRICT:
            return True
        fb = w.rels["fb"]
        return not any((b, a) in hb for a, b in fb)

    def witnesses(self, plain: PlainExecution, stmp, cfg: NodeConfig) -> Iterator[Witness]:
        events = sorted(plain.events, key=lambda e: (e.tid, e.eid))
        for e in events:
            self._require(e)
            x = e.args[0]
            if e.method == SUBMIT and e.tid != cfg.wthd.get(x):
                return
            if e.method == RECEIVE and e.tid not in cfg.rthd.get(x, frozenset()):
                return

        node = cfg.node_of_thread

        # Write subevents of message m on node n: exactly one per (m, n).
        writes: dict[tuple, list[SubEvent]] = {}   # (x, n) -> po-ordered writes
        for e in events:
            if e.method == SUBMIT and e.output is True:
                for a in stmp[e]:
                    n = node(e.tid) if a.kind == "aCW" else a.node
                    writes.setdefault((e.args[0], n), []).append(SubEvent(e, a))

        reads = [SubEvent(e, ACR) for e in events
                 if e.method == RECEIVE and e.output is not BOT]
        fails = [SubEvent(e, AWT) for e in events
                 if e.method == RECEIVE and e.output is BOT]

        def place(s: SubEvent) -> tuple:
            return (s.event.args[0], node(s.event.tid))

        def candidates(r: SubEvent):
            return [w for w in writes.get(place(r), ())
                    if w.event.args[1] == r.event.output]

        def rec(i: int, rf: dict) -> Iterator[dict]:
            if i == len(reads):
                yield rf
                return
            r = reads[i]
            taken = {(w.event, rr.event.tid) for rr, w in rf.items()}
            for w in candidates(r):
                if (w.event, r.event.tid) in taken:
                    continue  # a thread reads each message at most once
                yield from rec(i + 1, {**rf, r: w})

        for rfmap in rec(0, {}):
            # No jumping: a read of message m implies an earlier (po) read,
            # by the same thread, of every same-place message po-before m.
            ok = True
            for r, w in rfmap.items():
                for w1 in writes.get(place(r), ()):
                    if (w1.event, w.event) not in plain.po:
                        continue
                    if not any((r1, ww) for r1, ww in rfmap.items()
                               if ww == w1 and (r1.event == r.event or
                                                (r1.event, r.event) in plain.po)):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            rf = Rel((w, r) for r, w in rfmap.items())
            fb = []
            for f in fails:
                consumed = {w.event for r, w in rfmap.items()
                            if r.event.tid == f.event.tid
                            and (r.event, f.event) in plain.po}
                for w in writes.get(place(f), ()):
                    if w.event not in consumed:
                        fb.append((f, w))
            fb = Rel(fb)
            so = rf | fb if self.mode == STRICT else rf
            yield Witness(lib=self.name, so=so,
                          vR={r: r.event.output for r in reads},
                          vW={w: w.event.args[1] for ws in writes.values() for w in ws},
                          rels={"rf": rf, "fb": fb},
                          meta={"mode": self.mode})
