"""Shared base of the RDMA-shaped libraries.

The wait-based model, the poll-based model, and the mixed-size variant all
search the same existentials: a reads-from map, per-location modification
orders, and an orientation of the NIC flush order.  ``RdmaLib`` holds that
search and the wait-based model's stamping, outputs, node discipline and
polls-from.  A subclass names its methods in the class-level role table
``roles`` (engine role -> method name; the roles are write, read, cas,
mfence, rfence, get, put and wait) and overrides only the hooks where its
model differs: ``polls_from``, ``extra_valid``, ``init_of``, and
``stamping`` or ``outputs`` for methods outside the role table.

Subevent conventions: NIC read parts carry the value their event's write
part transmits (internal equalities); instantaneous subevents are
everything except write parts; issued-before (ib) orders subevent starts
and must be irreflexive on its own.
"""

from __future__ import annotations

from typing import Iterator

from ..config import ClientProfile, NodeConfig
from ..events import Event, PlainExecution, SubEvent
from ..relations import Rel
from ..stamps import (ACAS, ACR, ACW, AMF, AWT, nF, nLR, nLW, nRR, nRW,
                      ppo_before, stamp_order)
from ..values import UNIT
from .base import (Library, Witness, choose_rf, enumerate_mo, reads_before,
                   rslot, wslot)

READ_KINDS = ("aCR", "aCAS", "nLR", "nRR")
WRITE_KINDS = ("aCW", "aCAS", "nLW", "nRW")

_SINGLE_STAMPS = {"write": frozenset({ACW}), "read": frozenset({ACR}),
                  "mfence": frozenset({AMF}), "wait": frozenset({AWT})}

# Node discipline: role -> position of the argument that must be a location
# on the caller's node.
LOCAL_ARG = {"write": 0, "read": 0, "cas": 0, "get": 0, "put": 1}


class RdmaLib(Library):
    """The wait-based model over a method-role table."""

    roles: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.role_of = {m: r for r, m in cls.roles.items()}

    def stamping(self, e: Event, cfg: NodeConfig) -> frozenset:
        self._require(e)
        role = self.role_of[e.method]
        if role == "cas":
            if e.output == e.args[1]:
                return frozenset({ACAS})
            return frozenset({AMF, ACR})
        if role == "get":
            n = cfg.node_of_loc(e.args[1])
            return frozenset({nRR(n), nLW(n)})
        if role == "put":
            n = cfg.node_of_loc(e.args[0])
            return frozenset({nLR(n), nRW(n)})
        if role == "rfence":
            return frozenset({nF(e.args[0])})
        return _SINGLE_STAMPS[role]

    def outputs(self, method, args, tid, state, profile: ClientProfile, cfg):
        if self.role_of.get(method) in ("read", "cas"):
            return ((v, state) for v in sorted(profile.domain(args[0]), key=repr))
        return ((UNIT, state),)

    def polls_from(self, plain: PlainExecution, stmp) -> tuple[Rel, Rel, dict] | None:
        """(so part, ib part, named parts), or None when structurally invalid.

        A wait synchronises with the local write part of each po-earlier
        get with its work identifier; a waited put's remote write is only
        issued before the wait.
        """
        wait, get, put = self.roles["wait"], self.roles["get"], self.roles["put"]
        pfg, pfp = [], []
        for e1, e2 in plain.po:
            if e2.method != wait:
                continue
            d = e2.args[0]
            if e1.method == get and e1.args[2] == d:
                (a,) = [a for a in stmp[e1] if a.kind == "nLW"]
                pfg.append((SubEvent(e1, a), SubEvent(e2, AWT)))
            elif e1.method == put and e1.args[2] == d:
                (a,) = [a for a in stmp[e1] if a.kind == "nRW"]
                pfp.append((SubEvent(e1, a), SubEvent(e2, AWT)))
        pfg, pfp = Rel(pfg), Rel(pfp)
        return pfg, pfg | pfp, {"pfg": pfg, "pfp": pfp}

    def extra_valid(self, plain: PlainExecution, cfg: NodeConfig) -> bool:
        return True

    def init_of(self, loc: str, cfg: NodeConfig):
        return cfg.init_of(loc)

    def final_memory(self, w: Witness, cfg: NodeConfig) -> dict:
        out = {}
        mo = w.rels["mo"]
        for loc, group in w.meta["by_loc"].items():
            top = next(s for s in group if not any((s, t) in mo for t in group))
            out[(loc, cfg.node_of_loc(loc))] = w.vW[top]
        return out

    def witnesses(self, plain: PlainExecution, stmp, cfg: NodeConfig) -> Iterator[Witness]:
        role_of = self.role_of
        for e in plain.events:
            self._require(e)
        for e in plain.events:
            k = LOCAL_ARG.get(role_of.get(e.method))
            if k is not None and (cfg.node_of_loc(e.args[k])
                                  != cfg.node_of_thread(e.tid)):
                return
        if not self.extra_valid(plain, cfg):
            return
        polls = self.polls_from(plain, stmp)
        if polls is None:
            return
        so_pf, ib_pf, pf_parts = polls

        events = sorted(plain.events, key=lambda e: (e.tid, e.eid))
        sevents = [SubEvent(e, a) for e in events for a in sorted(stmp[e], key=repr)]
        reads = [s for s in sevents if s.stamp.kind in READ_KINDS]
        writes = [s for s in sevents if s.stamp.kind in WRITE_KINDS]

        def loc_of(s: SubEvent) -> str:
            """The location a read or write part accesses."""
            e, k = s.event, s.stamp.kind
            role = role_of[e.method]
            if role == "get":
                return e.args[1] if k == "nRR" else e.args[0]
            if role == "put":
                return e.args[1] if k == "nLR" else e.args[0]
            return e.args[0]

        by_loc: dict = {}
        for w in writes:
            by_loc.setdefault(loc_of(w), []).append(w)

        # Label-determined values: what CPU reads and CASes return, what
        # CPU writes and successful CASes store.
        fixed = {}
        for s in reads:
            if role_of[s.event.method] in ("read", "cas") and s.stamp.kind in ("aCR", "aCAS"):
                fixed[rslot(s)] = s.event.output
        for s in writes:
            role = role_of[s.event.method]
            if role == "write":
                fixed[wslot(s)] = s.event.args[1]
            elif role == "cas" and s.stamp.kind == "aCAS":
                fixed[wslot(s)] = s.event.args[2]

        # A put or get is a (read part, write part) pair that moves one
        # value and is ordered inside the event (iso); so is a failed CAS's
        # fence before its read.
        eqs, iso_pairs = [], []
        for e in events:
            role = role_of.get(e.method)
            if role not in ("put", "get", "cas"):
                continue
            kinds = {a.kind: SubEvent(e, a) for a in stmp[e]}
            if role in ("put", "get"):
                r, w = ((kinds["nLR"], kinds["nRW"]) if role == "put"
                        else (kinds["nRR"], kinds["nLW"]))
                eqs.append((rslot(r), wslot(w)))
                iso_pairs.append((r, w))
            elif "aMF" in kinds:
                iso_pairs.append((kinds["aMF"], kinds["aCR"]))
        iso = Rel(iso_pairs)
        # ib orders starts: it extends ppo with CPU-write -> CPU-read/wait
        # program order and NIC-write -> same-node NIC-fence program order.
        ippo_pairs = []
        for e1, e2 in plain.po:
            for a1 in stmp[e1]:
                for a2 in stmp[e2]:
                    if (stamp_order(a1, a2)
                            or a1.kind == "aCW" and a2.kind in ("aCR", "aWT")
                            or (a1.kind in ("nRW", "nLW") and a2.kind == "nF"
                                and a1.node == a2.node)):
                        ippo_pairs.append((SubEvent(e1, a1), SubEvent(e2, a2)))
        ippo = Rel(ippo_pairs)

        inst = {s for s in sevents if s.stamp.kind not in ("aCW", "nLW", "nRW")}

        # NIC flush order: orient each same-thread same-node (local read, local
        # write) and (remote read, remote write) pair; orientations the stamp
        # order already implies are fixed, the rest are enumerated.
        nfo_pairs = []
        for i, s1 in enumerate(sevents):
            for s2 in sevents[i + 1:]:
                if s1.tid != s2.tid or s1.stamp.node != s2.stamp.node:
                    continue
                kinds = {s1.stamp.kind, s2.stamp.kind}
                if kinds == {"nLR", "nLW"} or kinds == {"nRR", "nRW"}:
                    nfo_pairs.append((s1, s2))
        forced_nfo, free_nfo = [], []
        for s1, s2 in nfo_pairs:
            if ppo_before(s1, s2):
                forced_nfo.append((s1, s2))
            elif ppo_before(s2, s1):
                forced_nfo.append((s2, s1))
            else:
                free_nfo.append((s1, s2))

        def nfo_choices(i: int, acc: list) -> Iterator[Rel]:
            if i == len(free_nfo):
                yield Rel(forced_nfo + acc)
                return
            s1, s2 = free_nfo[i]
            yield from nfo_choices(i + 1, acc + [(s1, s2)])
            yield from nfo_choices(i + 1, acc + [(s2, s1)])

        def candidates(r: SubEvent):
            return by_loc.get(loc_of(r), ())

        def init_of(r: SubEvent):
            return self.init_of(loc_of(r), cfg)

        for rfmap, slots in choose_rf(reads, candidates, fixed, eqs, init_of):
            rf = Rel((w, r) for r, w in rfmap.items() if w is not None)
            rf_int = rf.filter(lambda w, r: w.stamp.kind == "aCW"
                               and r.stamp.kind == "aCR"
                               and (w.event, r.event) in plain.po)
            groups = [by_loc[k] for k in sorted(by_loc, key=repr)]
            for mo in enumerate_mo(groups, ppo_before):
                rb = reads_before(rfmap, mo, reads, candidates)
                fr_int = rb.filter(lambda r, w: r.stamp.kind == "aCR"
                                   and w.stamp.kind == "aCW"
                                   and r.event.tid == w.event.tid)
                for nfo in nfo_choices(0, []):
                    ib = (ippo | iso | rf | ib_pf | nfo | fr_int).transitive_closure()
                    if not ib.is_irreflexive():
                        continue
                    inst_ib = ib.filter(lambda a, b: a in inst)
                    so = iso | (rf - rf_int) | so_pf | nfo | rb | mo | inst_ib
                    yield Witness(
                        lib=self.name, so=so,
                        vR={s: slots.get_value(rslot(s)) for s in reads},
                        vW={s: slots.get_value(wslot(s)) for s in writes},
                        rels={"rf": rf, "mo": mo, "rb": rb, "nfo": nfo,
                              "iso": iso, "ib": ib, **pf_parts},
                        meta={"by_loc": by_loc},
                    )
