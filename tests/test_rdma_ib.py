"""Issued-before grown per choice: ``RdmaLib.witnesses`` closes the fixed
part of ib once and extends copies of it, one coherence choice and one
NIC flush orientation at a time.  It yields the same witnesses, in the
same order, as the search it replaced, which closed the whole union of
ib's six parts from scratch for every (coherence, nfo) choice and then
dropped the reflexive closures.  That search, and the coherence search
over subevents it enumerates (``coherence``, which the union-find
reference of `test_properties` shares), are kept here as references."""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import unfold_compiled, unfold_file
from test_relations import naive_closure
from rdmacheck.checker import stamp_events
from rdmacheck.events import PlainExecution, SubEvent, po_before, subevent_list
from rdmacheck.libraries.base import Coherence, slice_shape
from rdmacheck.libraries.rdma_core import LOCAL_ARG, READ_KINDS, WRITE_KINDS, RdmaLib
from rdmacheck.litmus import parse_litmus
from rdmacheck.relations import IncrementalOrder, forward_rows
from rdmacheck.stamps import ppo_before, stamp_order

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def internal_rf(w: SubEvent, r: SubEvent) -> bool:
    """A CPU read of its own thread's po-earlier CPU write, which
    synchronises nothing."""
    return (w.stamp.kind == "aCW" and r.stamp.kind == "aCR"
            and po_before(w.event, r.event))


def external_rf(rf: frozenset) -> frozenset:
    """rf without its `internal_rf` pairs."""
    return frozenset((w, r) for w, r in rf if not internal_rf(w, r))


def coherence(reads, writes, place, read_value, write_value, carrier, init_of,
              order=None):
    """`Coherence` over subevents, with mo extended under ``ppo_before``,
    built and searched in one call for one row, whose reads ``read_value``
    pins: each choice without its rows."""
    pins = {r: {v: 1} for r, v in read_value.items()}
    for *choice, rows in Coherence(reads, writes, place, write_value, carrier,
                                   internal_rf, ppo_before).search(pins, init_of, order):
        assert rows == 1
        yield tuple(choice)


def named_polls_from(lib: RdmaLib, plain, stmp):
    """``lib.polls_from`` of the slice ``plain``, its position pairs
    named by subevents."""
    num = slice_shape(plain, stmp, lib.name).numbering
    at = {(k, a.kind): p for p, k, a in num.own[lib.name]}
    names = num.names(lib.name, plain.events)()
    so, ib, parts = lib.polls_from(plain.events, at)
    name = lambda rel: frozenset((names[a], names[b]) for a, b in rel)
    return name(so), name(ib), {k: name(v) for k, v in parts.items()}


# The (read part, write part) kinds of a put and a get, and a failed CAS's
# (fence, read): ordered inside their event.
ISO_KINDS = {("nLR", "nRW"), ("nRR", "nLW"), ("aMF", "aCR")}


def whole_position_ib(lib: RdmaLib, plain, sl, stmp) -> IncrementalOrder:
    """ib's fixed part as the frame once swept it: ``ib_before`` asked of
    every forward pair of positions of the whole execution ``plain``, and
    holding only between subevents of the slice ``sl``."""
    subs = subevent_list(plain.events, stmp)
    mine = set(sl.events)
    own = {i for i, s in enumerate(subs) if s.event in mine}
    _so_pf, ib_pf, _parts = named_polls_from(lib, sl, stmp)

    def ib_before(i: int, j: int) -> bool:
        if i not in own or j not in own:
            return False
        s1, s2 = subs[i], subs[j]
        a1, a2 = s1.stamp, s2.stamp
        if s1.event == s2.event:
            return (a1.kind, a2.kind) in ISO_KINDS
        if not po_before(s1.event, s2.event):
            return False
        return (stamp_order(a1, a2)
                or a1.kind == "aCW" and a2.kind in ("aCR", "aWT")
                or (a1.kind in ("nRW", "nLW") and a2.kind == "nF"
                    and a1.node == a2.node)
                or (s1, s2) in ib_pf)

    return IncrementalOrder(forward_rows(range(len(subs)), ib_before))


def per_choice_witnesses(lib: RdmaLib, plain, stmp, cfg):
    """The former search: (so, rels, vR, vW) of every witness."""
    role_of = lib.role_of
    for e in plain.events:
        k = LOCAL_ARG.get(role_of.get(e.method))
        if k is not None and cfg.node_of_loc(e.args[k]) != cfg.node_of_thread(e.tid):
            return
    if not lib.extra_valid(plain, cfg):
        return
    polls = named_polls_from(lib, plain, stmp)
    if polls is None:
        return
    so_pf, ib_pf, pf_parts = polls

    events = sorted(plain.events, key=lambda e: (e.tid, e.eid))
    sevents = [SubEvent(e, a) for e in events for a in sorted(stmp[e], key=repr)]
    reads = [s for s in sevents if s.stamp.kind in READ_KINDS]
    writes = [s for s in sevents if s.stamp.kind in WRITE_KINDS]
    place = {}
    for s in reads + writes:
        x = s.event.args[1 if s.stamp.kind in ("nLR", "nRR") else 0]
        place[s] = x, cfg.node_of_loc(x)
    read_value = {s: s.event.output for s in reads
                  if role_of[s.event.method] in ("read", "cas")}
    stored = {"write": 1, "cas": 2}
    write_value = {s: s.event.args[stored[role_of[s.event.method]]]
                   for s in writes if role_of[s.event.method] in stored}
    carrier, iso = {}, set()
    for e in events:
        role = role_of.get(e.method)
        kinds = {a.kind: SubEvent(e, a) for a in stmp[e]}
        if role in ("put", "get"):
            r, w = ((kinds["nLR"], kinds["nRW"]) if role == "put"
                    else (kinds["nRR"], kinds["nLW"]))
            carrier[w] = r
            iso.add((r, w))
        elif role == "cas" and "aMF" in kinds:
            iso.add((kinds["aMF"], kinds["aCR"]))
    iso = frozenset(iso)
    ippo = {(SubEvent(e1, a1), SubEvent(e2, a2))
            for e1, e2 in plain.po for a1 in stmp[e1] for a2 in stmp[e2]
            if stamp_order(a1, a2)
            or a1.kind == "aCW" and a2.kind in ("aCR", "aWT")
            or a1.kind in ("nRW", "nLW") and a2.kind == "nF" and a1.node == a2.node}
    inst = {s for s in sevents if s.stamp.kind not in ("aCW", "nLW", "nRW")}

    nfo_pairs = [(s1, s2) for i, s1 in enumerate(sevents) for s2 in sevents[i + 1:]
                 if s1.tid == s2.tid and s1.stamp.node == s2.stamp.node
                 and {s1.stamp.kind, s2.stamp.kind} in ({"nLR", "nLW"}, {"nRR", "nRW"})]
    forced = [p if ppo_before(*p) else p[::-1] for p in nfo_pairs
              if ppo_before(*p) or ppo_before(*p[::-1])]
    free = [p for p in nfo_pairs if not ppo_before(*p) and not ppo_before(*p[::-1])]

    def nfo_choices(i, acc):
        if i == len(free):
            yield frozenset(forced + acc)
            return
        s1, s2 = free[i]
        yield from nfo_choices(i + 1, acc + [(s1, s2)])
        yield from nfo_choices(i + 1, acc + [(s2, s1)])

    for rf, mo, rb, vR, vW, _by_place, _order in coherence(
            reads, writes, place, read_value, write_value, carrier,
            lambda p: cfg.init_of(*p)):
        fr_int = {(r, w) for r, w in rb if r.stamp.kind == "aCR"
                  and w.stamp.kind == "aCW" and r.event.tid == w.event.tid}
        for nfo in nfo_choices(0, []):
            ib = frozenset(naive_closure(ippo | iso | rf | ib_pf | nfo | fr_int))
            if any(a == b for a, b in ib):
                continue
            inst_ib = {(a, b) for a, b in ib if a in inst}
            so = iso | external_rf(rf) | so_pf | nfo | rb | mo | inst_ib
            yield (so, {"rf": rf, "mo": mo, "rb": rb, "nfo": nfo, "iso": iso,
                        "ib": ib, **pf_parts}, vR, vW)


# The corpus workload's files over an RDMA library, and two compiled sides
# of the tower-rdma workload at its bounds.
FILES = [p for p in sorted(CORPUS.glob("*.litmus"))
         + [ROOT / "perfbench/inputs/msw_put_tryread.litmus"]
         if {"rl", "tso", "msw"} & {n for n, _ in parse_litmus(p.read_text()).libs}]
SEARCHED = ([(p.stem, p, None) for p in FILES]
            + [("w/fig3_sb_get_wait", CORPUS / "fig3_sb_get_wait.litmus", ("w", 32)),
               ("sv/fig6b_bcast_3node", CORPUS / "fig6b_bcast_3node.litmus",
                ("sv", 32))])


# No execution of those has two witnesses that differ in nfo, and none
# needs the internal fr edges.  These clients do: a get then a put toward
# the same node leave two nfo pairs free, and one of their four
# orientations closes a cycle through the two events' iso; the put may
# read what the get wrote, which rules out another; and a CPU read of the
# initial value after its own thread's write is an internal fr cycle.
CLIENTS = {
    "free_nfo": """nodes n1 n2
libs rl
loc c @ n1
loc z @ n2
loc u @ n2
thread t1 @ n1 {
  get c z d
  put u c f
}
thread t2 @ n2 {
  write z 1
  a = read u
}
""",
    "free_nfo_tso": """nodes n1 n2
libs tso
loc c @ n1
loc z @ n2
loc u @ n2
thread t1 @ n1 {
  p = tsoget c z
  q = tsoput u c
  r = poll n2
}
thread t2 @ n2 {
  tsowrite z 1
  a = tsoread u
}
""",
    "read_own_write": """nodes n1
libs rl
loc x @ n1
thread t1 @ n1 {
  write x 1
  a = read x
}
""",
}


def assert_same_witnesses(cfg, libs, res) -> tuple[int, int]:
    """(witnesses, executions with two that differ in nfo)."""
    rdma = [lib for lib in libs if isinstance(lib, RdmaLib)]
    n = nfo_choices = 0
    for _vals, plain in res.results:
        stmp, per_lib = stamp_events(plain, libs, cfg)
        for lib in rdma:
            sl = PlainExecution(tuple(per_lib[lib.name]))
            got = [(w.so, w.rels, w.vR, w.vW) for w in lib.witnesses([sl], stmp, cfg)]
            assert got == list(per_choice_witnesses(lib, sl, stmp, cfg))
            n += len(got)
            nfo_choices += len({rels["nfo"] for _so, rels, _r, _w in got}) > 1
    return n, nfo_choices


@pytest.mark.parametrize("path, tower", [(p, t) for _, p, t in SEARCHED],
                         ids=[n for n, _, _ in SEARCHED])
def test_same_witnesses_in_the_same_order_as_the_per_choice_search(path, tower):
    if tower is None:
        built, libs, res = unfold_file(path)
        cfg = built.cfg
    else:
        impl, events = tower
        cfg, libs, res = unfold_compiled(path, [impl], events)
    n, _ = assert_same_witnesses(cfg, libs, res)
    assert n > 0


@pytest.mark.parametrize("name", sorted(CLIENTS))
def test_same_witnesses_where_nfo_and_internal_fr_decide(tmp_path, name):
    path = tmp_path / f"{name}.litmus"
    path.write_text(CLIENTS[name])
    built, libs, res = unfold_file(path)
    n, nfo_choices = assert_same_witnesses(built.cfg, libs, res)
    assert n > 0
    assert (nfo_choices > 0) == (name != "read_own_write")
