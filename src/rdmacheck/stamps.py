"""The eleven stamp kinds, the stamp-order table, and preserved program order.

The table is the single most error-prone artifact in the model, so it is
kept as an explicit 11x11 matrix of three-valued cells and can be rendered
to a stable text form that tests diff against a hand-checked transcription
(tests/data/stamp_table.txt).

Cell values: 'Y' = ordered, 'N' = unordered, 'S' = ordered iff the two
stamps carry the same node index.

The checker reads ppo off the table by position (`ppo_rows`): per thread,
bitmasks of the later subevents of each kind and of each (kind, node),
ORed together by the table's row for each subevent.  Issued-before's
fixed part reads its own table the same way.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .events import PlainExecution, Stamp, Stamping, SubEvent, po_before

# Singleton kinds.
ACR = Stamp("aCR")    # CPU read
ACW = Stamp("aCW")    # CPU write
ACAS = Stamp("aCAS")  # atomic read-modify-write
AMF = Stamp("aMF")    # TSO memory fence
AWT = Stamp("aWT")    # wait / blocked-retry


# Node-indexed families.
def nLR(n: int) -> Stamp:
    return Stamp("nLR", n)   # NIC local read


def nRW(n: int) -> Stamp:
    return Stamp("nRW", n)   # NIC remote write


def nRR(n: int) -> Stamp:
    return Stamp("nRR", n)   # NIC remote read


def nLW(n: int) -> Stamp:
    return Stamp("nLW", n)   # NIC local write


def nF(n: int) -> Stamp:
    return Stamp("nF", n)    # NIC remote fence


def GF(n: int) -> Stamp:
    return Stamp("GF", n)    # global fence


KINDS = ("aCR", "aCW", "aCAS", "aMF", "aWT", "nLR", "nRW", "nRR", "nLW", "nF", "GF")
FAMILY_KINDS = frozenset({"nLR", "nRW", "nRR", "nLW", "nF", "GF"})

_ROWS = {
    #         aCR  aCW aCAS  aMF  aWT  nLR  nRW  nRR  nLW  nF   GF
    "aCR":  ("Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y"),
    "aCW":  ("N", "Y", "Y", "Y", "N", "Y", "Y", "Y", "Y", "Y", "Y"),
    "aCAS": ("Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y"),
    "aMF":  ("Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y"),
    "aWT":  ("Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y"),
    "nLR":  ("N", "N", "N", "N", "N", "S", "S", "S", "S", "S", "S"),
    "nRW":  ("N", "N", "N", "N", "N", "N", "S", "S", "S", "N", "S"),
    "nRR":  ("N", "N", "N", "N", "N", "N", "N", "N", "S", "S", "S"),
    "nLW":  ("N", "N", "N", "N", "N", "N", "N", "N", "S", "N", "S"),
    "nF":   ("N", "N", "N", "N", "N", "S", "S", "S", "S", "S", "S"),
    "GF":   ("Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y"),
}

TABLE = {(r, KINDS[j]): _ROWS[r][j] for r in KINDS for j in range(len(KINDS))}


def stamp_order(a: Stamp, b: Stamp) -> bool:
    """True iff a subevent stamped ``a`` stays ordered before one stamped ``b``."""
    cell = TABLE[(a.kind, b.kind)]
    if cell == "Y":
        return True
    if cell == "N":
        return False
    return a.node == b.node


def ppo_before(s1: SubEvent, s2: SubEvent) -> bool:
    """Preserved program order: po between the events, kept by the stamps."""
    return po_before(s1.event, s2.event) and stamp_order(s1.stamp, s2.stamp)


def columns(table: Mapping[tuple[str, str], str]) -> dict[str, tuple[bool, tuple, tuple]]:
    """Per earlier kind, how `ppo_rows` reads its row of a ``table`` shaped
    like ``TABLE``: ``(every, kinds, same_node)``.  With ``every``, the row
    is every later kind but ``kinds``, its 'N' and 'S' cells; else only
    ``kinds``, its 'Y' cells; either way plus ``same_node``, its 'S' cells'
    kinds, at the earlier stamp's node.  Whichever asks fewer kinds."""
    out = {}
    for r in KINDS:
        cells = {v: tuple(c for c in KINDS if table[r, c] == v) for v in "YNS"}
        every = len(cells["N"]) + len(cells["S"]) < len(cells["Y"])
        out[r] = (every, cells["N"] + cells["S"] if every else cells["Y"], cells["S"])
    return out


PPO = columns(TABLE)


def ppo_rows(size: int, items: Iterable[tuple[int, int, int, Stamp]],
             cols: Mapping[str, tuple[bool, tuple, tuple]] = PPO) -> list[int]:
    """The direct rows of preserved program order over ``size`` positions,
    or of an order read off another table's ``cols`` the same way.

    ``items`` are (position, thread, event, stamp), in position order,
    each thread's and each event's positions together.  Row p has bit q
    for each item q of p's thread and a later event whose stamp the table
    orders after p's; rows of positions not in ``items`` stay empty.  One
    backward walk keeps, per thread, the later events' positions: all of
    them, by kind and by (kind, node); so no pair of subevents is asked."""
    rows = [0] * size
    later: dict = {}
    pending: list = []
    thread = event = None
    every = 0
    for p, t, i, a in reversed(list(items)):
        if i != event or t != thread:
            if t != thread:
                later, every, thread = {}, 0, t
            else:
                for q, b in pending:
                    bit = 1 << q
                    every |= bit
                    later[b.kind] = later.get(b.kind, 0) | bit
                    if b.node is not None:
                        later[b.kind, b.node] = later.get((b.kind, b.node), 0) | bit
            pending, event = [], i
        all_but, kinds, same_node = cols[a.kind]
        r = 0
        for k in kinds:
            r |= later.get(k, 0)
        if all_but:
            r = every & ~r
        for k in same_node:
            r |= later.get((k, a.node), 0)
        rows[p] = r
        pending.append((p, a))
    return rows


def render_table() -> str:
    """Stable text rendering of the order table, one row per earlier stamp."""
    width = 5
    header = "to".ljust(width) + "".join(k.rjust(width) for k in KINDS)
    lines = [header]
    for r in KINDS:
        cells = "".join(TABLE[(r, c)].rjust(width) for c in KINDS)
        lines.append(r.ljust(width) + cells)
    return "\n".join(lines) + "\n"


def derive_ppo(plain: PlainExecution, stmp: Stamping) -> frozenset:
    """Program order lifted to subevents and filtered by the stamp order.

    The checker closes ppo from `ppo_rows` instead; this pair set is the
    reference its closure is tested against."""
    pairs = []
    for e1, e2 in plain.po:
        for a1 in stmp[e1]:
            for a2 in stmp[e2]:
                if stamp_order(a1, a2):
                    pairs.append((SubEvent(e1, a1), SubEvent(e2, a2)))
    return frozenset(pairs)
