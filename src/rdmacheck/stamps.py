"""The eleven stamp kinds, the stamp-order table, and preserved program order.

The table is the single most error-prone artifact in the model, so it is
kept as an explicit 11x11 matrix of three-valued cells and can be rendered
to a stable text form that tests diff against a hand-checked transcription
(tests/data/stamp_table.txt).

Cell values: 'Y' = ordered, 'N' = unordered, 'S' = ordered iff the two
stamps carry the same node index.
"""

from __future__ import annotations

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

    The checker closes ppo in one sweep with ``ppo_before`` instead; this
    pair set is the reference its closure is tested against."""
    pairs = []
    for e1, e2 in plain.po:
        for a1 in stmp[e1]:
            for a2 in stmp[e2]:
                if stamp_order(a1, a2):
                    pairs.append((SubEvent(e1, a1), SubEvent(e2, a2)))
    return frozenset(pairs)
