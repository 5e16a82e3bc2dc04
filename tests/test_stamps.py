"""Stamp-order table audit and preserved-program-order derivation."""

from __future__ import annotations

from pathlib import Path

import pytest

from rdmacheck.events import Event, PlainExecution, SubEvent
from rdmacheck.stamps import (ACAS, ACR, ACW, AMF, AWT, GF, KINDS, derive_ppo,
                              nF, nLR, nLW, nRR, nRW, render_table, stamp_order)

DATA = Path(__file__).parent / "data"


def test_table_matches_checked_in_transcription():
    assert render_table() == (DATA / "stamp_table.txt").read_text()


# twenty spot cells, read directly off the figure
SPOT = [
    (ACW, ACR, False),          # B1: write then read may reorder under TSO
    (nRW(2), GF(2), True),      # G11 same node
    (nRW(1), nRW(2), False),    # same family, different node
    (nRW(1), nRW(1), True),
    (GF(3), ACAS, True),        # GF row is constantly ordered
    (GF(1), nRW(7), True),
    (ACW, AWT, False),          # B5: a wait does not flush the store buffer
    (ACW, ACW, True),
    (ACW, nLR(4), True),
    (ACR, ACW, True),           # A2
    (ACR, nF(2), True),
    (ACAS, ACR, True),
    (AMF, nRW(1), True),
    (AWT, ACW, True),
    (nLR(1), ACR, False),
    (nLR(3), nRW(3), True),
    (nRW(2), nF(2), False),     # G10: remote write not flushed by rfence
    (nRR(5), nLW(5), True),
    (nLW(2), nF(2), False),     # I10
    (nF(6), nLR(6), True),
]


@pytest.mark.parametrize("a,b,want", SPOT)
def test_spot_cells(a, b, want):
    assert stamp_order(a, b) is want


def test_constant_rows():
    # rows aCR, aCAS, aMF, aWT, GF are constantly ordered
    probes = [ACR, ACW, ACAS, AMF, AWT, nLR(1), nRW(1), nRR(1), nLW(1),
              nF(1), GF(1), nLR(2), GF(2)]
    for first in (ACR, ACAS, AMF, AWT, GF(1), GF(9)):
        for b in probes:
            assert stamp_order(first, b)


def test_table_covers_all_kind_pairs():
    from rdmacheck.stamps import TABLE
    assert len(TABLE) == len(KINDS) ** 2


def plain_of(events, po):
    plain = PlainExecution(tuple(sorted(events, key=lambda e: (e.tid, e.eid))))
    assert plain.po == frozenset(po)
    return plain


def _bcast_gf_setup():
    e_br = Event(1, 0, "sv_bcast", ("x", "d", frozenset({2})), ())
    e_gf = Event(1, 1, "sv_gf", (frozenset({2}),), ())
    plain = plain_of({e_br, e_gf}, {(e_br, e_gf)})
    stmp = {e_br: frozenset({nLR(2), nRW(2)}), e_gf: frozenset({GF(2)})}
    return e_br, e_gf, plain, stmp


class TestDerivePpo:
    def test_empty(self):
        assert derive_ppo(PlainExecution(()), {}) == frozenset()

    def test_bcast_before_global_fence(self):
        e_br, e_gf, plain, stmp = _bcast_gf_setup()
        ppo = derive_ppo(plain, stmp)
        assert (SubEvent(e_br, nRW(2)), SubEvent(e_gf, GF(2))) in ppo

    def test_cpu_write_read_unordered(self):
        w = Event(1, 0, "write", ("x", 1), ())
        r = Event(1, 1, "read", ("y",), 0)
        plain = plain_of({w, r}, {(w, r)})
        ppo = derive_ppo(plain, {w: frozenset({ACW}), r: frozenset({ACR})})
        assert ppo == frozenset()

    def test_ppo_subset_of_po(self):
        e_br, e_gf, plain, stmp = _bcast_gf_setup()
        for s1, s2 in derive_ppo(plain, stmp):
            assert (s1.event, s2.event) in plain.po
