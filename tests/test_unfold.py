"""The concurrent unfolding keeps no duplicate check of its own:
``interpret_conc`` takes each thread's unfoldings straight from the
interpreter, with no plain execution built per thread, and relies on
each call's candidate outputs being distinct (`Library.outputs`).  So
no ``outputs`` call repeats a value, on every corpus file, on the
``msw`` client and on the compiled sides of the pinned tower verdicts;
and the products, their order and the truncation flag are those of the
reference kept here, which unfolds each thread through ``interpret_seq``
and deduplicates its runs."""

from __future__ import annotations

from pathlib import Path

import pytest

from test_groups import CASES, case
from rdmacheck.checker import pools
from rdmacheck.events import PlainExecution
from rdmacheck.lang import Pools, interpret_conc, interpret_seq
from rdmacheck.libraries.msw import MSW_TRYREAD
from rdmacheck.libraries.ringbuf import RECEIVE
from rdmacheck.values import BOT

MSW = Path(__file__).resolve().parent.parent / "perfbench/inputs/msw_put_tryread.litmus"
# The cases of `test_groups`, and the one client whose specification
# side calls ``msw_tryread``.
UNFOLD_CASES = CASES + [("msw_put_tryread", MSW, None)]
PARAMS = dict(argnames="path, tower", argvalues=[(p, t) for _, p, t in UNFOLD_CASES],
              ids=[n for n, _, _ in UNFOLD_CASES])


def checked_pools(libs, cfg, calls: list) -> Pools:
    """``checker.pools(libs, cfg)``, each ``outputs`` call asserting that
    its candidates are distinct and noted in ``calls`` as (method, them)."""
    ps = pools(libs, cfg)
    outputs = ps._outputs

    def distinct(method, *rest):
        outs = list(outputs(method, *rest))
        assert len(dict.fromkeys(outs)) == len(outs), (method, outs)
        calls.append((method, outs))
        return outs

    ps._outputs = distinct
    return ps


def reference_interpret_conc(progs, ps: Pools, max_events: int):
    """The products as they were built with each thread's runs taken from
    ``interpret_seq``, its (value, plain execution) pairs deduplicated."""
    runs: list = [None] * len(progs)
    again = True
    while again:
        again = False
        for i, p in enumerate(progs):
            if runs[i] is not None and not ps.stale(i + 1):
                continue
            ps.start(i + 1)
            runs[i] = interpret_seq(p, i + 1, ps, max_events)
            for _o, g in runs[i].results:
                if g.events:
                    ps.note(g.events[-1])
            again = True
    truncated = any(r.truncated for r in runs)
    combos = [((), ())]
    for r in runs:
        nxt = []
        for vals, evs in combos:
            fit = [(v, g.events) for v, g in r.results
                   if len(evs) + len(g.events) <= max_events]
            truncated |= len(fit) < len(r.results)
            nxt.extend((vals + (v,), evs + g) for v, g in fit)
        combos = nxt
    return tuple((vals, PlainExecution(evs)) for vals, evs in combos), truncated


@pytest.mark.parametrize(**PARAMS)
def test_no_outputs_call_repeats_a_value(tmp_path, path, tower):
    progs, libs, cfg, bounds = case(tmp_path, path, tower)
    calls: list = []
    res = interpret_conc(progs, checked_pools(libs, cfg, calls), bounds.max_events)
    assert calls and res.results


@pytest.mark.parametrize("path, method", [
    (MSW, MSW_TRYREAD), *[(p, RECEIVE) for _, p, t in CASES
                          if t is None and "rbl" in str(p)]], ids=lambda x: getattr(x, "stem", x))
def test_a_bot_first_list_is_met_with_more_than_bot(tmp_path, path, method):
    """``msw_tryread`` and ``receive`` offer ``BOT`` before what the pools
    hold, so the check above meets their lists with more than ``BOT``."""
    progs, libs, cfg, bounds = case(tmp_path, path, None)
    calls: list = []
    interpret_conc(progs, checked_pools(libs, cfg, calls), bounds.max_events)
    assert any(m == method and outs[0] is BOT and len(outs) > 1 for m, outs in calls)


@pytest.mark.parametrize(**PARAMS)
def test_products_are_the_reference_ones_in_order(tmp_path, path, tower):
    progs, libs, cfg, bounds = case(tmp_path, path, tower)
    got = interpret_conc(progs, pools(libs, cfg), bounds.max_events)
    want, truncated = reference_interpret_conc(progs, pools(libs, cfg), bounds.max_events)
    assert got.results and got.results == want
    assert got.truncated == truncated
