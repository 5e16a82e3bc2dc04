from __future__ import annotations

import pytest

from rdmacheck.checker import Bounds, merged_outputs, outcomes
from rdmacheck.config import NodeConfig
from rdmacheck.lang import Call, interpret_conc
from rdmacheck.libraries import OutputCtx
from rdmacheck.litmus import build_test, parse_litmus
from rdmacheck.runner import _mk_libs


def C(method, *args):
    return Call(method, tuple(args))


def cfg2(loc_node=None, **kw):
    """Two nodes, thread 1 on n1 and thread 2 on n2."""
    return NodeConfig(nodes=frozenset({1, 2}), thread_node={1: 1, 2: 2},
                      loc_node=loc_node or {}, **kw)


def outs(progs, libs, cfg, scalars={0, 1}, tuples=None, bounds=Bounds(),
         memory=False):
    ctx = OutputCtx(scalars=frozenset(scalars), tuples=tuples or {})
    r = outcomes(progs, libs, cfg, bounds, ctx, outputs_only=not memory)
    return r


def out_set(progs, libs, cfg, **kw):
    return {o.outputs for o in outs(progs, libs, cfg, **kw).outcomes}


def unfold_file(path):
    """A litmus file parsed, built and unfolded under its own libraries:
    (built test, libraries, interpretation result) at the file's bounds."""
    test = parse_litmus(path.read_text(), name=path.stem)
    built = build_test(test)
    libs = _mk_libs(built)
    ctx = OutputCtx(scalars=built.profile.scalars, tuples=dict(built.profile.tuples))
    res = interpret_conc(built.programs, test.bounds.loop_bound,
                         merged_outputs(libs, ctx, built.cfg), test.bounds.max_events)
    return built, libs, res
