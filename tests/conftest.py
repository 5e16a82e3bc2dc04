from __future__ import annotations

import pytest

from rdmacheck.checker import Bounds, merged_outputs, outcomes
from rdmacheck.compilers import builtin_impl, check_soundness
from rdmacheck.config import ClientProfile, NodeConfig
from rdmacheck.lang import Call, interpret_conc
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
    profile = ClientProfile(scalars=frozenset(scalars), tuples=tuples or {})
    r = outcomes(progs, libs, cfg, bounds, profile, outputs_only=not memory)
    return r


def out_set(progs, libs, cfg, **kw):
    return {o.outputs for o in outs(progs, libs, cfg, **kw).outcomes}


def unfold_file(path):
    """A litmus file parsed, built and unfolded under its own libraries:
    (built test, libraries, interpretation result) at the file's bounds."""
    test = parse_litmus(path.read_text(), name=path.stem)
    built = build_test(test)
    libs = _mk_libs(built.libs)
    res = interpret_conc(built.programs, test.bounds.loop_bound,
                         merged_outputs(libs, built.profile, built.cfg),
                         test.bounds.max_events)
    return built, libs, res


def soundness(path, impl_names, loop, events):
    """The chain ``impl_names`` compiled onto the litmus client at ``path``:
    the specification side at the file's bounds, the compiled side at
    (loop, events), over the client's libraries with each stage's source
    replaced by its targets."""
    test = parse_litmus(path.read_text(), name=path.stem)
    built = build_test(test)
    impls = [builtin_impl(n) for n in impl_names]
    target = list(built.libs)
    for impl in impls:
        target = [(n, v) for n, v in target if n != impl.source]
        target += [(t, None) for t in impl.targets
                   if t not in {n for n, _ in target}]
    return check_soundness(built.programs, impls, _mk_libs(built.libs),
                           _mk_libs(target), built.cfg, test.bounds,
                           built.profile, impl_bounds=Bounds(loop, events))
