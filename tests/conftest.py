from __future__ import annotations

import pytest
from hypothesis import settings

from rdmacheck.checker import Bounds, outcomes, pools
from rdmacheck.compilers import builtin_impl, check_soundness, compile_stack
from rdmacheck.config import NodeConfig
from rdmacheck.lang import Call, interpret_conc
from rdmacheck.litmus import build_test, parse_litmus
from rdmacheck.runner import _mk_libs

# Generated-input properties draw the same examples on every run, and a
# slow example is not a failure.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def C(method, *args):
    return Call(method, tuple(args))


def cfg2(loc_node=None, **kw):
    """Two nodes, thread 1 on n1 and thread 2 on n2."""
    return NodeConfig(nodes=frozenset({1, 2}), thread_node={1: 1, 2: 2},
                      loc_node=loc_node or {}, **kw)


def outs(progs, libs, cfg, bounds=Bounds(), memory=False):
    return outcomes(progs, libs, cfg, bounds, outputs_only=not memory)


def out_set(progs, libs, cfg, **kw):
    return {o.outputs for o in outs(progs, libs, cfg, **kw).outcomes}


def unfold_file(path):
    """A litmus file parsed, built and unfolded under its own libraries:
    (built test, libraries, interpretation result) at the file's bounds."""
    test = parse_litmus(path.read_text(), name=path.stem)
    built = build_test(test)
    libs = _mk_libs(built.libs)
    res = interpret_conc(built.programs, pools(libs, built.cfg),
                         test.bounds.max_events)
    return built, libs, res


def _tower(path, impl_names):
    """The litmus client at ``path``, the chain ``impl_names`` and the
    client's libraries with each stage's source replaced by its targets."""
    test = parse_litmus(path.read_text(), name=path.stem)
    built = build_test(test)
    impls = [builtin_impl(n) for n in impl_names]
    target = list(built.libs)
    for impl in impls:
        target = [(n, v) for n, v in target if n != impl.source]
        target += [(t, None) for t in impl.targets
                   if t not in {n for n, _ in target}]
    return test, built, impls, target


def soundness(path, impl_names, events):
    """The chain ``impl_names`` compiled onto the litmus client at ``path``:
    the specification side at the file's bounds, the compiled side at the
    event cap ``events``, over the client's libraries with each stage's
    source replaced by its targets."""
    test, built, impls, target = _tower(path, impl_names)
    return check_soundness(built.programs, impls, _mk_libs(built.libs),
                           _mk_libs(target), built.cfg, test.bounds,
                           built.profile, impl_bounds=Bounds(max_events=events))


def compiled(path, impl_names):
    """The compiled side of ``soundness``: (programs, node config, target
    libraries)."""
    _test, built, impls, target = _tower(path, impl_names)
    progs, cfg, _profile = compile_stack(built.programs, impls, built.cfg,
                                         built.profile)
    return progs, cfg, _mk_libs(target)


def unfold_compiled(path, impl_names, events):
    """The compiled side of ``soundness`` unfolded at the event cap
    ``events``: (node config, target libraries, interpretation result)."""
    progs, cfg, libs = compiled(path, impl_names)
    res = interpret_conc(progs, pools(libs, cfg), events)
    return cfg, libs, res
