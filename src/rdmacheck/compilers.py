"""Implementation stages between library layers, and the inclusion harness.

An implementation is one stateless stage of a tower.  It maps each call of
a source library to a program over target libraries; applying it to a
client substitutes calls homomorphically.  Its two functions:

* ``mapping(cfg, profile, tid, method, args)`` is the body of one source
  call.  It learns of the program being compiled only through ``cfg`` and
  ``profile``, the stage's input: the client's for the first stage of a
  chain, the previous stage's output after that.
* ``extend(cfg, profile)`` returns the config and profile of the compiled
  program.  It must add every location the stage introduces to
  ``profile.locs`` (and to ``cfg.loc_node`` when a target library places
  it on a node), and the work identifiers its bodies use to
  ``profile.wids``.  It sizes no values: a read of the compiled program
  is offered what the compiled program's stores can put at its place.

The builtin stages: shared variables over the wait-based RDMA model, the
barrier and the ring buffer over shared variables, mixed-size cells over
the wait-based model, and the wait-based model over the poll-based one.
Invalid calls (wrong role, wrong size, non-participant) and failed awaits
have no unfolding (``DEAD``), and hence no outcome.
``check_well_defined`` checks a stage's bodies over an argument grid.  The
soundness harness reports inclusion of a compiled client's outcomes in
those of its specification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

from .checker import Bounds, outcomes
from .config import ClientProfile, NodeConfig
from .events import InvalidInput
from .lang import (Call, ConcurrentProgram, LetF, Program, Stop, Val,
                   interpret_seq, let, seq)
from .libraries import make_library
from .values import BOT, UNIT, Value, hash_tuple

DEAD = Stop()


@dataclass(frozen=True)
class Implementation:
    """One tower stage from ``source`` calls to ``targets`` programs, under
    the contract of the module docstring.  Every location it introduces
    starts with one of ``reserved_prefixes``."""

    name: str
    source: str
    targets: tuple
    mapping: Callable[[NodeConfig, ClientProfile, int, str, tuple], Program]
    extend: Callable[[NodeConfig, ClientProfile], tuple]
    reserved_prefixes: tuple = ()

    def source_methods(self) -> frozenset:
        return make_library(self.source).methods


def apply_impl(impl: Implementation, progs: ConcurrentProgram,
               cfg: NodeConfig, profile: ClientProfile) -> list[Program]:
    """Homomorphic substitution of source-library calls, thread-indexed,
    with the stage reading ``cfg`` and ``profile``."""
    clash = {x for x in profile.locs if x.startswith(impl.reserved_prefixes)}
    if clash:
        raise InvalidInput(f"client locations collide with the "
                           f"implementation namespace: {sorted(clash)}")
    methods = impl.source_methods()

    def subst(tid: int, p: Program) -> Program:
        if isinstance(p, (Val, Stop)):
            return p
        if isinstance(p, Call):
            if p.method in methods:
                return impl.mapping(cfg, profile, tid, p.method, p.args)
            return p
        if isinstance(p, LetF):
            return LetF(subst(tid, p.prog),
                        lambda v, f=p.cont: subst(tid, f(v)))
        raise InvalidInput(f"not a program: {p!r}")

    return [subst(t + 1, p) for t, p in enumerate(progs)]


def _extended(cfg: NodeConfig, profile: ClientProfile, *,
              locs: Iterable[str] = (), loc_node: Mapping | None = None,
              wids=()):
    """(cfg, profile) with the locations a stage introduces, ``locs`` and
    those ``loc_node`` places on nodes, and with ``wids`` added to every
    thread's work identifiers."""
    loc_node = loc_node or {}
    cfg = replace(cfg, loc_node={**cfg.loc_node, **loc_node})
    wids = {t: profile.wids.get(t, frozenset()) | frozenset(wids)
            for t in cfg.thread_node}
    return cfg, replace(profile, locs=profile.locs.union(locs, loc_node),
                        wids={**profile.wids, **wids})


# ---------------------------------------------------------------------------
# Builtin implementations


def _sv_repl(x: str, n: int) -> str:
    return f"__sv_{x}_{n}"


def _sv_dummy(n: int) -> str:
    return f"__gf_{n}"


_SV_D0 = "__d0"


def _sv_mapping(cfg: NodeConfig, profile: ClientProfile, t: int, m: str,
                args: tuple) -> Program:
    """Shared variables over the wait-based model: one replica per node,
    broadcast as a put per target, global fence as get-all + wait."""
    node = cfg.node_of_thread(t)
    if m == "sv_write":
        x, v = args
        return Call("write", (_sv_repl(x, node), v))
    if m == "sv_read":
        return Call("read", (_sv_repl(args[0], node),))
    if m == "sv_wait":
        return Call("wait", (args[0],))
    if m == "sv_bcast":
        x, d, ns = args
        puts = [Call("put", (_sv_repl(x, n), _sv_repl(x, node), d))
                for n in sorted(ns)]
        return seq(*puts) if puts else DEAD
    if m == "sv_gf":
        (ns,) = args
        gets = [Call("get", (_sv_dummy(node), _sv_dummy(n), _SV_D0))
                for n in sorted(ns)]
        if not gets:
            return DEAD
        return seq(*gets, Call("wait", (_SV_D0,)))
    raise InvalidInput(m)


def _sv_extend(cfg: NodeConfig, profile: ClientProfile):
    """A replica of every location on every node, carrying the location's
    initial value, and a fence dummy per node."""
    loc_node, init = {}, {}
    for x in sorted(profile.locs):
        for n in sorted(cfg.nodes):
            r = _sv_repl(x, n)
            loc_node[r] = n
            iv = cfg.init_of(x, n)
            if iv != 0:
                init[(r, None)] = iv
    for n in sorted(cfg.nodes):
        loc_node[_sv_dummy(n)] = n
    return _extended(replace(cfg, init={**cfg.init, **init}), profile,
                     loc_node=loc_node, wids={_SV_D0})


def _await(call: Call, exits: Callable[[Value], bool]) -> Program:
    """A spin that repeats the read ``call`` until its output passes
    ``exits``, as its one exiting iteration: the call, then nothing more if
    the output passes and no unfolding (``DEAD``) if it fails.

    The spin and the await have the same outcomes.  Every unfolding of the
    await is one of the spin.  Conversely, take a consistent execution of
    the spin and delete its failed reads:

    * the failed reads feed only the exit test, so no other event's
      arguments or output, and no thread's output, depend on them;
    * deleting such a read removes rf, rb, ppo and ib edges that touch it,
      and removes no write;
    * every clause that consistency checks on the compiled side keeps
      holding when edges are removed: hb and ib acyclicity, coherence,
      ``sv``'s read-past-write veto and ``rbl``'s weak ``post_check``.

    What is left is a consistent execution of the await with the same
    outcome.
    """
    return let(call, lambda v: Val(UNIT) if exits(v) else DEAD)


def _bal_ctr(x: str, t: int) -> str:
    return f"__bal_{x}_t{t}"


_BAL_DUMMY_WID = "__dbal"


def impl_bal(variant: str, buggy: bool = False) -> Implementation:
    """The counter barrier over shared variables.

    Each participant fences, bumps its own counter, pushes it to the other
    participating nodes, then awaits every participant's counter passing
    the value it read of its own.  The weak variant fences only
    participating nodes, the transitive variant all nodes; the buggy
    variant omits the fence entirely, reproducing the
    pairwise-synchronisation defect.
    """

    def mapping(cfg: NodeConfig, profile: ClientProfile, t: int, m: str,
                args: tuple) -> Program:
        if m != "bar":
            raise InvalidInput(m)
        (x,) = args
        parts = cfg.barrier.get(x, frozenset())
        if t not in parts:
            return DEAD
        if variant == "transitive":
            s_n = set(cfg.nodes)
        else:
            s_n = {cfg.node_of_thread(ti) for ti in parts}
        me = cfg.node_of_thread(t)
        ctr = _bal_ctr(x, t)

        def spins(v: int) -> Program:
            return seq(*[_await(Call("sv_read", (_bal_ctr(x, ti),)),
                                lambda v2: v2 > v)
                         for ti in sorted(parts)], Val(UNIT))

        def after_read(v: int) -> Program:
            steps: list[Program] = [Call("sv_write", (ctr, v + 1))]
            targets = frozenset(s_n - {me})
            if targets:
                steps.append(Call("sv_bcast", (ctr, _BAL_DUMMY_WID, targets)))
            steps.append(spins(v))
            return seq(*steps)

        core = let(Call("sv_read", (ctr,)), after_read)
        if buggy:
            return core
        return seq(Call("sv_gf", (frozenset(s_n),)), core)

    suffix = "buggy" if buggy else variant
    return Implementation(name=f"bal_{suffix}", source="bal", targets=("sv",),
                          mapping=mapping, extend=_bal_extend,
                          reserved_prefixes=("__bal_",))


def _bal_extend(cfg: NodeConfig, profile: ClientProfile):
    """A counter per participant."""
    ctrs = {_bal_ctr(x, t) for x, parts in cfg.barrier.items() for t in parts}
    return _extended(cfg, profile, locs=ctrs, wids={_BAL_DUMMY_WID})


def _rbl_cell(x: str, i: int) -> str:
    return f"__rbl_{x}_c{i}"


def _rbl_headw(x: str) -> str:
    return f"__rbl_{x}_h"


def _rbl_headr(x: str, t: int) -> str:
    return f"__rbl_{x}_h_t{t}"


def _rbl_wid(x: str) -> str:
    return f"__drbl_{x}"


_RBL_DUMMY_WID = "__drbl0"


def _rbl_mapping(cfg: NodeConfig, profile: ClientProfile, t: int, m: str,
                 args: tuple) -> Program:
    """The ring buffer over shared variables.

    Cells hold the message length followed by the payload; the writer's
    head names the next free cell and each reader head the next cell to
    read.  The writer publishes cells, waits for the previous head
    broadcast to have picked up its value, then advances and broadcasts
    the head; readers never outrun the writer head, and push their own
    head back to the writer's node when remote.
    """
    x = args[0]
    S = cfg.capacity[x]
    readers = sorted(cfg.rthd.get(x, frozenset()))
    me = cfg.node_of_thread(t)
    if m == "submit":
        if t != cfg.wthd.get(x):
            return DEAD
        vs = tuple(args[1])
        V = len(vs)
        s_n = frozenset({cfg.node_of_thread(r) for r in readers} - {me})

        def with_heads(H, heads) -> Program:
            M = min(heads) if heads else H
            if (H - M) + (V + 1) > S:
                return Val(False)
            steps: list[Program] = []
            for i, v in enumerate((V,) + vs):
                c = _rbl_cell(x, (H + i) % S)
                steps.append(Call("sv_write", (c, v)))
                if s_n:
                    steps.append(Call("sv_bcast", (c, _RBL_DUMMY_WID, s_n)))
            if s_n:
                steps.append(Call("sv_wait", (_rbl_wid(x),)))
            steps.append(Call("sv_write", (_rbl_headw(x), H + V + 1)))
            if s_n:
                steps.append(Call("sv_bcast", (_rbl_headw(x), _rbl_wid(x), s_n)))
            steps.append(Val(True))
            return seq(*steps)

        def read_heads(H, i, acc) -> Program:
            if i == len(readers):
                return with_heads(H, acc)
            return let(Call("sv_read", (_rbl_headr(x, readers[i]),)),
                       lambda h: read_heads(H, i + 1, acc + [h]))

        return let(Call("sv_read", (_rbl_headw(x),)),
                   lambda H: read_heads(H, 0, []))

    if m == "receive":
        if t not in cfg.rthd.get(x, frozenset()):
            return DEAD
        wnode = cfg.node_of_thread(cfg.wthd[x])

        def with_msg(H, V, vs) -> Program:
            steps: list[Program] = [Call("sv_write", (_rbl_headr(x, t), H + V + 1))]
            if wnode != me:
                steps.append(Call("sv_bcast",
                                  (_rbl_headr(x, t), _RBL_DUMMY_WID,
                                   frozenset({wnode}))))
            steps.append(Val(tuple(vs)))
            return seq(*steps)

        def read_cells(H, V, i, acc) -> Program:
            if i > V:
                return with_msg(H, V, acc)
            return let(Call("sv_read", (_rbl_cell(x, (H + i) % S),)),
                       lambda v: read_cells(H, V, i + 1, acc + [v]))

        def with_heads(H, H2) -> Program:
            if H >= H2:
                return Val(BOT)
            # A length outside 0..S-1 cannot be a committed header; no
            # consistent execution reads one, so the branch is dead.
            return let(Call("sv_read", (_rbl_cell(x, H % S),)),
                       lambda V: read_cells(H, V, 1, [])
                       if isinstance(V, int) and 0 <= V < S else DEAD)

        return let(Call("sv_read", (_rbl_headr(x, t),)),
                   lambda H: let(Call("sv_read", (_rbl_headw(x),)),
                                 lambda H2: with_heads(H, H2)))
    raise InvalidInput(m)


def _rbl_extend(cfg: NodeConfig, profile: ClientProfile):
    """The heads and cells of every ring buffer."""
    locs = set()
    for x in cfg.wthd:
        locs.add(_rbl_headw(x))
        locs.update(_rbl_headr(x, r) for r in cfg.rthd.get(x, frozenset()))
        locs.update(_rbl_cell(x, i) for i in range(cfg.capacity[x]))
    wids = {_RBL_DUMMY_WID} | {_rbl_wid(x) for x in cfg.wthd}
    return _extended(cfg, profile, locs=locs, wids=wids)


def _msw_slot(x: str, i: int) -> str:
    return f"__msw_{x}_{i}"


def _msw_mapping(cfg: NodeConfig, profile: ClientProfile, t: int, m: str,
                 args: tuple) -> Program:
    """Mixed-size cells over the wait-based model: slot 0 carries an
    injective digest of the payload, written first and checked on read."""
    me = cfg.node_of_thread(t)
    if m == "msw_wait":
        return Call("wait", (args[0],))
    x = args[0]
    k = cfg.size.get(x)
    if m == "msw_write":
        vs = tuple(args[1])
        if k is None or len(vs) != k or cfg.node_of_loc(x) != me:
            return DEAD
        steps = [Call("write", (_msw_slot(x, 0), hash_tuple(vs)))]
        steps += [Call("write", (_msw_slot(x, i + 1), vs[i])) for i in range(k)]
        return seq(*steps)
    if m == "msw_tryread":
        if k is None or cfg.node_of_loc(x) != me:
            return DEAD

        def read_slots(i, acc) -> Program:
            if i > k:
                vs = tuple(acc[1:])
                return Val(vs if acc[0] == hash_tuple(vs) else BOT)
            return let(Call("read", (_msw_slot(x, i),)),
                       lambda v: read_slots(i + 1, acc + [v]))

        return read_slots(0, [])
    if m in ("msw_put", "msw_get"):
        x, y, d = args
        ky = cfg.size.get(y)
        local = y if m == "msw_put" else x
        if k is None or ky != k or cfg.node_of_loc(local) != me:
            return DEAD
        op = "put" if m == "msw_put" else "get"
        return seq(*[Call(op, (_msw_slot(x, i), _msw_slot(y, i), d))
                     for i in range(k + 1)])
    raise InvalidInput(m)


def _msw_extend(cfg: NodeConfig, profile: ClientProfile):
    """The slots of every sized location, on its node, carrying the
    location's initial value: its digest in slot 0, its parts after."""
    loc_node, init = {}, {}
    for x, k in cfg.size.items():
        v = cfg.init_of(x, cfg.node_of_loc(x))
        for i, iv in enumerate((hash_tuple(v), *v)):
            loc_node[_msw_slot(x, i)] = cfg.node_of_loc(x)
            if iv != 0:
                init[(_msw_slot(x, i), None)] = iv
    return _extended(replace(cfg, init={**cfg.init, **init}), profile,
                     loc_node=loc_node)


def _set_loc(t: int, d, n: int) -> str:
    return f"__set_t{t}_{d}_{n}"


def _w_mapping(cfg: NodeConfig, profile: ClientProfile, t: int, m: str,
               args: tuple) -> Program:
    """The wait-based model over the poll-based one.

    Put/get identifiers are recorded in a per-(thread, work id, node) set;
    a wait polls each node until its set drains, removing each polled
    identifier from all of the thread's sets for that node.
    """
    direct = {"write": "tso_write", "read": "tso_read", "cas": "tso_cas",
              "mfence": "tso_mfence", "rfence": "tso_rfence"}
    if m in direct:
        return Call(direct[m], args)
    if m == "get":
        x, y, d = args
        n = cfg.node_of_loc(y)
        return let(Call("tso_get", (x, y)),
                   lambda v: Call("set_add", (_set_loc(t, d, n), v)))
    if m == "put":
        x, y, d = args
        n = cfg.node_of_loc(x)
        return let(Call("tso_put", (x, y)),
                   lambda v: Call("set_add", (_set_loc(t, d, n), v)))
    if m == "wait":
        (d,) = args
        wids = sorted(profile.wids.get(t, frozenset()), key=repr)

        def drain(n: int) -> Program:
            def body(v) -> Program:
                return seq(*[Call("set_remove", (_set_loc(t, dk, n), v))
                             for dk in wids], drain(n))

            return let(Call("set_isempty", (_set_loc(t, d, n),)),
                       lambda b: Val(UNIT) if b is True
                       else let(Call("poll", (n,)), body))

        return seq(*[drain(n) for n in sorted(cfg.nodes)], Val(UNIT))
    raise InvalidInput(m)


def _w_extend(cfg: NodeConfig, profile: ClientProfile):
    """An identifier set per thread, work identifier and node."""
    sets = {_set_loc(t, d, n) for t, ds in profile.wids.items() for d in ds
            for n in cfg.nodes}
    return cfg, replace(profile, locs=profile.locs | sets)


_BUILTINS = {impl.name: impl for impl in (
    Implementation("sv", "sv", ("rl",), _sv_mapping, _sv_extend,
                   ("__sv_", "__gf_", "__d0")),
    Implementation("rbl", "rbl", ("sv",), _rbl_mapping, _rbl_extend,
                   ("__rbl_", "__drbl")),
    Implementation("msw", "msw", ("rl",), _msw_mapping, _msw_extend,
                   ("__msw_",)),
    Implementation("w", "rl", ("tso",), _w_mapping, _w_extend, ("__set_",)),
    impl_bal("weak"), impl_bal("transitive"), impl_bal("weak", buggy=True))}


def builtin_impl(name: str, cfg: NodeConfig | None = None,
                 profile: ClientProfile | None = None) -> Implementation:
    """The builtin stage ``name``.  ``cfg`` and ``profile`` are accepted
    for older callers and unused: a stage reads the config and profile of
    what it compiles when it is applied."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise InvalidInput(f"unknown implementation {name!r}")


# ---------------------------------------------------------------------------
# Well-definedness


def check_well_defined(impl: Implementation, cfg: NodeConfig,
                       profile: ClientProfile,
                       arg_grid: Mapping[str, Sequence[tuple]]) -> list[str]:
    """Non-emptiness checks over an argument grid, with the stage reading
    ``cfg`` and ``profile``.

    Returns a list of violation descriptions (empty = well defined): every
    finishing unfolding of a body must contain at least one event.  Each
    body is unfolded with no candidate output for any call, so every call
    blocks and the unfoldings left are exactly those without events; no
    bound is needed.
    """
    problems = []
    for m, arglists in arg_grid.items():
        for args in arglists:
            for t in sorted(cfg.thread_node):
                prog = impl.mapping(cfg, profile, t, m, args)
                if interpret_seq(prog, t, ()).results:
                    problems.append(f"{impl.name}.{m}{args} on t{t}: "
                                    f"empty successful unfolding")
    return problems


# ---------------------------------------------------------------------------
# Soundness harness


@dataclass
class SoundnessReport:
    """Outcome inclusion of a compiled program in its specification.

    ``inconclusive`` is set when the compiled side has no outcome at all,
    whether a bound cut it or every unfolding blocks: inclusion would then
    hold vacuously, so ``included`` is False without any counterexample.
    """

    included: bool
    counterexamples: list
    spec_outcomes: frozenset
    impl_outcomes: frozenset
    spec_truncated: bool
    impl_truncated: bool
    inconclusive: bool = False

    def summary(self) -> str:
        if self.inconclusive:
            verdict = "inconclusive"
        else:
            verdict = "included" if self.included else "NOT included"
        extra = ""
        if self.spec_truncated or self.impl_truncated:
            extra = " (bound-limited)"
        return (f"{verdict}{extra}: {len(self.impl_outcomes)} compiled vs "
                f"{len(self.spec_outcomes)} specified outcomes")


def compile_stack(progs: ConcurrentProgram, impls: Sequence[Implementation],
                  cfg: NodeConfig, profile: ClientProfile):
    """Apply a chain of implementations in order, each to the config and
    profile its predecessor produced.

    Returns (compiled programs, config, profile) of the last stage's
    output.
    """
    compiled = list(progs)
    for impl in impls:
        compiled = apply_impl(impl, compiled, cfg, profile)
        cfg, profile = impl.extend(cfg, profile)
    return compiled, cfg, profile


def check_soundness(progs: ConcurrentProgram,
                    impl: Implementation | Sequence[Implementation],
                    spec_libs: Sequence, impl_libs: Sequence,
                    cfg: NodeConfig, bounds: Bounds, profile: ClientProfile,
                    impl_bounds: Bounds | None = None) -> SoundnessReport:
    """Outcome inclusion of the compiled program in the specification.

    ``impl`` may be a single implementation or a chain applied in order
    (vertical composition).  Observables are thread-output tuples;
    implementations rename memory into reserved namespaces, so memory
    observations belong in the client program as trailing reads.
    """
    impls = [impl] if isinstance(impl, Implementation) else list(impl)
    spec = outcomes(progs, list(spec_libs), cfg, bounds, outputs_only=True)

    compiled, cfg2, profile2 = compile_stack(progs, impls, cfg, profile)
    comp = outcomes(compiled, list(impl_libs), cfg2, impl_bounds or bounds,
                    outputs_only=True)

    spec_set = frozenset(o.outputs for o in spec.outcomes)
    impl_set = frozenset(o.outputs for o in comp.outcomes)
    missing = sorted(impl_set - spec_set, key=repr)
    inconclusive = not impl_set
    return SoundnessReport(included=not missing and not inconclusive,
                           counterexamples=missing,
                           spec_outcomes=spec_set, impl_outcomes=impl_set,
                           spec_truncated=spec.truncated,
                           impl_truncated=comp.truncated,
                           inconclusive=inconclusive)
