"""Implementation mappings between library layers and the inclusion harness.

An implementation maps each method call of a source library to a program
over target libraries; applying it to a client program substitutes calls
homomorphically.  The builtin implementations are the five standard ones:
shared variables over the wait-based RDMA model, the barrier and the ring
buffer over shared variables, mixed-size cells over the wait-based model,
and the wait-based model over the poll-based one.  Invalid calls (wrong
role, wrong size, non-participant) compile to an infinite loop, which has
no terminating unfolding and hence no outcome.  ``check_well_defined``
checks an implementation's bodies over an argument grid.

The soundness harness enumerates the outcome sets of a client against the
source-library specification and of its compilation against the target
libraries, and reports inclusion of the latter in the former.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from .checker import Bounds, outcomes
from .config import NodeConfig
from .events import InvalidInput
from .lang import (Break, Call, ConcurrentProgram, LetF, Loop, Program, Val,
                   interpret_seq, let, seq)
from .libraries import OutputCtx, make_library
from .values import BOT, UNIT, hash_tuple

DEAD = Loop(Val(UNIT))


@dataclass(frozen=True)
class ClientProfile:
    """Static facts about a straight-line client, used to size domains.

    ``scalars``: base scalar domain ({0}, literals, initial values);
    ``locs``: every location the client names; ``counts``: static call
    counts keyed (tid, method, loc); ``tuples``: payload pools per
    location; ``wids``: work identifiers used per thread.
    """

    scalars: frozenset = frozenset({0})
    locs: frozenset = frozenset()
    counts: Mapping = field(default_factory=dict)
    tuples: Mapping = field(default_factory=dict)
    wids: Mapping = field(default_factory=dict)

    def count(self, tid: int, method: str, loc: str) -> int:
        return self.counts.get((tid, method, loc), 0)


@dataclass(frozen=True)
class Implementation:
    name: str
    source: str
    targets: tuple
    mapping: Callable[[int, str, tuple], Program]
    reserved_prefixes: tuple = ()
    extend_config: Callable[[NodeConfig, ClientProfile], NodeConfig] = \
        lambda cfg, prof: cfg
    loc_domains: Callable[[NodeConfig, ClientProfile], dict] = \
        lambda cfg, prof: {}
    tuple_pools: Callable[[NodeConfig, ClientProfile], dict] = \
        lambda cfg, prof: {}
    extra_wids: Callable[[NodeConfig, ClientProfile], Mapping] = \
        lambda cfg, prof: {}

    def source_methods(self) -> frozenset:
        return make_library(self.source).methods

    def reserves(self, loc: str) -> bool:
        return any(loc.startswith(p) for p in self.reserved_prefixes)


def _subst(impl: Implementation, tid: int, p: Program) -> Program:
    methods = impl.source_methods()
    if isinstance(p, (Val, Break)):
        return p
    if isinstance(p, Call):
        if p.method in methods:
            return impl.mapping(tid, p.method, p.args)
        return p
    if isinstance(p, LetF):
        return LetF(_subst(impl, tid, p.prog),
                    lambda v, f=p.cont: _subst(impl, tid, f(v)))
    if isinstance(p, Loop):
        return Loop(_subst(impl, tid, p.body))
    raise InvalidInput(f"not a program: {p!r}")


def apply_impl(impl: Implementation, progs: ConcurrentProgram,
               client_locs: frozenset = frozenset()) -> list[Program]:
    """Homomorphic substitution of source-library calls, thread-indexed."""
    clash = {x for x in client_locs if impl.reserves(x)}
    if clash:
        raise InvalidInput(f"client locations collide with the "
                           f"implementation namespace: {sorted(clash)}")
    return [_subst(impl, t + 1, p) for t, p in enumerate(progs)]


# ---------------------------------------------------------------------------
# Builtin implementations


def _sv_repl(x: str, n: int) -> str:
    return f"__sv_{x}_{n}"


def _sv_dummy(n: int) -> str:
    return f"__gf_{n}"


_SV_D0 = "__d0"


def impl_sv(cfg: NodeConfig, profile: ClientProfile) -> Implementation:
    """Shared variables over the wait-based model: one replica per node,
    broadcast as a put per target, global fence as get-all + wait."""

    def mapping(t: int, m: str, args: tuple) -> Program:
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

    def extend(cfg2: NodeConfig, prof: ClientProfile) -> NodeConfig:
        loc_node = dict(cfg2.loc_node)
        init = dict(cfg2.init)
        for x in sorted(prof.locs):
            for n in sorted(cfg2.nodes):
                loc_node[_sv_repl(x, n)] = n
                iv = cfg2.init_of(x, n)
                if iv != 0:
                    init[(_sv_repl(x, n), None)] = iv
        for n in sorted(cfg2.nodes):
            loc_node[_sv_dummy(n)] = n
        return replace(cfg2, loc_node=loc_node, init=init)

    return Implementation(name="sv", source="sv", targets=("rl",),
                          mapping=mapping,
                          reserved_prefixes=("__sv_", "__gf_", "__d0"),
                          extend_config=extend,
                          extra_wids=lambda c, pr: {t: frozenset({_SV_D0})
                                                    for t in c.thread_node})


def _bal_ctr(x: str, t: int) -> str:
    return f"__bal_{x}_t{t}"


_BAL_DUMMY_WID = "__dbal"


def impl_bal(cfg: NodeConfig, profile: ClientProfile,
             variant: str = "transitive", buggy: bool = False) -> Implementation:
    """The counter barrier over shared variables.

    Each participant fences, bumps its own counter, pushes it to the other
    participating nodes, then spins on every participant's counter.  The
    weak variant fences only participating nodes, the transitive variant
    all nodes; the buggy variant omits the fence entirely, reproducing the
    pairwise-synchronisation defect.
    """
    if variant not in ("weak", "transitive"):
        raise InvalidInput(f"unknown barrier variant {variant!r}")

    def mapping(t: int, m: str, args: tuple) -> Program:
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
            body: list[Program] = []
            for ti in sorted(parts):
                loc = _bal_ctr(x, ti)
                body.append(Loop(let(Call("sv_read", (loc,)),
                                     lambda v2, v=v: Break(1, UNIT)
                                     if isinstance(v2, int) and v2 > v
                                     else Val(UNIT))))
            return seq(*body, Val(UNIT))

        def after_read(v) -> Program:
            if not isinstance(v, int):
                return DEAD
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

    def domains(cfg2: NodeConfig, prof: ClientProfile) -> dict:
        out = {}
        for x, parts in cfg2.barrier.items():
            rounds = max((prof.count(t, "bar", x) for t in parts), default=0)
            dom = frozenset(range(rounds + 1))
            for t in parts:
                out[_bal_ctr(x, t)] = dom
        return out

    suffix = "buggy" if buggy else variant
    return Implementation(name=f"bal_{suffix}", source="bal", targets=("sv",),
                          mapping=mapping,
                          reserved_prefixes=("__bal_",),
                          loc_domains=domains,
                          extra_wids=lambda c, pr: {t: frozenset({_BAL_DUMMY_WID})
                                                    for t in c.thread_node})


def _rbl_cell(x: str, i: int) -> str:
    return f"__rbl_{x}_c{i}"


def _rbl_headw(x: str) -> str:
    return f"__rbl_{x}_h"


def _rbl_headr(x: str, t: int) -> str:
    return f"__rbl_{x}_h_t{t}"


def _rbl_wid(x: str) -> str:
    return f"__drbl_{x}"


_RBL_DUMMY_WID = "__drbl0"


def impl_rbl(cfg: NodeConfig, profile: ClientProfile) -> Implementation:
    """The ring buffer over shared variables.

    Cells hold the message length followed by the payload; the writer's
    head names the next free cell and each reader head the next cell to
    read.  The writer publishes cells, waits for the previous head
    broadcast to have picked up its value, then advances and broadcasts
    the head; readers never outrun the writer head, and push their own
    head back to the writer's node when remote.
    """

    def mapping(t: int, m: str, args: tuple) -> Program:
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
                if not (isinstance(H, int) and all(isinstance(h, int) for h in heads)):
                    return DEAD
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
                if not (isinstance(H, int) and isinstance(H2, int)):
                    return DEAD
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

    def domains(cfg2: NodeConfig, prof: ClientProfile) -> dict:
        out = {}
        for x, writer in cfg2.wthd.items():
            S = cfg2.capacity[x]
            pool = prof.tuples.get(x, frozenset())
            maxlen = max((len(v) for v in pool), default=1)
            subs = prof.count(writer, "submit", x)
            top = subs * (maxlen + 1)
            heads = frozenset(range(top + 1))
            out[_rbl_headw(x)] = heads
            for r in cfg2.rthd.get(x, frozenset()):
                out[_rbl_headr(x, r)] = heads
            cells = {0} | set(range(1, maxlen + 1)) | \
                {s for v in pool for s in v}
            for i in range(S):
                out[_rbl_cell(x, i)] = frozenset(cells)
        return out

    def wids(c: NodeConfig, pr: ClientProfile):
        ds = frozenset({_RBL_DUMMY_WID} | {_rbl_wid(x) for x in c.wthd})
        return {t: ds for t in c.thread_node}

    return Implementation(name="rbl", source="rbl", targets=("sv",),
                          mapping=mapping,
                          reserved_prefixes=("__rbl_", "__drbl"),
                          loc_domains=domains, extra_wids=wids)


def _msw_slot(x: str, i: int) -> str:
    return f"__msw_{x}_{i}"


def impl_msw(cfg: NodeConfig, profile: ClientProfile) -> Implementation:
    """Mixed-size cells over the wait-based model: slot 0 carries an
    injective digest of the payload, written first and checked on read."""

    def mapping(t: int, m: str, args: tuple) -> Program:
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

    def extend(cfg2: NodeConfig, prof: ClientProfile) -> NodeConfig:
        loc_node = dict(cfg2.loc_node)
        for x, k in cfg2.size.items():
            n = cfg2.node_of_loc(x)
            for i in range(k + 1):
                loc_node[_msw_slot(x, i)] = n
        return replace(cfg2, loc_node=loc_node)

    def domains(cfg2: NodeConfig, prof: ClientProfile) -> dict:
        out = {}
        pools: dict[int, set] = {}
        for x, pool in prof.tuples.items():
            if x in cfg2.size:
                for v in pool:
                    pools.setdefault(len(v), set()).add(v)
        for x, k in cfg2.size.items():
            pool = pools.get(k, set())
            out[_msw_slot(x, 0)] = frozenset({0} | {hash_tuple(v) for v in pool})
            scal = frozenset({0} | {s for v in pool for s in v})
            for i in range(k):
                out[_msw_slot(x, i + 1)] = scal
        return out

    return Implementation(name="msw", source="msw", targets=("rl",),
                          mapping=mapping,
                          reserved_prefixes=("__msw_",),
                          extend_config=extend, loc_domains=domains)


def _set_loc(t: int, d, n: int) -> str:
    return f"__set_t{t}_{d}_{n}"


def impl_w(cfg: NodeConfig, profile: ClientProfile) -> Implementation:
    """The wait-based model over the poll-based one.

    Put/get identifiers are recorded in a per-(thread, work id, node) set;
    a wait polls each node until its set drains, removing each polled
    identifier from all of the thread's sets for that node.
    """

    def wids_of(t: int):
        return sorted(profile.wids.get(t, frozenset()), key=repr)

    def mapping(t: int, m: str, args: tuple) -> Program:
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

            def drain(n: int) -> Program:
                def body(v) -> Program:
                    removes = [Call("set_remove", (_set_loc(t, dk, n), v))
                               for dk in wids_of(t)]
                    return seq(*removes, Val(UNIT)) if removes else Val(UNIT)

                return Loop(let(Call("set_isempty", (_set_loc(t, d, n),)),
                                lambda b: Break(1, UNIT) if b is True
                                else let(Call("poll", (n,)), body)))

            return seq(*[drain(n) for n in sorted(cfg.nodes)], Val(UNIT))
        raise InvalidInput(m)

    return Implementation(name="w", source="rl", targets=("tso",),
                          mapping=mapping,
                          reserved_prefixes=("__set_",))


_BUILTINS = {
    "sv": impl_sv,
    "rbl": impl_rbl,
    "msw": impl_msw,
    "w": impl_w,
    "bal_weak": lambda cfg, prof: impl_bal(cfg, prof, variant="weak"),
    "bal_transitive": lambda cfg, prof: impl_bal(cfg, prof, variant="transitive"),
    "bal_buggy": lambda cfg, prof: impl_bal(cfg, prof, variant="weak", buggy=True),
}


def builtin_impl(name: str, cfg: NodeConfig,
                 profile: ClientProfile | None = None) -> Implementation:
    try:
        ctor = _BUILTINS[name]
    except KeyError:
        raise InvalidInput(f"unknown implementation {name!r}")
    return ctor(cfg, profile or ClientProfile())


# ---------------------------------------------------------------------------
# Well-definedness


def check_well_defined(impl: Implementation, cfg: NodeConfig,
                       arg_grid: Mapping[str, Sequence[tuple]],
                       loop_bound: int = 3,
                       value_domain=frozenset({0, 1})) -> list[str]:
    """Break-depth and non-emptiness checks over an argument grid.

    Returns a list of violation descriptions (empty = well defined): an
    implementation body may never return a positive break depth and every
    terminating unfolding must contain at least one event.
    """
    problems = []
    for m, arglists in arg_grid.items():
        for args in arglists:
            for t in sorted(cfg.thread_node):
                prog = impl.mapping(t, m, args)
                r = interpret_seq(prog, t, loop_bound, value_domain)
                for out, g in r.results:
                    if out.brk > 0:
                        problems.append(f"{impl.name}.{m}{args} on t{t}: "
                                        f"break depth {out.brk}")
                    if out.brk == 0 and not g.events:
                        problems.append(f"{impl.name}.{m}{args} on t{t}: "
                                        f"empty successful unfolding")
    return problems


# ---------------------------------------------------------------------------
# Soundness harness


@dataclass
class SoundnessReport:
    """Outcome inclusion of a compiled program in its specification.

    ``inconclusive`` is set when the compiled side is bound-limited and has
    no outcome at all: inclusion would then hold vacuously, so ``included``
    is False without any counterexample.
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
    """Apply a chain of implementations, threading config and profile.

    Each stage may introduce reserved locations, per-location domains, and
    work identifiers that later stages (notably the wait-to-poll compiler)
    must know about.  Returns (compiled programs, extended config,
    extended profile, accumulated per-location scalar domains).
    """
    compiled = list(progs)
    loc_domains: dict = {}
    for impl in impls:
        compiled = apply_impl(impl, compiled, profile.locs)
        cfg = impl.extend_config(cfg, profile)
        loc_domains.update(impl.loc_domains(cfg, profile))
        wids = {t: frozenset(w) for t, w in profile.wids.items()}
        for t, extra in impl.extra_wids(cfg, profile).items():
            wids[t] = wids.get(t, frozenset()) | frozenset(extra)
        profile = replace(profile, wids=wids)
    return compiled, cfg, profile, loc_domains


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
    spec_ctx = OutputCtx(scalars=profile.scalars, tuples=dict(profile.tuples))
    spec = outcomes(progs, list(spec_libs), cfg, bounds, spec_ctx,
                    outputs_only=True)

    compiled, cfg2, _prof2, loc_scalars = compile_stack(progs, impls, cfg, profile)
    impl_ctx = OutputCtx(scalars=profile.scalars, loc_scalars=loc_scalars,
                         tuples=dict(profile.tuples))
    comp = outcomes(compiled, list(impl_libs), cfg2,
                    impl_bounds or bounds, impl_ctx, outputs_only=True)

    spec_set = frozenset(o.outputs for o in spec.outcomes)
    impl_set = frozenset(o.outputs for o in comp.outcomes)
    missing = sorted(impl_set - spec_set, key=repr)
    inconclusive = not impl_set and comp.truncated
    return SoundnessReport(included=not missing and not inconclusive,
                           counterexamples=missing,
                           spec_outcomes=spec_set, impl_outcomes=impl_set,
                           spec_truncated=spec.truncated,
                           impl_truncated=comp.truncated,
                           inconclusive=inconclusive)
