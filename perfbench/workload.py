"""One benchmark workload, set up and run in a process of its own.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --mode setup|time|trace [--trace-out FILE]

The process imports ``rdmacheck`` from ``src/``, parses and builds every
item of the workload and compiles each tower, then prints ``ready``
(``run.py`` times set-up up to that line).  In ``setup`` mode it stops
there.  Otherwise it runs whole passes over the items, each pass in an
order shuffled by the seed, until the next pass would end after
``--seconds``.  Its last line is one JSON object with the raw timings:
wall time, time net of the reference ticks and reference speed, for
set-up, for every run of every verdict and for every pass.  One
operation is one verdict; a wrong verdict or an exception is a failed
operation.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = ROOT / "corpus"
MSW_INPUT = HERE / "inputs" / "msw_put_tryread.litmus"

MIN_PASSES = 3

# bug1 compiled with the fence-less barrier: thread t3 reads r = 0, which
# the barrier specification forbids.  This is the paper's barrier bug.
BUG1_COUNTEREXAMPLE = ((), (), (0,))


@dataclass(frozen=True)
class Item:
    """One verdict: a litmus file at its own bounds, or a soundness check
    of ``impl`` on that file's client at loop/event bounds for the
    compiled side (the specification side keeps the file's bounds)."""

    path: Path
    impl: str | None = None
    loop: int = 0
    events: int = 0
    counterexample: tuple | None = None

    @property
    def name(self) -> str:
        return self.path.stem if self.impl is None else f"{self.impl}/{self.path.stem}"


def _corpus(stem: str) -> Path:
    return CORPUS / f"{stem}.litmus"


def corpus_items() -> list[Item]:
    return [Item(p) for p in sorted(CORPUS.glob("*.litmus"))] + [Item(MSW_INPUT)]


def tower_rdma_items() -> list[Item]:
    sv = [Item(_corpus(s), "sv", 3, 32) for s in
          ("fig4_gf_sb", "fig6a_bcast_mp", "fig6b_bcast_3node", "fig6c_bcast_cycle")]
    w = [Item(_corpus(s), "w", 3, 32) for s in
         ("fig2a_wait", "fig2b_wait", "fig3_sb_put_wait", "fig3_sb_get_wait",
          "fig8a_sb", "fig8b_mp", "fig8c_rmp")]
    return sv + w + [Item(MSW_INPUT, "msw", 3, 32)]


def tower_sv_items() -> list[Item]:
    return [
        Item(_corpus("fig5_barrier"), "bal_weak", 3, 20),
        Item(_corpus("fig12_weakbar"), "bal_weak", 3, 28),
        Item(_corpus("bug1_barrier"), "bal_weak", 3, 26),
        Item(_corpus("fig12_weakbar"), "bal_buggy", 3, 24),
        Item(_corpus("bug1_barrier"), "bal_buggy", 3, 26, BUG1_COUNTEREXAMPLE),
        Item(_corpus("appf_rbl_bal"), "rbl", 3, 30),
    ]


WORKLOADS = {"corpus": corpus_items, "tower-rdma": tower_rdma_items,
             "tower-sv": tower_sv_items}


# ---------------------------------------------------------------------------
# Set-up


def make_libs(names) -> list:
    from rdmacheck.libraries import make_library
    libs = []
    for name, variant in names:
        if name == "bal":
            libs.append(make_library("bal", bal_variant=variant or "weak"))
        elif name == "rbl":
            libs.append(make_library("rbl", rbl_mode=variant or "strict"))
        else:
            libs.append(make_library(name))
    return libs


@dataclass
class Prepared:
    item: Item
    built: object
    args: tuple = ()        # positional arguments of check_soundness
    kwargs: dict | None = None


def prepare(item: Item) -> Prepared:
    """Parse and build the client; for a tower, also compile it once."""
    from rdmacheck import compilers, litmus
    from rdmacheck.checker import Bounds

    test = litmus.parse_litmus(item.path.read_text(), name=item.path.stem)
    built = litmus.build_test(test)
    if item.impl is None:
        return Prepared(item, built)
    impl = compilers.builtin_impl(item.impl, built.cfg, built.profile)
    target = [(n, v) for n, v in built.libs if n != impl.source]
    target += [(t, None) for t in impl.targets
               if t not in {n for n, _ in target}]
    compilers.compile_stack(built.programs, [impl], built.cfg, built.profile)
    return Prepared(item, built,
                    (built.programs, impl, make_libs(built.libs),
                     make_libs(target), built.cfg, test.bounds, built.profile),
                    {"impl_bounds": Bounds(item.loop, item.events)})


# ---------------------------------------------------------------------------
# Verdict checks, against answers written apart from the program


def _reg_positions(built) -> dict:
    threads = [t for t, _ in built.test.threads]
    pos, seen = {}, Counter()
    for tname, reg in built.registers:
        ti = threads.index(tname)
        pos[reg] = (ti, seen[ti])
        seen[ti] += 1
    return pos


def assertion_failures(built, outputs) -> list[str]:
    """The file's register assertions evaluated on a set of output tuples.

    Assertions on memory cells cannot be read off output tuples; the
    corpus workload checks those through ``run_file``.
    """
    pos = _reg_positions(built)

    def val(o, reg):
        ti, k = pos[reg]
        return o[ti][k]

    fails = []
    for a in built.test.assertions:
        if a.kind == "exact":
            got = {tuple(val(o, r) for r in a.regs) for o in outputs}
            if got != set(a.tuples):
                fails.append(f"exact ({', '.join(a.regs)}): got {sorted(got, key=repr)}")
            continue
        if any(kind != "reg" for kind, _k, _v in a.terms):
            continue
        hit = any(all(val(o, r) == v for _kind, r, v in a.terms) for o in outputs)
        if hit != (a.kind == "allowed"):
            fails.append(f"{a.kind} {a.terms} {'missing' if not hit else 'found'}")
    return fails


def tower_failure(prep: Prepared, rep) -> str | None:
    item = prep.item
    if item.counterexample is not None:
        if rep.included or list(rep.counterexamples) != [item.counterexample]:
            return (f"expected NOT included with counterexample "
                    f"{item.counterexample}, got {rep.summary()} "
                    f"{rep.counterexamples}")
    else:
        if not rep.impl_outcomes:
            return "vacuous: included from 0 compiled outcomes"
        if not rep.included or not rep.impl_outcomes <= rep.spec_outcomes:
            return f"{rep.summary()}: {rep.counterexamples}"
    fails = assertion_failures(prep.built, rep.spec_outcomes)
    return f"spec outcomes break assertions: {fails}" if fails else None


def verdict(prep: Prepared) -> tuple[object, str | None]:
    """Run one verdict; return (its observable result, failure or None)."""
    from rdmacheck import compilers, runner
    if prep.item.impl is None:
        r = runner.run_file(prep.item.path)
        fail = None if r.verdict == runner.PASS else f"{r.verdict}: {r.failures}"
        return tuple(r.outcomes), fail
    rep = compilers.check_soundness(*prep.args, **prep.kwargs)
    return (rep.impl_outcomes, rep.spec_outcomes), tower_failure(prep, rep)


def run_verdict(prep: Prepared) -> tuple[object, str | None]:
    try:
        return verdict(prep)
    except Exception as e:  # a crash is a failed operation, not a stop
        return None, f"exception: {type(e).__name__}: {e}"


# The reference: a fixed transitive closure over sets of tuples, the same
# kind of pure-Python work as the checker's.  A 10 ms interval timer runs
# it between the program's bytecodes throughout set-up and every verdict,
# so its mean time tracks how fast this machine runs Python at that moment
# (see README.md).  Its time is taken out of the verdict's time.
_REF_EDGES = [((i * 7919) % 23, (i * 104729) % 23) for i in range(40)]
TICK_PERIOD_S = 0.01


def reference() -> None:
    succ: dict = {}
    for a, b in _REF_EDGES:
        succ.setdefault(a, set()).add(b)
    changed = True
    while changed:
        changed = False
        for a in list(succ):
            new = set()
            for b in succ[a]:
                new |= succ.get(b, set())
            if not new <= succ[a]:
                succ[a] |= new
                changed = True


class Ticks:
    """Reference timings taken on SIGALRM: (start, seconds) pairs.

    With a tracer, each tick is a span of its own, so the self times of
    the program's spans leave it out.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.samples: list[tuple[float, float]] = []

    def _tick(self, _signum, _frame) -> None:
        if self.tracer is not None:
            self.tracer.enter("perfbench.reference")
        t0 = time.perf_counter()
        reference()
        self.samples.append((t0, time.perf_counter() - t0))
        if self.tracer is not None:
            self.tracer.leave()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD_S, TICK_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def speeds(self, windows: list[tuple]) -> list[tuple[float, float]]:
        """For each (t0, t1) window: (reference time inside it, reference
        speed around it).

        The speed is the mean time of the ticks inside the window and two
        on each side, so a verdict shorter than a tick still has one,
        without the slowest tenth: a tick the host preempts says little
        about the verdict around it.
        """
        starts = [t for t, _ in self.samples]
        out = []
        for t0, t1 in windows:
            a, b = bisect.bisect_left(starts, t0), bisect.bisect_right(starts, t1)
            inside = sum(d for _, d in self.samples[a:b])
            around = sorted(d for _, d in self.samples[max(0, a - 2):b + 2])
            out.append((inside, statistics.fmean(around[:len(around) - len(around) // 10])))
        return out


class Passes:
    """Whole passes over the prepared items.

    ``log`` holds, for each pass, the (item index, start, end) of each
    verdict in the order they ran.
    """

    def __init__(self, preps: list[Prepared], seed: int):
        self.preps = preps
        self.rng = random.Random(seed)
        self.log: list[list[tuple[int, float, float]]] = []
        self.failures: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, object] = {}
        self.inconsistent: list[str] = []

    def run_pass(self) -> None:
        order = list(range(len(self.preps)))
        self.rng.shuffle(order)
        log = []
        for i in order:
            gc.collect()
            t0 = time.perf_counter()
            res, fail = run_verdict(self.preps[i])
            log.append((i, t0, time.perf_counter()))
            self.attempted += 1
            if fail is not None:
                self.failed += 1
                self.failures[self.preps[i].item.name] = fail
            if i not in self.first:
                self.first[i] = res
            elif res != self.first[i]:
                self.inconsistent.append(self.preps[i].item.name)
        self.log.append(log)

    def run_for(self, seconds: float, tracer=None) -> None:
        t0 = time.perf_counter()
        walls = []
        while True:
            if tracer is not None:
                tracer.start_pass(len(self.log))
            self.run_pass()
            walls.append(sum(b - a for _, a, b in self.log[-1]))
            elapsed = time.perf_counter() - t0
            if (len(walls) >= MIN_PASSES
                    and elapsed + statistics.median(walls) > seconds):
                return

    def timings(self, ticks: Ticks) -> tuple[list, list]:
        """(wall, net of ticks, reference speed) for each run of each item,
        and for each pass (the sums of its verdicts, the speed over it)."""
        flat = [v for log in self.log for v in log]
        speeds = ticks.speeds([(t0, t1) for _, t0, t1 in flat])
        runs: list[list] = [[] for _ in self.preps]
        for (i, t0, t1), (inside, speed) in zip(flat, speeds):
            runs[i].append((t1 - t0, t1 - t0 - inside, speed))
        pass_speeds = ticks.speeds([(log[0][1], log[-1][2]) for log in self.log])
        passes, k = [], 0
        for log, (_inside, speed) in zip(self.log, pass_speeds):
            mine = [(t1 - t0, t1 - t0 - inside)
                    for (_i, t0, t1), (inside, _s) in zip(log, speeds[k:k + len(log)])]
            k += len(log)
            passes.append((sum(w for w, _ in mine), sum(n for _, n in mine), speed))
        return runs, passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    ap.add_argument("--trace-out", type=Path, default=None)
    args = ap.parse_args(argv)

    t_start = time.perf_counter()
    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ticks = Ticks(tracer)
    ticks.start()
    try:
        out = run(args, tracer, ticks, t_start)
    finally:
        ticks.stop()
    print(json.dumps(out))
    return 0


def run(args, tracer, ticks: Ticks, t_start: float) -> dict:
    preps = [prepare(it) for it in WORKLOADS[args.workload]()]
    t_ready = time.perf_counter()
    print("ready", flush=True)
    while sum(t > t_ready for t, _ in ticks.samples) < 2:
        signal.pause()      # two ticks after set-up, to time its end
    [(tick_s, speed)] = ticks.speeds([(t_start, t_ready)])
    out: dict = {"setup": {"wall_s": t_ready - t_start, "tick_s": tick_s,
                           "speed": speed}}
    if args.mode == "setup":
        return out

    passes = Passes(preps, args.seed)
    passes.run_for(args.seconds, tracer)
    ticks.stop()
    runs, pass_timings = passes.timings(ticks)
    out.update({
        "items": [p.item.name for p in preps],
        "runs": runs,
        "passes": pass_timings,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "failures": passes.failures,
        "inconsistent": sorted(set(passes.inconsistent)),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    if tracer is not None:
        out.update(self_s=tracer.self_s, counts=tracer.counts, calls=tracer.calls)
        if args.trace_out is not None:
            tracer.dump(args.trace_out, {"workload": args.workload,
                                         "seed": args.seed,
                                         "items": out["items"],
                                         "passes": pass_timings})
    return out


if __name__ == "__main__":
    sys.exit(main())
