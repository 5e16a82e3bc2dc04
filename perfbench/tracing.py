"""Spans and counts around the public functions of each rdmacheck layer.

The traced run of a workload calls ``install()`` once, after import and
before set-up.  It rebinds each wrapped function in every loaded
``rdmacheck`` module that imported it, and the methods on each library
class, so the program's own code is unchanged.  A span records name,
start, end and parent; self time is a span's duration minus the time its
child spans cover.  The spans of set-up and of the first passes stay in
memory until ``Tracer.dump``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

clock = time.perf_counter

# Passes after these add to self times and counts but keep no spans, so a
# trace stays a few megabytes however many passes a run makes.
KEEP_SPAN_PASSES = 3

# library short name -> class name in rdmacheck.libraries
LIBRARY_CLASSES = {"rl": "RdmaWaitLib", "tso": "RdmaTsoLib", "sv": "SharedVarLib",
                   "bal": "BarrierLib", "rbl": "RingBufferLib",
                   "msw": "MixedSizeLib"}


class Tracer:
    def __init__(self) -> None:
        self.phase = "setup"
        self.keep_spans = True
        self.spans: list[list] = []         # [name, start, end, parent, phase]
        self.stack: list[list] = []         # [span id, name, start, child time]
        self.self_s: dict = defaultdict(Counter)   # phase -> name -> seconds
        self.calls: dict = defaultdict(Counter)    # phase -> name -> calls
        self.counts: dict = defaultdict(Counter)   # phase -> counter -> n

    def start_pass(self, i: int) -> None:
        self.phase = f"pass{i}"
        self.keep_spans = i < KEEP_SPAN_PASSES

    def count(self, key: str, n: float = 1) -> None:
        self.counts[self.phase][key] += n

    def enter(self, name: str) -> None:
        t = clock()
        sid = None
        if self.keep_spans:
            parent = self.stack[-1][0] if self.stack else None
            self.spans.append([name, t, None, parent, self.phase])
            sid = len(self.spans) - 1
        self.stack.append([sid, name, t, 0.0])

    def leave(self) -> None:
        t = clock()
        sid, name, start, child = self.stack.pop()
        if sid is not None:
            self.spans[sid][2] = t
        dur = t - start
        self.self_s[self.phase][name] += dur - child
        self.calls[self.phase][name] += 1
        if self.stack:
            self.stack[-1][3] += dur

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.leave()
            if on_result is not None:
                on_result(res)
            return res
        traced.__wrapped__ = fn
        return traced

    def wrap_gen(self, name: str, fn, on_item=None, on_first=None):
        """Time a generator only while it computes its next item."""
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            first = True
            while True:
                self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.leave()
                if on_item is not None:
                    on_item(item)
                if first and on_first is not None:
                    on_first()
                first = False
                yield item
        traced.__wrapped__ = fn
        return traced

    def dump(self, path: Path, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            json.dump({"summary": summary,
                       "self_s": self.self_s, "calls": self.calls,
                       "counts": self.counts,
                       "span_fields": ["name", "start", "end", "parent", "phase"]},
                      f)
            f.write("\n")
            for s in self.spans:
                f.write(json.dumps(s))
                f.write("\n")


def _rebind(old, new) -> None:
    """Replace every module-level binding of ``old`` in rdmacheck."""
    for mname, mod in list(sys.modules.items()):
        if mname == "rdmacheck" or mname.startswith("rdmacheck."):
            for k, v in list(vars(mod).items()):
                if v is old:
                    setattr(mod, k, new)


def install(tracer: Tracer) -> None:
    from rdmacheck import (checker, compilers, lang, libraries, litmus,
                           relations, runner, stamps)

    def plain_execs(res) -> None:
        tracer.count("lang.plain_execs", len(res.results))
        tracer.count("lang.events", sum(len(g.events) for _, g in res.results))

    def ppo_pairs(rel) -> None:
        tracer.count("stamps.ppo_pairs", len(rel))

    def add_edges_result(ok) -> None:
        if not ok:
            tracer.count("relations.cycle_vetoes")

    def post_check_result(ok) -> None:
        if not ok:
            tracer.count("libraries.post_check_vetoes")

    funcs = [
        (litmus.parse_litmus, "litmus.parse_s", None),
        (litmus.build_test, "litmus.build_s", None),
        (compilers.compile_stack, "compilers.compile_s", None),
        (compilers.check_soundness, "compilers.check_soundness", None),
        (runner.run_file, "runner.run_file", None),
        (runner.run_litmus, "runner.assert_s", None),
        (checker.outcomes, "checker.outcomes", None),
        (checker.stamp_events, "checker.stamp_s", None),
        (lang.interpret_conc, "lang.unfold_s", plain_execs),
        (stamps.derive_ppo, "stamps.ppo_s", ppo_pairs),
    ]
    for fn, name, hook in funcs:
        _rebind(fn, tracer.wrap(name, fn, hook))

    enum = checker.enumerate_consistent
    _rebind(enum, tracer.wrap_gen(
        "checker.enumerate_consistent", enum,
        on_first=lambda: tracer.count("checker.accepted_execs")))

    io = relations.IncrementalOrder
    io.__init__ = tracer.wrap("relations.closure_s", io.__init__)
    io.copy = tracer.wrap("relations.copy_s", io.copy)
    io.add_edges = tracer.wrap("relations.add_edges_s", io.add_edges,
                               add_edges_result)

    for short, cname in LIBRARY_CLASSES.items():
        cls = getattr(libraries, cname)
        key = f"libraries.{short}.witnesses"
        cls.witnesses = tracer.wrap_gen(
            f"libraries.{short}.witness_s", cls.witnesses,
            on_item=lambda _w, key=key: tracer.count(key))
        cls.post_check = tracer.wrap(f"libraries.{short}.post_check",
                                     cls.post_check, post_check_result)
