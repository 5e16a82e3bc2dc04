"""Benchmark of rdmacheck verdicts: litmus corpus and soundness towers.

    python3 perfbench/run.py --workload corpus|tower-rdma|tower-sv \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own
single-threaded process (``workload.py``) with ``PYTHONHASHSEED`` pinned.
With ``--trace 0`` the run also starts ``SETUP_SAMPLES`` set-up-only
processes and prints the end-to-end metrics; with ``--trace 1`` it runs
the workload under ``tracing.py`` and prints the per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Raw samples go to
``perfbench/out/``.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import LIBRARY_CLASSES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("corpus", "tower-rdma", "tower-sv")
HASH_SEED = "0"
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170.0
# Typical time of one reference tick (workload.reference) on the machine the
# benchmark was made on (2 vCPU x86-64, CPython 3.11).  Timed figures are
# reported as the seconds they would take at that speed.
REF_S = 0.0003


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: float, mode: str,
              deadline: float) -> tuple[float, dict]:
    """Start one workload process; return (seconds to ``ready``, its JSON)."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if mode == "trace":
        cmd += ["--trace-out", str(OUT / f"trace-{workload}-seed{seed}.jsonl")]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT) as p:
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), p.kill)
        watchdog.start()
        try:
            first = p.stdout.readline()
            ready_s = time.perf_counter() - t0
            rest = p.stdout.read()
            code = p.wait()
        finally:
            watchdog.cancel()
    if first.strip() != "ready" or code != 0:
        raise ChildFailed(f"{workload} ({mode}) exited with code {code}")
    return ready_s, json.loads(rest.strip().splitlines()[-1])


def gmean(xs) -> float:
    return math.exp(statistics.fmean(math.log(x) for x in xs))


def at_reference_speed(seconds: float, ref_s: float) -> float:
    """Wall seconds scaled to a machine that runs the reference in REF_S."""
    return seconds * REF_S / ref_s


def end_to_end(raw: dict, setup: list[float]) -> dict:
    per_verdict = [statistics.median(at_reference_speed(net, speed)
                                     for _wall, net, speed in runs)
                   for runs in raw["runs"]]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (sum(per_verdict), "s"),
        "verdict_s.gmean": (gmean(per_verdict), "s"),
        "slowest_verdict_s": (max(per_verdict), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(raw: dict) -> tuple[dict, bool]:
    """Set-up plus one pass, per layer: self times at reference speed
    (median over passes) and counts (which must repeat in every pass)."""
    speed = {"setup": raw["setup"]["speed"]}
    speed.update((f"pass{k}", s) for k, (_w, _n, s) in enumerate(raw["passes"]))
    setup_n = raw["counts"].get("setup", {})
    passes = [p for p in raw["self_s"] if p != "setup"]
    steady = all(raw["counts"].get(p, {}) == raw["counts"].get(passes[0], {})
                 for p in passes)
    pass_n = raw["counts"].get(passes[0], {})

    def self_s(phase: str, name: str) -> float:
        return at_reference_speed(raw["self_s"].get(phase, {}).get(name, 0.0),
                                  speed[phase])

    def secs(name: str) -> float:
        return self_s("setup", name) + statistics.median(
            self_s(p, name) for p in passes)

    def count(name: str) -> int:
        return setup_n.get(name, 0) + pass_n.get(name, 0)

    plain = count("lang.plain_execs")
    m = {name: (secs(name), "s") for name in (
        "litmus.parse_s", "litmus.build_s", "compilers.compile_s",
        "lang.unfold_s", "checker.stamp_s", "stamps.ppo_s",
        "relations.closure_s", "relations.add_edges_s", "runner.assert_s")}
    m.update({name: (count(name), "count") for name in (
        "lang.plain_execs", "checker.accepted_execs", "stamps.ppo_pairs",
        "relations.cycle_vetoes", "libraries.post_check_vetoes")})
    m["lang.events_per_exec"] = (count("lang.events") / plain if plain else 0.0,
                                 "events")
    m["checker.accept_ratio"] = (count("checker.accepted_execs") / plain
                                 if plain else 0.0, "ratio")
    for lib in LIBRARY_CLASSES:
        m[f"libraries.{lib}.witness_s"] = (secs(f"libraries.{lib}.witness_s"), "s")
        m[f"libraries.{lib}.witnesses"] = (count(f"libraries.{lib}.witnesses"),
                                           "count")
    return m, steady


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rdmacheck").is_dir() or not (ROOT / "corpus").is_dir():
        print(f"no rdmacheck sources under {ROOT}: run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        if args.trace:
            _, raw = run_child(args.workload, args.seed, args.seconds, "trace",
                               deadline)
            metrics, steady = per_layer(raw)
        else:
            setup = []
            for i in range(SETUP_SAMPLES):
                mode = "time" if i == SETUP_SAMPLES - 1 else "setup"
                ready_s, raw = run_child(args.workload, args.seed, args.seconds,
                                         mode, deadline)
                setup.append(at_reference_speed(
                    ready_s - raw["setup"]["tick_s"], raw["setup"]["speed"]))
            raw["setup_s"] = setup
            metrics, steady = end_to_end(raw, setup), True
    except ChildFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    for name, why in sorted(raw["failures"].items()):
        print(f"FAILED {name}: {why}", file=sys.stderr)
    for name in raw["inconsistent"]:
        print(f"INCONSISTENT {name}: repeated verdicts disagree", file=sys.stderr)
    correct = raw["failed"] == 0 and not raw["inconsistent"] and steady
    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    raw["result"] = result
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"run-{tag}.json").write_text(json.dumps(raw) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
