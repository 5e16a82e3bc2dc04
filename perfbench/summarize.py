"""Summarise the runs saved in perfbench/out/ into the README's tables.

    for s in 1 2 3 4 5 6 7 8 9 10; do for w in corpus tower-rdma tower-sv; do
      python3 perfbench/run.py --workload $w --seed $s --seconds 30 --trace 0
      python3 perfbench/run.py --workload $w --seed $s --seconds 30 --trace 1
    done; done
    python3 perfbench/summarize.py

For each workload it prints every metric's median over the saved runs and
its spread (distance between the first and third quartile over the
median), whether the traced counts repeated exactly, and the tracing
overhead: the median time of one pass, traced minus untraced, both at
reference speed and net of the reference ticks.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from run import at_reference_speed

OUT = Path(__file__).resolve().parent / "out"


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def pass_s(raw: dict) -> float:
    """Median time of one pass at reference speed, net of the ticks."""
    return statistics.median(at_reference_speed(net, speed)
                             for _wall, net, speed in raw["passes"])


def main() -> None:
    runs: dict = defaultdict(list)
    for f in sorted(OUT.glob("run-*.json")):
        raw = json.loads(f.read_text())
        workload, trace = f.stem[4:].rsplit("-seed", 1)[0], f.stem[-1]
        runs[workload, trace].append(raw)
    for workload in sorted({w for w, _ in runs}):
        print(f"## {workload}")
        pass_times = {}
        for trace in ("0", "1"):
            rs = runs.get((workload, trace), [])
            if not rs:
                continue
            res = [r["result"] for r in rs]
            pass_times[trace] = statistics.median(pass_s(r) for r in rs)
            print(f"trace {trace}: {len(rs)} runs, attempted "
                  f"{sorted({x['attempted'] for x in res})}, failed "
                  f"{sorted({x['failed'] for x in res})}, all correct: "
                  f"{all(x['correct'] for x in res)}")
            for name in res[0]["metrics"]:
                vals = [x["metrics"][name]["value"] for x in res]
                unit = res[0]["metrics"][name]["unit"]
                same = "" if trace == "0" or len(set(vals)) > 1 else "  (same in every run)"
                print(f"  {name:30s} {statistics.median(vals):12.6g} {unit:6s} "
                      f"spread {spread(vals):.3f}{same}")
        if len(pass_times) == 2:
            t0, t1 = pass_times["0"], pass_times["1"]
            print(f"tracing overhead: {t1 - t0:+.4f} s per pass, {t1 / t0 - 1:+.0%} "
                  f"(traced {t1:.4f} s, untraced {t0:.4f} s)")
        print()


if __name__ == "__main__":
    main()
