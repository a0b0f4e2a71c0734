"""Run every workload for several seeds and print each metric's spread.

    python3 perfbench/suite.py [--seeds 1 2 ... 10] [--workloads scan cli]
                               [--seconds S] [--trace 0|1]

Workloads are interleaved (seed 1 on every workload, then seed 2, ...), so
a drift in host speed reaches them all alike.  Each invocation of run.py is
a separate process.  For each workload and metric the table gives the
median, the quartiles as ``statistics.quantiles(values, n=4)`` computes them,
and the spread: (q3 - q1) / median.  With ``--trace 0`` the spread is
compared with a third of the metric's bound from BENCHMARK.json.  The
failed_ratio column is failed / attempted summed over the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            results[w].append(out)
            values = " ".join(f"{k}={m['value']:.4g}" for k, m in out["metrics"].items()
                              if not k.endswith(".calls"))
            print(f"{w} seed {seed}: correct={out['correct']} "
                  f"failed={out['failed']}/{out['attempted']} {values}", file=sys.stderr)

    ok = True
    for w, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{w}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed_ratio={failed / attempted:.4g} ({failed}/{attempted})")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            line = (f"  {name:40} {med:12.6g} {first['unit']:6} "
                    f"q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.4f}")
            if name in bounds:
                steady = spread < bounds[name] / 3
                ok &= steady or name == "setup_s"
                line += f"  bound={bounds[name]} {'ok' if steady else 'WIDE'}"
            print(line)
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
