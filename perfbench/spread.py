"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve --seeds 1-10 \
        [--seconds 36] [--trace 0] [--out runs.jsonl]

Prints, per metric, the median, the quartiles (``statistics.quantiles``
with n=4) and the inter-quartile distance as a share of the median, plus
the wall time of each run.  The runs are sequential.  ``--out`` appends
each run's result, with the timed walls and probes of its ``samples``
stderr line, as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out")
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    runs = []
    for seed in seeds(a.seeds):
        cmd = bench["command"] + ["--workload", a.workload, "--seed",
                                  str(seed), "--seconds", str(seconds),
                                  "--trace", str(a.trace)]
        t = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.monotonic() - t
        if proc.returncode != 0:
            print(proc.stderr[-3000:], file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["seed"], res["wall_s"] = seed, wall
        res["samples"] = next((json.loads(line.split(" ", 1)[1]) for line
                               in proc.stderr.splitlines()
                               if line.startswith("samples ")), None)
        runs.append(res)
        print(f"seed {seed}: {wall:.1f} s correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}",
              file=sys.stderr, flush=True)
        if a.out:
            with open(a.out, "a") as f:
                f.write(json.dumps(res) + "\n")
    print(f"{a.workload}: {len(runs)} runs, wall "
          f"{statistics.median(r['wall_s'] for r in runs):.1f} s median")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (med, med, med)
        share = (q3 - q1) / med if med else float("nan")
        print(f"  {name:34s} median {med:12.6g}  q1 {q1:12.6g}  "
              f"q3 {q3:12.6g}  iqr/median {share:7.2%}")
    fails = {r["failed"] / r["attempted"] for r in runs}
    print(f"  failed share: {sorted(fails)}  all correct: "
          f"{all(r['correct'] for r in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
