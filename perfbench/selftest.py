"""Self-test of the traced run: an injected delay shows in its own layer.

    python3 perfbench/selftest.py [--seed 7] [--seconds 4]

Runs the traced ``serve`` workload four times on one seed: twice as is,
once with a delay injected around the driver-side merge
(``_merge_topk_driver``, one span per call) and once with a delay
injected around ``SegmentSearcher.search`` inside the shard actor and
Ray workers (one span per segment).  The delay is injected by the
benchmark's own wrapper (``BENCH_INJECT``), not by the program.  For
each injection the metrics that read the slowed layer
(``layers.SOURCES``) must grow by at least 3/4 of the delay added per
operation, and every other layer metric must move by less than 1/4 of
it plus twice what it moved between the two plain runs (single cold
builds and calls vary that much on their own).  Prints one line per
check and exits non-zero if any fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.layers import SOURCES  # noqa: E402

# (layer, seconds per span, spans per operation of the metrics it feeds)
INJECTIONS = [("merge", 1.0, 1), ("seg.search", 0.1, 10)]


def traced_run(seed: int, seconds: float, inject: str | None) -> dict:
    env = dict(os.environ)
    env.pop("BENCH_INJECT", None)
    if inject:
        env["BENCH_INJECT"] = inject
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "serve", "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit(f"traced run failed (inject={inject})")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"traced run gave wrong results (inject={inject})")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=4)
    a = p.parse_args()
    base = traced_run(a.seed, a.seconds, None)
    again = traced_run(a.seed, a.seconds, None)
    ok = True
    timed = [m for m in SOURCES if SOURCES[m] and m.endswith("_s")]
    for layer, delay, spans in INJECTIONS:
        slow = traced_run(a.seed, a.seconds, f"{layer}:{delay}")
        added = delay * spans
        for m in timed:
            d = slow[m] - base[m]
            if layer in SOURCES[m]:
                good = d >= 0.75 * added
                want = f">= {0.75 * added:.3f}"
            else:
                lim = 0.25 * added + 2 * abs(again[m] - base[m])
                good = abs(d) < lim
                want = f"|d| < {lim:.3f}"
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} inject {layer:10s} "
                  f"{m:30s} d={d:+.4f} s  want {want}")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
