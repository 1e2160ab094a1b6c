"""Core-path benchmark of the vframe_ray fulltext engine.

    python3 perfbench/run.py --workload {serve,oneshot,mixed} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  One closed-loop client drives the
engine's public API on a local Ray session with ``num_cpus`` =
``nproc``.  Set-up builds and extends the index a workload serves (the
first build of the process, which warms the Ray workers) and warms its
query path.  The first half of the timed window calls the query path
in a closed loop, with batches of 16 distinct queries:

- ``serve``: ``QueryService.search`` over one shard actor.
- ``oneshot``: one ``search_index`` call a batch.

The second half times rounds of ``build_index`` over the seeded corpus
and ``extend_index`` with a delta of new conversations, into a fresh
directory.  A traced run then makes untimed calls of the paths its
workload does not time, ``search_mixed`` among them.

Outputs are checked against DuckDB and an
independent tokenization (``oracle.py``).  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of ``layers.py``).
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

N_BASE = 25_000            # turns in the indexed corpus
N_DELTA = 5_000            # turns added by extend_index (new conv_ids)
DELTA_CONV_BASE = 10_000_000
SEGMENTS = 8
DELTA_SEGMENTS = 2
BATCH = 16                 # queries per call
WARMUP_CALLS = 8           # untimed calls before a timed serving phase
COVER_MIXED = 4            # traced runs: untimed search_mixed requests
CHECK_SAMPLE = 3           # calls checked besides the first and the last
ONESHOT_PREDICATES = ["turn_idx >= 0"]   # true for every turn
WORKLOADS = ("serve", "oneshot")


def log(*a) -> None:
    print(*a, file=sys.stderr, flush=True)


def probe_ms() -> float:
    """Fixed pure-Python CPU loop: shows host speed drift."""
    t = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return (time.perf_counter() - t) * 1e3


def rate(units_per_op: float, walls: list[float], parts: int = 4) -> float:
    """Units per second: the median over ``parts`` consecutive runs of
    operations of units over their summed wall, so one stalled stretch
    of the window does not move it."""
    chunks = [c for c in (walls[i * len(walls) // parts:
                                (i + 1) * len(walls) // parts]
                          for i in range(parts)) if c]
    return statistics.median(units_per_op * len(c) / sum(c) for c in chunks)


def tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it; the
    median when there are fewer than forty samples."""
    v = sorted(values)
    return v[len(v) - 11] if len(v) >= 40 else statistics.median(v)


def descendants(root_pid: int) -> list[int]:
    """Every live process descended from ``root_pid``."""
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            kids.setdefault(ppid, []).append(int(name))
    out, todo = [], [root_pid]
    while todo:
        for k in kids.get(todo.pop(), []):
            out.append(k)
            todo.append(k)
    return out


def pss_mb(root_pid: int) -> float:
    """PSS of ``root_pid`` and every process descended from it."""
    total = 0
    for pid in [root_pid] + descendants(root_pid):
        try:
            with open(f"/proc/{pid}/smaps_rollup") as f:
                total += next(int(line.split()[1]) for line in f
                              if line.startswith("Pss:"))
        except (OSError, StopIteration):
            pass
    return total / 1024


def nproc() -> int:
    """CPUs this process may use, as ``nproc`` counts them (it honours
    OMP_NUM_THREADS and the affinity mask)."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return os.cpu_count() or 1


class Bench:
    def __init__(self, args):
        self.args = args
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)
        self.work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
        self.attempted = 0
        self.failed = 0
        self.excluded_s = 0.0      # input generation, the served index
        self.warm_ns: list[tuple[int, int]] = []   # warm-up intervals
        self.probes: list[float] = []
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.t_first_timed: float | None = None
        self.checked = 0

    # ---------------------------------------------------------------- ops
    def op(self, fn, *a, **kw):
        """One engine operation: (result or None if it failed, wall s)."""
        self.attempted += 1
        t = time.monotonic()
        try:
            return fn(*a, **kw), time.monotonic() - t
        except Exception:
            self.failed += 1
            log(traceback.format_exc())
            return None, time.monotonic() - t

    def timed_start(self) -> None:
        if self.t_first_timed is None:
            self.t_first_timed = time.monotonic()
            self.e2e["setup_s"] = (self.t_first_timed - T_START
                                   - self.excluded_s)

    def warm(self, fn, *a, **kw):
        t0 = time.monotonic_ns()
        try:
            return fn(*a, **kw)
        finally:
            self.warm_ns.append((t0, time.monotonic_ns()))

    # ------------------------------------------------------------- inputs
    def make_inputs(self) -> None:
        from perfbench import corpus
        t = time.monotonic()
        seed = self.args.seed
        self.base = corpus.transcripts(N_BASE, seed)
        self.delta = corpus.transcripts(N_DELTA, seed,
                                        conv_base=DELTA_CONV_BASE)
        self.base_paths = corpus.write_parquet(
            self.base, os.path.join(self.work, "in", "base"), seed)
        self.delta_paths = corpus.write_parquet(
            self.delta, os.path.join(self.work, "in", "delta"), seed)
        self.text_bytes = sum(len(s.encode()) for t in (self.base, self.delta)
                              for s in t["text"].to_pylist())
        self.excluded_s += time.monotonic() - t

    # ---------------------------------------------------------------- ray
    def start_ray(self) -> None:
        import ray
        from ray._private import parameter
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(
                os.pathsep) if p])
        tmp = os.path.join(self.work, "ray")
        os.makedirs(tmp, exist_ok=True)
        # Ray names its sockets under <temp>/session_<date>_<pid>/sockets,
        # which passes the 107-byte AF_UNIX limit for checkouts at longer
        # paths; short names directly in the per-run temp dir avoid that.
        init = parameter.RayParams.__init__

        def short_sockets(p, *a, **kw):
            init(p, *a, **kw)
            p.plasma_store_socket_name = os.path.join(tmp, "plasma")
            p.raylet_socket_name = os.path.join(tmp, "raylet")
        parameter.RayParams.__init__ = short_sockets
        runtime_env = {}
        if self.args.trace:
            from perfbench import trace
            self.trace_dir = os.path.join(self.work, "trace")
            os.makedirs(self.trace_dir)
            os.environ[trace.ENV_DIR] = self.trace_dir
            runtime_env["worker_process_setup_hook"] = \
                "perfbench.trace.worker_setup"
        t = time.monotonic()
        ray.init(num_cpus=nproc(), include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 << 20, _temp_dir=tmp,
                 runtime_env=runtime_env or None)
        self.layer["setup.ray_init_s"] = time.monotonic() - t
        parameter.RayParams.__init__ = init
        from ray.data import DataContext
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        if self.args.trace:
            from perfbench import trace
            trace.install()

    def stop_ray(self) -> None:
        import ray
        if hasattr(self, "svc"):
            self.svc.shutdown()
        kids = descendants(os.getpid())
        ray.shutdown()
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            alive = [p for p in kids if _running(p)]
            if not alive:
                return
            time.sleep(0.1)
        for p in alive:
            try:
                os.kill(p, 9)
            except OSError:
                pass
        time.sleep(0.5)

    # ------------------------------------------------------------- engine
    def read(self, paths):
        from vframe_ray.sources.readers import read_parquet
        return read_parquet(paths, columns=["conv_id", "turn_idx", "text"])

    def build(self, index_dir: str):
        from vframe_ray.config import EngineConfig, IndexConfig
        from vframe_ray.index.build import build_index
        cfg = EngineConfig(index=IndexConfig(num_segments=SEGMENTS))
        # the actor-pool builder hangs on a one-CPU session (CHANGES.md)
        return build_index(self.read(self.base_paths), index_dir, cfg,
                           use_actor_pool=False)

    def extend(self, index_dir: str):
        from vframe_ray.index.build import extend_index
        return extend_index(self.read(self.delta_paths), index_dir,
                            num_new_segments=DELTA_SEGMENTS)

    def setup_index(self) -> None:
        """The index the workload serves: the process's first build and
        extend, which also warm the Ray workers.  Left out of setup_s,
        like input generation: the timed rounds time the build path."""
        t = time.monotonic()
        d = self.index_dir = os.path.join(self.work, "index")
        self.base_stats = self.warm(self.build, d)
        self.snapshot = self.read_index(d)
        self.ext_stats = self.warm(self.extend, d)
        self.excluded_s += time.monotonic() - t
        log(f"phase index done {time.monotonic() - T_START:.2f}")

    def read_index(self, d: str) -> dict:
        """Global dictionary and docmaps as they are now (checked later)."""
        import glob
        import pyarrow.parquet as pq
        return {
            "terms": pq.read_table(sorted(glob.glob(os.path.join(
                d, "global", "terms", "*.parquet"))),
                columns=["term", "df", "cf"]),
            "docs": pq.read_table(sorted(glob.glob(os.path.join(
                d, "segments", "*", "docs.parquet"))),
                columns=["conv_id", "turn_idx", "doclen"]),
        }

    # ---------------------------------------------------------- workloads
    def timed_window(self, call, make, per_call: int) -> None:
        """The first half of the window calls ``call(make())`` in a closed
        loop; the second times rounds of one build and one extend of a
        fresh index (whole rounds, so a round may run past the end)."""
        self.timed_start()
        self.calls = []
        half = self.args.seconds / 2
        self.probes.append(probe_ms())
        t_end = time.monotonic() + half
        while not self.calls or time.monotonic() < t_end:
            req = make()
            res, w = self.op(call, req)
            self.calls.append((req, res, w))
        self.probes.append(probe_ms())
        self.rounds = []
        d = os.path.join(self.work, "round")
        t_end = time.monotonic() + half
        t_round = 0.0
        while not self.rounds or time.monotonic() + t_round / 2 <= t_end:
            t = time.monotonic()
            shutil.rmtree(d, ignore_errors=True)
            bstats, wb = self.op(self.build, d)
            estats, we = self.op(self.extend, d)
            self.rounds.append((bstats, wb, estats, we))
            t_round = time.monotonic() - t
        self.probes.append(probe_ms())
        self.layer["mem.pss_mb"] = pss_mb(os.getpid())
        self.round_snapshot = self.read_index(d) \
            if self.rounds[-1][2] is not None else None
        ok = [r for r in self.rounds if r[0] is not None]
        self.e2e["turns_per_s"] = statistics.median(
            N_BASE / r[1] for r in ok) if ok else 0.0
        ok = [r for r in self.rounds if r[2] is not None]
        self.e2e["extend_turns_per_s"] = statistics.median(
            N_DELTA / r[3] for r in ok) if ok else 0.0
        self.e2e["index_bytes_per_text_byte"] = \
            dir_bytes(self.index_dir) / self.text_bytes
        walls = [c[2] for c in self.calls]
        log("samples " + json.dumps({
            "call_s": walls, "build_s": [r[1] for r in self.rounds],
            "extend_s": [r[3] for r in self.rounds], "probe_ms": self.probes}))
        self.e2e["queries_per_s"] = rate(per_call, walls)
        self.e2e["call_p50_ms"] = statistics.median(walls) * 1e3
        self.layer["call_tail_ms"] = tail(walls) * 1e3

    def run_serve(self) -> None:
        from perfbench.corpus import QueryStream
        from vframe_ray.index.service import QueryService
        stream = QueryStream(self.args.seed, BATCH)
        self.svc = self.warm(QueryService, self.index_dir, n_actors=1)
        for _ in range(WARMUP_CALLS):
            self.warm(self.svc.search, stream.batch())
        self.timed_window(self.svc.search, stream.batch, BATCH)

    def oneshot(self, queries):
        from vframe_ray.index.entrypoints import search_index
        return search_index(self.index_dir, queries,
                            predicates=ONESHOT_PREDICATES)

    def run_oneshot(self) -> None:
        from perfbench.corpus import QueryStream
        stream = QueryStream(self.args.seed, BATCH)
        self.warm(self.oneshot, stream.batch())
        self.timed_window(self.oneshot, stream.batch, BATCH)

    def mixed_stream(self):
        from perfbench.corpus import MixedStream
        from perfbench.oracle import tokens
        texts = self.base["text"].to_pylist()
        return MixedStream(self.args.seed,
                           [tokens(texts[i]) for i in range(0, len(texts), 7)])

    def cover(self) -> None:
        """Traced runs only: untimed calls of the query paths the workload
        does not time (one batch, and ``COVER_MIXED`` ``search_mixed``
        requests), so every per-layer metric has operations."""
        from perfbench.corpus import QueryStream
        from vframe_ray.index.service import QueryService
        stream = QueryStream(self.args.seed + 1, BATCH)
        stream.next_id = 1 << 30
        self.extra = []
        if self.args.workload == "serve":
            b = stream.batch()
            self.extra.append(("search", b, self.op(self.oneshot, b)[0]))
        else:
            self.svc = QueryService(self.index_dir, n_actors=1)
            b = stream.batch()
            self.extra.append(("search", b, self.op(self.svc.search, b)[0]))
        mixed = self.mixed_stream()
        for _ in range(COVER_MIXED):
            r = mixed.request()
            self.extra.append(("mixed", r,
                               self.op(self.svc.search_mixed, r)[0]))

    # ------------------------------------------------------------- checks
    def check(self) -> None:
        import numpy as np
        from perfbench import oracle as orc
        o = orc.Oracle([self.base, self.delta])
        want_b, want_e = o.counts((0,)), o.counts((0, 1))
        orc.check_snapshot(self.snapshot, o, (0,), "first build")
        stats = [(self.base_stats, self.ext_stats)] + [
            (r[0], r[2]) for r in self.rounds]
        for bstats, estats in stats:      # None: a failed, counted op
            if bstats is not None:
                orc.check_stats(bstats, want_b, "build")
            if estats is not None:
                orc.check_stats(estats, want_e, "extend")
        orc.check_snapshot(self.read_index(self.index_dir), o, (0, 1),
                           "extended index")
        if self.round_snapshot is not None:
            orc.check_snapshot(self.round_snapshot, o, (0, 1),
                               "last timed round")
        ok = [c for c in self.calls if c[1] is not None]
        rng = np.random.default_rng([self.args.seed, 9])
        pick = {0, len(ok) - 1} | set(rng.choice(
            len(ok), min(CHECK_SAMPLE, len(ok)), replace=False).tolist())
        checks = [("search", ok[i][0], ok[i][1]) for i in sorted(pick)]
        checks += [c for c in getattr(self, "extra", []) if c[2] is not None]
        searches = [q for kind, req, _ in checks
                    for q in (req if kind == "search" else [])]
        want = o.bm25(searches)
        for kind, req, res in checks:
            if kind == "mixed":
                self.checked += orc.check_mixed(res, req, o, kind)
            else:
                orc.check_search(res, req, want, kind)
                self.checked += res.num_rows

    # --------------------------------------------------------------- main
    def run(self) -> dict:
        os.makedirs(self.work, exist_ok=True)
        self.make_inputs()
        log(f"phase inputs done {time.monotonic() - T_START:.2f}")
        try:
            self.start_ray()
            log(f"phase ray up {time.monotonic() - T_START:.2f}")
            self.setup_index()
            getattr(self, f"run_{self.args.workload}")()
            log(f"phase workload done {time.monotonic() - T_START:.2f}")
            self.layer["host.probe_ms"] = statistics.median(self.probes)
            if self.args.trace:
                self.cover()
                self.layer.update(self.per_layer())
        finally:
            self.stop_ray()
        log(f"phase ray down {time.monotonic() - T_START:.2f}")
        correct = True
        try:
            self.check()
        except AssertionError as e:
            log(f"CHECK FAILED: {e}")
            correct = False
        log(f"phase checked {time.monotonic() - T_START:.2f}")
        metrics = self.layer if self.args.trace else self.e2e
        spec = self.spec["per_layer" if self.args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in spec}
        if set(units) != set(metrics):
            raise RuntimeError("metrics do not match BENCHMARK.json: "
                               f"{sorted(set(units) ^ set(metrics))}")
        log(f"e2e {json.dumps(self.e2e)} probe_ms="
            f"{self.layer['host.probe_ms']:.2f} checked={self.checked}")
        return {"correct": correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": units[k]}
                            for k, v in sorted(metrics.items())}}

    def per_layer(self) -> dict[str, float]:
        from perfbench import layers, trace
        spans, lost = trace.collect(self.trace_dir)
        if lost:
            log(f"trace: {lost} worker(s) ended before writing spans")
        return layers.summarize(spans + trace.RECORDER.spans, os.getpid(),
                                self.warm_ns)


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def dir_bytes(d: str) -> int:
    return sum(os.path.getsize(os.path.join(r, f))
               for r, _, fs in os.walk(d) for f in fs)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if importlib.util.find_spec("vframe_ray") is None:
        log(f"vframe_ray is not importable from {ROOT}: run from a "
            "checkout of the repository")
        return 2
    # keep stdout for the result line: everything else, including what
    # Ray's processes inherit, goes to stderr
    result_fd = os.dup(1)
    os.dup2(2, 1)
    bench = Bench(args)
    try:
        result = bench.run()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        if not os.listdir(os.path.dirname(bench.work)):
            os.rmdir(os.path.dirname(bench.work))
    with os.fdopen(result_fd, "w") as out:
        out.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
