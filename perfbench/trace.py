"""Span tracing for the traced benchmark run, from outside the program.

``install()`` wraps public functions of the engine's modules (the table
``LAYERS`` below) with a recorder, in whichever process calls it: the
benchmark's driver calls it directly, and Ray worker and actor processes
call it through ``worker_setup``, which the driver names as Ray's
``worker_process_setup_hook``.  A wrapper is bound wherever the
original was bound in a loaded ``vframe_ray`` module, so names imported
with ``from .codec import decode_all`` are covered too.

Each span is (pid, id, parent id, layer, start ns, end ns, count).  The
clock is ``CLOCK_MONOTONIC``, which all processes of one host share, so
a worker's span can be placed inside the driver call that caused it.
Spans stay in memory.  At the end the driver asks every worker to write
its spans (a ``FLUSH`` file that a polling thread in each worker waits
for) and reads them back.

``BENCH_INJECT=<layer>:<seconds>`` makes that layer's wrapper sleep
inside its span; the self-test uses it to show that a slower layer
shows in its own metric only.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

ENV_DIR = "BENCH_TRACE_DIR"
ENV_INJECT = "BENCH_INJECT"

# (module, attribute or Class.method, layer).  Classes are patched in
# place, so instances pickled to workers by reference stay traced.
LAYERS = [
    # build path
    ("vframe_ray.index.build", "build_index", "build_index"),
    ("vframe_ray.index.build", "extend_index", "extend_index"),
    ("vframe_ray.stages.tokenize", "assign_segment_ids", "assign"),
    ("vframe_ray.index.segment", "build_segment", "segment"),
    ("vframe_ray.analyze", "Tokenizer.tokenize_array", "tokenize_array"),
    ("vframe_ray.index.codec", "encode_postings_batch", "encode"),
    ("ray.data", "Dataset.write_parquet", "exec"),
    ("ray.data", "Dataset.materialize", "exec"),
    ("ray.data", "Dataset.to_pandas", "exec"),
    # query path
    ("vframe_ray.index.service", "QueryService.search", "call.search"),
    ("vframe_ray.index.service", "QueryService.search_mixed", "call.mixed"),
    ("vframe_ray.index.entrypoints", "search_index", "call.oneshot"),
    ("vframe_ray.analyze", "Tokenizer.tokenize", "tokenize"),
    ("vframe_ray.index.searcher", "_global_df_for_terms", "df_lookup"),
    ("vframe_ray.index.searcher", "_merge_topk_driver", "merge"),
    ("ray", "put", "put"),
    ("vframe_ray.index.service", "_ShardSearcher.search", "shard"),
    ("vframe_ray.index.service", "_ShardSearcher.search_mixed", "shard"),
    ("vframe_ray.index.searcher", "SegmentSearcher.search", "seg.search"),
    ("vframe_ray.index.searcher", "SegmentSearcher.search_ranked_phrases",
     "seg.phrase_rank"),
    ("vframe_ray.index.searcher", "SegmentSearcher.search_proximity",
     "seg.proximity"),
    ("vframe_ray.index.searcher", "SegmentSearcher.search_boolean",
     "seg.boolean"),
    ("vframe_ray.index.segment", "SegmentReader.load_terms", "load_terms"),
    ("vframe_ray.index.codec", "decode_all", "decode"),
    ("vframe_ray.index.codec", "decode_block", "decode"),
    ("vframe_ray.index.build", "load_index_meta", "meta_load"),
    ("vframe_ray.index.scatter", "validate_predicates", "validate"),
    ("vframe_ray.state.manifest", "alias_resolve", "alias_resolve"),
]


def _count(layer: str, args, result) -> int:
    """Work count a span carries: bytes encoded, rows into a merge, rows
    a query call returns."""
    if layer == "encode":
        return sum(len(tp.blob) for tp in result)
    if layer == "merge":
        return len(args[0])
    if layer in ("call.search", "call.oneshot"):
        return result.num_rows
    if layer == "call.mixed":
        return sum(t.num_rows for t in result)
    return 0


class Recorder:
    """Spans of one process, kept in memory."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        inject = os.environ.get(ENV_INJECT, "")
        self.inject_layer, _, d = inject.partition(":")
        self.inject_s = float(d) if d else 0.0

    def stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st


RECORDER: Recorder | None = None


class Traced:
    """Recording wrapper around ``fn``.  It pickles as a reference to
    ``module.attr``, so a wrapper that Ray ships to a worker inside a
    closure or a class becomes that worker's own function."""

    def __init__(self, fn, layer: str, mod_name: str, attr: str):
        self.fn, self.layer = fn, layer
        self.mod_name, self.attr = mod_name, attr

    def __reduce__(self):
        return _resolve, (self.mod_name, self.attr)

    def __call__(self, *args, **kwargs):
        rec = RECORDER
        stack = rec.stack()
        sid = next(rec._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        t0 = time.monotonic_ns()
        try:
            if rec.inject_s and self.layer == rec.inject_layer:
                time.sleep(rec.inject_s)
            result = self.fn(*args, **kwargs)
        finally:
            t1 = time.monotonic_ns()
            stack.pop()
        rec.spans.append((rec.pid, sid, parent, self.layer, t0, t1,
                          _count(self.layer, args, result)))
        return result


def _function(traced: Traced):
    """A plain function calling ``traced``: binds as a method, and Ray
    registers it as an actor method."""
    @functools.wraps(traced.fn)
    def call(*args, **kwargs):
        return traced(*args, **kwargs)
    return call


def _owner(mod, attr: str):
    """(object holding the attribute, attribute name) for ``attr`` of
    ``mod``.  For a Ray actor class that is the class Ray made from it
    at decoration: it holds its own copies of the methods and is what
    Ray ships to the actor process."""
    if "." not in attr:
        return mod, attr
    cls_name, meth = attr.split(".")
    cls = getattr(mod, cls_name)
    meta = getattr(cls, "__ray_metadata__", None)
    return (meta.modified_class if meta else cls), meth


def _resolve(mod_name: str, attr: str):
    owner, name = _owner(importlib.import_module(mod_name), attr)
    return owner.__dict__[name] if isinstance(owner, type) \
        else getattr(owner, name)


def install() -> Recorder:
    """Wrap every function of ``LAYERS`` in this process (idempotent)."""
    global RECORDER
    if RECORDER is not None:
        return RECORDER
    RECORDER = Recorder()
    for mod_name, attr, layer in LAYERS:
        mod = importlib.import_module(mod_name)
        owner, name = _owner(mod, attr)
        fn = _resolve(mod_name, attr)
        traced = _function(Traced(fn, layer, mod_name, attr))
        setattr(owner, name, traced)
        if owner is not mod:
            continue
        for m in list(sys.modules.values()):
            if (getattr(m, "__name__", None) or "").startswith("vframe_ray.") \
                    and getattr(m, name, None) is fn:
                setattr(m, name, traced)
    return RECORDER


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: trace this worker and write
    its spans when the driver asks for them."""
    out = os.environ[ENV_DIR]
    rec = install()
    with open(os.path.join(out, f"hello-{rec.pid}"), "w"):
        pass

    path = os.path.join(out, f"spans-{rec.pid}.json")

    def flush_when_asked():
        flag = os.path.join(out, "FLUSH")
        while not os.path.exists(flag):
            time.sleep(0.05)
        write_spans(path, rec.spans)

    threading.Thread(target=flush_when_asked, daemon=True).start()
    # a worker Ray retires early (idle, over the CPU count) exits first
    atexit.register(lambda: os.path.exists(path) or write_spans(
        path, rec.spans))


def write_spans(path: str, spans: list[tuple]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(spans, f)
    os.replace(tmp, path)


def collect(out: str, timeout_s: float = 20.0) -> tuple[list[tuple], int]:
    """Ask every traced worker for its spans; returns (spans, number of
    workers that ended before they could write them)."""
    with open(os.path.join(out, "FLUSH"), "w"):
        pass
    pids = [int(n.split("-")[1]) for n in os.listdir(out)
            if n.startswith("hello-")]
    deadline = time.monotonic() + timeout_s
    spans: list[tuple] = []
    lost = 0
    for pid in pids:
        path = os.path.join(out, f"spans-{pid}.json")
        while not os.path.exists(path) and time.monotonic() < deadline \
                and os.path.exists(f"/proc/{pid}"):
            time.sleep(0.02)
        if os.path.exists(path):
            with open(path) as f:
                spans.extend(tuple(s) for s in json.load(f))
        else:
            lost += 1
    return spans, lost
