"""Per-layer metrics from the spans of a traced run.

A span is (pid, id, parent id, layer, start ns, end ns, count); see
``trace.py``.  The driver's root spans of the engine's entry points
(``build_index``, ``extend_index``, ``QueryService.search``,
``QueryService.search_mixed``, ``search_index``) are the operations.
Driver spans belong to an operation through their parent links; a
worker's or actor's span belongs to the operation whose wall interval
holds its start (one closed-loop client, so operations never overlap).

Times are self times (a span's duration minus its children's), summed
per operation and averaged over the operations of their kind, so a
slower layer shows in its own metric only.  ``SOURCES`` names the
layers each metric reads; the self-test checks it.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

NS = 1e-9

OP_LAYERS = ("build_index", "extend_index", "call.search", "call.mixed",
             "call.oneshot")

# metric -> layers whose spans it reads ("*" = derived from a whole call)
SOURCES = {
    "build.assign_s": {"assign"},
    "build.tokenize_s": {"tokenize_array"},
    "build.encode_s": {"encode"},
    "build.segment_s": {"segment"},
    "build.segment_max_ms": {"segment", "tokenize_array", "encode"},
    "build.exchange_wait_s": {"exec"},
    "build.epilogue_s": {"build_index"},
    "build.extend_s": {"*"},
    "build.encode_bytes": set(),
    "query.tokenize_s": {"tokenize"},
    "query.df_lookup_s": {"df_lookup"},
    "query.df_lookups": set(),
    "query.put_s": {"put"},
    "query.rpc_wait_s": {"*"},
    "query.shard_busy_s": {"shard"},
    "query.merge_s": {"merge"},
    "query.rows_merged_per_result": set(),
    "query.segment_search_s": {"seg.search"},
    "query.segment_calls": set(),
    "query.load_terms_s": {"load_terms"},
    "query.decode_calls": set(),
    "query.decode_s": {"decode"},
    "mixed.search_s": {"seg.search"},
    "mixed.phrase_rank_s": {"seg.phrase_rank"},
    "mixed.proximity_s": {"seg.proximity"},
    "mixed.boolean_s": {"seg.boolean"},
    "oneshot.meta_load_s": {"meta_load"},
    "oneshot.validate_s": {"validate"},
    "oneshot.exec_s": {"exec"},
    "oneshot.segment_search_s": {"seg.search"},
    "oneshot.alias_resolves_per_call": set(),
}


class _Op:
    def __init__(self, span):
        self.layer, self.t0, self.t1 = span[3], span[4], span[5]
        self.rows = span[6]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total: dict[str, list[tuple[int, int]]] = defaultdict(list)
        self.count: dict[str, int] = defaultdict(int)
        self.n: dict[str, int] = defaultdict(int)
        self.workers: list[tuple] = []

    @property
    def wall_s(self) -> float:
        return (self.t1 - self.t0) * NS

    def add(self, span, self_ns: int, in_driver: bool) -> None:
        layer = span[3]
        self.self_s[layer] += self_ns * NS
        self.total[layer].append((span[4], span[5]))
        self.count[layer] += span[6]
        self.n[layer] += 1
        if not in_driver:
            self.workers.append(span)

    def total_s(self, layer: str) -> float:
        return sum(t1 - t0 for t0, t1 in self.total[layer]) * NS


def _union_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    covered, end = 0, lo
    for t0, t1 in sorted(intervals):
        t0, t1 = max(t0, end), min(t1, hi)
        if t1 > t0:
            covered += t1 - t0
            end = t1
    return covered


def _ops(spans: list[tuple], driver_pid: int,
         skip: list[tuple[int, int]]) -> list[_Op]:
    """Operations with their spans attached; operations that start in a
    ``skip`` interval (warm-up) are left out."""
    child_ns: dict[tuple, int] = defaultdict(int)
    for s in spans:
        if s[2] >= 0:
            child_ns[(s[0], s[2])] += s[5] - s[4]
    ops: list[_Op] = []
    op_of: dict[tuple, _Op | None] = {}
    for s in sorted((s for s in spans if s[0] == driver_pid),
                    key=lambda s: s[4]):
        if s[2] < 0:
            warm = any(lo <= s[4] < hi for lo, hi in skip)
            op = _Op(s) if s[3] in OP_LAYERS and not warm else None
            if op:
                ops.append(op)
        else:
            op = op_of.get((s[0], s[2]))
        op_of[(s[0], s[1])] = op
        if op is not None:
            op.add(s, s[5] - s[4] - child_ns[(s[0], s[1])], True)
    starts = [op.t0 for op in ops]
    for s in spans:
        if s[0] == driver_pid:
            continue
        for op, t0 in zip(ops, starts):
            if t0 <= s[4] <= op.t1:
                op.add(s, s[5] - s[4] - child_ns[(s[0], s[1])], False)
                break
    return ops


def _uncovered_exec_s(op: _Op) -> float:
    """Wall of the op's Ray Data executions that no worker span covers:
    scheduling, task and worker spin-up, the exchange, block transfer."""
    busy = [(s[4], s[5]) for s in op.workers]
    return sum((t1 - t0) - _union_ns(busy, t0, t1)
               for t0, t1 in op.total["exec"]) * NS


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def summarize(spans: list[tuple], driver_pid: int,
              skip: list[tuple[int, int]]) -> dict[str, float]:
    ops = _ops(spans, driver_pid, skip)
    builds = [o for o in ops if o.layer == "build_index"]
    extends = [o for o in ops if o.layer == "extend_index"]
    service = [o for o in ops if o.layer == "call.search"]
    mixed = [o for o in ops if o.layer == "call.mixed"]
    oneshot = [o for o in ops if o.layer == "call.oneshot"]
    m: dict[str, float] = {}

    def per(group, f):
        return _mean([f(o) for o in group])

    for name, layer in (("assign_s", "assign"),
                        ("tokenize_s", "tokenize_array"),
                        ("encode_s", "encode"), ("segment_s", "segment"),
                        ("epilogue_s", "build_index")):
        m[f"build.{name}"] = per(builds, lambda o: o.self_s[layer])
    m["build.segment_max_ms"] = per(builds, lambda o: max(
        (t1 - t0 for t0, t1 in o.total["segment"]), default=0) * NS * 1e3)

    m["build.exchange_wait_s"] = per(builds, _uncovered_exec_s)
    m["build.extend_s"] = per(extends, lambda o: o.wall_s)
    m["build.encode_bytes"] = per(builds, lambda o: o.count["encode"])

    for name, layer in (("tokenize_s", "tokenize"),
                        ("df_lookup_s", "df_lookup"), ("put_s", "put"),
                        ("shard_busy_s", "shard"), ("merge_s", "merge"),
                        ("segment_search_s", "seg.search"),
                        ("load_terms_s", "load_terms"),
                        ("decode_s", "decode")):
        m[f"query.{name}"] = per(service, lambda o: o.self_s[layer])
    m["query.df_lookups"] = per(service, lambda o: o.n["df_lookup"])
    m["query.segment_calls"] = per(service, lambda o: o.n["seg.search"])
    m["query.decode_calls"] = per(service, lambda o: o.n["decode"])
    m["query.rpc_wait_s"] = per(service, lambda o: o.wall_s - _union_ns(
        o.total["shard"], o.t0, o.t1) * NS - sum(
        o.total_s(x) for x in ("tokenize", "df_lookup", "put", "merge")))
    rows_out = sum(o.rows for o in service)
    m["query.rows_merged_per_result"] = (
        sum(o.count["merge"] for o in service) / rows_out) if rows_out \
        else 0.0

    for name in ("search", "phrase_rank", "proximity", "boolean"):
        m[f"mixed.{name}_s"] = per(mixed, lambda o: o.self_s[f"seg.{name}"])

    for name, layer in (("meta_load_s", "meta_load"),
                        ("validate_s", "validate"),
                        ("segment_search_s", "seg.search")):
        m[f"oneshot.{name}"] = per(oneshot, lambda o: o.self_s[layer])
    m["oneshot.exec_s"] = per(oneshot, _uncovered_exec_s)
    m["oneshot.alias_resolves_per_call"] = per(
        oneshot, lambda o: o.n["alias_resolve"])
    return m
