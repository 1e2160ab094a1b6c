"""Distributed index build — the flagship pipeline.

Recasts the reference's flagship `vf pipe open … detect … save-detections`
lifecycle (reference: src/cli.py:100-124 coroutine chain;
src/commands/pipe/open.py:93-116 source loop; detect.py:82-168 inference;
save-detections.py:49-75 sink) as one streaming Ray Data pipeline:

    read_parquet(transcripts)                       # source (pruned columns)
      .map_batches(assign segment_id)               # cheap pre-shuffle map
      .groupby(segment_id)                          # THE shuffle (doc->segment)
      .map_groups(build_segment)                    # stateful per-group sink
    + term_stats(tokenized)                         # salted groupby(term) merge
    -> index_dir/{segments/*, global/*, config.json, manifest.json}

Scale notes (designed for 10^12 turns / ~100 TB; tested single-node):
- ONE all-to-all exchange moves each token exactly once, keyed by
  ``hash(conv_id) % num_segments``; group size = segment size is bounded
  by choosing ``num_segments`` ≈ corpus_bytes / ~1-2 GB, so a builder
  task's memory is capped by config, not data size.
- global df/cf never requires a second pass over raw text: it is a
  salted two-phase aggregate over per-batch partials (stages/stats.py),
  and N/avgdl fold out of per-segment manifests.
- every segment directory is written atomically with a lineage
  fingerprint; re-running `build_index` over the same input skips
  finished segments (checkpoint/resume, state/manifest.py).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from ..config import EngineConfig
from ..state.manifest import read_json, swap_terms_dir, write_json

from ..sources.readers import read_parquet as _read_parquet
from ..stages.tokenize import assign_segment_ids
from .segment import build_segment


class SegmentBuilderStage:
    """Actor-pool segment builder (reference pattern: stateful sink with
    open/append/close lifecycle, save-video.py:37-107).  One group =
    one segment; each actor builds many segments over its lifetime.

    Output rows are the segment's (term, df, cf) partials so the global
    term-stats merge happens in the SAME execution (no second pipeline,
    no re-read of terms.parquet); the per-segment manifest goes to disk
    and is collected by the driver afterwards."""

    def __init__(self, index_dir: str, cfg: EngineConfig,
                 run_id: str | None = None):
        self.index_dir = index_dir
        self.cfg = cfg
        self.run_id = run_id

    def __call__(self, group: pa.Table) -> pa.Table:
        import pyarrow.parquet as _pq
        seg_id = int(group["segment_id"][0].as_py())
        m = build_segment(group, seg_id, self.index_dir, self.cfg,
                          run_id=self.run_id)
        seg_dir = os.path.join(self.index_dir, "segments", m["segment"])
        return _pq.read_table(os.path.join(seg_dir, "terms.parquet"),
                              columns=["term", "df", "cf"])


def _run_builders(tokenized, index_dir: str, cfg: EngineConfig,
                  run_id: str, use_actor_pool: bool,
                  build_concurrency: int | None):
    """The exchange + segment-build stage shared by ``build_index`` and
    ``extend_index``; returns the lazy (term, df, cf) partials Dataset."""
    try:
        ncpu = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        ncpu = 8
    if build_concurrency is None:
        # A pool of persistent builder actors, each handling several
        # segments sequentially, beats one task per segment on hosts where
        # fresh-page faults are expensive (runtime.py): the actor's malloc
        # arena is retained (mallopt), so segment 2..k on the same actor
        # run nearly fault-free.  num_cpus stays 1 and the pool is capped
        # under the cluster size so the read stage is never starved (a
        # pool that reserves every CPU deadlocks the streaming executor —
        # guide §actor pools).  ncpu//2 measured best on 8..32 cpus with
        # num_segments ≥ 4× pool size.
        build_concurrency = max(1, min(ncpu // 2,
                                       cfg.index.num_segments))

    # below 2 CPUs even a one-actor pool holds the only CPU and starves
    # the read/assign tasks feeding it: build with tasks instead
    if use_actor_pool and ncpu >= 2:
        return (tokenized
                .groupby("segment_id")
                .map_groups(SegmentBuilderStage,
                            fn_constructor_kwargs=dict(
                                index_dir=index_dir, cfg=cfg,
                                run_id=run_id),
                            batch_format="pyarrow",
                            # autoscaling (1, N) pool: scales to N under
                            # load but never warns/overallocates when the
                            # groupby yields fewer blocks than the pool
                            # (tiny corpora in tests).
                            concurrency=(1, build_concurrency),
                            num_cpus=1))
    # task-based builders: no per-execution actor spawn; groups run on
    # the session's default (already-warm) worker pool
    stage = SegmentBuilderStage(index_dir, cfg, run_id=run_id)

    def build_group(group: pa.Table) -> pa.Table:
        return stage(group)

    return (tokenized
            .groupby("segment_id")
            .map_groups(build_group, batch_format="pyarrow"))


def _combine_term_partials(t: pa.Table) -> pa.Table:
    """Block-level combiner: a block holds several segments' term
    tables; collapsing to one row per term per block cuts the
    groupby(term) input from segments×vocab to blocks×vocab rows (at
    1024 segments this was a 10M-row shuffle — ~30s — without it)."""
    g = t.group_by("term").aggregate([("df", "sum"), ("cf", "sum")])
    return pa.table({"term": g["term"],
                     "df": g["df_sum"], "cf": g["cf_sum"]})


def term_stats_sum(parts: "ray.data.Dataset") -> "ray.data.Dataset":
    """Global (term, df, cf) totals from per-segment partials: block
    combiner, then TERM-hash-bucket co-partition + one Arrow C group_by
    per bucket.  Ray's ``groupby(term).aggregate(Sum)`` combines per
    group in Python — measured ~20 s/1M partial rows at 5k vocab, and
    vocab scales with the corpus; the bucketed kernel removes the only
    per-group Python from the build's reduce side."""
    import numpy as np
    import pandas as pd
    from ..runtime import num_hash_buckets
    nb = num_hash_buckets()

    def add_bucket(t: pa.Table) -> pa.Table:
        h = pd.util.hash_array(
            t["term"].to_pandas().to_numpy(dtype=object))
        return t.append_column(
            "__tb", pa.array((h % nb).astype(np.int32)))

    def sum_bucket(t: pa.Table) -> pa.Table:
        g = t.group_by("term").aggregate([("df", "sum"), ("cf", "sum")])
        g = g.rename_columns(["term", "df", "cf"])
        return g.sort_by("term")

    return (parts
            .map_batches(_combine_term_partials, batch_format="pyarrow",
                         zero_copy_batch=True)
            .map_batches(add_bucket, batch_format="pyarrow")
            .groupby("__tb")
            .map_groups(sum_bucket, batch_format="pyarrow"))


def build_index(ds: "ray.data.Dataset", index_dir: str,
                cfg: EngineConfig | None = None, *,
                tokenize_batch_size: int = 4096,
                tokenize_concurrency=None,
                build_concurrency: int | None = None,
                use_actor_pool: bool = True,
                attribute_cols: list[str] | None = None,
                compute_term_stats: bool = True) -> dict:
    """Build an inverted index from a transcripts Dataset.

    ``ds`` must have columns (conv_id, turn_idx, text); extra columns are
    dropped at the earliest stage unless listed in ``attribute_cols``
    (e.g. role/tool/ts), which are carried into each segment's docmap so
    queries can filter on them (the reference's attribute pre-filters,
    skip-file.py / skip-labels.py, applied at query time).
    """
    import uuid
    cfg = (cfg or EngineConfig()).validate()
    os.makedirs(index_dir, exist_ok=True)
    run_id = uuid.uuid4().hex[:12]

    attribute_cols = list(attribute_cols or [])
    ds = ds.select_columns(["conv_id", "turn_idx", "text"] + attribute_cols)

    # Pre-shuffle stage only assigns segment ids; tokenization happens
    # INSIDE the builder actors after the exchange, so the shuffle moves
    # raw text (≈2.5× smaller than exploded token lists).  Tokenize-first
    # remains available for pipelines that consume the tokens column
    # directly (stages/tokenize.py).
    def _assign(batch: pa.Table) -> pa.Table:
        seg = assign_segment_ids(batch["conv_id"], cfg.index.num_segments)
        return batch.append_column("segment_id", pa.array(seg, pa.int32()))

    tokenized = ds.map_batches(_assign, batch_format="pyarrow",
                               batch_size=tokenize_batch_size,
                               zero_copy_batch=True)

    seg_terms = _run_builders(tokenized, index_dir, cfg, run_id,
                              use_actor_pool, build_concurrency)

    os.makedirs(os.path.join(index_dir, "global"), exist_ok=True)
    if compute_term_stats:
        # Global df/cf = one Sum-groupby over the per-segment (term, df,
        # cf) partials STREAMED OUT of the builder stage — the maximally
        # pre-aggregated form (≤ 1 row per term per segment), so even the
        # hottest term contributes at most n_segments tiny rows and needs
        # no further salting (the salted path, stages/stats.salted_sum,
        # exists for token-level aggregation where skew is real).  One
        # execution covers shuffle + build + stats merge.  Analog of
        # merge-json's reduce over per-shard outputs (reference:
        # src/commands/utils/merge-json.py:18-46).
        term_stats_sum(seg_terms).write_parquet(
            os.path.join(index_dir, "global", "terms"))
    else:
        seg_terms.materialize()

    # collect ONLY the segments this run claimed (built or fingerprint-
    # validated); a stale seg dir left by a prior build over different
    # input is deleted, never folded into the manifest (ADVICE.md)
    expected = {f"seg-{i:05d}" for i in range(cfg.index.num_segments)}
    seg_rows = _collect_claims(index_dir, run_id, expected)

    n_docs = sum(r["n_docs"] for r in seg_rows)
    total_len = sum(r["total_len"] for r in seg_rows)
    build_ms = [r.get("build_ms", 0) for r in seg_rows]
    stats = {
        "n_docs": int(n_docs),
        "total_len": int(total_len),
        "avgdl": (total_len / n_docs) if n_docs else 0.0,
        "n_segments_built": len(seg_rows),
        "postings_bytes": int(sum(r["postings_bytes"] for r in seg_rows)),
        # per-partition throughput summary (per-segment detail lives in
        # each segment's manifest.json: n_docs / build_ms / postings_bytes)
        "segment_build_ms_sum": int(sum(build_ms)),
        "segment_build_ms_max": int(max(build_ms)) if build_ms else 0,
        "docs_per_sec_per_builder": round(
            1000.0 * n_docs / sum(build_ms), 1) if sum(build_ms) else 0.0,
    }
    write_json(os.path.join(index_dir, "global", "stats.json"), stats)
    write_json(os.path.join(index_dir, "config.json"), cfg.to_dict())
    write_json(os.path.join(index_dir, "manifest.json"), {
        "segments": sorted(r["segment"] for r in seg_rows),
        "stats": stats,
    })
    return stats


def _collect_claims(index_dir: str, run_id: str,
                    expected: set[str]) -> list[dict]:
    """Manifests of the segments this run claimed; stale unclaimed
    segment dirs WITHIN ``expected`` are deleted (never folded into the
    index manifest), and the claims scratch dir is cleaned up."""
    import shutil
    seg_root = os.path.join(index_dir, "segments")
    claims_dir = os.path.join(index_dir, "claims", run_id)
    seg_rows: list[dict] = []
    claimed: set[str] = set()
    if os.path.isdir(claims_dir):
        for name in sorted(os.listdir(claims_dir)):
            m = read_json(os.path.join(claims_dir, name))
            seg_rows.append(m)
            claimed.add(m["segment"])
    for name in sorted(os.listdir(seg_root)) if os.path.isdir(seg_root) \
            else []:
        if name in expected and name not in claimed:
            print(f"[build_index] removing stale unclaimed segment {name}",
                  flush=True)
            shutil.rmtree(os.path.join(seg_root, name), ignore_errors=True)
    shutil.rmtree(os.path.join(index_dir, "claims"), ignore_errors=True)
    return seg_rows


def extend_index(ds_new: "ray.data.Dataset", index_dir: str, *,
                 num_new_segments: int | None = None,
                 tokenize_batch_size: int = 4096,
                 build_concurrency: int | None = None,
                 use_actor_pool: bool = False,
                 attribute_cols: list[str] | None = None) -> dict:
    """Append NEW conversations to a finished index — the delta-build
    counterpart of the reference's continue/extend workflow (``open -i
    prior.json`` re-hydrates a prior run and appends, media.py:79-111,
    open.py:26-28) without re-shuffling or re-tokenizing the existing
    corpus (VERDICT r2 missing #2).

    - ``ds_new``'s conv_ids MUST be disjoint from the indexed corpus
      (the same contract the reference's append mode has: re-presented
      containers would double-index);
    - new docs route to NEW segments (ids offset past the existing
      ones); existing segment files are never touched — run
      ``compact_index`` afterwards when segment count matters;
    - global df/cf are REBUILT as one groupby-sum over every segment's
      (term, df, cf) columns (the maximally pre-aggregated partials
      already on disk) and swapped in place — idempotent, so a crashed
      or repeated extend never double-counts;
    - stats/manifest are recomputed from all segment manifests;
    - per-segment resume works exactly as in ``build_index`` (re-running
      the same extend skips finished segments by fingerprint).

    Search results over the extended index are rank- AND score-identical
    to a fresh build over the union corpus: scoring depends only on
    global df / avgdl and per-doc stats, never on segment layout
    (the same invariant compaction relies on; tested in
    tests/test_round3.py::test_extend_index_equals_fresh_union).
    """
    import shutil
    import uuid

    import numpy as np

    # index-exclusive writer entry: heal a crashed dictionary swap and
    # sweep segment dirs a past compaction retired (grace elapsed)
    from ..state.manifest import gc_deferred_deletes, recover_terms_swap
    recover_terms_swap(os.path.join(index_dir, "global"))
    gc_deferred_deletes(index_dir)

    cfg = EngineConfig.from_dict(
        read_json(os.path.join(index_dir, "config.json"))).validate()
    man = read_json(os.path.join(index_dir, "manifest.json"))
    existing = list(man["segments"])
    offset = (1 + max(int(s.split("-")[1]) for s in existing)) \
        if existing else 0
    n_new_segs = int(num_new_segments or cfg.index.num_segments)
    run_id = uuid.uuid4().hex[:12]

    attribute_cols = list(attribute_cols or [])
    ds = ds_new.select_columns(["conv_id", "turn_idx", "text"]
                               + attribute_cols)

    def _assign(batch: pa.Table) -> pa.Table:
        seg = assign_segment_ids(batch["conv_id"], n_new_segs) \
            .astype(np.int64) + offset
        return batch.append_column("segment_id",
                                   pa.array(seg.astype(np.int32)))

    tokenized = ds.map_batches(_assign, batch_format="pyarrow",
                               batch_size=tokenize_batch_size,
                               zero_copy_batch=True)
    seg_terms = _run_builders(tokenized, index_dir, cfg, run_id,
                              use_actor_pool, build_concurrency)
    seg_terms.materialize()      # drive the build; the on-disk per-
    # segment (term, df, cf) columns are the partials of record below

    expected_new = {f"seg-{offset + i:05d}" for i in range(n_new_segs)}
    new_rows = _collect_claims(index_dir, run_id, expected_new)

    # idempotence across WHOLE extends: an identical re-extend routes the
    # same rows to the same groups, so its segments carry the same
    # content fingerprints as the ones already in the manifest (under a
    # different id offset) — drop those duplicates instead of
    # double-indexing the corpus.  (Interrupted extends resume per
    # segment via the normal claims/fingerprint path.)
    existing_fps = {
        read_json(os.path.join(index_dir, "segments", s, "manifest.json"))
        ["input_fingerprint"] for s in existing}
    kept_rows = []
    for r in new_rows:
        if r["input_fingerprint"] in existing_fps:
            print(f"[extend_index] dropping duplicate segment "
                  f"{r['segment']} (content already indexed)", flush=True)
            shutil.rmtree(os.path.join(index_dir, "segments", r["segment"]),
                          ignore_errors=True)
        else:
            kept_rows.append(r)
    new_rows = kept_rows
    all_names = sorted(set(existing) | {r["segment"] for r in new_rows})
    seg_dirs = [os.path.join(index_dir, "segments", s) for s in all_names]

    # ---- rebuild global df/cf over ALL segments (idempotent merge)
    gdir = os.path.join(index_dir, "global")
    terms_files = [os.path.join(d, "terms.parquet") for d in seg_dirs]
    new_terms_dir = os.path.join(gdir, f"terms.new-{run_id}")
    term_stats_sum(
        _read_parquet(terms_files, columns=["term", "df", "cf"])
    ).write_parquet(new_terms_dir)
    # journaled two-rename: an interrupted swap is rolled forward by
    # any later writer/reader (state.manifest.recover_terms_swap)
    swap_terms_dir(gdir, new_terms_dir, run_id)

    # ---- stats/manifest from all segment manifests
    mans = [read_json(os.path.join(d, "manifest.json")) for d in seg_dirs]
    n_docs = sum(m["n_docs"] for m in mans)
    total_len = sum(m["total_len"] for m in mans)
    build_ms = [m.get("build_ms", 0) for m in mans]
    stats = {
        "n_docs": int(n_docs),
        "total_len": int(total_len),
        "avgdl": (total_len / n_docs) if n_docs else 0.0,
        "n_segments_built": len(mans),
        "postings_bytes": int(sum(m["postings_bytes"] for m in mans)),
        "segment_build_ms_sum": int(sum(build_ms)),
        "segment_build_ms_max": int(max(build_ms)) if build_ms else 0,
        "docs_per_sec_per_builder": round(
            1000.0 * n_docs / sum(build_ms), 1) if sum(build_ms) else 0.0,
    }
    # manifest (the authoritative commit — readers take stats from it)
    # BEFORE the derived stats.json copy, so a crash between the two
    # can never publish a manifest inconsistent with itself (ADVICE r4)
    write_json(os.path.join(index_dir, "manifest.json"), {
        "segments": all_names,
        "stats": stats,
        "extended_by": sorted(r["segment"] for r in new_rows),
    })
    write_json(os.path.join(gdir, "stats.json"), stats)
    return stats


def delete_docs(index_dir: str, conv_ids: list[str]) -> dict:
    """Mark whole conversations deleted (tombstones, Lucene .liv
    analog): one distributed pass over segment docmaps intersects the
    broadcast conv_id set with each segment's resident conv column and
    writes/extends a per-segment ``deletes.parquet`` sidecar of LOCAL
    doc ids.  Query paths mask tombstoned docs out of every result;
    corpus stats (df/avgdl/n_docs) stay pre-delete until
    :func:`~vframe_ray.index.compact.compact_index` physically purges
    (documented Lucene semantics — reference analog: skip-file's
    exclude list applied at read time, not rewrite time).

    Works on extended indexes too (extension segments use a different
    id range, so routing by hash alone could not find them — the
    docmap scan can).  Returns {"n_deleted_docs": newly tombstoned}.
    """
    import pyarrow.compute as pc

    _, _, seg_dirs = load_index_meta(index_dir)
    dels_ref = ray.put(pa.array(sorted(set(conv_ids)), pa.string()))

    def _task(batch: pa.Table) -> pa.Table:
        value_set = ray.get(dels_ref)
        segs, counts = [], []
        for seg_dir in batch["seg_dir"].to_pylist():
            d = pq.read_table(os.path.join(seg_dir, "docs.parquet"),
                              columns=["conv_id"])
            hit = pc.is_in(d["conv_id"], value_set=value_set)
            local = np.flatnonzero(hit.combine_chunks()
                                   .to_numpy(zero_copy_only=False))
            n_new = 0
            if local.size:
                path = os.path.join(seg_dir, "deletes.parquet")
                prev = np.empty(0, dtype=np.int64)
                if os.path.exists(path):
                    prev = pq.read_table(path)["doc_local"] \
                        .to_numpy(zero_copy_only=False).astype(np.int64)
                merged = np.union1d(prev, local.astype(np.int64))
                n_new = int(merged.size - prev.size)
                if n_new:
                    tmp = path + ".tmp"
                    pq.write_table(
                        pa.table({"doc_local": pa.array(merged,
                                                        pa.int64())}), tmp)
                    os.replace(tmp, path)      # atomic sidecar swap
            segs.append(os.path.basename(seg_dir))
            counts.append(n_new)
        return pa.table({"segment": pa.array(segs, pa.string()),
                         "n_new": pa.array(counts, pa.int64())})

    from .scatter import segment_ds
    res = segment_ds(seg_dirs, _task).to_pandas()
    return {"n_deleted_docs": int(res["n_new"].sum())}


def update_attributes(index_dir: str, updates, *,
                      keys: tuple = ("conv_id", "turn_idx")) -> dict:
    """Doc-values update (Elasticsearch update-by-query on attributes,
    Lucene DocValues update analog): rewrite attribute columns in the
    per-segment docmaps WITHOUT touching postings, dictionaries, or
    corpus stats — scores are text-derived, so only predicate masks,
    facets, function-score factors and sort-by-field orderings see the
    new values.

    ``updates``: a pandas DataFrame of key columns plus the attribute
    columns to overwrite (attributes must already exist in the docmap
    — adding columns mid-life would fork segment schemas).  The table
    broadcasts via ``ray.put`` (bounded by contract — ship a parquet
    path and a hash join for corpus-sized updates); ONE distributed
    pass left-merges each docmap against it and atomically replaces
    ``docs.parquet`` (write-tmp + os.replace, so a crash mid-update
    leaves every segment on exactly the old or the new version, and
    hardlinked snapshots keep their old inode).  In-flight
    SegmentSearchers hold their already-read docmap; persistent
    services pick the update up on their next (re)start — the same
    visibility contract as compaction.

    Returns {"n_updated_docs": rows whose key matched}.
    """
    import pandas as pd

    _, _, seg_dirs = load_index_meta(index_dir)
    kcols = list(keys)
    upd = pd.DataFrame(updates)
    attr_cols = [c for c in upd.columns if c not in kcols]
    if not attr_cols:
        raise ValueError("updates carries no attribute columns")
    schema = pq.read_schema(os.path.join(seg_dirs[0], "docs.parquet")) \
        if seg_dirs else None
    if schema is not None:
        missing = [c for c in attr_cols if c not in schema.names]
        if missing:
            raise ValueError(
                f"attribute column(s) {missing} not in the docmap "
                f"(have: {schema.names}) — attributes must be declared "
                f"at build time (attribute_cols=)")
    upd_ref = ray.put(upd)

    def _task(batch: pa.Table) -> pa.Table:
        u = ray.get(upd_ref)
        segs, counts = [], []
        for seg_dir in batch["seg_dir"].to_pylist():
            path = os.path.join(seg_dir, "docs.parquet")
            docs = pq.read_table(path)
            df = docs.to_pandas()
            merged = df[kcols].merge(
                u, on=kcols, how="left", sort=False)
            hit = merged[attr_cols[0]].notna()
            n_hit = int(hit.sum())
            if n_hit:
                for c in attr_cols:
                    vals = df[c].copy()
                    vals[hit.to_numpy()] = merged.loc[hit, c].to_numpy()
                    df[c] = vals.astype(df[c].dtype)
                out = pa.Table.from_pandas(df, preserve_index=False) \
                    .cast(docs.schema)
                tmp = path + ".tmp"
                pq.write_table(out, tmp)
                os.replace(tmp, path)          # atomic docmap swap
            segs.append(os.path.basename(seg_dir))
            counts.append(n_hit)
        return pa.table({"segment": pa.array(segs, pa.string()),
                         "n_hit": pa.array(counts, pa.int64())})

    from .scatter import segment_ds
    res = segment_ds(seg_dirs, _task).to_pandas()
    return {"n_updated_docs": int(res["n_hit"].sum())}


def get_conversations(index_dir: str, conv_ids: list[str]) -> pa.Table:
    """Point lookup (the GET-by-id API real engines pair with search):
    fetch the docmap rows of the given conversations.

    Routing: the build partitions docs by ``hash64(conv_id) % S``
    (assign_segment_ids), so when the index still has its build-time
    layout — the manifest lists exactly seg-00000..seg-(S-1) — the
    owning segment of every requested id is KNOWN and only those
    segments are read: a point lookup costs O(requested ids), not a
    scan of all S segments.  Extended or compacted indexes (extension
    segments / merged names) fall back to the full segment list,
    documented in delete_docs for the same reason.

    Returns (conv_id, turn_idx, doclen) sorted by (conv_id, turn_idx).
    """
    import pandas as pd
    import pyarrow.compute as pc

    cfg_dict, _, seg_dirs = load_index_meta(index_dir)
    want = sorted(set(conv_ids))
    n_seg = int(cfg_dict.get("index", {}).get("num_segments",
                                              len(seg_dirs)))
    names = sorted(os.path.basename(d) for d in seg_dirs)
    routable = names == [f"seg-{i:05d}" for i in range(n_seg)]
    if routable and want:
        h = pd.util.hash_array(np.array(want, dtype=object))
        owners = {f"seg-{int(x % np.uint64(n_seg)):05d}" for x in h}
        dirs = [d for d in seg_dirs
                if os.path.basename(d) in owners]
    else:
        dirs = list(seg_dirs)
    if not dirs or not want:
        return pa.table({"conv_id": pa.array([], pa.string()),
                         "turn_idx": pa.array([], pa.int32()),
                         "doclen": pa.array([], pa.int32())})
    want_ref = ray.put(pa.array(want, pa.string()))

    def _task(batch: pa.Table) -> pa.Table:
        vs = ray.get(want_ref)
        tables = []
        for seg_dir in batch["seg_dir"].to_pylist():
            d = pq.read_table(os.path.join(seg_dir, "docs.parquet"),
                              columns=["conv_id", "turn_idx", "doclen"])
            tables.append(d.filter(pc.is_in(d["conv_id"],
                                            value_set=vs)))
        return pa.concat_tables(tables)

    from ..runtime import block_refs
    from .scatter import segment_ds
    out = pa.concat_tables([t for t in ray.get(block_refs(
        segment_ds(dirs, _task))) if t.num_rows]
        or [pa.table({"conv_id": pa.array([], pa.string()),
                      "turn_idx": pa.array([], pa.int32()),
                      "doclen": pa.array([], pa.int32())})])
    return out.sort_by([("conv_id", "ascending"),
                        ("turn_idx", "ascending")])


def load_index_meta(index_dir: str) -> tuple[dict, dict, list[str]]:
    """(config dict, stats dict, segment dirs) of a finished index.
    ``index_dir`` may be an ALIAS file (state.manifest.alias_set) —
    every query entry point resolves it here, so a blue-green reindex
    is one atomic alias swap."""
    from ..state.manifest import alias_resolve
    index_dir = alias_resolve(index_dir)
    cfg = read_json(os.path.join(index_dir, "config.json"))
    man = read_json(os.path.join(index_dir, "manifest.json"))
    segs = [os.path.join(index_dir, "segments", s) for s in man["segments"]]
    return cfg, man["stats"], segs
