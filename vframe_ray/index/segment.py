"""Immutable index segments: build (from an in-memory doc group), write, read.

A segment is the target's analog of the reference's per-file sink with an
open/append/close lifecycle (reference: src/commands/pipe/save-video.py:37-107
— stateful writer opened on first frame, released on last) combined with its
serialized ``FileMeta`` + ``frames_meta`` interchange record (reference:
src/vframe/models/cvmodels.py:301-341): an on-disk unit of index state plus a
manifest header that later runs re-hydrate.

Layout of one segment directory::

    seg-00042/
      docs.parquet     doc_local:int64, conv_id:string, turn_idx:int32,
                       doclen:int32        (sorted by (conv_id, turn_idx))
      terms.parquet    term, df, cf, blob + block metadata (sorted by term)
      manifest.json    counts, byte sizes, input fingerprint (lineage)

``doc_local`` is the rank of (conv_id, turn_idx) *within the segment* — no
global doc-id assignment (and therefore no global sort) exists anywhere in
the engine; global identity is the (conv_id, turn_idx) key itself and
tie-breaks use it directly (SURVEY.md §7.4).

Reading: :class:`SegmentReader` loads the docmap when it opens and the
whole ``terms.parquet`` on the first postings lookup; from then on a
lookup is an in-memory probe of the sorted term column, and the postings
it returns are zero-copy slices of that resident table.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import EngineConfig
from ..state.manifest import (completed_segment, fingerprint_rows, write_atomic_dir,
                              write_json)
from .codec import TermPostings, encode_postings_batch

TERMS_SCHEMA = pa.schema([
    ("term", pa.string()),
    ("df", pa.int64()),            # segment-local doc frequency
    ("cf", pa.int64()),            # segment-local collection frequency
    ("n_docs", pa.int64()),
    ("blob", pa.large_binary()),
    ("block_last_doc", pa.list_(pa.int64())),
    ("block_max_tf", pa.list_(pa.int32())),
    ("block_min_dl", pa.list_(pa.int32())),
    ("block_doc_off", pa.list_(pa.int64())),
    ("block_tf_off", pa.list_(pa.int64())),
    ("tf_section_off", pa.int64()),
    ("pos_section_off", pa.int64()),
])


def _write_claim(index_dir: str, run_id: str | None, manifest: dict) -> None:
    """Record that THIS run produced (or validated) the segment — the
    driver collects only claimed segments into the index manifest, so a
    stale seg dir left by a prior build over different input can never
    be silently folded in (ADVICE.md round 1)."""
    if run_id is None:
        return
    cdir = os.path.join(index_dir, "claims", run_id)
    os.makedirs(cdir, exist_ok=True)
    write_json(os.path.join(cdir, manifest["segment"] + ".json"), manifest)


def build_segment(group: pa.Table, segment_id: int, index_dir: str,
                  cfg: EngineConfig, run_id: str | None = None) -> dict:
    """Build + atomically write one segment from its doc group.

    ``group`` columns: conv_id, turn_idx, text, tokens(large_list<string>),
    doclen(int32).  Arrives in arbitrary row order (shuffle output) — sorted
    here, mirroring the reference's per-container ordering restoration
    requirement (SURVEY.md §2.9).

    Resume: if a finished segment with the same input fingerprint already
    exists, it is left untouched and its manifest returned (reference
    pattern: dedup/sha256.py:82-105 — only new inputs are processed).
    """
    import time as _time
    t_start = _time.monotonic()
    group = group.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    conv = group["conv_id"].combine_chunks()
    turn = group["turn_idx"].combine_chunks()
    texts = group["text"].combine_chunks()
    # attribute columns that will land in the docmap are part of the
    # lineage fingerprint (ADVICE.md: attribute-only input changes must
    # invalidate the segment)
    attr = {name: group[name].combine_chunks()
            for name in group.column_names
            if name not in ("conv_id", "turn_idx", "text", "tokens",
                            "doclen", "segment_id")}
    fp = fingerprint_rows(conv, turn, texts, extra_cols=attr)

    seg_name = f"seg-{segment_id:05d}"
    seg_dir = os.path.join(index_dir, "segments", seg_name)
    if completed_segment(seg_dir, fp):
        from ..state.manifest import read_json
        m = read_json(os.path.join(seg_dir, "manifest.json"))
        _write_claim(index_dir, run_id, m)
        return m

    if "tokens" in group.column_names:
        tokens = group["tokens"].combine_chunks()
        doclens = group["doclen"].combine_chunks().to_numpy(
            zero_copy_only=False)
    else:
        # tokenize-in-builder path: the shuffle moved RAW text (≈2.5×
        # smaller than exploded token lists); the analyzer runs here,
        # vectorized over the whole sorted group
        from ..analyze import Tokenizer
        tok = Tokenizer(cfg.analyzer)
        tokens = tok.tokenize_array(texts)
        doclens = pc.list_value_length(tokens).to_numpy(zero_copy_only=False)
    n_docs = group.num_rows

    flat = pc.list_flatten(tokens)
    parents = pc.list_parent_indices(tokens).to_numpy(zero_copy_only=False)
    n_tok = len(flat)

    if n_tok:
        # token position within its doc (0-based ordinal)
        doc_starts = np.zeros(n_docs, dtype=np.int64)
        np.cumsum(doclens[:-1], out=doc_starts[1:])
        positions = np.arange(n_tok, dtype=np.int64) - doc_starts[parents]
        # factorize terms WITHOUT materializing Python strings:
        # dictionary_encode is a C++ hash table (no per-token PyObjects —
        # np.unique on an object array is 10-20× slower and allocation-
        # heavy), then remap dictionary codes into sorted-term space
        # (UTF-8 byte order == np.unique's lexicographic order for our
        # [a-z0-9] tokens).
        denc = pc.dictionary_encode(flat)
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        raw_codes = denc.indices.to_numpy(zero_copy_only=False)
        vocab = denc.dictionary
        sort_idx = pc.sort_indices(vocab).to_numpy(zero_copy_only=False)
        rank = np.empty(len(vocab), dtype=np.int64)
        rank[sort_idx] = np.arange(len(vocab), dtype=np.int64)
        codes = rank[raw_codes]
        terms_sorted = vocab.take(pa.array(sort_idx))
        # order postings by (term, doc, position)
        order = np.lexsort((positions, parents, codes))
        t_s, d_s, p_s = codes[order], parents[order], positions[order]
        # run boundaries of (term, doc) pairs -> tf per posting
        new_pair = np.empty(n_tok, dtype=bool)
        new_pair[0] = True
        np.logical_or(t_s[1:] != t_s[:-1], d_s[1:] != d_s[:-1], out=new_pair[1:])
        pair_starts = np.flatnonzero(new_pair)
        tf = np.diff(np.append(pair_starts, n_tok))
        pair_term = t_s[pair_starts]
        pair_doc = d_s[pair_starts]
        # per-term slices over the pair arrays
        new_term = np.empty(len(pair_starts), dtype=bool)
        new_term[0] = True
        np.not_equal(pair_term[1:], pair_term[:-1], out=new_term[1:])
        term_starts = np.flatnonzero(new_term)
        term_ends = np.append(term_starts[1:], len(pair_starts))
    else:
        terms_sorted = pa.array([], pa.string())
        term_starts = term_ends = pair_starts = np.empty(0, dtype=np.int64)
        pair_doc = tf = p_s = np.empty(0, dtype=np.int64)

    bs = cfg.index.block_size
    if len(terms_sorted):
        pair_doc64 = pair_doc.astype(np.int64)
        tf64 = tf.astype(np.int64)
        positions_all = p_s if cfg.index.store_positions else None
        encoded = encode_postings_batch(term_starts, pair_doc64, tf64,
                                        doclens[pair_doc64], positions_all, bs)
        df_arr = (term_ends - term_starts).astype(np.int64)
        cf_arr = np.add.reduceat(tf64, term_starts)
        terms_table = pa.table({
            "term": terms_sorted,
            "df": pa.array(df_arr),
            "cf": pa.array(cf_arr.astype(np.int64)),
            "n_docs": pa.array([tp.n_docs for tp in encoded], pa.int64()),
            "blob": pa.array([tp.blob for tp in encoded], pa.large_binary()),
            "block_last_doc": pa.array(
                [tp.block_last_doc for tp in encoded],
                pa.list_(pa.int64())),
            "block_max_tf": pa.array(
                [tp.block_max_tf for tp in encoded], pa.list_(pa.int32())),
            "block_min_dl": pa.array(
                [tp.block_min_dl for tp in encoded], pa.list_(pa.int32())),
            "block_doc_off": pa.array(
                [tp.block_doc_off for tp in encoded], pa.list_(pa.int64())),
            "block_tf_off": pa.array(
                [tp.block_tf_off for tp in encoded], pa.list_(pa.int64())),
            "tf_section_off": pa.array(
                [tp.tf_section_off for tp in encoded], pa.int64()),
            "pos_section_off": pa.array(
                [tp.pos_section_off for tp in encoded], pa.int64()),
        }, schema=TERMS_SCHEMA)
    else:
        terms_table = pa.table({k.name: [] for k in TERMS_SCHEMA},
                               schema=TERMS_SCHEMA)
    doc_cols = {
        "doc_local": pa.array(np.arange(n_docs, dtype=np.int64)),
        "conv_id": conv,
        "turn_idx": pc.cast(turn, pa.int32()),
        "doclen": pa.array(doclens.astype(np.int32)),
    }
    # attribute columns (role/tool/ts/…) ride along in the docmap for
    # query-time predicates (skip-labels analog, media.py:399-411)
    for name in group.column_names:
        if name not in ("conv_id", "turn_idx", "text", "tokens", "doclen",
                        "segment_id"):
            doc_cols[name] = group[name].combine_chunks()
    docs_table = pa.table(doc_cols)

    os.makedirs(os.path.join(index_dir, "segments"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=seg_name + ".tmp.",
                           dir=os.path.join(index_dir, "segments"))
    try:
        pq.write_table(docs_table, os.path.join(tmp, "docs.parquet"))
        pq.write_table(terms_table, os.path.join(tmp, "terms.parquet"),
                       row_group_size=4096)
        manifest = {
            "segment": seg_name,
            "segment_id": int(segment_id),
            "n_docs": int(n_docs),
            "n_terms": int(len(terms_sorted)),
            "total_len": int(doclens.sum()),
            "postings_bytes": int(terms_table["blob"].nbytes),
            "input_fingerprint": fp,
            # per-partition throughput metric (north rule: "emitting
            # per-partition throughput and postings-size metrics")
            "build_ms": int((_time.monotonic() - t_start) * 1000),
        }
        write_json(os.path.join(tmp, "manifest.json"), manifest)
        write_atomic_dir(tmp, seg_dir)
    except BaseException:
        import shutil
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    _write_claim(index_dir, run_id, manifest)
    return manifest


# the five per-block metadata list columns of TERMS_SCHEMA, with the
# dtype TermPostings carries them in
_BLOCK_COLS = {"block_last_doc": np.int64, "block_max_tf": np.int32,
               "block_min_dl": np.int32, "block_doc_off": np.int64,
               "block_tf_off": np.int64}


class SegmentReader:
    """Read-side handle on one segment.  The docmap is resident from the
    start; the term dictionary (all of ``terms.parquet``: terms, block
    metadata, postings blobs) is read whole on the first postings lookup
    and kept, so every lookup is an in-memory probe of the sorted term
    column — the analog of Lucene's resident terms index (.tip/.tim) and
    of the reference's labels lookup held in each processor,
    base.py:47-55.  Docmap-only users (conversation fetch, deletes,
    attribute updates) never read the dictionary."""

    def __init__(self, seg_dir: str, block_size: int = 128):
        self.seg_dir = seg_dir
        self.block_size = block_size
        d = pq.read_table(os.path.join(seg_dir, "docs.parquet"))
        self.docs = d                  # full docmap incl. attribute columns
        self.conv_id = d["conv_id"].combine_chunks()
        self.turn_idx = d["turn_idx"].combine_chunks()
        self.doclen = d["doclen"].to_numpy(zero_copy_only=False).astype(np.int64)
        self.n_docs = d.num_rows
        self._terms: pa.StringArray | None = None
        self.reload_deletes()

    def reload_deletes(self) -> None:
        """(Re)load this segment's tombstone sidecar (Lucene .liv
        analog): ``deletes.parquet`` holds LOCAL doc ids marked deleted
        by :func:`vframe_ray.index.build.delete_docs`.  ``alive`` is a
        bool mask (None = nothing deleted); corpus stats stay pre-delete
        until compaction physically purges (documented Lucene
        semantics)."""
        path = os.path.join(self.seg_dir, "deletes.parquet")
        if os.path.exists(path):
            dels = pq.read_table(path, columns=["doc_local"])["doc_local"] \
                .to_numpy(zero_copy_only=False)
            alive = np.ones(self.n_docs, dtype=bool)
            alive[dels.astype(np.int64)] = False
            self.alive = alive
        else:
            self.alive = None

    def _corrupt(self, what: str) -> ValueError:
        return ValueError(f"corrupt segment {self.seg_dir}: "
                          f"terms.parquet {what}")

    @property
    def terms(self) -> pa.StringArray:
        """The sorted term column; the first access reads and checks the
        whole dictionary.  Cheap vectorized checks make a damaged file
        raise here instead of answering from wrong postings."""
        if self._terms is not None:
            return self._terms
        try:
            t = pq.ParquetFile(os.path.join(self.seg_dir,
                                            "terms.parquet")).read()
        except (OSError, pa.ArrowException) as e:
            raise self._corrupt(f"is unreadable ({e})") from e
        if t.column_names != TERMS_SCHEMA.names:
            raise self._corrupt(f"has columns {t.column_names}")
        col = {name: t[name].combine_chunks() for name in t.column_names}
        terms, blob = col["term"], col["blob"]
        n = len(terms)
        if terms.null_count or (n > 1 and not pc.all(pc.less(
                terms.slice(0, n - 1), terms.slice(1))).as_py()):
            raise self._corrupt("terms are not strictly ascending")
        # zero-copy views: blob byte offsets + data, list offsets + values
        _, offsets, data = blob.buffers()
        self._blob_off = np.frombuffer(offsets, np.int64,
                                       n + 1 + blob.offset)[blob.offset:]
        self._blob_data = memoryview(data or b"")
        self._n_docs, self._tf_off, self._pos_off = (
            col[c].to_numpy(zero_copy_only=False).astype(np.int64)
            for c in ("n_docs", "tf_section_off", "pos_section_off"))
        if not ((0 <= self._tf_off) & (self._tf_off <= self._pos_off)
                & (self._pos_off <= np.diff(self._blob_off))).all():
            raise self._corrupt("section offsets lie outside their blob")
        n_blocks = -(-self._n_docs // self.block_size)
        self._blocks = {}
        for c, dt in _BLOCK_COLS.items():
            off = col[c].offsets.to_numpy()
            if not np.array_equal(np.diff(off), n_blocks):
                raise self._corrupt(f"{c} lists do not hold one entry per "
                                    f"block of {self.block_size} docs")
            self._blocks[c] = (off, col[c].values.to_numpy(
                zero_copy_only=False).astype(dt, copy=False))
        self._terms = terms
        return terms

    def has_terms(self, terms: list[str]) -> np.ndarray:
        """Bool mask: which of ``terms`` this segment holds (one
        vectorized membership test)."""
        return pc.is_in(pa.array(terms, pa.string()),
                        value_set=self.terms).to_numpy(zero_copy_only=False)

    def load_terms(self, terms: list[str]) -> dict[str, TermPostings]:
        """Postings of the ``terms`` this segment holds: one probe of the
        resident term column, then each :class:`TermPostings` built from
        zero-copy slices of the dictionary (blob bytes, block lists)."""
        if not terms:
            return {}
        rows = pc.index_in(pa.array(terms, pa.string()), value_set=self.terms)
        out: dict[str, TermPostings] = {}
        for t, r in zip(terms, rows.to_pylist()):
            if r is None:
                continue
            blocks = {c: v[off[r]:off[r + 1]]
                      for c, (off, v) in self._blocks.items()}
            out[t] = TermPostings(
                n_docs=int(self._n_docs[r]),
                blob=self._blob_data[self._blob_off[r]:self._blob_off[r + 1]],
                tf_section_off=int(self._tf_off[r]),
                pos_section_off=int(self._pos_off[r]), **blocks)
        return out
