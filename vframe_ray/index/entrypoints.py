"""One-shot query entry points: the ``*_index`` functions.

Each function runs the shared one-shot prologue
(:func:`~vframe_ray.index.scatter.open_index`: one alias resolve, meta,
config, predicate check, tokenizer), plans its request through the mode
table (:mod:`.plan`), does one global-df lookup, scatters the mode's
segment kernel over ephemeral Ray Data tasks and merges the partials
with the table's shared merge.  The expansion modes (prefix, wildcard,
regex, fuzzy, synonyms, more-like-this) rewrite their queries against
the dictionary and delegate to :func:`search_index`; the composites
(explain, export, retrieval evaluation) scatter their own segment
functions through the same prologue and scatter helper.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from ..analyze import Tokenizer
from ..config import BM25Config, EngineConfig
from . import plan as P
from .plan import parse_boosted_query  # noqa: F401  (import surface)
from .scatter import (_SearcherStage, open_index, open_indexes, run_mode,
                      run_op_segment, scatter, scatter_ds, stage_kwargs,
                      validate_predicates)  # noqa: F401
from .searcher import (_RESULT_SCHEMA, SegmentSearcher, _global_df_for_terms,
                       _merge_topk_driver, idf)
from ..state.manifest import terms_dir as _terms_dir


def search_index(index_dir: str, queries: list[dict],
                 cfg: EngineConfig | None = None, *,
                 use_bmw: bool = True, concurrency=(1, 8),
                 predicates: list[str] | None = None,
                 collapse: bool = False,
                 driver_merge_max_rows: int = 1_000_000) -> pa.Table:
    """Distributed top-k search.

    queries: [{"query_id", "query_text", "k"}] →
    table (query_id, rank, conv_id, turn_idx, score) sorted by
    (query_id, rank); global order = (score desc, conv_id, turn_idx).

    ``collapse=True`` = field collapsing: top-k CONVERSATIONS per query,
    each represented by its single best turn (per-conv ties: smallest
    turn_idx).  Exact with per-segment collapsed top-k and the ordinary
    merge, because the build's ``hash(conv_id)`` partitioning puts every
    turn of a conversation in one segment — conversations are disjoint
    across segments, so no cross-segment re-collapse is needed.

    Pagination: a per-query ``"offset"`` returns ranks
    (offset, offset+k] with GLOBAL rank numbers — exact because each
    segment fetches its local top-(offset+k), a superset of every
    possible page member.

    Per-query filters: a query may carry ``"filter": ["attr op value",
    …]`` (the filter-context-per-request shape) — validated like the
    global ``predicates`` and ANDed with them for that query only.
    """
    return _search(open_index(index_dir, cfg, predicates), queries,
                   use_bmw=use_bmw, concurrency=concurrency,
                   predicates=predicates, collapse=collapse,
                   driver_merge_max_rows=driver_merge_max_rows)


def _search(ix, queries: list[dict], *, use_bmw: bool = True,
            concurrency=(1, 8), predicates: list[str] | None = None,
            collapse: bool = False,
            driver_merge_max_rows: int = 1_000_000) -> pa.Table:
    req = ix.plan("search", queries, use_bmw=use_bmw, collapse=collapse)
    idf_map = P.resolve_idf([req], ix.df, ix.stats["n_docs"])
    payload = dict(op=req.op(), predicates=predicates)
    max_hits = sum(req.ks().values()) * len(ix.seg_dirs)
    if max_hits <= driver_merge_max_rows:
        # Small scatter-gather: per-segment top-k as plain TASKS (reuse
        # warm workers, no actor-pool spin-up) and merge the ≤1M candidate
        # rows on the driver — one round-trip, no shuffle.
        return P.merge(req, scatter(ix, run_op_segment, idf_map, **payload))
    # Large fan-in: distributed merge via groupby(query_id) so no
    # single process holds every candidate row.
    kw = stage_kwargs(ix, run_op_segment, idf_map, **payload)
    hits = ray.data.from_items([{"seg_dir": d} for d in ix.seg_dirs]) \
        .map_batches(_SearcherStage, fn_constructor_kwargs=kw,
                     batch_format="pyarrow", batch_size=1,
                     concurrency=concurrency)
    ks, offsets = req.ks(), req.offsets

    def merge(group: pa.Table) -> pa.Table:
        qid = int(group["query_id"][0].as_py())
        off = offsets.get(qid, 0)
        df = group.to_pandas().sort_values(
            ["score", "conv_id", "turn_idx"],
            ascending=[False, True, True]).head(ks[qid]).iloc[off:]
        df["rank"] = np.arange(off + 1, off + len(df) + 1,
                               dtype=np.int32)
        return pa.Table.from_pandas(df[["query_id", "rank", "conv_id",
                                        "turn_idx", "score"]],
                                    preserve_index=False) \
            .replace_schema_metadata(None)

    merged = hits.groupby("query_id").map_groups(
        merge, batch_format="pyarrow").to_pandas()
    if merged.empty:
        return _RESULT_SCHEMA.empty_table()
    out = pa.Table.from_pandas(
        merged.sort_values(["query_id", "rank"]), preserve_index=False)
    return out.cast(_RESULT_SCHEMA)


def phrase_rank_index(index_dir: str, phrases: list[dict],
                      cfg: EngineConfig | None = None, *,
                      predicates: list[str] | None = None) -> pa.Table:
    """Distributed RANKED phrase search: per-segment tasks intersect
    positions and BM25-score the hits (SegmentSearcher.
    search_ranked_phrases); the driver merges k·S candidate rows.

    phrases: [{"query_id", "phrase", "k"}] →
    (query_id, rank, conv_id, turn_idx, score) like :func:`search_index`.
    """
    return run_mode(open_index(index_dir, cfg, predicates), "phrase_rank",
                    phrases, predicates)


def proximity_rank_index(index_dir: str, queries: list[dict],
                         cfg: EngineConfig | None = None, *,
                         predicates: list[str] | None = None) -> pa.Table:
    """Distributed RANKED proximity (NEAR/W) search: per-segment tasks
    find docs where all distinct query terms co-occur within a
    ``window``-token span and BM25-score the hits
    (SegmentSearcher.search_proximity); the driver merges k·S rows.

    queries: [{"query_id", "query_text", "window", "k", "ordered"?}] →
    (query_id, rank, conv_id, turn_idx, score) like :func:`search_index`.
    ``ordered=True`` requires the terms in the given order (span-near).
    """
    return run_mode(open_index(index_dir, cfg, predicates), "proximity",
                    queries, predicates)


def span_first_search_index(index_dir: str, queries: list[dict],
                            cfg: EngineConfig | None = None, *,
                            predicates: list[str] | None = None
                            ) -> pa.Table:
    """Distributed span-first search (Lucene SpanFirstQuery applied
    conjunctively): per-segment tasks find docs where EVERY query term
    occurs within the first ``limit`` token positions and BM25-score
    the hits (SegmentSearcher.search_span_first); the driver merges
    k·S rows.  "Matches in the opening" retrieval — leads, titles,
    prompt headers.

    queries: [{"query_id", "query_text", "limit", "k"}] →
    (query_id, rank, conv_id, turn_idx, score) like :func:`search_index`.
    """
    return run_mode(open_index(index_dir, cfg, predicates), "span_first",
                    queries, predicates)


def search_common_index(index_dir: str, queries: list[dict],
                        cfg: EngineConfig | None = None, *,
                        max_df_num: int = 2, max_df_den: int = 5,
                        predicates: list[str] | None = None
                        ) -> pa.Table:
    """Distributed common-terms search (Lucene CommonTermsQuery):
    recall driven by LOW-df terms only (a doc qualifies iff it holds
    >= 1 query term with global df·den < n_docs·num — an exact integer
    rule, no float cutoff), scoring = plain BM25 over every query term
    present.  Queries whose terms are all high-df fall back to plain
    any-term recall (the Lucene rule).  The low/high split runs ONCE on
    the driver against global df; segments receive the decided split.

    queries: [{"query_id", "query_text", "k"}] → (query_id, rank,
    conv_id, turn_idx, score) like :func:`search_index`.
    """
    return run_mode(open_index(index_dir, cfg, predicates), "common",
                    queries, predicates, max_df_num=max_df_num,
                    max_df_den=max_df_den)


def sort_by_attr_index(index_dir: str, queries: list[dict], attr: str,
                       cfg: EngineConfig | None = None, *,
                       predicates: list[str] | None = None) -> pa.Table:
    """Distributed sort-by-field search: docs matching >= 1 query term,
    globally ordered by (attr desc, conv_id, turn_idx) — relevance
    ignored (SegmentSearcher.match_sorted_by_attr); the score column
    carries the attribute value, so the standard driver merge yields
    the field ordering.

    queries: [{"query_id", "query_text", "k"}] → (query_id, rank,
    conv_id, turn_idx, score=attr value).
    """
    ix = open_index(index_dir, cfg)
    ix.validate((predicates or []) + [f"{attr} > 0"])
    return run_mode(ix, "sort_by_attr", queries, predicates, attr=attr)


def phrase_search_index(index_dir: str, phrases: list[dict],
                        cfg: EngineConfig | None = None, *,
                        predicates: list[str] | None = None) -> pa.Table:
    """Distributed exact-phrase search: positional intersection runs
    INSIDE per-segment tasks (scatter-gather like BM25) — no postings
    are ever decoded on the driver (the round-1 driver-side segment
    loop was the scale-killer flagged in VERDICT.md).

    phrases: [{"query_id", "phrase"}] →
    table (query_id, conv_id, turn_idx) sorted ascending.
    """
    return run_mode(open_index(index_dir, cfg, predicates), "phrases",
                    phrases, predicates)


def facet_counts_index(index_dir: str, queries: list[dict],
                       facet_col: str,
                       cfg: EngineConfig | None = None, *,
                       predicates: list[str] | None = None) -> pa.Table:
    """Distributed faceted search: per-segment match-set facet partials
    (≤ queries × facet-cardinality rows per segment, already reduced),
    summed in one tiny driver groupby — the maximally pre-aggregated
    combiner shape, no shuffle.

    queries: [{"query_id", "query_text"}] →
    table (query_id, facet, n) sorted by (query_id, facet)."""
    return run_mode(open_index(index_dir, cfg, predicates), "facets",
                    queries, predicates, facet_col=facet_col)


def facet_ranges_index(index_dir: str, queries: list[dict],
                       bin_width: int = 16,
                       cfg: EngineConfig | None = None, *,
                       predicates: list[str] | None = None) -> pa.Table:
    """Distributed RANGE facets: per-query doc-length histogram over the
    full match set (bin_lo = (dl // bin_width) · bin_width).  Identical
    shape to :func:`facet_counts_index` — per-segment partials are
    already ≤ queries × bins rows, one tiny driver sum, no shuffle.

    queries: [{"query_id", "query_text"}] →
    table (query_id, bin_lo, n) sorted by (query_id, bin_lo)."""
    return run_mode(open_index(index_dir, cfg, predicates), "facet_ranges",
                    queries, predicates, bin_width=bin_width)


def facet_stats_index(index_dir: str, queries: list[dict],
                      facet_col: str,
                      cfg: EngineConfig | None = None, *,
                      predicates: list[str] | None = None) -> pa.Table:
    """Faceted stats: per query and facet value, the match-set doc
    count AND mean document length (the ES terms-aggregation with an
    avg sub-metric).  Per-segment partials are INTEGER (n, Σdl) and
    ≤ queries × facet-cardinality rows each — summed in one tiny
    driver groupby; the mean is ONE float division, mirrored in the
    SQL oracle.

    queries: [{"query_id", "query_text"}] →
    table (query_id, facet, n, avg_dl) sorted by (query_id, facet)."""
    return run_mode(open_index(index_dir, cfg, predicates), "facet_stats",
                    queries, predicates, facet_col=facet_col)


def match_counts_index(index_dir: str, queries: list[dict],
                       cfg: EngineConfig | None = None, *,
                       predicates: list[str] | None = None) -> pa.Table:
    """Distributed total-hit counts: per-segment (query_id, n) partials
    (docs are disjoint across segments, so partials sum exactly) merged
    in one tiny driver groupby.  Queries with no matches report n = 0.

    queries: [{"query_id", "query_text"}] → (query_id, n) sorted."""
    return run_mode(open_index(index_dir, cfg, predicates), "match_counts",
                    queries, predicates)


def search_after_index(index_dir: str, queries: list[dict],
                       cfg: EngineConfig | None = None, *,
                       predicates: list[str] | None = None) -> pa.Table:
    """Distributed cursor (search_after) pagination: queries
    [{"query_id", "query_text", "k", "after": (score, conv_id,
    turn_idx)}] → the k results ranked strictly after the cursor in the
    global (score desc, conv_id, turn_idx) order.  Each segment emits
    only k rows however deep the page — the scale advantage over
    ``offset=`` (which over-fetches offset+k per segment)."""
    return run_mode(open_index(index_dir, cfg, predicates), "after",
                    queries, predicates)


def search_boosted_index(index_dir: str, queries: list[dict],
                         cfg: EngineConfig | None = None, *,
                         predicates: list[str] | None = None) -> pa.Table:
    """Distributed per-term boosted search: boost multiplies the term's
    whole BM25 contribution via an effective idf (boost · idf), reusing
    the exact TAAT scorer per segment (SegmentSearcher.search_boosted).

    queries: [{"query_id", "query_text", "k"}] with ``term^2.5``
    syntax → (query_id, rank, conv_id, turn_idx, score)."""
    return run_mode(open_index(index_dir, cfg, predicates), "boosted",
                    queries, predicates)


def search_boolean_index(index_dir: str, queries: list[dict],
                         cfg: EngineConfig | None = None, *,
                         predicates: list[str] | None = None) -> pa.Table:
    """Distributed boolean (must/should/must_not) top-k search.

    queries: [{"query_id", "must", "should", "must_not", "k"}] with the
    three clause fields free text run through the index analyzer →
    table (query_id, rank, conv_id, turn_idx, score) like
    :func:`search_index`.  Semantics per :meth:`SegmentSearcher.
    search_boolean`: docs must contain every must term and no must_not
    term; score = BM25 over the present must∪should terms.  The
    scatter-gather is identical to plain search — per-segment top-k
    candidates, one driver merge over ≤ k·S rows — and sound because a
    doc's full posting state lives in exactly one segment.
    """
    return run_mode(open_index(index_dir, cfg, predicates), "boolean",
                    queries, predicates)


def function_score_index(index_dir: str, queries: list[dict],
                         attr: str, weight: float = 0.2, *,
                         predicates: list[str] | None = None) -> pa.Table:
    """Function-score search (field_value_factor): ranks by
    BM25 × (1 + weight·ln(1 + docmap ``attr``)) — the
    attribute-boosted retrieval every freshness/popularity ranker runs.
    Exact: per-segment every candidate is sparse-scored and rescaled
    before its local top-k (WAND pruning is invalid under a per-doc
    multiplier — see SegmentSearcher.search_function_score), then the
    usual ≤ k·segments driver merge.

    queries: [{"query_id", "query_text", "k"}] →
    table (query_id, rank, conv_id, turn_idx, score)."""
    ix = open_index(index_dir, None, predicates)
    # fail fast on an unknown attribute column (same pre-flight as
    # predicate validation)
    if ix.seg_dirs:
        cols = set(pq.read_schema(
            os.path.join(ix.seg_dirs[0], "docs.parquet")).names)
        if attr not in cols:
            raise ValueError(
                f"function-score attribute {attr!r} not in docmap "
                f"columns {sorted(cols)} (pass attribute_cols=[...] "
                f"at build_index time)")
    return run_mode(ix, "function_score", queries, predicates, attr=attr,
                    weight=weight)


def search_boosting_index(index_dir: str, queries: list[dict],
                          cfg: EngineConfig | None = None, *,
                          predicates: list[str] | None = None
                          ) -> pa.Table:
    """Boosting query (the Elasticsearch ``boosting`` compound): rank
    by the POSITIVE query's BM25 score, but docs matching the NEGATIVE
    query keep their relevance demoted by ``negative_boost`` — softer
    than must_not, which drops them outright.

    queries: [{"query_id", "positive", "negative", "negative_boost",
    "k"}] → (query_id, rank, conv_id, turn_idx, score), global order
    (score desc, conv_id, turn_idx).

    Exact top-k with the standard scatter-gather: each segment scores
    its positive candidates, demotes the negative matchers (one
    ``np.isin`` against the segment's negative-candidate ids — the
    demotion happens BEFORE the local top-k cut, so the per-segment
    top-k is a superset-safe merge input), and emits only its local
    top-k; the driver merge is the shared
    :func:`~vframe_ray.index.searcher._merge_topk_driver`.
    """
    return run_mode(open_index(index_dir, cfg, predicates), "boosting",
                    queries, predicates)


def top_hits_index(index_dir: str, queries: list[dict], facet_col: str,
                   cfg: EngineConfig | None = None, *,
                   predicates: list[str] | None = None) -> pa.Table:
    """ES ``top_hits`` aggregation: per query and FACET VALUE, the
    top-``h`` matching docs by BM25 — "the best examples in every
    category" in one call.

    queries: [{"query_id", "query_text", "h"}] →
    (query_id, facet, rank, conv_id, turn_idx, score) sorted by
    (query_id, facet, rank); rank order (score desc, conv_id,
    turn_idx) within its (query, facet) bucket.  Exact: each segment
    emits ≤ h rows per (query, facet) (a doc's facet value is a docmap
    attribute, constant across segments), the driver merges
    ≤ h · segments · facets rows per query.
    """
    return run_mode(open_index(index_dir, cfg, predicates), "top_hits",
                    queries, predicates, facet_col=facet_col)


def search_federated(index_dirs: list[str], queries: list[dict],
                     cfg: EngineConfig | None = None, *,
                     use_bmw: bool = True,
                     predicates: list[str] | None = None) -> pa.Table:
    """Federated top-k search over SEVERAL indexes as one logical
    corpus — the cross-cluster-search analog, and the query-side
    complement of :func:`~vframe_ray.index.merge.merge_indexes` /
    ``extend_index`` (those rewrite bytes; this rewrites nothing).

    Corpus statistics are combined exactly — N = Σ n_docs,
    avgdl = Σ total_len / Σ n_docs, df(t) = Σ per-index df(t) — and
    every segment of every index scores against the COMBINED stats, so
    the result is value-identical to a single index built over the
    union corpus (asserted in tests and by the ``bm25_federated``
    SQL oracle, which is the plain full-corpus BM25 oracle).  The
    scatter-gather is the ordinary one: per-segment top-k tasks over
    the union segment list, ≤ k·ΣS driver-merged rows.

    The indexes must share analyzer/BM25 config (same rule as segment
    merge, index/compact.py) and hold disjoint doc spaces — federation
    over partitions of a corpus, not replicas.
    """
    return _search(open_indexes(index_dirs, cfg, predicates), queries,
                   use_bmw=use_bmw, predicates=predicates)


# ------------------------------------------------ dictionary expansions
def expand_prefix_terms(index_dir: str, prefixes: list[str]
                        ) -> dict[str, list[str]]:
    """Expand prefixes against the GLOBAL term dictionary in one pruned
    range read (OR-of-ranges DNF filter; ``global/terms`` is the
    complete corpus vocabulary with df ≥ 1).  Expansion must be global,
    not per-segment: every segment has to score the same expanded term
    set with the same global df, or per-segment top-k merges would be
    inconsistent.  The analyzer emits only ``[a-z0-9]+`` runs, so
    ``prefix + '{'`` (chr after 'z') upper-bounds every continuation."""
    gdir = _terms_dir(index_dir)
    files = [os.path.join(gdir, f) for f in sorted(os.listdir(gdir))
             if f.endswith(".parquet")]
    out: dict[str, list[str]] = {p: [] for p in prefixes}
    if not files or not prefixes:
        return out
    filt = [[("term", ">=", p), ("term", "<", p + "{")]
            for p in sorted(set(prefixes))]
    t = pq.ParquetDataset(files, filters=filt).read(columns=["term"])
    vocab = sorted(set(t["term"].to_pylist()))
    for p in out:
        out[p] = [v for v in vocab if v.startswith(p)]
    return out


def suggest_terms(index_dir: "str | list[str]", prefixes: list[str],
                  k: int = 10) -> pa.Table:
    """Autocomplete: for each prefix, the top-k corpus terms by document
    frequency (df desc, term asc) from the GLOBAL term dictionary — the
    same pruned OR-of-ranges read as :func:`expand_prefix_terms`, plus
    the df column.  A dictionary-only operator: no postings are touched,
    so cost is O(matching dictionary rows), independent of corpus size.
    A list of dirs = federated: per-term df SUMS across the indexes
    before the top-k cut (per-index top-k would be unsound — a term
    ranked low everywhere can sum high).

    Returns (prefix, term, df) sorted by (prefix, term)."""
    dirs = [index_dir] if isinstance(index_dir, str) else list(index_dir)
    out_prefix: list[str] = []
    out_term: list[str] = []
    out_df: list[int] = []
    dfsum: dict[str, int] = {}
    if prefixes:
        filt = [[("term", ">=", p), ("term", "<", p + "{")]
                for p in sorted(set(prefixes))]
        for d in dirs:
            gdir = _terms_dir(d)
            files = [os.path.join(gdir, f)
                     for f in sorted(os.listdir(gdir))
                     if f.endswith(".parquet")]
            if not files:
                continue
            t = pq.ParquetDataset(files, filters=filt).read(
                columns=["term", "df"])
            for tm, dv in zip(t["term"].to_pylist(),
                              t["df"].to_pylist()):
                dfsum[tm] = dfsum.get(tm, 0) + int(dv)
        for p in sorted(set(prefixes)):
            cand = [(d, tm) for tm, d in dfsum.items()
                    if tm.startswith(p)]
            cand.sort(key=lambda x: (-x[0], x[1]))
            for d, tm in cand[:k]:
                out_prefix.append(p)
                out_term.append(tm)
                out_df.append(int(d))
    tbl = pa.table({"prefix": pa.array(out_prefix, pa.string()),
                    "term": pa.array(out_term, pa.string()),
                    "df": pa.array(out_df, pa.int64())})
    return tbl.sort_by([("prefix", "ascending"), ("term", "ascending")])


def _parse_wildcard_queries(tok: Tokenizer, queries: list[dict]
                            ) -> tuple[list[tuple], set[str]]:
    """Split each query into literal terms and '*'-suffixed prefixes."""
    per_q: list[tuple[int, list[str], list[str], int]] = []
    all_prefixes: set[str] = set()
    for q in queries:
        literals: list[str] = []
        prefixes: list[str] = []
        for raw in str(q.get("query_text", "")).split():
            if raw.endswith("*"):
                stem = tok.tokenize(raw[:-1])
                if stem:                     # "foo-bar*": prefix applies
                    literals += stem[:-1]    # to the last token only
                    prefixes.append(stem[-1])
            else:
                literals += tok.tokenize(raw)
        all_prefixes.update(prefixes)
        per_q.append((int(q["query_id"]), literals, prefixes,
                      int(q.get("k", 10))))
    return per_q, all_prefixes


def _expand_wildcards(index_dir: "str | list[str]", per_q: list[tuple],
                      all_prefixes: set[str]) -> list[dict]:
    # a list of dirs = federated: the expansion is the UNION of each
    # index's dictionary matches (a term present anywhere must score)
    dirs = [index_dir] if isinstance(index_dir, str) else list(index_dir)
    expansion: dict[str, set] = {p: set() for p in all_prefixes}
    for d in dirs:
        for p, ts in expand_prefix_terms(d, sorted(all_prefixes)).items():
            expansion[p].update(ts)
    plain = []
    for qid, literals, prefixes, k in per_q:
        terms = set(literals)
        for p in prefixes:
            terms.update(expansion[p])
        plain.append({"query_id": qid, "query_text": " ".join(sorted(terms)),
                      "k": k})
    return plain


def search_prefix_index(index_dir: str, queries: list[dict],
                        cfg: EngineConfig | None = None, *,
                        predicates: list[str] | None = None,
                        collapse: bool = False) -> pa.Table:
    """Wildcard/prefix search: query tokens ending in ``*`` expand
    against the global term dictionary; the expanded term union then
    scores exactly like a plain multi-term query (each expanded term
    contributes its own idf — per-term-idf expansion semantics).

    queries: [{"query_id", "query_text", "k"}] with e.g.
    ``"sp* merge"`` → same result shape as :func:`search_index`, to
    which this delegates after expansion (one tiny dictionary range
    read; everything downstream — scoring paths, predicates, collapse,
    merge — is the plain machinery)."""
    ix = open_index(index_dir, cfg)
    per_q, all_prefixes = _parse_wildcard_queries(ix.tok, queries)
    plain = _expand_wildcards(ix.dir, per_q, all_prefixes)
    return search_index(ix.dir, plain, cfg, predicates=predicates,
                        collapse=collapse)


def _mlt_seed_tfs(tok: Tokenizer, seeds: list[dict]
                  ) -> tuple[list[tuple[int, dict, int]], set[str]]:
    """Per-seed term frequencies + the union vocabulary."""
    seed_tfs: list[tuple[int, dict[str, int], int]] = []
    all_terms: set[str] = set()
    for s in seeds:
        tf: dict[str, int] = {}
        for t in tok.tokenize(str(s.get("text", ""))):
            tf[t] = tf.get(t, 0) + 1
        all_terms.update(tf)
        seed_tfs.append((int(s["query_id"]), tf, int(s.get("k", 10))))
    return seed_tfs, all_terms


def _mlt_plain_queries(seed_tfs, seeds, gdf: dict[str, int], n_docs: int,
                       max_query_terms: int) -> list[dict]:
    """Select each seed's most informative terms (tf × idf desc, term
    asc) and emit plain queries, over-fetching k+1 when the seed doc
    itself will be excluded afterwards."""
    plain = []
    for (qid, tf, k), s in zip(seed_tfs, seeds):
        scored = [(-tf[t] * idf(n_docs, gdf[t]), t) for t in tf if t in gdf]
        scored.sort()                       # weight desc, term asc
        chosen = sorted(t for _, t in scored[:max_query_terms])
        plain.append({"query_id": qid, "query_text": " ".join(chosen),
                      "k": k + (1 if s.get("exclude") else 0)})
    return plain


def _mlt_trim_excluded(res: pa.Table, seeds: list[dict]) -> pa.Table:
    """Drop each seed's excluded identity and re-rank to the original k."""
    drop = {int(s["query_id"]): tuple(s["exclude"])
            for s in seeds if s.get("exclude")}
    if not drop or res.num_rows == 0:
        return res
    df = res.to_pandas()
    excl = df.apply(lambda r: drop.get(r["query_id"]) ==
                    (r["conv_id"], r["turn_idx"]), axis=1)
    df = df[~excl]
    df["rank"] = df.groupby("query_id", sort=False).cumcount() \
        .astype("int32") + 1
    ks = {int(s["query_id"]): int(s.get("k", 10)) for s in seeds}
    df = df[df["rank"] <= df["query_id"].map(ks)]
    return pa.Table.from_pandas(df.reset_index(drop=True),
                                preserve_index=False).cast(_RESULT_SCHEMA)


def more_like_this_index(index_dir: str, seeds: list[dict],
                         cfg: EngineConfig | None = None, *,
                         max_query_terms: int = 10,
                         predicates: list[str] | None = None) -> pa.Table:
    """More-like-this: for each seed TEXT, select its most informative
    terms (tf-in-seed × global idf, ties by term asc), then run a plain
    BM25 search with them — the Elasticsearch MLT shape.

    seeds: [{"query_id", "text", "k", "exclude"?}] where ``exclude`` is
    an optional (conv_id, turn_idx) identity to drop from the result
    (the seed doc itself, which otherwise ranks first).  Exclusion
    over-fetches k+1 per query then trims, so the returned top-k is
    exact.  Term selection reads only the seed terms' dictionary rows
    (one pruned lookup), never the corpus."""
    ix = open_index(index_dir, cfg)
    seed_tfs, all_terms = _mlt_seed_tfs(ix.tok, seeds)
    plain = _mlt_plain_queries(seed_tfs, seeds, ix.df(all_terms),
                               ix.stats["n_docs"], max_query_terms)
    res = search_index(ix.dir, plain, cfg, predicates=predicates)
    return _mlt_trim_excluded(res, seeds)


def _synonym_plain_queries(tok: Tokenizer, queries: list[dict],
                           synonyms: dict[str, list[str]]) -> list[dict]:
    """Shared synonym rewrite (one-shot and QueryService): each analyzed
    term becomes {term} ∪ synonyms[term], values analyzed too."""
    syn_norm: dict[str, list[str]] = {}
    for k, vals in synonyms.items():
        kt = tok.tokenize(k)
        if len(kt) != 1:
            raise ValueError(f"synonym key {k!r} must analyze to one term")
        syn_norm[kt[0]] = [t for v in vals for t in tok.tokenize(v)]
    plain = []
    for q in queries:
        terms = set()
        for t in tok.tokenize(str(q.get("query_text", ""))):
            terms.add(t)
            terms.update(syn_norm.get(t, ()))
        plain.append({"query_id": int(q["query_id"]),
                      "query_text": " ".join(sorted(terms)),
                      "k": int(q.get("k", 10))})
    return plain


def search_synonym_index(index_dir: str, queries: list[dict],
                         synonyms: dict[str, list[str]],
                         cfg: EngineConfig | None = None, *,
                         predicates: list[str] | None = None) -> pa.Table:
    """Query-time synonym expansion: each analyzed query term is
    replaced by {term} ∪ synonyms[term] (synonym values are analyzed
    too), then the union scores as a plain multi-term query — per-term
    idf, like prefix expansion.  ``synonyms`` is user config (the
    reference's label-alias map pattern), so it broadcasts with the
    query, no data pass."""
    ix = open_index(index_dir, cfg)
    plain = _synonym_plain_queries(ix.tok, queries, synonyms)
    return search_index(ix.dir, plain, cfg, predicates=predicates)


# Fuzzy expansion lives in .fuzzy: the SymSpell deletion-table path
# (default, sublinear per query) plus the linear-scan oracle.  Re-export
# here for the established import surface.
from .fuzzy import (_levenshtein_within, expand_fuzzy_terms,  # noqa: F401,E402
                    expand_fuzzy_terms_scan)


def _fuzzy_plain_queries(index_dirs: list[str], tok: Tokenizer,
                         queries: list[dict], max_edits: int) -> list[dict]:
    """Shared fuzzy rewrite: every term expands to the dictionary terms
    within ``max_edits`` (federated: the union over the dictionaries)."""
    parsed = [(int(q["query_id"]),
               sorted(set(tok.tokenize(str(q.get("query_text", ""))))),
               int(q.get("k", 10))) for q in queries]
    all_terms = sorted({t for _, ts, _ in parsed for t in ts})
    expansion: dict[str, set] = {t: set() for t in all_terms}
    for d in index_dirs:
        for t, cs in expand_fuzzy_terms(d, all_terms, max_edits).items():
            expansion[t].update(cs)
    return [{"query_id": qid, "k": k, "query_text": " ".join(sorted(
        set().union(*(expansion[t] for t in terms))))}
        for qid, terms, k in parsed]


def search_fuzzy_index(index_dir: str, queries: list[dict],
                       cfg: EngineConfig | None = None, *,
                       max_edits: int = 1,
                       predicates: list[str] | None = None) -> pa.Table:
    """Fuzzy search: every query term expands to the dictionary terms
    within ``max_edits`` Levenshtein distance (itself included when
    present), and the union scores as a plain multi-term query."""
    ix = open_index(index_dir, cfg)
    plain = _fuzzy_plain_queries(ix.dirs, ix.tok, queries, max_edits)
    return search_index(ix.dir, plain, cfg, predicates=predicates)


def expand_like_patterns(index_dir: str, patterns: list[str]
                         ) -> dict[str, list[str]]:
    """Mid-pattern wildcard expansion (``*`` = any run, ``?`` = exactly
    one char) against the GLOBAL term dictionary.

    One pruned read narrowed by each pattern's leading LITERAL prefix
    (the same OR-of-ranges pushdown as :func:`expand_prefix_terms`),
    then one vectorized Arrow ``match_like`` kernel per pattern — no
    per-term Python.  A pattern that STARTS with a wildcard prunes via
    the character-trigram sidecar instead (pg_trgm's scheme,
    :func:`~vframe_ray.index.fuzzy.trigram_candidates`: terms
    containing every literal trigram, then match_like verifies the
    small candidate set); only a pattern with no 3+-char literal run
    ever scans the dictionary (cost per query over the vocabulary,
    never over postings)."""
    gdir = _terms_dir(index_dir)
    files = [os.path.join(gdir, f) for f in sorted(os.listdir(gdir))
             if f.endswith(".parquet")]
    out: dict[str, list[str]] = {p: [] for p in patterns}
    pats = sorted(out)
    if not files or not pats:
        return out
    import re as _re
    lits = {p: _re.match(r"[a-z0-9]*", p).group(0) for p in pats}
    cand_map: dict[str, pa.Array] = {}
    scan_pats: list[str] = []
    lead_pats = [p for p in pats if not lits[p]]
    if lead_pats:
        from .fuzzy import trigram_candidates
        for p, cand in trigram_candidates(index_dir, lead_pats).items():
            if cand is None:
                scan_pats.append(p)
            else:
                cand_map[p] = pa.array(cand, pa.string())
    prefix_pats = [p for p in pats if lits[p]]
    terms = None
    if scan_pats:
        # a no-trigram pattern forces the full read; reuse it for the
        # prefix patterns too rather than reading twice
        terms = pq.ParquetDataset(files) \
            .read(columns=["term"])["term"].combine_chunks()
        scan_pats = scan_pats + prefix_pats
    elif prefix_pats:
        filt = [[("term", ">=", lits[p]), ("term", "<", lits[p] + "{")]
                for p in prefix_pats]
        terms = pq.ParquetDataset(files, filters=filt) \
            .read(columns=["term"])["term"].combine_chunks()
        scan_pats = prefix_pats
    for p in scan_pats:
        like = p.replace("*", "%").replace("?", "_")
        out[p] = sorted(set(
            pc.filter(terms, pc.match_like(terms, like)).to_pylist()))
    for p, cand in cand_map.items():
        like = p.replace("*", "%").replace("?", "_")
        out[p] = sorted(set(
            pc.filter(cand, pc.match_like(cand, like)).to_pylist()))
    return out


def _like_plain_queries(index_dir: "str | list[str]", tok: Tokenizer,
                        queries: list[dict]) -> list[dict]:
    """Shared parse+expand for the general wildcard path (one-shot
    entry point and QueryService): tokens containing ``*``/``?``
    expand via :func:`expand_like_patterns`, literals tokenize."""
    import re as _re
    per_q, all_pats = [], set()
    for q in queries:
        literals, pats = set(), set()
        for raw in str(q.get("query_text", "")).lower().split():
            if "*" in raw or "?" in raw:
                # ASCII-strict: the '{' range upper bound in
                # expand_like_patterns is only valid for [a-z0-9]
                # prefixes (non-ASCII letters sort above '{' in UTF-8
                # and would silently fall outside the pushdown range)
                if not _re.fullmatch(r"[a-z0-9*?]+", raw):
                    raise ValueError(f"wildcard token {raw!r} may only "
                                     "contain [a-z0-9*?]")
                pats.add(raw)
            else:
                literals.update(tok.tokenize(raw))
        per_q.append((int(q["query_id"]), literals, pats,
                      int(q.get("k", 10))))
        all_pats.update(pats)
    dirs = [index_dir] if isinstance(index_dir, str) else list(index_dir)
    expansion: dict[str, set] = {p: set() for p in all_pats}
    for d in dirs:                      # federated: union of dictionaries
        for p, ts in expand_like_patterns(d, sorted(all_pats)).items():
            expansion[p].update(ts)
    plain = []
    for qid, literals, pats, k in per_q:
        terms = set(literals)
        for p in pats:
            terms.update(expansion[p])
        plain.append({"query_id": qid,
                      "query_text": " ".join(sorted(terms)), "k": k})
    return plain


def search_like_index(index_dir: str, queries: list[dict],
                      cfg: EngineConfig | None = None, *,
                      predicates: list[str] | None = None,
                      collapse: bool = False) -> pa.Table:
    """General wildcard search: query tokens containing ``*`` / ``?``
    ANYWHERE (``m?chine ver*fy``, not just trailing-star prefixes)
    expand against the dictionary, then the term union scores as a
    plain multi-term query with per-term idf — same delegation shape
    as prefix/fuzzy/synonym search."""
    ix = open_index(index_dir, cfg)
    plain = _like_plain_queries(ix.dir, ix.tok, queries)
    return search_index(ix.dir, plain, cfg, predicates=predicates,
                        collapse=collapse)


def phrase_prefix_search_index(index_dir: str, queries: list[dict],
                               cfg: EngineConfig | None = None, *,
                               max_expansions: int = 50) -> pa.Table:
    """Phrase-prefix match (Elasticsearch ``match_phrase_prefix``
    analog): the LAST token of each phrase is treated as a PREFIX; a
    doc matches when it contains the fixed tokens immediately followed
    by ANY dictionary term with that prefix.

    The prefix expands against the global dictionary (one pruned range
    read, :func:`expand_prefix_terms`), alphabetically capped at
    ``max_expansions`` (the ES rule); each expansion becomes one exact
    phrase variant, all variants run through the ordinary per-segment
    positional machinery in ONE scatter (no extra passes per variant),
    and the driver dedups the variant union per query — ≤ matches
    rows, never positions.  Returns (query_id, conv_id, turn_idx)
    sorted ascending, like :func:`phrase_search_index`.

    Note: variants re-tokenize through the index analyzer; analyzer
    outputs are fixed points of the default and s-stem analyzers, so
    the join+retokenize round trip is identity."""
    ix = open_index(index_dir, cfg)
    phrases = P.MODES["phrases"]
    parsed = P.parse_queries(phrases.parse, ix.tok, queries)
    prefixes = sorted({t[-1] for _, t in parsed if t})
    exp = expand_prefix_terms(ix.dir, prefixes)
    variants, owner = [], []
    for qid, terms in parsed:
        if not terms:
            continue
        for e in exp.get(terms[-1], [])[:max_expansions]:
            variants.append({"query_id": len(variants),
                             "phrase": " ".join(terms[:-1] + [e])})
            owner.append(qid)
    if not variants:
        return phrases.schema.empty_table()
    hits = phrase_search_index(ix.dir, variants, cfg)
    if not hits.num_rows:
        return phrases.schema.empty_table()
    df = hits.to_pandas()
    df["query_id"] = np.array(owner, dtype=np.int32)[
        df["query_id"].to_numpy()]
    df = df.drop_duplicates(["query_id", "conv_id", "turn_idx"]) \
        .sort_values(["query_id", "conv_id", "turn_idx"])
    return pa.Table.from_pandas(df, preserve_index=False).cast(
        phrases.schema)


def expand_regex_patterns(index_dir: str, patterns: list[str]
                          ) -> dict[str, list[str]]:
    """Full-match regex expansion against the GLOBAL term dictionary
    (Lucene RegexpQuery analog; reference analog: the skip-file attr
    DSL's pattern predicates, src/commands/pipe/skip-file.py:30-75).

    A leading run of literal ``[a-z0-9]`` characters prunes the
    dictionary read via the same OR-of-ranges pushdown as
    :func:`expand_like_patterns` — EXCEPT that a quantifier
    (``* + ? {``) immediately after the literal run binds to the run's
    LAST character, so that character is dropped from the prune prefix
    (``ver*`` must still match ``ve``).  Patterns with no usable
    literal prefix scan the dictionary — per-query cost over the
    vocabulary, never over postings (Lucene's leading-wildcard trade).
    Matching is one vectorized Arrow ``match_substring_regex`` kernel
    per pattern, anchored ``^(?:p)$`` — RE2 on the engine side and in
    the DuckDB oracle, so semantics agree by construction."""
    gdir = _terms_dir(index_dir)
    files = [os.path.join(gdir, f) for f in sorted(os.listdir(gdir))
             if f.endswith(".parquet")]
    out: dict[str, list[str]] = {p: [] for p in patterns}
    pats = sorted(out)
    if not files or not pats:
        return out
    import re as _re
    lits = {}
    for p in pats:
        lit = _re.match(r"[a-z0-9]*", p).group(0)
        if lit and p[len(lit):len(lit) + 1] in {"*", "+", "?", "{"}:
            lit = lit[:-1]
        lits[p] = lit
    filt = None
    if all(lits[p] for p in pats):
        filt = [[("term", ">=", lits[p]), ("term", "<", lits[p] + "{")]
                for p in pats]
    terms = pq.ParquetDataset(files, filters=filt) \
        .read(columns=["term"])["term"].combine_chunks()
    for p in pats:
        out[p] = sorted(set(pc.filter(
            terms,
            pc.match_substring_regex(terms, f"^(?:{p})$")).to_pylist()))
    return out


_REGEX_TOKEN_CHARS = r"[a-z0-9.*+?|(){}\[\]\-,]+"


def _regex_plain_queries(index_dir: "str | list[str]", tok: Tokenizer,
                         queries: list[dict]) -> list[dict]:
    """Shared parse+expand for the regex path: every whitespace token
    of ``query_text`` is a full-match regex over dictionary terms;
    the query rewrites to the union of all matched terms (per-term-idf
    scoring, the prefix/wildcard/fuzzy delegation shape)."""
    import re as _re
    per_q, all_pats = [], set()
    for q in queries:
        pats = set()
        for raw in str(q.get("query_text", "")).lower().split():
            if not _re.fullmatch(_REGEX_TOKEN_CHARS, raw):
                raise ValueError(f"regex token {raw!r} may only "
                                 f"contain {_REGEX_TOKEN_CHARS}")
            _re.compile(raw)            # reject malformed patterns early
            pats.add(raw)
        per_q.append((int(q["query_id"]), pats, int(q.get("k", 10))))
        all_pats.update(pats)
    dirs = [index_dir] if isinstance(index_dir, str) else list(index_dir)
    expansion: dict[str, set] = {p: set() for p in all_pats}
    for d in dirs:                      # federated: union of dictionaries
        for p, ts in expand_regex_patterns(d, sorted(all_pats)).items():
            expansion[p].update(ts)
    return [{"query_id": qid,
             "query_text": " ".join(sorted(
                 set().union(*(expansion[p] for p in pats))
                 if pats else set())),
             "k": k} for qid, pats, k in per_q]


def search_regex_index(index_dir: str, queries: list[dict],
                       cfg: EngineConfig | None = None, *,
                       predicates: list[str] | None = None,
                       collapse: bool = False) -> pa.Table:
    """Regex term search: each query token is a full-match regular
    expression expanded against the dictionary, then the term union
    scores as a plain multi-term query with per-term idf — same
    delegation shape as prefix/wildcard/fuzzy/synonym search."""
    ix = open_index(index_dir, cfg)
    plain = _regex_plain_queries(ix.dir, ix.tok, queries)
    return search_index(ix.dir, plain, cfg, predicates=predicates,
                        collapse=collapse)


def suggest_corrections(index_dir: str, terms: list[str],
                        max_edits: int = 1) -> pa.Table:
    """Did-you-mean: for each input term, the corpus term within
    ``max_edits`` Levenshtein distance with the highest document
    frequency (ties → lexicographically smallest).  Candidates come
    from the SymSpell deletion-table expansion; their df from one
    pushdown-filtered dictionary read.  Terms with no candidate emit
    no row (ask the caller to widen max_edits).  A dictionary-only
    operator — no postings are touched.

    Returns (query_term, suggestion, df) sorted by query_term."""
    from .fuzzy import expand_fuzzy_terms
    uniq = sorted(set(terms))
    expansion = expand_fuzzy_terms(index_dir, uniq, max_edits)
    cands = sorted(set().union(*expansion.values())) if uniq else []
    empty = pa.table({"query_term": pa.array([], pa.string()),
                      "suggestion": pa.array([], pa.string()),
                      "df": pa.array([], pa.int64())})
    if not cands:
        return empty
    gdir = _terms_dir(index_dir)
    files = [os.path.join(gdir, f) for f in sorted(os.listdir(gdir))
             if f.endswith(".parquet")]
    t = pq.ParquetDataset(files, filters=[("term", "in", cands)]) \
        .read(columns=["term", "df"])
    dfmap = dict(zip(t["term"].to_pylist(), t["df"].to_pylist()))
    rows = []
    for q in uniq:
        # (df desc, term asc) — the suggest_terms tie rule
        best = min(expansion[q],
                   key=lambda c: (-dfmap.get(c, 0), c), default=None)
        if best is not None:
            rows.append((q, best, int(dfmap.get(best, 0))))
    if not rows:
        return empty
    return pa.table({"query_term": pa.array([r[0] for r in rows]),
                     "suggestion": pa.array([r[1] for r in rows]),
                     "df": pa.array([r[2] for r in rows], pa.int64())})


def search_fields_index(fields: list[tuple[str, float]],
                        queries: list[dict],
                        cfg: EngineConfig | None = None, *,
                        combine: str = "sum",
                        tie_breaker: float = 0.0) -> pa.Table:
    """Weighted multi-field search (Lucene per-field-boost model):
    score(doc) = Σ_f weight_f × BM25_f(doc), each field scored against
    its OWN index (own df/avgdl/doclen).

    ``combine="dismax"`` switches to Lucene's DisjunctionMaxQuery:
    score = max_f(s_f) + tie_breaker × (Σ_f s_f − max_f) with
    s_f = weight_f × BM25_f — the best field dominates and the others
    contribute only through the tie_breaker (0 = pure max).  The
    formula is evaluated in exactly this float order on the SQL oracle
    side too (max + tb×(sum−max), never the algebraic 2-field
    tb×min form — (a+b)−max(a,b) ≠ min(a,b) in IEEE), so scores
    hash-match bit-for-bit.  Sound per segment because the aligned
    indexes co-locate a doc's every field.

    ``fields``: [(index_dir, weight)] — the field indexes must be built
    from the same corpus with the same config, which makes them ALIGNED:
    identical segment count, identical per-segment conversation sets
    (same hash(conv_id) partitioning) and identical docmap order
    (sorted by (conv_id, turn_idx)), so ``doc_local`` ids agree across
    fields and the per-segment weighted combine is one vectorized
    bincount.  Exact per-segment top-k then the ordinary merge."""
    from .build import load_index_meta
    metas = [load_index_meta(d) for d, _ in fields]
    cfg0 = metas[0][0]
    for (d, _w), (c, _s, _g) in zip(fields[1:], metas[1:]):
        if c != cfg0:
            raise ValueError(f"field index {d} config differs from "
                             f"{fields[0][0]} — fields must share one "
                             f"engine config")
    seg_lists = [m[2] for m in metas]
    n_segs = len(seg_lists[0])
    if any(len(s) != n_segs for s in seg_lists):
        raise ValueError("field indexes are not aligned (different "
                         "segment counts) — build them from the same "
                         "corpus with the same config")
    if combine not in ("sum", "dismax"):
        raise ValueError(f"combine must be 'sum' or 'dismax', "
                         f"got {combine!r}")
    eff = EngineConfig.from_dict(cfg0) if cfg is None else cfg.validate()
    tok = Tokenizer(eff.analyzer)
    parsed = [(int(q["query_id"]),
               sorted(set(tok.tokenize(q["query_text"]))),
               int(q.get("k", 10))) for q in queries]
    all_terms = set().union(*[set(t) for _, t, _ in parsed]) \
        if parsed else set()
    gdfs = [_global_df_for_terms(d, all_terms) for d, _ in fields]
    weights = [float(w) for _, w in fields]
    field_stats = [m[1] for m in metas]
    bm25_dict = {"k1": eff.bm25.k1, "b": eff.bm25.b}
    block_size = eff.index.block_size
    shared_ref = ray.put((parsed, gdfs))

    _EMPTY_HITS = pa.table({"query_id": pa.array([], pa.int32()),
                            "conv_id": pa.array([], pa.string()),
                            "turn_idx": pa.array([], pa.int32()),
                            "score": pa.array([], pa.float64())})

    def _one_segment(ordinal: int, parsed_l, gdfs_l) -> pa.Table:
        searchers = [
            SegmentSearcher(seg_lists[f][ordinal], BM25Config(**bm25_dict),
                            field_stats[f]["n_docs"],
                            field_stats[f]["avgdl"], gdfs_l[f],
                            block_size=block_size)
            for f in range(len(fields))]
        r0 = searchers[0].r            # aligned docmaps: field 0 carries
        qid_out: list[int] = []        # the identity for every field
        doc_out: list[int] = []
        score_out: list[float] = []
        for qid, terms, k in parsed_l:
            docs_parts: list[np.ndarray] = []
            score_parts: list[np.ndarray] = []
            for s, w in zip(searchers, weights):
                postings = s.load_terms_cached(terms)
                terms_in = [t for t in terms if t in postings]
                if not terms_in:
                    continue
                n_cand = sum(postings[t].n_docs for t in terms_in)
                # k = n_cand keeps EVERY candidate: a per-field top-k is
                # not enough — a doc weak in one field can still win on
                # the weighted sum
                if n_cand <= s.SPARSE_MAX:
                    hits = s.score_sparse(terms, n_cand, postings=postings)
                else:
                    hits = s.score_full(terms, n_cand, postings=postings)
                if hits:
                    docs_parts.append(np.array([d for _, d in hits],
                                               dtype=np.int64))
                    score_parts.append(np.array([sc for sc, _ in hits]) * w)
            if not docs_parts:
                continue
            docs_all = np.concatenate(docs_parts)
            scores_all = np.concatenate(score_parts)
            uniq, inv = np.unique(docs_all, return_inverse=True)
            comb = np.bincount(inv, weights=scores_all)
            if combine == "dismax":
                mx = np.zeros(len(uniq))
                np.maximum.at(mx, inv, scores_all)  # BM25 scores > 0
                comb = mx + tie_breaker * (comb - mx)
            order = np.lexsort((uniq, -comb))[:k]
            for i in order:
                qid_out.append(qid)
                doc_out.append(int(uniq[i]))
                score_out.append(float(comb[i]))
        if not qid_out:
            return _EMPTY_HITS
        idx = pa.array(doc_out, pa.int64())
        return pa.table({
            "query_id": pa.array(qid_out, pa.int32()),
            "conv_id": pc.cast(r0.conv_id.take(idx), pa.string()),
            "turn_idx": pc.cast(r0.turn_idx.take(idx), pa.int32()),
            "score": pa.array(score_out, pa.float64()),
        })

    def _task(batch: pa.Table) -> pa.Table:
        parsed_l, gdfs_l = ray.get(shared_ref)
        return pa.concat_tables([_one_segment(i, parsed_l, gdfs_l)
                                 for i in batch["i"].to_pylist()])

    seg_ds = ray.data.from_items([{"i": i} for i in range(n_segs)])
    hits = seg_ds.map_batches(_task, batch_format="pyarrow", batch_size=1)
    merged = _merge_topk_driver(hits.to_pandas(),
                                {qid: k for qid, _, k in parsed})
    out = pa.Table.from_pandas(
        merged.sort_values(["query_id", "rank"]), preserve_index=False)
    return out.cast(_RESULT_SCHEMA)


# ------------------------------------------------------------ composites
_HITS_SCHEMA = _RESULT_SCHEMA.remove(1)     # per-segment rows: no rank


def export_matches(index_dir: str, queries: list[dict],
                   cfg: EngineConfig | None = None, *,
                   predicates: list[str] | None = None):
    """Streaming export of the FULL match set (no top-k cut): every doc
    containing ≥1 query term, with its exact BM25 score — the
    "select matching docs into a training subset" operator.  Returns a
    lazy ``ray.data.Dataset`` of (query_id, conv_id, turn_idx, score)
    whose blocks are produced per segment: consume with
    ``write_parquet`` / ``iter_batches``; nothing is materialized on
    the driver however large the match set.

    Reference analog: `pipe open` + skip predicates feeding a sink —
    the whole-corpus filtered export path (open.py:93-116), here with
    scores attached."""
    ix = open_index(index_dir, cfg, predicates)
    parsed = P.parse_queries(P.parse_terms, ix.tok, queries)
    idf_map = ix.idf_map({t for _, ts in parsed for t in ts})
    return scatter_ds(ix, _export_segment, idf_map, parsed=parsed,
                      predicates=predicates)


def _export_segment(s: SegmentSearcher, p: dict) -> pa.Table:
    qs = p["parsed"]
    postings = s.load_terms_cached(sorted({t for _, ts in qs for t in ts}))
    doc_mask = s._base_mask(p["predicates"])
    tables = []
    for qid, terms in qs:
        cand, scores = s._sparse_scores(terms, postings, doc_mask=doc_mask)
        if cand.size == 0:
            continue
        idx = pa.array(cand)
        tables.append(pa.table({
            "query_id": pa.array(np.full(cand.size, qid, dtype=np.int32)),
            "conv_id": pc.cast(s.r.conv_id.take(idx), pa.string()),
            "turn_idx": pc.cast(s.r.turn_idx.take(idx), pa.int32()),
            "score": pa.array(scores, pa.float64()),
        }))
    return pa.concat_tables(tables) if tables else _HITS_SCHEMA.empty_table()


_EXPLAIN_SCHEMA = pa.schema([
    ("query_id", pa.int32()), ("rank", pa.int32()), ("conv_id", pa.string()),
    ("turn_idx", pa.int32()), ("term", pa.string()),
    ("contrib", pa.float64())])


def explain_index(index_dir: str, queries: list[dict],
                  cfg: EngineConfig | None = None, *,
                  predicates: list[str] | None = None) -> pa.Table:
    """Score explanation (Lucene ``explain`` analog): for each query's
    GLOBAL top-k docs, one row per contributing term with its exact
    BM25 contribution — the sum of a doc's rows is bit-exactly its
    ranked score (same expression, same float association).

    Two phases: (1) the ordinary distributed top-k search fixes the
    doc set; (2) one more per-segment pass decomposes scores for just
    those ≤ queries·k docs (broadcast hit set, postings tf looked up by
    searchsorted).  Returns (query_id, rank, conv_id, turn_idx, term,
    contrib) sorted by (query_id, rank, term)."""
    ix = open_index(index_dir, cfg)
    top = search_index(ix.dir, queries, cfg, predicates=predicates)
    parsed = P.parse_queries(P.parse_terms, ix.tok, queries)
    idf_map = ix.idf_map({t for _, ts in parsed for t in ts})
    # broadcast the (query, doc, rank) hit set; conv_id keys the segment
    res = scatter(ix, _explain_segment, idf_map, parsed=parsed,
                  hits=top.select(["query_id", "rank", "conv_id",
                                   "turn_idx"]))
    if res.empty:
        return _EXPLAIN_SCHEMA.empty_table()
    return pa.Table.from_pandas(
        res.sort_values(["query_id", "rank", "term"]),
        preserve_index=False).cast(_EXPLAIN_SCHEMA)


def _explain_segment(s: SegmentSearcher, p: dict) -> pa.Table:
    qs, k1 = p["parsed"], p["bm25"]["k1"]
    # segment-resident hit docs: vectorized (conv, turn) -> doc_local via
    # one pandas merge (no per-doc Python)
    seg_keys = pd.DataFrame({
        "conv_id": s.r.conv_id.to_pandas(),
        "turn_idx": s.r.turn_idx.to_pandas(),
        "_loc": np.arange(s.r.n_docs, dtype=np.int64)})
    resident = p["hits"].to_pandas().merge(seg_keys,
                                           on=["conv_id", "turn_idx"],
                                           how="inner")
    out = []
    if not resident.empty:
        postings = s.load_terms_cached(
            sorted({t for _, ts in qs for t in ts}))
        qterms = dict(qs)
        for row in resident.to_dict("records"):   # <= queries*k rows
            loc = int(row["_loc"])
            for t in qterms[row["query_id"]]:
                tp = postings.get(t)
                if tp is None:
                    continue
                docs, tfs = s._decode_cached(t, tp)
                j = np.searchsorted(docs, loc)
                if j >= docs.size or docs[j] != loc:
                    continue              # term absent from this doc
                contrib = s.idf.get(t, 0.0) * (tfs[j] * (k1 + 1.0)) \
                    / (tfs[j] + s.norm[loc])
                out.append((row["query_id"], row["rank"], row["conv_id"],
                            row["turn_idx"], t, float(contrib)))
    if not out:
        return _EXPLAIN_SCHEMA.empty_table()
    return pa.table([pa.array(c, f.type) for c, f in
                     zip(zip(*out), _EXPLAIN_SCHEMA)],
                    schema=_EXPLAIN_SCHEMA)


_EVAL_SCHEMA = pa.schema([("query_id", pa.int64()), ("n_rel", pa.int64()),
                          ("n_ret", pa.int64()), ("ap_r", pa.float64()),
                          ("ndcg_r", pa.float64()), ("mrr_r", pa.float64())])


def retrieval_eval_index(index_dir: str, queries: list[dict],
                         cfg: EngineConfig | None = None, *,
                         predicates: list[str] | None = None
                         ) -> pa.Table:
    """Retrieval-quality evaluation over pseudo-qrels: per query,
    AP@k and NDCG@k of the BM25 ranking where a doc is RELEVANT iff it
    contains ALL query terms (the conjunctive pseudo-judgment —
    deterministic, corpus-derived, SQL-mirrorable; the harness every
    ranking change should be measured with).

    queries: [{"query_id", "query_text", "k"}] →
    (query_id, n_rel, n_ret, ap_r, ndcg_r) sorted by query_id.

    AP@k  = Σ_{i ≤ k, rel_i} (cum_rel_i / i) / min(n_rel, k)
    NDCG@k = Σ_{i ≤ k} rel_i/log2(i+1) / Σ_{i ≤ min(n_rel,k)} 1/log2(i+1)
    (0 when n_rel = 0).  The ranked rows come from the ordinary
    scatter-gather with a per-doc rel flag attached in-segment
    (:meth:`SegmentSearcher.search_with_rel`); n_rel sums exact
    per-segment conjunctive counts.  All metric arithmetic runs on the
    driver over ≤ queries·k rows.
    """
    ix = open_index(index_dir, cfg, predicates)
    parsed = P.parse_queries(P.parse_ranked, ix.tok, queries)
    idf_map = ix.idf_map({t for _, ts, _ in parsed for t in ts})
    df = scatter(ix, _eval_segment, idf_map, parsed=parsed,
                 predicates=predicates)
    if df.empty:                     # no queries, or no segment
        n_rel, merged = {}, pd.DataFrame({"query_id": [], "rel": []})
    else:
        is_cnt = df["rel"] == -1
        n_rel = df[is_cnt].groupby("query_id")["score"].sum().astype(int)
        merged = _merge_topk_driver(df[~is_cnt].drop(columns="rel").copy(),
                                    {qid: k for qid, _, k in parsed})
        # rel flags re-attach by (query, conv, turn) — unique result keys
        rel_map = df[~is_cnt].set_index(
            ["query_id", "conv_id", "turn_idx"])["rel"]
        rel_map = rel_map[~rel_map.index.duplicated()]
        merged["rel"] = rel_map.reindex(pd.MultiIndex.from_frame(
            merged[["query_id", "conv_id", "turn_idx"]])).to_numpy()
    rows = []
    for qid, _terms, k in parsed:
        g = merged[merged["query_id"] == qid]
        rel = g["rel"].to_numpy(np.int64)
        nr = int(n_rel.get(qid, 0))
        i = np.arange(1, len(rel) + 1, dtype=np.float64)
        if nr > 0 and len(rel):
            ap = float((np.cumsum(rel) / i)[rel == 1].sum()) \
                / min(nr, k)
            disc = 1.0 / np.log2(i + 1)
            idcg = float(
                (1.0 / np.log2(np.arange(1, min(nr, k) + 1,
                                         dtype=np.float64) + 1)).sum())
            ndcg = float((rel * disc).sum()) / idcg
            first = np.flatnonzero(rel == 1)
            mrr = 1.0 / (int(first[0]) + 1) if first.size else 0.0
        else:
            ap, ndcg, mrr = 0.0, 0.0, 0.0
        rows.append((qid, nr, len(rel), round(ap, 6), round(ndcg, 6),
                     round(mrr, 6)))
    out = pd.DataFrame(rows, columns=_EVAL_SCHEMA.names) \
        .sort_values("query_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False).cast(_EVAL_SCHEMA)


def _eval_segment(s: SegmentSearcher, p: dict) -> pa.Table:
    qs, preds = p["parsed"], p["predicates"]
    hits = s.search_with_rel(qs, predicates=preds)
    cnts = s.must_counts(qs, predicates=preds)
    # ship both through one table: count rows carry rank sentinel
    cnts = pa.table({
        "query_id": cnts["query_id"],
        "conv_id": pa.nulls(cnts.num_rows, pa.string()),
        "turn_idx": pa.array(np.full(cnts.num_rows, -1, np.int32)),
        "score": pc.cast(cnts["n"], pa.float64()),
        "rel": pa.array(np.full(cnts.num_rows, -1, np.int8))})
    return pa.concat_tables([hits, cnts])
