"""The retrieval-mode table: every mode's request parsing, term set,
per-query k, segment kernel and merge, written once.

Each :class:`Mode` row of :data:`MODES` says

- how one request dict parses into the tuple its
  :class:`~vframe_ray.index.searcher.SegmentSearcher` method takes;
- which terms a parsed query reads (the global-df lookup when the mode
  scores, and the per-segment postings read);
- its per-query k (ranked modes only);
- the ``SegmentSearcher`` method that runs it on one segment;
- its merge kind: ``topk`` (ranked rows, offsets for ``search``),
  ``sum`` (facet / bin / count partials summed per key), ``facet_stats``
  (integer partials, one division), ``top_hits`` (top-h per facet) or
  ``rows`` (unranked phrase hits).

Three consumers share the table, one per code path:

- one-shot ``*_index`` functions (:mod:`.entrypoints`) plan a request
  and scatter it over plain Ray tasks (:mod:`.scatter`);
- the resident ``_ShardSearcher`` actors (:mod:`.service`) run planned
  ops over their segments (:func:`run_op`) and apply the shard-level
  cut of the merge kind (:func:`shard_cut`);
- ``QueryService`` methods plan, put the payload once, fan out to the
  shards and merge the partials with the same :func:`merge`.

Merges return the mode's fixed schema, also when nothing matched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

from ..analyze import Tokenizer
from .searcher import (_RESULT_SCHEMA, _boolean_terms, _boosted_terms,
                       _boosting_terms, _merge_topk_driver, idf)


def _bag(tok: Tokenizer, text) -> list[str]:
    return sorted(set(tok.tokenize(text or "")))


def _qid(q: dict) -> int:
    return int(q["query_id"])


def parse_boosted_query(tok: Tokenizer, query_text: str
                        ) -> list[tuple[str, float]]:
    """Parse ``term^2.5`` boost syntax: each whitespace chunk may end in
    ``^<positive float>``; the boost applies to every analyzed token of
    the chunk, default 1.0.  The same term mentioned twice keeps the
    LAST boost (dict semantics, mirrored in the SQL oracle)."""
    out: dict[str, float] = {}
    for raw in query_text.split():
        boost = 1.0
        word = raw
        if "^" in raw:
            word, _, bs = raw.rpartition("^")
            try:
                boost = float(bs)
            except ValueError:
                word = raw
                boost = 1.0
        if boost <= 0.0:
            raise ValueError(f"boost must be > 0, got {boost!r} in "
                             f"{raw!r} (non-positive boosts break the "
                             f"positive-contribution pruning invariants)")
        for t in tok.tokenize(word):
            out[t] = boost
    return sorted(out.items())


# request dict -> parsed tuple, one function per tuple shape
def parse_terms(tok, q):                      # (qid, terms)
    return (_qid(q), _bag(tok, q["query_text"]))


def parse_ranked(tok, q):                     # (qid, terms, k)
    return (_qid(q), _bag(tok, q["query_text"]), int(q.get("k", 10)))


def _parse_search(tok, q):                    # k covers the page offset
    return (_qid(q), _bag(tok, q["query_text"]),
            int(q.get("k", 10)) + int(q.get("offset", 0)),
            tuple(q["filter"]) if q.get("filter") else None)


def _parse_boolean(tok, q):
    return (_qid(q), _bag(tok, q.get("must", "")),
            _bag(tok, q.get("should", "")), _bag(tok, q.get("must_not", "")),
            int(q.get("k", 10)), int(q.get("minimum_should_match", 0)))


def _parse_proximity(tok, q):                 # ordered keeps term order
    text = q["query_text"]
    return (_qid(q),
            tok.tokenize(text) if q.get("ordered") else _bag(tok, text),
            int(q.get("window", 8)), int(q.get("k", 10)),
            bool(q.get("ordered", False)))


def _parse_span_first(tok, q):
    return (_qid(q), _bag(tok, q["query_text"]), int(q.get("limit", 16)),
            int(q.get("k", 10)))


def _parse_phrase_rank(tok, q):
    return (_qid(q), tok.tokenize(q["phrase"]), int(q.get("k", 10)))


def _parse_phrase(tok, q):
    return (_qid(q), tok.tokenize(q["phrase"]))


def _parse_boosted(tok, q):
    return (_qid(q), parse_boosted_query(tok, str(q["query_text"])),
            int(q.get("k", 10)))


def _parse_boosting(tok, q):
    return (_qid(q), _bag(tok, q.get("positive", "")),
            _bag(tok, q.get("negative", "")),
            float(q.get("negative_boost", 0.5)), int(q.get("k", 10)))


def _parse_after(tok, q):
    a = q["after"]
    return (_qid(q), _bag(tok, q["query_text"]), int(q.get("k", 10)),
            (float(a[0]), str(a[1]), int(a[2])))


def _parse_top_hits(tok, q):
    return (_qid(q), _bag(tok, q["query_text"]), int(q.get("h", 3)))


def _bind_common(parsed, gdf, n_docs, opts):
    """Common-terms split, decided once against GLOBAL df: the low-df
    terms (df·den < n_docs·num, exact integers) drive recall."""
    num, den = opts.get("max_df_num", 2), opts.get("max_df_den", 5)
    return [(qid, ts, [t for t in ts if t in gdf
                       and gdf[t] * den < n_docs * num], k)
            for qid, ts, k in parsed]


@dataclass(frozen=True)
class Mode:
    parse: Callable            # (tokenizer, request dict) -> tuple
    method: str                # SegmentSearcher kernel on the skeleton
    merge: str                 # topk | sum | facet_stats | top_hits | rows
    schema: pa.Schema          # merged result schema
    terms: Callable = itemgetter(1)   # parsed tuple -> terms it reads
    k: Callable | None = None  # parsed tuple -> per-query k (ranked)
    scored: bool = True        # needs the global-df lookup
    opts: tuple = ()           # request options passed to the method
    key: str | None = None     # group key of a ``sum`` merge
    bind: Callable | None = None   # (parsed, gdf, n_docs, opts) -> parsed
    warm: dict = field(default_factory=dict)  # extra kwargs on shards


def _schema(*cols) -> pa.Schema:
    return pa.schema([("query_id", pa.int32()), *cols])


_FACET = ("facet", pa.string())
_N = ("n", pa.int64())
_TOP_HITS_OUT = _schema(_FACET, ("rank", pa.int32()),
                        ("conv_id", pa.string()), ("turn_idx", pa.int32()),
                        ("score", pa.float64()))


def _ranked(parse, method, k, **kw) -> Mode:
    return Mode(parse, method, "topk", _RESULT_SCHEMA, k=k, **kw)


MODES: dict[str, Mode] = {
    "search": _ranked(_parse_search, "search", itemgetter(2),
                      opts=("use_bmw", "collapse"),
                      # warm shards amortize decodes: TAAT beats WAND there
                      warm={"prefer_taat": True}),
    "boolean": _ranked(_parse_boolean, "search_boolean", itemgetter(4),
                       terms=_boolean_terms),
    "proximity": _ranked(_parse_proximity, "search_proximity",
                         itemgetter(3)),
    "span_first": _ranked(_parse_span_first, "search_span_first",
                          itemgetter(3)),
    "phrase_rank": _ranked(_parse_phrase_rank, "search_ranked_phrases",
                           itemgetter(2)),
    "boosted": _ranked(_parse_boosted, "search_boosted", itemgetter(2),
                       terms=_boosted_terms),
    "boosting": _ranked(_parse_boosting, "search_boosting", itemgetter(4),
                        terms=_boosting_terms),
    "after": _ranked(_parse_after, "search_after", itemgetter(2)),
    "common": _ranked(parse_ranked, "search_common", itemgetter(3),
                      bind=_bind_common),
    "function_score": _ranked(parse_ranked, "search_function_score",
                              itemgetter(2), opts=("attr", "weight")),
    "sort_by_attr": _ranked(parse_ranked, "match_sorted_by_attr",
                            itemgetter(2),
                            scored=False, opts=("attr",)),
    "top_hits": Mode(_parse_top_hits, "top_hits_by_facet", "top_hits",
                     _TOP_HITS_OUT, k=itemgetter(2), opts=("facet_col",)),
    "facets": Mode(parse_terms, "facet_counts", "sum", _schema(_FACET, _N),
                   scored=False, opts=("facet_col",), key="facet"),
    "facet_ranges": Mode(parse_terms, "facet_range_counts", "sum",
                         _schema(("bin_lo", pa.int64()), _N), scored=False,
                         opts=("bin_width",), key="bin_lo"),
    "facet_stats": Mode(parse_terms, "facet_stats", "facet_stats",
                        _schema(_FACET, _N, ("avg_dl", pa.float64())),
                        scored=False, opts=("facet_col",)),
    "match_counts": Mode(parse_terms, "match_counts", "sum", _schema(_N),
                         scored=False),
    "phrases": Mode(_parse_phrase, "search_phrases", "rows",
                    _schema(("conv_id", pa.string()),
                            ("turn_idx", pa.int32())), scored=False),
}


def parse_queries(parse: Callable, tok: Tokenizer, queries: list[dict]
                  ) -> list[tuple]:
    """Parse every query of one request; two queries sharing a
    ``query_id`` would come back as one merged ranking, so they raise."""
    parsed = [parse(tok, q) for q in queries]
    ids = [q[0] for q in parsed]
    if len(set(ids)) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate query_id {dup} in one request; "
                         f"every query of a request needs its own id")
    return parsed


@dataclass
class Request:
    """One planned request: a mode, its parsed queries and options."""
    mode: str
    parsed: list[tuple]
    opts: dict
    offsets: dict[int, int]

    @property
    def entry(self) -> Mode:
        return MODES[self.mode]

    def terms(self) -> set[str]:
        return {t for q in self.parsed for t in self.entry.terms(q)}

    def ks(self) -> dict[int, int]:
        return {q[0]: self.entry.k(q) for q in self.parsed}

    def op(self) -> tuple:
        """What a segment runner needs: (mode, parsed, method kwargs)."""
        return (self.mode, self.parsed,
                {o: self.opts[o] for o in self.entry.opts
                 if o in self.opts})


def plan(mode: str, tok: Tokenizer, queries: list[dict],
         validate: Callable | None = None, **opts) -> Request:
    """Parse and check one request of ``mode``.  ``validate`` checks a
    query's own ``"filter"`` list (``search`` only).  A ranked mode's
    k, h and offset go through :func:`check_ranks`."""
    entry = MODES.get(mode)
    if entry is None:
        raise ValueError(f"unknown retrieval mode {mode!r}")
    parsed = parse_queries(entry.parse, tok, queries)
    offsets = {}
    if mode == "search":
        for q in queries:
            if q.get("filter") and validate is not None:
                validate(list(q["filter"]))
        offsets = {_qid(q): int(q.get("offset", 0)) for q in queries}
    if entry.k is not None:
        check_ranks(queries)
    return Request(mode, parsed, opts, offsets)


def check_ranks(queries: list[dict]) -> None:
    """A ranked request's negative k, h or offset raises; k = 0 asks for
    no rows."""
    bad = sorted(_qid(q) for q in queries if min(
        int(q.get(f, 0)) for f in ("k", "h", "offset")) < 0)
    if bad:
        raise ValueError(f"negative k, h or offset for query_id {bad}")


def resolve_idf(reqs: list[Request], df_lookup: Callable,
                n_docs: int) -> dict[str, float]:
    """One global-df lookup for the union of the scored requests' terms;
    binds the modes that decide on df (common terms) and returns the
    idf map every segment scores with."""
    terms = set().union(*(r.terms() for r in reqs if r.entry.scored))
    gdf = df_lookup(terms) if terms else {}
    for r in reqs:
        if r.entry.bind is not None:
            r.parsed = r.entry.bind(r.parsed, gdf, n_docs, r.opts)
    return {t: idf(n_docs, df) for t, df in gdf.items()}


def op_terms(ops: list[tuple]) -> list[str]:
    """Sorted union of the terms a list of ops reads."""
    return sorted({t for mode, parsed, _ in ops for q in parsed
                   for t in MODES[mode].terms(q)})


def run_op(s, op: tuple, predicates: list[str] | None = None,
           warm: bool = False) -> pa.Table:
    """Run one op on one segment searcher (its ``idf`` already set)."""
    mode, parsed, kw = op
    entry = MODES[mode]
    if mode == "boosted":       # boosts scale the base idf per query
        kw = {**kw, "base_idf": s.idf}
    if warm:
        kw = {**kw, **entry.warm}
    return getattr(s, entry.method)(parsed, predicates=predicates, **kw)


def _topk_cut(df: pd.DataFrame, ks: dict[int, int]) -> pd.DataFrame:
    df = df.sort_values(["query_id", "score", "conv_id", "turn_idx"],
                        ascending=[True, False, True, True])
    r = df.groupby("query_id", sort=False).cumcount() + 1
    return df.loc[r <= df["query_id"].map(ks).fillna(0)]


def _top_hits_sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(["query_id", "facet", "score", "conv_id",
                           "turn_idx"],
                          ascending=[True, True, False, True, True])


def shard_cut(op: tuple, table: pa.Table) -> pa.Table:
    """Shard-level cut over a shard's concatenated segment rows, in the
    exact global order — merging per-shard cuts equals merging every
    candidate row, and the actor→driver transfer shrinks to O(k) per
    query.  Valid under collapse too: conversations are disjoint across
    segments (hash(conv_id) build partitioning).  Top-hits cut per
    (query, facet): a facet value is a doc property."""
    mode, parsed, _ = op
    entry = MODES[mode]
    if table.num_rows == 0 or entry.merge not in ("topk", "top_hits"):
        return table
    ks = {q[0]: entry.k(q) for q in parsed}
    df = table.to_pandas()
    if entry.merge == "topk":
        df = _topk_cut(df, ks)
    else:
        df = _top_hits_sorted(df)
        keep = df.groupby(["query_id", "facet"], sort=False).cumcount() \
            < df["query_id"].map(ks).to_numpy()
        df = df[keep]
    return pa.Table.from_pandas(df, preserve_index=False).cast(table.schema)


def frame(tables: list[pa.Table]) -> pd.DataFrame:
    """Concatenate partial tables (zero-row ones dropped) to pandas."""
    tables = [t for t in tables if t.num_rows]
    return pa.concat_tables(tables).to_pandas() if tables \
        else pd.DataFrame()


def merge(req: Request, parts: pd.DataFrame) -> pa.Table:
    """Merge a request's per-segment / per-shard partials into its
    mode's fixed result schema."""
    entry = req.entry
    schema = entry.schema
    kind = entry.merge
    if kind == "sum" and entry.key is None:       # counts: every query
        sums = parts.groupby("query_id")["n"].sum() if not parts.empty \
            else {}
        qids = sorted(q[0] for q in req.parsed)
        return pa.table({"query_id": pa.array(qids, pa.int32()),
                         "n": pa.array([int(sums.get(q, 0)) for q in qids],
                                       pa.int64())})
    if kind == "topk":
        off = req.offsets
        ks = {qid: k - off.get(qid, 0) for qid, k in req.ks().items()}
        out = _merge_topk_driver(parts, ks,
                                 off if any(off.values()) else None)
    elif parts.empty:
        return schema.empty_table()
    elif kind == "sum":
        out = parts.groupby(["query_id", entry.key], as_index=False)["n"] \
            .sum().sort_values(["query_id", entry.key])
    elif kind == "facet_stats":
        out = parts.groupby(["query_id", "facet"], as_index=False) \
            .agg(n=("n", "sum"), dl_sum=("dl_sum", "sum"))
        out["avg_dl"] = out["dl_sum"].to_numpy(np.int64) \
            / out["n"].to_numpy(np.int64)
        out = out[["query_id", "facet", "n", "avg_dl"]] \
            .sort_values(["query_id", "facet"])
    elif kind == "top_hits":
        df = _top_hits_sorted(parts).reset_index(drop=True)
        df["rank"] = (df.groupby(["query_id", "facet"], sort=False)
                      .cumcount() + 1).astype("int32")
        df = df[df["rank"] <= df["query_id"].map(req.ks())]
        out = df[schema.names].reset_index(drop=True)
    else:                                         # rows
        return pa.Table.from_pandas(parts, preserve_index=False) \
            .cast(schema).sort_by([("query_id", "ascending"),
                                   ("conv_id", "ascending"),
                                   ("turn_idx", "ascending")])
    return pa.Table.from_pandas(out, preserve_index=False).cast(schema)
