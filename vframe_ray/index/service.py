"""Long-lived query serving over the mode table (:mod:`.plan`).

``_ShardSearcher`` actors keep a shard of segments resident (docmaps,
norms, postings and decode caches) and run planned ops: ``search`` for
the plain BM25 path, and one generic ``search_mixed`` for any list of
table ops — one postings read per segment for the union of the ops'
terms, then each op's segment kernel and the shard-level cut of its
merge kind.  ``QueryService`` plans each request once, looks the global
df up through its cache, puts the payload once, makes one call per
shard and merges with the table's shared merge; every per-mode method
is a one-request ``search_mixed``.
"""

from __future__ import annotations

import json

import pyarrow as pa

import ray

from ..config import BM25Config, EngineConfig
from . import plan as P
from .entrypoints import (_expand_wildcards, _fuzzy_plain_queries,
                          _like_plain_queries, _mlt_plain_queries,
                          _mlt_seed_tfs, _mlt_trim_excluded,
                          _parse_wildcard_queries, _regex_plain_queries,
                          _synonym_plain_queries, suggest_terms)
from .scatter import open_indexes
from .searcher import SegmentSearcher, _global_df_for_terms


@ray.remote
class _ShardSearcher:
    """Persistent query-serving actor owning a shard of segments: docmaps
    + doc-length norms resident across queries (the reference pattern of
    scorer state loaded once per worker, detect.py:73 / base.py:47-55)."""

    def __init__(self, seg_dirs: list[str], bm25_dict: dict, n_docs: int,
                 avgdl: float, block_size: int):
        from ..runtime import tune_memory
        tune_memory()
        self.searchers = [
            SegmentSearcher(d, BM25Config(**bm25_dict), n_docs, avgdl, {},
                            block_size=block_size)
            for d in seg_dirs]

    def reload_deletes(self) -> int:
        """Re-read every resident segment's tombstone sidecar; returns
        the number of tombstoned docs now visible to this shard."""
        n = 0
        for s in self.searchers:
            s.r.reload_deletes()
            if s.r.alive is not None:
                n += int((~s.r.alive).sum())
        return n

    def search(self, parsed: list[tuple], idf_map: dict[str, float],
               use_bmw: bool = True, predicates: list[str] | None = None,
               collapse: bool = False) -> pa.Table:
        """Plain BM25 top-k over this shard, cut to each query's k."""
        return self._run(("search", parsed,
                          {"use_bmw": use_bmw, "collapse": collapse}),
                         idf_map, predicates)

    def search_mixed(self, ops: list[tuple], idf_map: dict[str, float],
                     predicates: list[str] | None = None) -> list[pa.Table]:
        """ONE round trip for planned ops ``(mode, parsed, kwargs)`` of
        any table modes; returns one table per op, ranked modes already
        cut per shard.  Each segment reads the postings of the union of
        the ops' terms once, so every op's own read hits the cache."""
        terms = P.op_terms(ops)
        for s in self.searchers:
            s.load_terms_cached(terms)
        return [self._run(op, idf_map, predicates) for op in ops]

    def _run(self, op: tuple, idf_map: dict[str, float],
             predicates: list[str] | None) -> pa.Table:
        tables = []
        for s in self.searchers:
            s.idf = idf_map
            tables.append(P.run_op(s, op, predicates, warm=True))
        if len(tables) < 2:
            return tables[0] if tables else pa.table({})
        return P.shard_cut(op, pa.concat_tables(tables))


def _prefix_plain(svc: "QueryService", queries: list[dict]) -> list[dict]:
    per_q, prefixes = _parse_wildcard_queries(svc.tok, queries)
    return _expand_wildcards(svc.index_dirs, per_q, prefixes)


# expansion modes: rewritten driver-side against the (union of the)
# dictionaries, then served as plain searches
_EXPANSIONS = {
    "prefix": _prefix_plain,
    "like": lambda svc, qs: _like_plain_queries(svc.index_dirs, svc.tok, qs),
    "regex": lambda svc, qs: _regex_plain_queries(svc.index_dirs, svc.tok,
                                                  qs),
}


class QueryService:
    """Long-lived BM25 top-k query service over a finished index.

    Spawns ``n_actors`` shard searchers once (segments round-robin);
    each ``search()`` call tokenizes, looks up global df for the query
    terms (small parquet filter read), fans out to every shard, and
    merges the per-shard top-k on the driver.  Amortizes docmap loads
    and actor spin-up across calls — the serving-path counterpart of the
    one-shot :func:`search_index`.
    """

    def __init__(self, index_dir: "str | list[str]", n_actors: int = 8,
                 cfg: EngineConfig | None = None):
        """``index_dir`` may be a list of index dirs — FEDERATED
        serving: combined N/avgdl/df exactly as in
        :func:`~vframe_ray.index.entrypoints.search_federated`, shard
        actors over the union segment list.  Every mode federates:
        wildcard/prefix, general-LIKE and fuzzy expansion run against
        the UNION of the per-index dictionaries; did-you-mean and
        autocomplete rank candidates by df SUMMED across indexes."""
        # resolve aliases ONCE: the service binds wholly to the target
        # at construction (segments AND dictionary); an alias flip is
        # picked up by constructing a fresh service, never half-seen
        # by a running one
        ix = open_indexes([index_dir] if isinstance(index_dir, str)
                          else list(index_dir), cfg)
        self.cfg, self.stats, self.tok = ix.cfg, ix.stats, ix.tok
        self._ix = ix            # checks predicates on this generation
        self.index_dirs = ix.dirs
        self.index_dir = ix.dir
        self._federated = len(ix.dirs) > 1
        n_actors = max(1, min(n_actors, len(ix.seg_dirs)))
        shards = [ix.seg_dirs[i::n_actors] for i in range(n_actors)]
        bm25_dict = {"k1": self.cfg.bm25.k1, "b": self.cfg.bm25.b}
        self.actors = [
            _ShardSearcher.remote(sh, bm25_dict, self.stats["n_docs"],
                                  self.stats["avgdl"],
                                  self.cfg.index.block_size)
            for sh in shards]
        # term -> global df (None = absent): the per-call driver-side
        # parquet filter read was ~24 ms at 9.6M docs (VERDICT r3
        # serving push) — repeated vocabularies now skip it entirely
        self._df_cache: dict[str, int | None] = {}
        # request cache (Elasticsearch request-cache analog): whole-call
        # results for the plain search mode keyed by the canonical call
        # payload.  Sound BY the service's visibility contract — index
        # mutations (extend/compact/attr updates) only become visible to
        # a live service via refresh_deletes()/restart, and
        # refresh_deletes clears the cache.  LRU-bounded; 0 disables.
        self.request_cache_size = 256
        self._req_cache: "dict[str, pa.Table]" = {}
        self._req_cache_hits = 0
        self._req_cache_misses = 0

    _DF_CACHE_CAP = 1 << 20   # bound for a service fed ever-new OOV terms

    def _req_cache_key(self, mode: str, queries: list[dict],
                       **kwargs) -> str:
        return json.dumps([mode, queries, kwargs], sort_keys=True,
                          default=str)

    def _req_cache_get(self, key: str) -> "pa.Table | None":
        hit = self._req_cache.get(key)
        if hit is not None:
            self._req_cache_hits += 1
            # LRU touch: re-insert at the back of the dict order
            self._req_cache.pop(key)
            self._req_cache[key] = hit
        else:
            self._req_cache_misses += 1
        return hit

    def _req_cache_put(self, key: str, table: pa.Table) -> None:
        if self.request_cache_size <= 0:
            return
        while len(self._req_cache) >= self.request_cache_size:
            self._req_cache.pop(next(iter(self._req_cache)))
        self._req_cache[key] = table

    def _gdf_cached(self, terms: set[str]) -> dict[str, int]:
        missing = [t for t in terms if t not in self._df_cache]
        if missing:
            if len(self._df_cache) + len(missing) > self._DF_CACHE_CAP:
                self._df_cache.clear()
            fresh: dict[str, int] = {}
            for d in self.index_dirs:     # federated: df sums per index
                for t, v in _global_df_for_terms(d, set(missing)).items():
                    fresh[t] = fresh.get(t, 0) + v
            for t in missing:
                self._df_cache[t] = fresh.get(t)
        return {t: v for t in terms
                if (v := self._df_cache.get(t)) is not None}

    def _plan(self, mode: str, queries: list[dict], **opts) -> P.Request:
        return P.plan(mode, self.tok, queries, self._ix.validate,
                      **opts)

    def _run(self, reqs: list[P.Request],
             predicates: list[str] | None) -> list[pa.Table]:
        """One df lookup, one put of the payload, one ``search_mixed``
        call per shard, then the shared merge per request."""
        if predicates:
            self._ix.validate(predicates)
        idf_map = P.resolve_idf(reqs, self._gdf_cached, self.stats["n_docs"])
        ops = ray.put([r.op() for r in reqs])
        idf_ref = ray.put(idf_map)
        per_shard = ray.get([a.search_mixed.remote(ops, idf_ref, predicates)
                             for a in self.actors])
        return [P.merge(r, P.frame([sh[i] for sh in per_shard]))
                for i, r in enumerate(reqs)]

    def _one(self, mode: str, queries: list[dict],
             predicates: list[str] | None, **opts) -> pa.Table:
        return self._run([self._plan(mode, queries, **opts)], predicates)[0]

    def search(self, queries: list[dict], use_bmw: bool = True,
               predicates: list[str] | None = None,
               collapse: bool = False) -> pa.Table:
        ck = self._req_cache_key("search", queries, use_bmw=use_bmw,
                                 predicates=predicates, collapse=collapse)
        cached = self._req_cache_get(ck)
        if cached is not None:
            return cached
        if predicates:
            self._ix.validate(predicates)
        req = self._plan("search", queries, use_bmw=use_bmw,
                         collapse=collapse)
        idf_map = P.resolve_idf([req], self._gdf_cached,
                                self.stats["n_docs"])
        # put the payload ONCE: passing `parsed`/`idf_map` inline
        # re-pickles them per actor (measured 25 ms of driver time per
        # 152-query call at 32 actors); top-level ObjectRef args are
        # auto-resolved by Ray, so the actor signature is unchanged
        parsed_ref = ray.put(req.parsed)
        idf_ref = ray.put(idf_map)
        futs = [a.search.remote(parsed_ref, idf_ref, use_bmw, predicates,
                                collapse)
                for a in self.actors]
        out = P.merge(req, P.frame(ray.get(futs)))
        self._req_cache_put(ck, out)
        return out

    def search_function_score(self, queries: list[dict], attr: str,
                              weight: float = 0.2,
                              predicates: list[str] | None = None
                              ) -> pa.Table:
        """Served function-score (field_value_factor) — same contract
        as :func:`function_score_index`, on the resident shards."""
        return self._one("function_score", queries, predicates, attr=attr,
                         weight=weight)

    def search_boolean(self, queries: list[dict],
                       predicates: list[str] | None = None) -> pa.Table:
        """Served boolean retrieval — same contract as
        :func:`search_boolean_index`, on the resident shards."""
        return self._one("boolean", queries, predicates)

    def search_prefix(self, queries: list[dict],
                      predicates: list[str] | None = None,
                      collapse: bool = False) -> pa.Table:
        """Served wildcard/prefix search — expansion against the global
        dictionary (one small range read per call), then :meth:`search`."""
        return self.search(_EXPANSIONS["prefix"](self, queries),
                           predicates=predicates, collapse=collapse)

    def search_like(self, queries: list[dict],
                    predicates: list[str] | None = None,
                    collapse: bool = False) -> pa.Table:
        """Served general wildcard search (``*``/``?`` anywhere in a
        token) — the same driver-side dictionary expansion as
        :func:`search_like_index`, then :meth:`search` on the resident
        shards."""
        return self.search(_EXPANSIONS["like"](self, queries),
                           predicates=predicates, collapse=collapse)

    def search_regex(self, queries: list[dict],
                     predicates: list[str] | None = None,
                     collapse: bool = False) -> pa.Table:
        """Served regex term search — the same driver-side full-match
        dictionary expansion as :func:`search_regex_index` (federated:
        expansion unions per-index dictionaries), then :meth:`search`
        on the resident shards."""
        return self.search(_EXPANSIONS["regex"](self, queries),
                           predicates=predicates, collapse=collapse)

    def suggest_corrections(self, terms: list[str],
                            max_edits: int = 1) -> pa.Table:
        """Served did-you-mean — dictionary-only, so it simply reuses
        the one-shot path (no postings, no shard fan-out needed)."""
        from .entrypoints import suggest_corrections
        if not self._federated:
            return suggest_corrections(self.index_dir, terms, max_edits)
        # federated: candidates union per index, ranked by SUMMED df
        from .fuzzy import expand_fuzzy_terms as _efz
        uniq = sorted(set(terms))
        expansion: dict[str, set] = {t: set() for t in uniq}
        for d in self.index_dirs:
            for t, cs in _efz(d, uniq, max_edits).items():
                expansion[t].update(cs)
        cands = sorted(set().union(*expansion.values())) if uniq else []
        dfmap = self._gdf_cached(set(cands))
        rows = []
        for q in uniq:
            best = min(expansion[q],
                       key=lambda c: (-dfmap.get(c, 0), c),
                       default=None)
            if best is not None:
                rows.append((q, best, int(dfmap.get(best, 0))))
        return pa.table({
            "query_term": pa.array([r[0] for r in rows], pa.string()),
            "suggestion": pa.array([r[1] for r in rows], pa.string()),
            "df": pa.array([r[2] for r in rows], pa.int64())})

    def facet_counts(self, queries: list[dict], facet_col: str,
                     predicates: list[str] | None = None) -> pa.Table:
        """Served faceted search — per-shard partials summed on the
        driver; same contract as :func:`facet_counts_index`."""
        return self._one("facets", queries, predicates, facet_col=facet_col)

    def facet_stats(self, queries: list[dict], facet_col: str,
                    predicates: list[str] | None = None) -> pa.Table:
        """Served faceted stats (count + mean doc length per facet over
        the full match set) — integer per-shard partials summed on the
        driver, ONE division; same contract as
        :func:`facet_stats_index`."""
        return self._one("facet_stats", queries, predicates,
                         facet_col=facet_col)

    def more_like_this(self, seeds: list[dict], *,
                       max_query_terms: int = 10,
                       predicates: list[str] | None = None) -> pa.Table:
        """Served MLT — term selection reuses the service df cache, then
        :meth:`search` with seed exclusion (k+1 over-fetch + trim)."""
        seed_tfs, all_terms = _mlt_seed_tfs(self.tok, seeds)
        gdf = self._gdf_cached(all_terms)
        plain = _mlt_plain_queries(seed_tfs, seeds, gdf,
                                   self.stats["n_docs"], max_query_terms)
        res = self.search(plain, predicates=predicates)
        return _mlt_trim_excluded(res, seeds)

    def search_ranked_phrases(self, phrases: list[dict],
                              predicates: list[str] | None = None
                              ) -> pa.Table:
        """phrases: [{"query_id", "phrase", "k"}] -> ranked scored table
        (query_id, rank, conv_id, turn_idx, score): phrase hits scored
        by BM25 over the phrase's terms, served by the resident shards
        in ONE actor round-trip per shard."""
        return self._one("phrase_rank", phrases, predicates)

    def search_proximity(self, queries: list[dict],
                         predicates: list[str] | None = None) -> pa.Table:
        """queries: [{"query_id", "query_text", "window", "k"}] ->
        ranked scored table: NEAR/W hits (all distinct terms within a
        ``window``-token span; ``"ordered": True`` = span-near in the
        given order) scored by BM25 over the query terms, served by the
        resident shards in ONE round-trip per shard."""
        return self._one("proximity", queries, predicates)

    def search_span_first(self, queries: list[dict],
                          predicates: list[str] | None = None
                          ) -> pa.Table:
        """queries: [{"query_id", "query_text", "limit", "k"}] ->
        ranked scored table: docs where EVERY query term occurs within
        the first ``limit`` token positions (Lucene SpanFirstQuery
        semantics, conjunctive), scored by BM25 over the query terms,
        served by the resident shards in ONE round-trip per shard."""
        return self._one("span_first", queries, predicates)

    def search_common(self, queries: list[dict],
                      max_df_num: int = 2, max_df_den: int = 5,
                      predicates: list[str] | None = None) -> pa.Table:
        """queries: [{"query_id", "query_text", "k"}] -> ranked scored
        table with common-terms semantics (recall from low-df terms
        only, scoring over all terms; all-high-df queries fall back to
        plain recall).  The low/high split runs once on the driver
        against the service's cached global df."""
        return self._one("common", queries, predicates,
                         max_df_num=max_df_num, max_df_den=max_df_den)

    def search_phrases(self, phrases: list[dict],
                       predicates: list[str] | None = None) -> pa.Table:
        """phrases: [{"query_id", "phrase"}] -> (query_id, conv_id,
        turn_idx) of docs containing each exact consecutive phrase,
        scatter-gathered across the resident shard actors."""
        return self._one("phrases", phrases, predicates)

    def search_boosted(self, queries: list[dict],
                       predicates: list[str] | None = None) -> pa.Table:
        """Boosted search served by the resident shards: queries
        [{"query_id", "query_text", "k"}] with ``term^2.5`` boost
        syntax in the text (see :func:`parse_boosted_query`)."""
        return self._one("boosted", queries, predicates)

    def top_hits(self, queries: list[dict], facet_col: str,
                 predicates: list[str] | None = None) -> pa.Table:
        """Served top_hits-per-bucket: queries [{"query_id",
        "query_text", "h"}] → (query_id, facet, rank, conv_id,
        turn_idx, score); parity with the one-shot
        :func:`~vframe_ray.index.entrypoints.top_hits_index`."""
        return self._one("top_hits", queries, predicates,
                         facet_col=facet_col)

    def search_boosting(self, queries: list[dict],
                        predicates: list[str] | None = None) -> pa.Table:
        """Served boosting compound: queries [{"query_id", "positive",
        "negative", "negative_boost", "k"}] — positive BM25 ranking
        with negative matchers demoted, demotion before every local
        top-k cut (exact; parity-tested vs the one-shot path)."""
        return self._one("boosting", queries, predicates)

    def search_after(self, queries: list[dict],
                     predicates: list[str] | None = None) -> pa.Table:
        """Served cursor pagination: queries [{"query_id", "query_text",
        "k", "after": (score, conv_id, turn_idx)}] — each shard returns
        only k rows past the cursor (no offset over-fetch)."""
        return self._one("after", queries, predicates)

    def facet_ranges(self, queries: list[dict], bin_width: int,
                     predicates: list[str] | None = None) -> pa.Table:
        """Served range facets (doc-length histogram over the full match
        set): per-shard (query, bin) partials summed on the driver."""
        return self._one("facet_ranges", queries, predicates,
                         bin_width=bin_width)

    def search_synonyms(self, queries: list[dict],
                        synonyms: dict[str, list[str]],
                        predicates: list[str] | None = None) -> pa.Table:
        """Served synonym expansion: the same pure query rewrite as
        :func:`search_synonym_index`, then the resident shards."""
        return self.search(_synonym_plain_queries(self.tok, queries,
                                                  synonyms),
                           predicates=predicates)

    def search_fuzzy(self, queries: list[dict], *, max_edits: int = 1,
                     predicates: list[str] | None = None) -> pa.Table:
        """Served fuzzy search: SymSpell deletion-table expansion
        (sidecar built once per dictionary state, pushdown-read per
        call — sublinear in vocabulary; see index.fuzzy), then the
        resident shards."""
        return self.search(_fuzzy_plain_queries(self.index_dirs, self.tok,
                                                queries, max_edits),
                           predicates=predicates)

    def search_mixed(self, requests: list[dict],
                     predicates: list[str] | None = None
                     ) -> list[pa.Table]:
        """Heterogeneous query batch in ONE round trip per shard
        (VERDICT r3 next #7).  Each request is {"mode": a mode of the
        table in :mod:`.plan` (search, boolean, proximity, span_first,
        phrase_rank, boosted, boosting, after, common, function_score,
        sort_by_attr, top_hits, facets, facet_ranges, facet_stats,
        match_counts, phrases) or an expansion mode (prefix, like,
        regex: expanded driver-side, then served as plain searches),
        "queries": [...], + the mode's options ("use_bmw", "collapse",
        "facet_col", "bin_width", "attr", "weight", "max_df_num",
        "max_df_den")}; returns one result table per request,
        value-identical to calling the per-mode method (parity-tested).
        Compared to one call per mode this saves (modes-1) × actor
        round trips and lets every mode share one global-df lookup, one
        postings read per segment and the shards' pinned hot postings."""
        reqs = []
        for req in requests:
            mode, qs = req["mode"], req["queries"]
            if mode in _EXPANSIONS:
                qs, mode = _EXPANSIONS[mode](self, qs), "search"
            opts = {k: v for k, v in req.items()
                    if k not in ("mode", "queries")}
            reqs.append(self._plan(mode, qs, **opts))
        return self._run(reqs, predicates)

    def suggest(self, prefixes: list[str], k: int = 10) -> pa.Table:
        """Autocomplete against the index's global term dictionary —
        see :func:`suggest_terms` (dictionary-only; no shard fan-out)."""
        return suggest_terms(self.index_dirs, prefixes, k)

    def refresh_deletes(self) -> int:
        """Make tombstones written after service start visible: every
        shard re-reads its sidecars.  Returns total tombstoned docs.
        The request cache is dropped — its entries were computed under
        the pre-refresh tombstone set."""
        self._req_cache.clear()
        return sum(ray.get([a.reload_deletes.remote()
                            for a in self.actors]))

    def shutdown(self):
        for a in self.actors:
            ray.kill(a)
        self.actors = []
