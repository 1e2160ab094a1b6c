"""The segment-kernel skeleton's shared rules: one null-facet rule for
every facet mode, one prologue per expansion one-shot call, and an
empty conjunctive match set for a query without terms."""

import pytest
import ray.data

from tests.util import SMALL_CFG
from vframe_ray.index import entrypoints as E
from vframe_ray.index.build import build_index
from vframe_ray.index.service import QueryService

LANGS = ("en", None, "de", None, "fr")
ROWS = [
    {"conv_id": f"c{i}", "turn_idx": t, "text": text,
     "lang": LANGS[(i + 2 * t) % len(LANGS)]}
    for i, texts in enumerate([
        ["apple banana", "apple cherry"], ["banana berry", "apple"],
        ["cherry rare apple", "banana"], ["apple apple berry", "rare"],
        ["banana cherry apple", "berry apple"], ["apple", "cherry"],
        ["rare banana", "apple berry cherry"],
    ])
    for t, text in enumerate(texts)
]
QUERIES = ["apple", "banana cherry", "rare"]


@pytest.fixture(scope="module")
def null_idx(ray_session, tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("null_facet") / "idx")
    build_index(ray.data.from_items(ROWS), idx, SMALL_CFG,
                attribute_cols=["lang"])
    svc = QueryService(idx, n_actors=1)
    yield idx, svc
    svc.shutdown()


def _null_matches(text: str) -> int:
    terms = set(text.split())
    return sum(1 for r in ROWS if r["lang"] is None
               and terms & set(r["text"].split()))


def test_null_facet_values_fall_in_no_bucket(null_idx):
    idx, svc = null_idx
    qs = [{"query_id": i, "query_text": t, "h": 50}
          for i, t in enumerate(QUERIES)]
    paths = {
        "oneshot": lambda mode, **o: {
            "facets": E.facet_counts_index, "facet_stats":
            E.facet_stats_index, "top_hits": E.top_hits_index,
            "match_counts": E.match_counts_index}[mode](idx, qs, **o),
        "served": lambda mode, **o: svc.search_mixed(
            [{"mode": mode, "queries": qs, **o}])[0]}
    for path, run in paths.items():
        facets = run("facets", facet_col="lang").to_pylist()
        stats = run("facet_stats", facet_col="lang").to_pylist()
        top = run("top_hits", facet_col="lang").to_pylist()
        counts = {r["query_id"]: r["n"]
                  for r in run("match_counts").to_pylist()}
        buckets = {(r["query_id"], r["facet"]) for r in facets}
        assert None not in {f for _, f in buckets}, path
        assert {(r["query_id"], r["facet"]) for r in stats} == buckets, path
        assert {(r["query_id"], r["facet"]) for r in top} == buckets, path
        assert [r["n"] for r in stats] == [r["n"] for r in facets], path
        for qid, text in enumerate(QUERIES):
            n = sum(r["n"] for r in facets if r["query_id"] == qid)
            assert n + _null_matches(text) == counts[qid], (path, text)
            assert n == sum(1 for r in top if r["query_id"] == qid), path
        assert any(_null_matches(t) for t in QUERIES)


def test_segment_facet_partials_carry_no_null_bucket(null_idx):
    from vframe_ray.index.scatter import open_index
    from vframe_ray.index.searcher import SegmentSearcher
    ix = open_index(null_idx[0])
    parsed = [(i, sorted(set(t.split()))) for i, t in enumerate(QUERIES)]
    for seg in ix.seg_dirs:
        s = SegmentSearcher(seg, ix.cfg.bm25, ix.stats["n_docs"],
                            ix.stats["avgdl"], {})
        for t in (s.facet_counts(parsed, "lang"),
                  s.facet_stats(parsed, "lang"),
                  s.top_hits_by_facet([(q, ts, 5) for q, ts in parsed],
                                      "lang")):
            assert t.column("facet").null_count == 0


def test_expansion_calls_read_the_index_meta_once(null_idx, monkeypatch):
    """Each expansion one-shot call opens the index once: the rewrite
    and the search share the prologue (they used to open it twice)."""
    from vframe_ray.index import build
    idx, _svc = null_idx
    reads = []
    real = build.load_index_meta

    def counting(index_dir):
        reads.append(index_dir)
        return real(index_dir)

    monkeypatch.setattr(build, "load_index_meta", counting)
    preds = ["lang != fr"]

    def q(text):
        return [{"query_id": 0, "query_text": text, "k": 3}]

    calls = {
        "prefix": lambda: E.search_prefix_index(idx, q("app*"),
                                                predicates=preds),
        "mlt": lambda: E.more_like_this_index(
            idx, [{"query_id": 0, "text": "apple banana", "k": 3}],
            predicates=preds),
        "synonyms": lambda: E.search_synonym_index(
            idx, q("apple"), {"apple": ["berry"]}, predicates=preds),
        "fuzzy": lambda: E.search_fuzzy_index(idx, q("aple"),
                                              predicates=preds),
        "like": lambda: E.search_like_index(idx, q("a?ple"),
                                            predicates=preds),
        "regex": lambda: E.search_regex_index(idx, q("app.*"),
                                              predicates=preds),
        "explain": lambda: E.explain_index(idx, q("apple"),
                                           predicates=preds),
        "phrase_prefix": lambda: E.phrase_prefix_search_index(
            idx, [{"query_id": 0, "phrase": "apple ban"}]),
    }
    for name, call in calls.items():
        reads.clear()
        assert call().num_rows > 0, name
        assert len(reads) == 1, name


def test_retrieval_eval_empty_query_text(null_idx):
    """A query with no terms has no relevant docs; the conjunctive count
    used to raise IndexError on the empty term list."""
    idx, _svc = null_idx
    out = E.retrieval_eval_index(idx, [
        {"query_id": 0, "query_text": "", "k": 3},
        {"query_id": 1, "query_text": "apple", "k": 3}]).to_pylist()
    assert [(r["query_id"], r["n_rel"], r["n_ret"]) for r in out] == [
        (0, 0, 0), (1, sum("apple" in r["text"].split() for r in ROWS), 3)]
