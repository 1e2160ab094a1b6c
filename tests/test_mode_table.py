"""The retrieval-mode table (index/plan.py) and its three consumers:
one-shot ``*_index`` functions, QueryService per-mode methods and
``search_mixed`` return the same results for every mode; degenerate
requests return the mode's typed empty table; duplicate query ids
raise; a mixed batch reads each segment's terms once; a one-shot call
resolves an alias once; a default build finishes on one CPU."""

import os
import subprocess
import sys
import textwrap

import pytest
import ray.data

from tests.util import SMALL_CFG
from vframe_ray.index import entrypoints as E
from vframe_ray.index.build import build_index
from vframe_ray.index.plan import MODES
from vframe_ray.index.service import QueryService

ROWS = [
    {"conv_id": f"c{i}", "turn_idx": t, "text": text,
     "lang": ("en", "de", "fr")[(i + t) % 3], "n": 1 + (i * 7 + t) % 5}
    for i, texts in enumerate([
        ["apple banana rare", "apple apricot"],
        ["banana berry apple", "cherry apple apple"],
        ["apricot cherry rare", "rare rare banana"],
        ["banana cherry", "apple banana cherry berry"],
        ["apple rare rare", "berry"],
        ["cherry banana apple rare", "apricot apple"],
        ["berry berry cherry", "apple cherry rare banana"],
    ])
    for t, text in enumerate(texts)
]

OOV = "zzqqxx"

# mode -> (one-shot function, served method or None, query, options)
CASES = {
    "search": (E.search_index, "search",
               {"query_text": "apple rare", "k": 3, "offset": 1}, {}),
    "boolean": (E.search_boolean_index, "search_boolean",
                {"must": "apple", "should": "rare banana",
                 "must_not": "berry", "k": 3}, {}),
    "proximity": (E.proximity_rank_index, "search_proximity",
                  {"query_text": "apple banana", "window": 3, "k": 3}, {}),
    "span_first": (E.span_first_search_index, "search_span_first",
                   {"query_text": "apple", "limit": 2, "k": 3}, {}),
    "phrase_rank": (E.phrase_rank_index, "search_ranked_phrases",
                    {"phrase": "apple banana", "k": 3}, {}),
    "boosted": (E.search_boosted_index, "search_boosted",
                {"query_text": "apple^2 rare", "k": 3}, {}),
    "boosting": (E.search_boosting_index, "search_boosting",
                 {"positive": "apple rare", "negative": "banana",
                  "negative_boost": 0.3, "k": 3}, {}),
    "after": (E.search_after_index, "search_after",
              {"query_text": "apple", "k": 3, "after": (1e9, "", 0)}, {}),
    "common": (E.search_common_index, "search_common",
               {"query_text": "apple berry", "k": 3}, {}),
    "function_score": (E.function_score_index, "search_function_score",
                       {"query_text": "apple rare", "k": 3},
                       {"attr": "n", "weight": 0.5}),
    "sort_by_attr": (E.sort_by_attr_index, None,
                     {"query_text": "cherry", "k": 3}, {"attr": "n"}),
    "top_hits": (E.top_hits_index, "top_hits",
                 {"query_text": "apple", "h": 2}, {"facet_col": "lang"}),
    "facets": (E.facet_counts_index, "facet_counts",
               {"query_text": "banana"}, {"facet_col": "lang"}),
    "facet_ranges": (E.facet_ranges_index, "facet_ranges",
                     {"query_text": "cherry"}, {"bin_width": 2}),
    "facet_stats": (E.facet_stats_index, "facet_stats",
                    {"query_text": "rare"}, {"facet_col": "lang"}),
    "match_counts": (E.match_counts_index, None,
                     {"query_text": "berry"}, {}),
    "phrases": (E.phrase_search_index, "search_phrases",
                {"phrase": "apple banana"}, {}),
}


def _queries(q):
    """Two queries of the case's shape (ids 0 and 1)."""
    return [dict(q, query_id=0), dict(q, query_id=1)]


def _oov(q):
    return {k: (OOV if k in ("query_text", "phrase", "must", "positive")
                else v) for k, v in q.items()}


def _run_all(idx, svc, mode, qs, preds):
    fn, meth, _q, opts = CASES[mode]
    out = {"oneshot": fn(idx, qs, **opts, predicates=preds),
           "mixed": svc.search_mixed([{"mode": mode, "queries": qs,
                                       **opts}], predicates=preds)[0]}
    if meth:
        out["served"] = getattr(svc, meth)(qs, **opts, predicates=preds)
    return out


@pytest.fixture(scope="module")
def idx_svc(ray_session, tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("mode_table") / "idx")
    build_index(ray.data.from_items(ROWS), idx, SMALL_CFG,
                attribute_cols=["lang", "n"])
    svc = QueryService(idx, n_actors=2)
    yield idx, svc
    svc.shutdown()


def test_case_table_covers_every_mode():
    assert set(CASES) == set(MODES)


@pytest.mark.parametrize("preds", [None, ["lang != fr"]])
def test_every_mode_same_result_on_all_paths(idx_svc, preds):
    idx, svc = idx_svc
    for mode, (_fn, _m, q, _o) in CASES.items():
        qs = [dict(q, query_id=3), dict(_oov(q), query_id=1),
              dict(q, query_id=0)]
        outs = _run_all(idx, svc, mode, qs, preds)
        want = outs["oneshot"]
        assert want.schema == MODES[mode].schema, mode
        for path, got in outs.items():
            assert got.schema == want.schema, (mode, path)
            assert got.to_pylist() == want.to_pylist(), (mode, path)
        if mode != "match_counts":
            assert want.num_rows > 0, mode        # the case does match


@pytest.mark.parametrize("kind", ["empty", "oov"])
def test_degenerate_requests_return_typed_empty(idx_svc, kind):
    idx, svc = idx_svc
    for mode, (_fn, _m, q, _o) in CASES.items():
        qs = [] if kind == "empty" else [dict(_oov(q), query_id=0)]
        for path, got in _run_all(idx, svc, mode, qs, None).items():
            assert got.schema == MODES[mode].schema, (mode, path)
            if mode == "match_counts":      # one n = 0 row per query
                assert got.column("n").to_pylist() == [0] * len(qs)
            else:
                assert got.num_rows == 0, (mode, path)


def test_retrieval_eval_empty_request(idx_svc):
    idx, _svc = idx_svc
    out = E.retrieval_eval_index(idx, [])
    assert out.num_rows == 0
    assert out.column_names == ["query_id", "n_rel", "n_ret", "ap_r",
                                "ndcg_r", "mrr_r"]


def test_duplicate_query_ids_rejected(idx_svc):
    """Two queries sharing an id used to come back as one merged
    ranking; every path now raises."""
    idx, svc = idx_svc
    plain = _queries(CASES["search"][2])
    for mode, (fn, meth, q, opts) in CASES.items():
        qs = [dict(q, query_id=0), dict(q, query_id=0)]
        calls = [lambda: fn(idx, qs, **opts),
                 lambda: svc.search_mixed([
                     {"mode": "search", "queries": plain},
                     {"mode": mode, "queries": qs, **opts}])]
        if meth:
            calls.append(lambda: getattr(svc, meth)(qs, **opts))
        for call in calls:
            with pytest.raises(ValueError, match="duplicate query_id"):
                call()
    two = [{"query_id": 0, "query_text": "apple", "k": 1},
           {"query_id": 0, "query_text": "cherry", "k": 1}]
    for call in (lambda: E.search_prefix_index(idx, two),
                 lambda: E.retrieval_eval_index(idx, two),
                 lambda: E.explain_index(idx, two),
                 lambda: svc.search_mixed([{"mode": "like",
                                            "queries": two}])):
        with pytest.raises(ValueError, match="duplicate query_id"):
            call()


def test_mixed_batch_reads_each_segment_terms_once(idx_svc, monkeypatch):
    """A cold 4-op search_mixed call on one shard: one terms read per
    segment, for the union of the ops' terms."""
    from vframe_ray.index import plan as P
    from vframe_ray.index.segment import SegmentReader
    from vframe_ray.index.service import _ShardSearcher
    from vframe_ray.index.scatter import open_index
    idx, _svc = idx_svc
    ix = open_index(idx)
    calls = []
    real = SegmentReader.load_terms

    def counting(self, terms):
        calls.append(self)
        return real(self, terms)

    monkeypatch.setattr(SegmentReader, "load_terms", counting)
    shard = _ShardSearcher.__ray_metadata__.modified_class(
        ix.seg_dirs, {"k1": ix.cfg.bm25.k1, "b": ix.cfg.bm25.b},
        ix.stats["n_docs"], ix.stats["avgdl"], ix.cfg.index.block_size)
    reqs = [ix.plan(m, _queries(CASES[m][2]), **CASES[m][3])
            for m in ("search", "proximity", "boolean", "facet_ranges")]
    idf_map = P.resolve_idf(reqs, ix.df, ix.stats["n_docs"])
    out = shard.search_mixed([r.op() for r in reqs], idf_map)
    assert len(out) == 4 and out[0].num_rows > 0
    assert len(calls) == len(ix.seg_dirs) == len(set(map(id, calls)))


def test_oneshot_resolves_alias_once(idx_svc, tmp_path, monkeypatch):
    from vframe_ray.state import manifest
    idx, _svc = idx_svc
    alias = str(tmp_path / "live")
    manifest.alias_set(alias, idx)
    seen = []
    real = manifest.alias_resolve

    def counting(path):
        seen.append(path)
        return real(path)

    monkeypatch.setattr(manifest, "alias_resolve", counting)
    qs = [{"query_id": 0, "query_text": "apple", "k": 2}]
    want = E.search_index(idx, qs, predicates=["lang != fr"])
    seen.clear()
    got = E.search_index(alias, qs, predicates=["lang != fr"])
    assert got.to_pylist() == want.to_pylist()
    assert seen.count(alias) == 1


_ONE_CPU_BUILD = textwrap.dedent("""
    import os, sys, threading
    import ray, ray.data
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    from vframe_ray.index.build import build_index
    rows = [{"conv_id": f"c{i}", "turn_idx": 0, "text": f"w{i % 7} x"}
            for i in range(200)]
    done = []
    t = threading.Thread(target=lambda: done.append(build_index(
        ray.data.from_items(rows), sys.argv[1])), daemon=True)
    t.start()
    t.join(float(sys.argv[2]))
    ray.shutdown()
    print("built" if done else "timeout", flush=True)
    os._exit(0 if done else 3)
""")


def test_default_build_finishes_on_one_cpu(tmp_path):
    """The default (actor-pool) build on a one-CPU session: a pool
    holding the only CPU would starve its own input; the build must
    take the task path and finish."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    r = subprocess.run([sys.executable, "-c", _ONE_CPU_BUILD,
                        str(tmp_path / "idx"), "90"],
                       capture_output=True, text=True, env=env, cwd=root,
                       timeout=240)
    assert "built" in r.stdout, r.stdout + r.stderr[-2000:]
