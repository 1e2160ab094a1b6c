"""One-shot queries fan out as plain Ray tasks: no Ray Data job below
``driver_merge_max_rows``, the groupby merge above it equals the task
path, a zero-segment index submits no task and returns each mode's
typed empty result, predicate validation reads the manifest once per
call, and ``QueryService.search`` rejects an unknown predicate
attribute on the driver."""

import pyarrow as pa
import pytest
import ray
import ray.data

from tests.test_mode_table import CASES, ROWS, _queries
from tests.util import SMALL_CFG
from vframe_ray.index import build as B
from vframe_ray.index import entrypoints as E
from vframe_ray.index import scatter as S
from vframe_ray.index.build import build_index
from vframe_ray.index.plan import MODES
from vframe_ray.index.service import QueryService

QS = [{"query_id": 0, "query_text": "apple rare", "k": 3, "offset": 1},
      {"query_id": 1, "query_text": "zzqqxx", "k": 2},
      {"query_id": 2, "query_text": "cherry banana", "k": 4}]


@pytest.fixture(scope="module")
def idx(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("oneshot_tasks") / "idx")
    build_index(ray.data.from_items(ROWS), d, SMALL_CFG,
                attribute_cols=["lang", "n"])
    return d


@pytest.fixture(scope="module")
def empty_idx(ray_session, tmp_path_factory):
    """An index built from an empty corpus: no segment at all."""
    d = str(tmp_path_factory.mktemp("oneshot_tasks") / "empty")
    schema = pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int32()),
                        ("text", pa.string()), ("lang", pa.string()),
                        ("n", pa.int64())])
    build_index(ray.data.from_arrow(schema.empty_table()), d, SMALL_CFG,
                attribute_cols=["lang", "n"])
    assert B.load_index_meta(d)[2] == []
    return d


def _no_dataset(*_a, **_k):
    raise AssertionError("one-shot call built a Ray Data dataset")


def test_oneshot_calls_build_no_dataset(idx, monkeypatch):
    want = {"search": E.search_index(idx, QS, predicates=["lang != fr"]),
            "explain": E.explain_index(idx, QS),
            "eval": E.retrieval_eval_index(idx, QS),
            "federated": E.search_federated([idx], QS),
            "facets": E.facet_counts_index(idx, QS, facet_col="lang")}
    monkeypatch.setattr(ray.data, "from_items", _no_dataset)
    got = {"search": E.search_index(idx, QS, predicates=["lang != fr"]),
           "explain": E.explain_index(idx, QS),
           "eval": E.retrieval_eval_index(idx, QS),
           "federated": E.search_federated([idx], QS),
           "facets": E.facet_counts_index(idx, QS, facet_col="lang")}
    for name, table in want.items():
        assert got[name].equals(table), name
    assert want["search"].num_rows > 0
    with pytest.raises(AssertionError, match="Ray Data dataset"):
        E.search_index(idx, QS, driver_merge_max_rows=0)


@pytest.mark.parametrize("preds", [None, ["lang != fr"]])
def test_groupby_merge_equals_task_path(idx, preds):
    for qs in (QS, [QS[1]], []):
        tasks = E.search_index(idx, qs, predicates=preds)
        grouped = E.search_index(idx, qs, predicates=preds,
                                 driver_merge_max_rows=0)
        assert grouped.schema == tasks.schema == MODES["search"].schema
        assert grouped.to_pylist() == tasks.to_pylist()
    assert tasks.num_rows == 0 and grouped.num_rows == 0


def test_zero_segment_index_every_mode_typed_empty(empty_idx, monkeypatch):
    class _NoTask:
        @staticmethod
        def remote(*_a, **_k):
            raise AssertionError("task submitted for a zero-segment index")

    monkeypatch.setattr(S, "_batch_task", _NoTask)
    for mode, (fn, _meth, q, opts) in CASES.items():
        got = fn(empty_idx, _queries(q), **opts, predicates=["lang != fr"])
        assert got.schema == MODES[mode].schema, mode
        if mode == "match_counts":          # one n = 0 row per query
            assert got.column("n").to_pylist() == [0, 0]
        else:
            assert got.num_rows == 0, mode


def test_oneshot_reads_manifest_once_with_predicate(idx, monkeypatch):
    calls = []
    real = B.load_index_meta

    def counting(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(B, "load_index_meta", counting)
    out = E.search_index(idx, QS, predicates=["lang != fr"])
    assert out.num_rows > 0
    assert len(calls) == 1
    with pytest.raises(ValueError, match="unknown attribute column"):
        E.search_index(idx, QS, predicates=["nope == 1"])


def test_served_search_checks_predicates_on_driver(idx, monkeypatch):
    svc = QueryService(idx, n_actors=1)
    try:
        with pytest.raises(ValueError, match="unknown attribute") as ei:
            svc.search(QS, predicates=["nope == 1"])
        assert not isinstance(ei.value, ray.exceptions.RayTaskError)
        want = svc.search(QS, predicates=["lang != fr"])

        def no_read(*_a, **_k):
            raise AssertionError("warm predicate check read a file")

        # a warm check reads neither the manifest nor a docmap schema
        monkeypatch.setattr(B, "load_index_meta", no_read)
        monkeypatch.setattr(S.pq, "read_schema", no_read)
        got = svc.search(QS[::-1], predicates=["lang != fr"])
        assert got.to_pylist() == want.to_pylist()
        svc.search(QS[:2], predicates=["n >= 2"])
        with pytest.raises(ValueError, match="unknown attribute"):
            svc.search(QS[:1], predicates=["nope == 1"])
    finally:
        svc.shutdown()
