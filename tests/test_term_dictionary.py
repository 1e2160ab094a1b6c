"""The resident term dictionary (``SegmentReader``): lookups equal a
direct parquet read of each term's row, the file is read once per warm
searcher and never by docmap-only users, a damaged ``terms.parquet``
raises instead of answering, and the ranked checks of the planner also
guard the functions that parse outside it."""

import dataclasses
import os
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest
import ray.data

from tests.util import SMALL_CFG
from vframe_ray.index import entrypoints as E
from vframe_ray.index.build import build_index, load_index_meta
from vframe_ray.index.codec import decode_all
from vframe_ray.index.searcher import SegmentSearcher
from vframe_ray.index.segment import SegmentReader
from vframe_ray.index.service import QueryService

BS = SMALL_CFG.index.block_size
_BLOCKS = ("block_last_doc", "block_max_tf", "block_min_dl",
           "block_doc_off", "block_tf_off")


def _assert_rows_equal(reader: SegmentReader, absent: list[str]):
    rows = pq.read_table(os.path.join(reader.seg_dir,
                                      "terms.parquet")).to_pylist()
    terms = [r["term"] for r in rows]
    got = reader.load_terms(terms + absent)
    assert sorted(got) == terms
    for row in rows:
        tp = got[row["term"]]
        assert bytes(tp.blob) == row["blob"]
        assert tp.n_docs == row["n_docs"]
        assert tp.tf_section_off == row["tf_section_off"]
        assert tp.pos_section_off == row["pos_section_off"]
        for c in _BLOCKS:
            assert getattr(tp, c).tolist() == row[c], (row["term"], c)
        ref = dataclasses.replace(tp, blob=row["blob"])
        for with_pos in (False, True):
            for a, b in zip(decode_all(tp, BS, with_pos),
                            decode_all(ref, BS, with_pos)):
                np.testing.assert_array_equal(a, b)
    return terms


def test_lookup_equals_parquet_row_for_every_term(small_index_dir):
    _cfg, _stats, seg_dirs = load_index_meta(small_index_dir)
    assert len(seg_dirs) > 1
    n_terms = 0
    for seg in seg_dirs:
        r = SegmentReader(seg, BS)
        terms = _assert_rows_equal(r, ["zzqqxx", "", "~"])
        held = r.has_terms(terms[:3] + ["zzqqxx"])
        assert held.tolist() == [True] * len(terms[:3]) + [False]
        n_terms += len(terms)
    assert n_terms > 500


def test_lookup_on_segments_of_empty_text(ray_session, tmp_path):
    idx = str(tmp_path / "empty_text")
    rows = [{"conv_id": f"c{i}", "turn_idx": 0, "text": ("", "  ", "!!")[i % 3]}
            for i in range(12)]
    build_index(ray.data.from_items(rows), idx, SMALL_CFG)
    for seg in load_index_meta(idx)[2]:
        r = SegmentReader(seg, BS)
        assert r.n_docs > 0 and len(r.terms) == 0
        assert _assert_rows_equal(r, ["alpha"]) == []
        assert not r.has_terms(["alpha"]).any()
    assert E.search_index(idx, [{"query_id": 0, "query_text": "alpha",
                                 "k": 3}]).num_rows == 0


def test_warm_searcher_reads_terms_file_once(small_index_dir, monkeypatch):
    cfg, stats, seg_dirs = load_index_meta(small_index_dir)
    opened = []
    real = pq.ParquetFile

    def counting(path, *a, **kw):
        if str(path).endswith("terms.parquet"):
            opened.append(path)
        return real(path, *a, **kw)

    monkeypatch.setattr(pq, "ParquetFile", counting)
    s = SegmentSearcher(seg_dirs[0], SMALL_CFG.bm25, stats["n_docs"],
                        stats["avgdl"], {}, BS)
    assert opened == []              # the docmap alone reads no terms
    words = ["alpha", "zzqqxx"] + pq.read_table(
        os.path.join(seg_dirs[0], "terms.parquet"),
        columns=["term"])["term"].to_pylist()[:40]
    for i in range(20):
        batch = [(q, words[(i + q) % len(words):][:3], 5) for q in range(4)]
        s.search(batch)
    assert len(opened) == 1


# ---------- corrupt segments raise ----------

ROWS = [{"conv_id": f"c{i}", "turn_idx": t,
         "text": f"apple banana w{i} x{t} cherry{i % 4}"}
        for i in range(20) for t in range(3)]
QUERY = [{"query_id": 0, "query_text": "apple cherry1", "k": 5}]


@pytest.fixture(scope="module")
def clean_index(ray_session, tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("dict_corrupt") / "idx")
    build_index(ray.data.from_items(ROWS), idx, SMALL_CFG)
    return idx


def _truncate(path):
    data = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(data[:len(data) // 2])


def _swap_rows(path):
    t = pq.read_table(path)
    order = list(range(t.num_rows))
    order[0], order[-1] = order[-1], order[0]
    pq.write_table(t.take(order), path)


def _rewrite(path, col, fn):
    import pyarrow as pa
    t = pq.read_table(path)
    vals = t[col].to_pylist()
    vals[-1] = fn(vals[-1])
    i = t.column_names.index(col)
    pq.write_table(t.set_column(i, col, pa.array(vals, t.schema.field(col).type)),
                   path)


def _offset_past_blob(path):
    _rewrite(path, "pos_section_off", lambda v: v + 10 ** 6)


def _short_block_list(path):
    _rewrite(path, "block_max_tf", lambda v: v[:-1])


@pytest.mark.parametrize("damage", [_truncate, _swap_rows, _offset_past_blob,
                                    _short_block_list])
def test_corrupt_terms_file_fails_the_dictionary_load(clean_index, tmp_path,
                                                      damage):
    seg = str(tmp_path / "seg")
    shutil.copytree(load_index_meta(clean_index)[2][0], seg)
    damage(os.path.join(seg, "terms.parquet"))
    r = SegmentReader(seg, BS)       # the docmap alone still opens
    with pytest.raises(ValueError, match=f"corrupt segment {seg}"):
        r.load_terms(["apple"])


@pytest.mark.parametrize("damage", [_truncate, _swap_rows])
def test_corrupt_terms_file_raises_on_every_path(clean_index, tmp_path,
                                                 damage):
    want = E.search_index(clean_index, QUERY)
    assert want.num_rows > 0
    idx = str(tmp_path / "idx")
    shutil.copytree(clean_index, idx)
    victim = load_index_meta(idx)[2][1]
    assert pq.read_metadata(os.path.join(victim, "terms.parquet")) \
        .num_rows > 1
    damage(os.path.join(victim, "terms.parquet"))
    with pytest.raises(ValueError, match=os.path.basename(victim)):
        E.search_index(idx, QUERY)
    svc = QueryService(idx, n_actors=1)
    try:
        with pytest.raises(ValueError, match=os.path.basename(victim)):
            svc.search(QUERY)
    finally:
        svc.shutdown()


# ---------- ranked checks outside the planner ----------

def test_negative_k_and_duplicate_ids_raise_outside_planner(clean_index):
    from ray.exceptions import RayTaskError
    negative = [{"query_id": 0, "query_text": "apple", "k": -1}]
    dup = [{"query_id": 0, "query_text": "apple", "k": 2},
           {"query_id": 0, "query_text": "banana", "k": 2}]
    calls = [(lambda: E.retrieval_eval_index(clean_index, negative),
              "negative k"),
             (lambda: E.search_fields_index([(clean_index, 1.0)], negative),
              "negative k"),
             (lambda: E.search_fields_index([(clean_index, 1.0)], dup),
              "duplicate query_id")]
    for call, match in calls:
        with pytest.raises(ValueError, match=match) as e:
            call()
        assert not isinstance(e.value, RayTaskError)
