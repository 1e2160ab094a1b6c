"""Checks of the engine's outputs against computations made apart from it.

Counts and BM25 scores come from DuckDB SQL over the raw corpus
(``lower(text)`` split on ``[^a-z0-9]+``); phrase, proximity and boolean
hits are checked against a Python ``re`` tokenization of the hit's text.
Nothing here imports the engine or compares against stored output.
Every check raises ``Mismatch`` with a description of the first
difference.
"""

from __future__ import annotations

import re

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa

K1, B = 1.2, 0.75
REL_TOL = 1e-9
_TOKEN = re.compile("[a-z0-9]+")


class Mismatch(AssertionError):
    pass


def tokens(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


class Oracle:
    """Independent statistics and BM25 over one corpus."""

    def __init__(self, parts: list[pa.Table]):
        """``parts``: corpus tables (base, delta, ...); statistics can be
        asked for any subset, BM25 is over all of them."""
        table = pa.concat_tables(
            [t.select(["conv_id", "turn_idx", "text"]).append_column(
                "part", pa.array([i] * t.num_rows, pa.int32()))
             for i, t in enumerate(parts)])
        self.con = duckdb.connect()
        self.con.execute("SET threads TO 1")
        self.con.register("src", table)
        self.con.execute("""
            CREATE TABLE docs AS
            SELECT row_number() OVER (ORDER BY conv_id, turn_idx) AS did,
                   part, conv_id, turn_idx, text
            FROM src""")
        self.con.execute("""
            CREATE TABLE tok AS
            SELECT did, unnest(list_filter(
                regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                x -> x <> '')) AS term
            FROM docs""")
        self.con.execute("""
            CREATE TABLE tf AS
            SELECT did, term, count(*) AS tf FROM tok GROUP BY did, term""")
        self.con.execute("""
            CREATE TABLE dl AS
            SELECT d.did, coalesce(sum(tf.tf), 0) AS dl
            FROM docs d LEFT JOIN tf USING (did) GROUP BY d.did""")
        self.con.execute("""
            CREATE TABLE df AS
            SELECT term, count(*) AS df, sum(tf) AS cf FROM tf
            GROUP BY term""")
        self.n_docs, self.total_len = self.con.execute(
            "SELECT count(*), sum(dl) FROM dl").fetchone()
        self.n_docs, self.total_len = int(self.n_docs), int(self.total_len)
        self.avgdl = self.total_len / self.n_docs
        keys = self.con.execute(
            "SELECT conv_id, turn_idx FROM docs ORDER BY did").fetch_arrow_table()
        self.conv_id = keys["conv_id"].to_numpy(zero_copy_only=False)
        self.turn_idx = keys["turn_idx"].to_numpy()
        self.part = table["part"].to_pylist()
        self.text = dict(zip(
            zip(table["conv_id"].to_pylist(), table["turn_idx"].to_pylist()),
            table["text"].to_pylist()))

    def _parts(self, parts: tuple[int, ...]) -> str:
        return f"part IN ({', '.join(str(int(p)) for p in parts)})"

    def counts(self, parts: tuple[int, ...]) -> tuple[int, int]:
        """(documents, tokens) of the corpus parts ``parts``."""
        n, total = self.con.execute(f"""
            SELECT count(*), sum(dl) FROM dl JOIN docs USING (did)
            WHERE {self._parts(parts)}""").fetchone()
        return int(n), int(total)

    def term_stats(self, parts: tuple[int, ...]) -> pd.DataFrame:
        return self.con.execute(f"""
            SELECT term, count(*) AS df, sum(tf) AS cf
            FROM tf JOIN docs USING (did) WHERE {self._parts(parts)}
            GROUP BY term ORDER BY term""").df()

    def keys(self, parts: tuple[int, ...]) -> set:
        return {k for k, p in zip(self.text, self.part) if p in parts}

    def bm25(self, queries: list[dict]) -> dict[int, pd.DataFrame]:
        """query_id -> the oracle ranking (score desc, conv_id, turn_idx)
        with the engine's BM25 (k1=1.2, b=0.75): every match when there
        are at most k, else the top k and every doc tied with the k-th.
        DuckDB scores; numpy ranks (``did`` is the (conv_id, turn_idx)
        rank, so it breaks score ties)."""
        rows = [(int(q["query_id"]), t) for q in queries
                for t in sorted(set(tokens(q["query_text"])))]
        qt = pa.table({"qid": pa.array([r[0] for r in rows], pa.int64()),
                       "term": pa.array([r[1] for r in rows], pa.string())})
        self.con.register("qt", qt)
        res = self.con.execute(f"""
            SELECT qt.qid, tf.did,
                   sum(ln(1 + (n - df.df + 0.5) / (df.df + 0.5))
                       * (tf.tf * (k1 + 1))
                       / (tf.tf + k1 * (1 - b + b * dl.dl / avgdl))) AS score
            FROM qt JOIN tf USING (term) JOIN df USING (term)
                 JOIN dl USING (did),
                 (SELECT {self.n_docs}::DOUBLE AS n, {K1!r}::DOUBLE AS k1,
                         {B!r}::DOUBLE AS b, {self.avgdl!r}::DOUBLE AS avgdl)
            GROUP BY qt.qid, tf.did""").fetch_arrow_table()
        self.con.unregister("qt")
        qid = res["qid"].to_numpy()
        did = res["did"].to_numpy()
        score = res["score"].to_numpy()
        order = np.lexsort((did, -score, qid))
        qid, did, score = qid[order], did[order], score[order]
        starts = np.flatnonzero(np.r_[True, qid[1:] != qid[:-1]]) \
            if len(qid) else np.empty(0, np.int64)
        spans = dict(zip(qid[starts].tolist(),
                         zip(starts, np.r_[starts[1:], len(qid)])))
        out = {}
        for q in queries:
            lo, hi = spans.get(int(q["query_id"]), (0, 0))
            k = int(q["k"])
            if hi - lo > k:
                ks = score[lo + k - 1]
                hi = lo + int(np.searchsorted(
                    -score[lo:hi], -(ks - REL_TOL * abs(ks)), side="right"))
            d = did[lo:hi] - 1
            out[int(q["query_id"])] = pd.DataFrame({
                "conv_id": self.conv_id[d], "turn_idx": self.turn_idx[d],
                "score": score[lo:hi]})
        return out


def check_topk(got: pd.DataFrame, want: pd.DataFrame, k: int,
               what: str) -> None:
    """``got`` (conv_id, turn_idx, score in rank order) against the full
    oracle ranking ``want``: same length min(k, matches), same scores
    within REL_TOL, same keys in order, where keys whose oracle scores
    tie within REL_TOL are compared as sets."""
    n = min(k, len(want))
    if len(got) != n:
        raise Mismatch(f"{what}: {len(got)} rows, expected {n}")
    if n == 0:
        return
    ws = want["score"].to_numpy()
    gs = got["score"].to_numpy(dtype=np.float64)
    bad = np.abs(gs - ws[:n]) > REL_TOL * np.abs(ws[:n])
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise Mismatch(f"{what}: rank {i + 1} score {gs[i]!r} "
                       f"expected {ws[i]!r}")
    wk = list(zip(want["conv_id"], want["turn_idx"]))
    gk = list(zip(got["conv_id"], (int(x) for x in got["turn_idx"])))
    i = 0
    while i < n:                      # walk oracle tie groups
        j = i + 1
        while j < len(ws) and abs(ws[j] - ws[i]) <= REL_TOL * abs(ws[i]):
            j += 1
        group = set(wk[i:j])
        span = gk[i:min(j, n)]
        if len(set(span)) != len(span) or not set(span) <= group:
            raise Mismatch(f"{what}: ranks {i + 1}-{min(j, n)} hold "
                           f"{span[:3]}..., expected among {sorted(group)[:3]}")
        i = j


def check_search(result: pa.Table, queries: list[dict],
                 want: dict[int, pd.DataFrame], what: str) -> None:
    df = result.to_pandas()
    by_q = {int(q): g for q, g in df.groupby("query_id", sort=False)}
    extra = set(by_q) - {int(q["query_id"]) for q in queries}
    if extra:
        raise Mismatch(f"{what}: rows for unknown query ids {sorted(extra)}")
    for q in queries:
        qid = int(q["query_id"])
        got = by_q.get(qid, df.iloc[0:0]).sort_values("rank")
        if len(got) and list(got["rank"]) != list(range(1, len(got) + 1)):
            raise Mismatch(f"{what} q{qid}: ranks not 1..n")
        check_topk(got, want[qid], int(q["k"]), f"{what} q{qid}")


def _hit_tokens(oracle: Oracle, conv_id: str, turn_idx: int) -> list[str]:
    return tokens(oracle.text[(conv_id, int(turn_idx))])


def check_mixed(results: list[pa.Table], request: list[dict],
                oracle: Oracle, what: str) -> int:
    """One ``search_mixed`` request; returns the number of hits checked."""
    checked = 0
    for op, res in zip(request, results):
        mode = op["mode"]
        if mode == "search":
            check_search(res, op["queries"], oracle.bm25(op["queries"]),
                         f"{what} search")
            checked += res.num_rows
            continue
        qs = {int(q["query_id"]): q for q in op["queries"]}
        for qid, conv, turn in zip(res["query_id"].to_pylist(),
                                   res["conv_id"].to_pylist(),
                                   res["turn_idx"].to_pylist()):
            q = qs.get(int(qid))
            if q is None:
                raise Mismatch(f"{what} {mode}: unknown query id {qid}")
            toks = _hit_tokens(oracle, conv, turn)
            ok = True
            if mode == "phrase_rank":
                p = tokens(q["phrase"])
                ok = any(toks[i:i + len(p)] == p
                         for i in range(len(toks) - len(p) + 1))
            elif mode == "proximity":
                terms = sorted(set(tokens(q["query_text"])))
                pos = {t: [i for i, x in enumerate(toks) if x == t]
                       for t in terms}
                w = int(q["window"])
                if len(terms) == 1:
                    ok = bool(pos[terms[0]])
                else:
                    a, b = pos[terms[0]], pos[terms[1]]
                    ok = any(abs(i - j) <= w - 1 for i in a for j in b)
            elif mode == "boolean":
                ok = (tokens(q["must"])[0] in toks
                      and tokens(q["must_not"])[0] not in toks)
            if not ok:
                raise Mismatch(f"{what} {mode} q{qid}: hit ({conv}, {turn}) "
                               f"does not satisfy {q}")
            checked += 1
        if mode == "phrase_rank" and set(qs) - set(
                res["query_id"].to_pylist()):
            raise Mismatch(f"{what} phrase_rank: a phrase cut from a turn "
                           "found no hit")
    return checked


def check_stats(stats: dict, want: tuple[int, int], what: str) -> None:
    """``n_docs`` and ``total_len`` a build or extend returned."""
    got = (stats["n_docs"], stats["total_len"])
    if got != want:
        raise Mismatch(f"{what}: (n_docs, total_len) = {got}, "
                       f"expected {want}")


def check_snapshot(snap: dict, oracle: Oracle, parts: tuple[int, ...],
                   what: str) -> None:
    """An index's global dictionary and docmaps (read from its files):
    every term's df and cf, sum cf = sum doclen, and the docmaps hold
    each corpus key exactly once."""
    want = oracle.term_stats(parts)
    terms = snap["terms"].to_pandas().sort_values("term") \
        .reset_index(drop=True)
    if len(terms) != len(want) or \
            not (terms["term"].to_numpy() == want["term"].to_numpy()).all():
        raise Mismatch(f"{what}: dictionary has {len(terms)} terms, "
                       f"expected {len(want)}")
    for col in ("df", "cf"):
        diff = terms[col].to_numpy() != want[col].to_numpy()
        if diff.any():
            i = int(np.flatnonzero(diff)[0])
            raise Mismatch(f"{what}: {col}({terms['term'][i]}) = "
                           f"{terms[col][i]}, expected {want[col][i]}")
    docs = snap["docs"]
    if int(terms["cf"].sum()) != int(docs["doclen"].to_numpy().sum()):
        raise Mismatch(f"{what}: sum of cf != sum of doclen")
    keys = list(zip(docs["conv_id"].to_pylist(),
                    docs["turn_idx"].to_pylist()))
    if len(keys) != len(set(keys)) or set(keys) != oracle.keys(parts):
        raise Mismatch(f"{what}: segment docmaps do not hold each corpus "
                       "key exactly once")
