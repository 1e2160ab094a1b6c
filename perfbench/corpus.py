"""Seeded benchmark inputs: a transcripts corpus and the query streams.

The corpus has the shape of FIXTURES.md §1 (conv_id, turn_idx, role,
text, tool, ts): conversations of 1-64 turns, a Zipfian vocabulary with
a planted head of hot terms (df about 40% each), mixed case,
punctuation, NFC/NFD unicode pairs, empty and whitespace-only turns,
near-duplicate and exact-duplicate turns and one very long outlier turn.
Everything is drawn from ``numpy.random.default_rng`` keyed on the run's
seed, so the same seed gives the same inputs.  Nothing here imports the
engine: a change to the program cannot change what it is fed.
"""

from __future__ import annotations

import os
import unicodedata

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

N_TERMS = 10_000
HOT_TERMS = ("shard", "merge", "token")
ROLES = ("user", "assistant", "system", "tool")
TOOLS = ("bash", "search", "python", "browser")
EPOCH_US = 1_735_689_600_000_000          # 2025-01-01T00:00:00Z
CAFE = (unicodedata.normalize("NFC", "café"),
        unicodedata.normalize("NFD", "café"))
OUTLIER_TOKENS = 100_000
# never produced by the generator: all-OOV queries use these
OOV_TERMS = ("qqxzv", "zzqjw", "xqzzk", "vqxjz")


def vocab(n_terms: int = N_TERMS) -> np.ndarray:
    return np.array([f"w{i:x}" for i in range(n_terms)])


def _zipf_sampler(rng: np.random.Generator, n: int, s: float = 1.1):
    cum = np.cumsum(1.0 / np.arange(1, n + 1) ** s)
    cum /= cum[-1]

    def draw(k: int) -> np.ndarray:
        return np.minimum(np.searchsorted(cum, rng.random(k), side="right"),
                          n - 1)
    return draw


def transcripts(n_turns: int, seed: int, conv_base: int = 0) -> pa.Table:
    """``n_turns`` rows in conversation order.  ``conv_base`` offsets the
    conversation numbers, so two tables made with disjoint ranges share
    no ``conv_id``."""
    rng = np.random.default_rng([seed, conv_base, 1])
    words = vocab()
    draw = _zipf_sampler(rng, len(words))

    lens: list[int] = []
    total = 0
    while total < n_turns:
        c = int(min(64, 1 + rng.zipf(1.4))) if rng.random() < 0.9 \
            else int(rng.integers(1, 65))
        c = min(c, n_turns - total)
        lens.append(c)
        total += c
    lens_a = np.array(lens)
    conv_no = np.repeat(np.arange(len(lens)) + conv_base, lens_a)
    starts = np.repeat(np.cumsum(lens_a) - lens_a, lens_a)
    turn_idx = np.arange(n_turns) - starts

    ntok = rng.integers(3, 40, n_turns)
    flat = words[draw(int(ntok.sum()))].tolist()
    ntok = ntok.tolist()
    kind = rng.random(n_turns).tolist()
    hot = (rng.random((n_turns, len(HOT_TERMS))) < 0.4).tolist()
    accent = rng.random(n_turns).tolist()
    shout = rng.random(n_turns).tolist()
    first = (turn_idx == 0).tolist()
    texts: list[str] = []
    prev: list[str] | None = None
    off = 0
    for i in range(n_turns):
        toks = flat[off:off + ntok[i]]
        off += ntok[i]
        r = kind[i]
        if r < 0.01:
            texts.append("")
            prev = None
            continue
        if r < 0.02:
            texts.append("   \t  ")
            prev = None
            continue
        if r < 0.03 and prev and not first[i]:
            toks = list(prev)                     # near-duplicate turn
            toks[int(r * 1e6) % len(toks)] = toks[0]
        else:
            n_hot = sum(hot[i])
            for h, term in enumerate(HOT_TERMS):
                if hot[i][h]:
                    toks.insert((n_hot * 7 + h) % (len(toks) + 1), term)
            if accent[i] < 0.05:
                toks.insert(0, CAFE[int(accent[i] * 40) % 2])
        prev = toks
        if shout[i] < 0.1:                        # mixed case, punctuation
            toks = [w.upper() if j % 3 == 0 else w
                    for j, w in enumerate(toks)]
            toks.insert(len(toks) // 2, "--")
            texts.append(" ".join(toks) + "?!")
        else:
            texts.append(" ".join(toks))

    n_dup = max(1, n_turns // 100)                # exact duplicates
    for s, d in zip(rng.integers(0, n_turns, n_dup),
                    rng.integers(0, n_turns, n_dup)):
        texts[d] = texts[s]
    texts[int(rng.integers(0, n_turns))] = " ".join(
        words[draw(OUTLIER_TOKENS)])

    role_i = np.where(turn_idx == 0, 0, rng.integers(0, len(ROLES), n_turns))
    roles = np.array(ROLES)[role_i]
    tools = np.where(role_i == 3,
                     np.array(TOOLS)[rng.integers(0, len(TOOLS), n_turns)],
                     "")
    gaps = rng.integers(1_000_000, 120_000_000, n_turns)
    gaps[turn_idx == 0] = 0
    conv_start = EPOCH_US + rng.integers(0, 365 * 86_400_000_000,
                                         len(lens))[conv_no - conv_base]
    ts = conv_start + (np.cumsum(gaps) - np.repeat(
        np.cumsum(gaps)[np.cumsum(lens_a) - lens_a], lens_a))
    return pa.table({
        "conv_id": pa.array([f"conv-{c:08d}" for c in conv_no], pa.string()),
        "turn_idx": pa.array(turn_idx, pa.int32()),
        "role": pa.array(roles, pa.string()),
        "text": pa.array(texts, pa.large_string()),
        "tool": pa.array(tools, pa.string()),
        "ts": pa.array(ts, pa.timestamp("us")),
    })


def write_parquet(table: pa.Table, out_dir: str, seed: int,
                  rows_per_file: int = 10_000) -> list[str]:
    """One file per ``rows_per_file`` rows, rows in shuffled order, so
    the build has to restore (conv_id, turn_idx) order itself."""
    os.makedirs(out_dir, exist_ok=True)
    perm = np.random.default_rng([seed, 2]).permutation(table.num_rows)
    paths = []
    for fi, lo in enumerate(range(0, table.num_rows, rows_per_file)):
        p = os.path.join(out_dir, f"part-{fi:05d}.parquet")
        pq.write_table(table.take(pa.array(perm[lo:lo + rows_per_file])), p)
        paths.append(p)
    return paths


class QueryStream:
    """Batches of distinct BM25 queries with a fixed make-up, so every
    batch costs about the same: per 16 queries, 3 start with a planted
    hot term, 1 is all out-of-vocabulary and 12 draw 1-4 terms Zipfian
    over the whole vocabulary; 4 of the 16 ask for k=100, the rest for
    k=10.  Query ids are unique across the stream, so no two calls carry
    the same payload and the service's request cache never hits, while
    terms repeat and keep the df, decode and contribution caches busy."""

    def __init__(self, seed: int, batch_size: int = 16):
        self.rng = np.random.default_rng([seed, 3])
        self.words = vocab()
        self.draw = _zipf_sampler(self.rng, len(self.words), s=0.9)
        self.batch_size = batch_size
        self.next_id = 0

    def _text(self, kind: str, i: int) -> str:
        if kind == "oov":
            return " ".join(self.rng.choice(OOV_TERMS, 2, replace=False))
        terms = list(self.words[self.draw(1 + i % 4)])
        if kind == "hot":
            terms[0] = HOT_TERMS[int(self.rng.integers(0, len(HOT_TERMS)))]
        return " ".join(terms)

    def batch(self) -> list[dict]:
        n = self.batch_size
        n_hot, n_oov = max(1, n * 3 // 16), n // 16
        kinds = ["hot"] * n_hot + ["oov"] * n_oov \
            + ["zipf"] * (n - n_hot - n_oov)
        ks = self.rng.permutation([100] * (n // 4) + [10] * (n - n // 4))
        out = []
        for i, j in enumerate(self.rng.permutation(n)):
            out.append({"query_id": self.next_id,
                        "query_text": self._text(kinds[j], i),
                        "k": int(ks[i])})
            self.next_id += 1
        return out


class MixedStream(QueryStream):
    """``search_mixed`` requests: one op of each of search, phrase_rank,
    proximity and boolean, four queries each.  Phrases and proximity
    pairs are cut from real turns so each has at least one hit; boolean
    ops pair a Zipfian must term with a hot must-not term."""

    def __init__(self, seed: int, docs: list[list[str]], per_op: int = 4):
        super().__init__(seed, batch_size=per_op)
        self.docs = [d for d in docs if 3 <= len(d) <= 200]
        self.per_op = per_op

    def _doc(self) -> list[str]:
        return self.docs[int(self.rng.integers(0, len(self.docs)))]

    def _id(self) -> int:
        self.next_id += 1
        return self.next_id - 1

    def request(self) -> list[dict]:
        phrases, prox, boolean = [], [], []
        for _ in range(self.per_op):
            d = self._doc()
            n = int(self.rng.integers(2, 4))
            i = int(self.rng.integers(0, len(d) - n + 1))
            phrases.append({"query_id": self._id(),
                            "phrase": " ".join(d[i:i + n]), "k": 10})
            d = self._doc()
            i = int(self.rng.integers(0, len(d) - 1))
            j = min(len(d) - 1, i + int(self.rng.integers(1, 6)))
            prox.append({"query_id": self._id(),
                         "query_text": f"{d[i]} {d[j]}", "window": 8,
                         "k": 10})
            must = str(self.words[self.draw(1)[0]])
            boolean.append({"query_id": self._id(), "must": must,
                            "must_not": HOT_TERMS[int(
                                self.rng.integers(0, len(HOT_TERMS)))],
                            "k": 10})
        return [{"mode": "search", "queries": self.batch()},
                {"mode": "phrase_rank", "queries": phrases},
                {"mode": "proximity", "queries": prox},
                {"mode": "boolean", "queries": boolean}]
