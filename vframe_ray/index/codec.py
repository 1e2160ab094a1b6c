"""Posting-list codec: delta + LEB128 varint, block-structured.

The reference has no columnar state; its nearest analog is the binary
mask blobs inside ``SegmentResult`` (reference:
src/vframe/models/cvmodels.py:126-141) and the 64-bit perceptual hashes
(im_utils.py:37-47).  Here the custom columnar state is the posting
list: per term, doc ids sorted ascending are delta-encoded and
varint-compressed in blocks of ``block_size`` docs; each block stores
``(last_doc, max_tf, min_dl, byte offsets)`` so

- a query can *skip decode* straight to a block (delta encoding restarts
  at every block boundary with an absolute first doc id), and
- a BM25 score upper bound per block is computable at query time from
  (max_tf, min_dl) and the *global* avgdl — the build never needs global
  stats (block-max WAND, SURVEY.md §7.1 step 5).

All encode/decode paths are numpy-vectorized (no per-int Python loops):
encode scatters byte ``j`` of every value in one fancy-indexed store
(≤10 passes for uint64); decode reconstructs 7-bit groups with one
``np.add.reduceat`` over value boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

_U64 = np.uint64
_SEVEN = _U64(7)
_MASK7 = _U64(0x7F)
_CONT = np.uint8(0x80)


_THRESHOLDS = np.array([1 << (7 * k) for k in range(1, 10)], dtype=_U64)


def varint_sizes(values: np.ndarray) -> np.ndarray:
    """Byte length of each value's LEB128 encoding (vectorized, one
    searchsorted pass instead of 9 boolean temporaries)."""
    v = np.ascontiguousarray(values, dtype=_U64)
    return np.searchsorted(_THRESHOLDS, v, side="right") + 1


def encode_varint(values: np.ndarray) -> bytes:
    """LEB128-encode a uint64 array.  Vectorized: one scatter pass per
    byte position, with the working set SHRINKING each pass (pass j only
    handles values of ≥ j+1 bytes), so total temporary allocation is
    ~sum(nbytes) instead of 10 × n."""
    v = np.ascontiguousarray(values, dtype=_U64)
    if v.size == 0:
        return b""
    nbytes = varint_sizes(v)
    starts = np.zeros(v.size + 1, dtype=np.int64)
    np.cumsum(nbytes, out=starts[1:])
    out = np.zeros(starts[-1], dtype=np.uint8)
    live_v = v
    live_start = starts[:-1]
    live_nb = nbytes
    j = 0
    while live_v.size:
        byte = (live_v & _MASK7).astype(np.uint8)
        cont = live_nb > (j + 1)
        out[live_start + j] = byte | np.where(cont, _CONT, np.uint8(0))
        if not cont.any():
            break
        live_v = live_v[cont] >> _SEVEN
        live_start = live_start[cont]
        live_nb = live_nb[cont]
        j += 1
    return out.tobytes()


def decode_varint(buf: bytes | memoryview | np.ndarray, count: int | None = None
                  ) -> np.ndarray:
    """Decode LEB128 bytes back to uint64. Vectorized via reduceat."""
    arr = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf
    if arr.size == 0:
        return np.empty(0, dtype=_U64)
    is_end = arr < _CONT
    # value start = 0 or position right after an end byte
    starts = np.empty(arr.size, dtype=bool)
    starts[0] = True
    np.logical_not(is_end[:-1], out=starts[1:])
    np.logical_not(starts[1:], out=starts[1:])  # starts[1:] = is_end[:-1]
    start_idx = np.flatnonzero(starts)
    # byte position within its value
    vid = np.cumsum(starts) - 1
    pos = np.arange(arr.size, dtype=np.int64) - start_idx[vid]
    contrib = (arr.astype(_U64) & _MASK7) << (_SEVEN * pos.astype(_U64))
    vals = np.add.reduceat(contrib, start_idx)
    if count is not None and vals.size != count:
        raise ValueError(f"decoded {vals.size} varints, expected {count}")
    return vals


def _cumsum_with_resets(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Cumulative sum restarting at each index in ``starts`` (sorted,
    starts[0] == 0): one global cumsum + per-segment carry subtraction."""
    y = np.cumsum(x)
    if len(starts) > 1:
        carry = np.zeros(len(starts), dtype=y.dtype)
        carry[1:] = y[starts[1:] - 1]
        y -= np.repeat(carry, np.diff(np.append(starts, len(x))))
    return y


def decode_terms_bulk(terms_table, block_size: int,
                      with_positions: bool = False):
    """Bulk-decode EVERY term of a segment's terms table in three varint
    passes total (docs / tfs / positions), instead of 2-3 numpy-dispatch
    calls per term — the per-term overhead dominates bulk decodes of
    small-segment vocabularies (segment compaction: ~10× on 9.4k-doc
    segments).

    ``terms_table``: pyarrow table with TERMS_SCHEMA columns.
    Returns (term_offsets int64[n_terms+1] into the pair arrays,
    doc_ids, tfs[, positions]) — pair order is (term, doc) ascending,
    identical to concatenating :func:`decode_all` per term (tested).
    """
    n_terms = terms_table.num_rows
    if n_terms == 0:
        e = np.empty(0, dtype=np.int64)
        return (np.zeros(1, dtype=np.int64), e, e, e) if with_positions \
            else (np.zeros(1, dtype=np.int64), e, e)
    n_docs = terms_table["n_docs"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    tf_off = terms_table["tf_section_off"].to_numpy(zero_copy_only=False)
    pos_off = terms_table["pos_section_off"].to_numpy(zero_copy_only=False)
    blobs = terms_table["blob"]
    if isinstance(blobs, pa.ChunkedArray):
        blobs = blobs.combine_chunks()
    # zero-copy section slicing straight off the value buffer
    bufs = blobs.buffers()                  # [validity, offsets, data]
    boffs = np.frombuffer(bufs[1], dtype=np.int64,
                          count=n_terms + 1 + blobs.offset)[blobs.offset:]
    data = memoryview(bufs[2])
    # three concatenated sections, one decode each
    doc_bytes = b"".join(
        data[boffs[i]:boffs[i] + tf_off[i]] for i in range(n_terms))
    tf_bytes = b"".join(
        data[boffs[i] + tf_off[i]:boffs[i] + pos_off[i]]
        for i in range(n_terms))
    term_offs = np.zeros(n_terms + 1, dtype=np.int64)
    np.cumsum(n_docs, out=term_offs[1:])
    total = int(term_offs[-1])
    deltas = decode_varint(doc_bytes, total).astype(np.int64)
    tfs = decode_varint(tf_bytes, total).astype(np.int64)
    # doc-id cumsum resets at every BLOCK start of every term
    nblocks = (n_docs + block_size - 1) // block_size
    nb_off = np.zeros(n_terms + 1, dtype=np.int64)
    np.cumsum(nblocks, out=nb_off[1:])
    tot_blocks = int(nb_off[-1])
    within = np.arange(tot_blocks, dtype=np.int64) \
        - np.repeat(nb_off[:-1], nblocks)
    block_starts = np.repeat(term_offs[:-1], nblocks) + within * block_size
    doc_ids = _cumsum_with_resets(deltas, block_starts)
    if not with_positions:
        return term_offs, doc_ids, tfs
    pos_bytes = b"".join(
        data[boffs[i] + pos_off[i]:boffs[i + 1]] for i in range(n_terms))
    pdel = decode_varint(pos_bytes).astype(np.int64)
    if pdel.size:
        # position cumsum resets at every (term, doc) pair start
        pair_starts = np.zeros(total, dtype=np.int64)
        np.cumsum(tfs[:-1], out=pair_starts[1:])
        pos = _cumsum_with_resets(pdel, pair_starts)
    else:
        pos = pdel
    return term_offs, doc_ids, tfs, pos


@dataclass
class TermPostings:
    """Encoded postings for one term within one segment."""

    n_docs: int
    blob: bytes | memoryview        # [docs varints][tfs varints][pos varints]
    block_last_doc: np.ndarray      # int64 per block — max doc id in block
    block_max_tf: np.ndarray        # int32 per block
    block_min_dl: np.ndarray        # int32 per block
    block_doc_off: np.ndarray       # int64 byte offset of block's doc deltas
    block_tf_off: np.ndarray        # int64 byte offset of block's tfs
    tf_section_off: int             # blob offset where tf section starts
    pos_section_off: int            # blob offset where positions section starts

    @property
    def n_blocks(self) -> int:
        return len(self.block_last_doc)


def encode_postings(doc_ids: np.ndarray, tfs: np.ndarray, doclens: np.ndarray,
                    positions: np.ndarray | None, block_size: int) -> TermPostings:
    """Encode one term's postings.

    ``doc_ids`` strictly ascending int64; ``tfs`` int; ``doclens`` doc length
    of each posting's doc; ``positions`` concatenated token positions
    (sum(tfs) entries, each doc's positions ascending) or None.
    Delta encoding restarts at each block boundary (first doc absolute).
    """
    n = len(doc_ids)
    assert n > 0
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.int64)
    tfs = np.ascontiguousarray(tfs, dtype=np.int64)
    nblocks = (n + block_size - 1) // block_size
    bounds = np.arange(0, nblocks * block_size, block_size)

    deltas = np.empty(n, dtype=np.int64)
    deltas[0] = doc_ids[0]
    np.subtract(doc_ids[1:], doc_ids[:-1], out=deltas[1:])
    deltas[bounds] = doc_ids[bounds]          # restart: absolute first-doc

    doc_chunks, doc_offs = [], np.zeros(nblocks, dtype=np.int64)
    off = 0
    for bi in range(nblocks):
        enc = encode_varint(deltas[bounds[bi]:bounds[bi] + block_size])
        doc_offs[bi] = off
        off += len(enc)
        doc_chunks.append(enc)
    docs_section = b"".join(doc_chunks)

    tf_chunks, tf_offs = [], np.zeros(nblocks, dtype=np.int64)
    toff = 0
    for bi in range(nblocks):
        enc = encode_varint(tfs[bounds[bi]:bounds[bi] + block_size])
        tf_offs[bi] = toff
        toff += len(enc)
        tf_chunks.append(enc)
    tfs_section = b"".join(tf_chunks)

    if positions is not None and len(positions):
        pos = np.ascontiguousarray(positions, dtype=np.int64)
        # delta within each doc's run (first position absolute per doc)
        pdel = np.empty(len(pos), dtype=np.int64)
        pdel[0] = pos[0]
        np.subtract(pos[1:], pos[:-1], out=pdel[1:])
        run_starts = np.zeros(n, dtype=np.int64)
        np.cumsum(tfs[:-1], out=run_starts[1:])
        pdel[run_starts] = pos[run_starts]
        pos_section = encode_varint(pdel)
    else:
        pos_section = b""

    ends = np.minimum(bounds + block_size, n) - 1
    last_doc = doc_ids[ends]
    max_tf = np.maximum.reduceat(tfs, bounds).astype(np.int32)
    min_dl = np.minimum.reduceat(
        np.ascontiguousarray(doclens, dtype=np.int64), bounds).astype(np.int32)

    return TermPostings(
        n_docs=n,
        blob=docs_section + tfs_section + pos_section,
        block_last_doc=last_doc,
        block_max_tf=max_tf,
        block_min_dl=min_dl,
        block_doc_off=doc_offs,
        block_tf_off=tf_offs,
        tf_section_off=len(docs_section),
        pos_section_off=len(docs_section) + len(tfs_section),
    )


def encode_postings_batch(term_starts: np.ndarray, doc_ids: np.ndarray,
                          tfs: np.ndarray, doclens: np.ndarray,
                          positions: np.ndarray | None,
                          block_size: int) -> list[TermPostings]:
    """Encode postings for MANY terms in three vectorized passes.

    Semantically identical to calling :func:`encode_postings` per term
    (asserted in tests), but the varint encode runs ONCE over the whole
    segment's pairs instead of once per term — the per-term Python loop
    only slices byte ranges.  This is what makes a segment build CPU-bound
    on real work rather than on 10^4 tiny numpy calls.

    ``term_starts``: start index of each term's run in the pair arrays
    (terminated implicitly by len); pairs sorted by (term, doc).
    """
    n = len(doc_ids)
    n_terms = len(term_starts)
    if n == 0:
        return []
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.int64)
    tfs = np.ascontiguousarray(tfs, dtype=np.int64)
    term_ends = np.append(term_starts[1:], n)

    # position of each pair within its term
    pair_term = np.zeros(n, dtype=np.int64)
    pair_term[term_starts[1:]] = 1
    pair_term = np.cumsum(pair_term)                    # term index per pair
    pos_in_term = np.arange(n, dtype=np.int64) - term_starts[pair_term]

    # block structure: every term starts a fresh block; blocks are
    # block_size pairs within a term
    is_block_start = (pos_in_term % block_size) == 0
    block_starts = np.flatnonzero(is_block_start)
    block_of_pair = np.cumsum(is_block_start) - 1
    # per-term block index range
    term_first_block = block_of_pair[term_starts]
    term_last_block = block_of_pair[term_ends - 1] + 1

    # doc deltas with restart at block starts
    deltas = np.empty(n, dtype=np.int64)
    deltas[0] = doc_ids[0]
    np.subtract(doc_ids[1:], doc_ids[:-1], out=deltas[1:])
    deltas[block_starts] = doc_ids[block_starts]

    dsz = varint_sizes(deltas)
    doff = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(dsz, out=doff[1:])
    docs_buf = np.frombuffer(encode_varint(deltas), dtype=np.uint8)

    tsz = varint_sizes(tfs)
    toff = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(tsz, out=toff[1:])
    tfs_buf = np.frombuffer(encode_varint(tfs), dtype=np.uint8)

    if positions is not None and len(positions):
        pos = np.ascontiguousarray(positions, dtype=np.int64)
        pdel = np.empty(len(pos), dtype=np.int64)
        pdel[0] = pos[0]
        np.subtract(pos[1:], pos[:-1], out=pdel[1:])
        run_starts = np.zeros(n, dtype=np.int64)
        np.cumsum(tfs[:-1], out=run_starts[1:])
        pdel[run_starts] = pos[run_starts]
        pos_buf = np.frombuffer(encode_varint(pdel), dtype=np.uint8)
        psz = varint_sizes(pdel)
        # byte offset where each PAIR's position run starts
        pboff = np.zeros(len(pdel) + 1, dtype=np.int64)
        np.cumsum(psz, out=pboff[1:])
        pair_pos_off = pboff[run_starts]
        pair_pos_end = np.append(pair_pos_off[1:], pboff[-1])
    else:
        pos_buf = np.empty(0, dtype=np.uint8)
        pair_pos_off = pair_pos_end = np.zeros(n + 1, dtype=np.int64)

    # per-block metadata (global, then sliced per term)
    blk_ends = np.append(block_starts[1:], n) - 1
    blk_last_doc = doc_ids[blk_ends]
    blk_max_tf = np.maximum.reduceat(tfs, block_starts).astype(np.int32)
    blk_min_dl = np.minimum.reduceat(
        np.ascontiguousarray(doclens, dtype=np.int64),
        block_starts).astype(np.int32)

    out: list[TermPostings] = []
    db = docs_buf.tobytes()
    tb = tfs_buf.tobytes()
    pb = pos_buf.tobytes()
    for ti in range(n_terms):
        s, e = term_starts[ti], term_ends[ti]
        b0, b1 = term_first_block[ti], term_last_block[ti]
        d_lo, d_hi = doff[s], doff[e]
        t_lo, t_hi = toff[s], toff[e]
        if positions is not None and len(pos_buf):
            p_lo = pair_pos_off[s]
            p_hi = pair_pos_end[e - 1]
            pos_sec = pb[p_lo:p_hi]
        else:
            pos_sec = b""
        blob = db[d_lo:d_hi] + tb[t_lo:t_hi] + pos_sec
        out.append(TermPostings(
            n_docs=int(e - s),
            blob=blob,
            block_last_doc=blk_last_doc[b0:b1].copy(),
            block_max_tf=blk_max_tf[b0:b1].copy(),
            block_min_dl=blk_min_dl[b0:b1].copy(),
            block_doc_off=(doff[block_starts[b0:b1]] - d_lo).copy(),
            block_tf_off=(toff[block_starts[b0:b1]] - t_lo).copy(),
            tf_section_off=int(d_hi - d_lo),
            pos_section_off=int((d_hi - d_lo) + (t_hi - t_lo)),
        ))
    return out


def decode_block(tp: TermPostings, block_idx: int, block_size: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Decode one block -> (doc_ids int64, tfs int64) without touching
    other blocks (the skip path WAND relies on)."""
    lo = block_idx * block_size
    cnt = min(block_size, tp.n_docs - lo)
    dstart = int(tp.block_doc_off[block_idx])
    dend = int(tp.block_doc_off[block_idx + 1]) if block_idx + 1 < tp.n_blocks \
        else tp.tf_section_off
    deltas = decode_varint(memoryview(tp.blob)[dstart:dend], cnt).astype(np.int64)
    doc_ids = np.cumsum(deltas)
    tstart = tp.tf_section_off + int(tp.block_tf_off[block_idx])
    tend = tp.tf_section_off + (int(tp.block_tf_off[block_idx + 1])
                                if block_idx + 1 < tp.n_blocks
                                else tp.pos_section_off - tp.tf_section_off)
    tfs = decode_varint(memoryview(tp.blob)[tstart:tend], cnt).astype(np.int64)
    return doc_ids, tfs


def decode_all(tp: TermPostings, block_size: int,
               with_positions: bool = False):
    """Decode full postings -> (doc_ids, tfs[, positions list-offsets + flat]).

    Single varint pass per section (docs / tfs) rather than one per
    block: each block's first delta is the block's absolute first doc
    id (``decode_block`` cumsums within the block from zero), so the
    full-stream cumsum just subtracts the carry at block starts — the
    same trick the position section uses.  ~8× fewer numpy dispatches
    for many-term bulk decodes (segment compaction)."""
    mv = memoryview(tp.blob)
    deltas = decode_varint(mv[int(tp.block_doc_off[0]) if tp.n_blocks
                              else 0:tp.tf_section_off], tp.n_docs)
    doc_ids = np.cumsum(deltas.astype(np.int64))
    if tp.n_blocks > 1:
        block_starts = np.arange(0, tp.n_docs, block_size)[1:]
        carry = doc_ids[block_starts - 1]
        doc_ids[block_starts[0]:] -= np.repeat(
            carry, np.diff(np.append(block_starts, tp.n_docs)))
    tfs = decode_varint(mv[tp.tf_section_off:tp.pos_section_off],
                        tp.n_docs).astype(np.int64)
    if not with_positions:
        return doc_ids, tfs
    pdel = decode_varint(memoryview(tp.blob)[tp.pos_section_off:]).astype(np.int64)
    if pdel.size:
        run_starts = np.zeros(tp.n_docs, dtype=np.int64)
        np.cumsum(tfs[:-1], out=run_starts[1:])
        pos = np.cumsum(pdel)
        # undo cross-run cumsum leakage: subtract carry at run starts
        carry = pos[run_starts] - pdel[run_starts]
        pos -= np.repeat(carry, tfs)
    else:
        pos = pdel
    return doc_ids, tfs, pos
