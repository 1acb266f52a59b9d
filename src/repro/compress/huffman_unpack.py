"""The Huffman decode side: canonical tables and the two codeword walks.

Canonical decoding walks the bit stream serially.  Under the ``native``
kernel backend that walk is one C loop (``native.c:huff_decode``): one
cursor per sync block walked to completion — a K-bit prefix-table hit,
the first-code search on a miss, ESCAPE + 64 raw bits — or one block for
a header without ``sync``; it is taken from inside both functions below,
whose NumPy bodies are the ``reference`` backend: :func:`_decode_chain`
(whole-stream classification resolved by pointer doubling, for few
payload bits) and :func:`_decode_sync_range` (one cursor per sync block
in vectorized lockstep, classifying through a prefix table of at most
2**16 entries built lazily from the first-code arrays, several symbols
per 64-bit window fetch).  Every route returns the same symbols and
turns every corruption into the same ``ValueError``.
"""

from __future__ import annotations

import functools

import numpy as np

from ..core import native
from .huffman_book import HuffmanCode, _code_from_json
from .huffman_pack import _SYNC_BLOCK

# width cap of the decoder's prefix table: 2**16 entries of (length,
# symbol) stay cache-resident, and at 16 bits per lookup a 64-bit
# window holds four symbols; longer codes are rare by construction
# (a symbol of probability p gets ~-log2 p bits) and classify through
# the first-code search instead
_LUT_BITS = 16

# prefix-table length entry of a slot no table-resident code owns; real
# entries are 1.._LUT_BITS, or at most 64 + _LUT_BITS for a resident ESCAPE
_LUT_MISS = 255


class _DecodeTables:
    """Canonical first-code tables in array form.

    Per length L the codes form the contiguous range
    ``[first[L], first[L] + count[L])``; symbols in canonical order live
    in one flat array indexed by ``base[L] + (code - first[L])``.  In
    the left-justified (Moffat–Turpin) view the per-length ranges tile
    ``[0, limit[-1])`` in ascending-length order, so a single
    ``searchsorted`` against the range limits classifies a 64-bit
    window.  The last limit may be ``2**64`` (Kraft-complete code), so
    it is excluded from the search table and covered by the
    ``rank < count`` check instead.

    ``code`` is the source book when there is one, and tables pickle as
    that book's table JSON.
    """

    def __init__(
        self, lens_arr, first_arr, count_arr, base_arr, limits, flat_syms,
        esc_flat: int, esc_len: int | None, code: HuffmanCode | None = None,
    ):
        self.lens_arr = lens_arr
        self.first_arr = first_arr
        self.count_arr = count_arr
        self.base_arr = base_arr
        self.limits = limits
        self.flat_syms = flat_syms
        self.esc_flat = int(esc_flat)
        self.esc_len = esc_len
        self.code = code
        self._prefix = None

    @classmethod
    def from_code(cls, code: HuffmanCode) -> "_DecodeTables":
        order, lens, first, count, base = code._canon
        n_syms = code.symbols.size
        if code.esc_len is None:
            flat_syms, esc_flat = code.symbols[order], -1
        else:
            flat_syms = np.append(code.symbols, 0)[order]
            esc_flat = int(np.flatnonzero(order == n_syms)[0])
        ucount = count.astype(np.uint64)
        limits = (first[:-1] + ucount[:-1]) << (64 - lens[:-1]).astype(np.uint64)
        return cls(
            lens, first, ucount, base, limits, flat_syms, esc_flat, code.esc_len, code
        )

    def __reduce__(self):
        return _tables_from_json, (self.code.table_json,)

    def classify(self, win: np.ndarray):
        """Left-justified windows -> (length, flat symbol rank, valid)."""
        li = np.searchsorted(self.limits, win, side="right")
        L = self.lens_arr[li]
        rank = (win >> (64 - L).astype(np.uint64)) - self.first_arr[li]
        valid = rank < self.count_arr[li]
        return L, self.base_arr[li] + rank.astype(np.int64), valid

    def prefix_lut(self):
        """``(K, length, symbol)`` tables indexed by a window's top K bits.

        ``K = min(longest code, _LUT_BITS)``.  Canonical order is
        ascending length, so the codes of at most K bits are a prefix
        of the flat order and their left-justified ranges tile the
        table from 0.  A resident ESCAPE's length entry counts its 64
        raw bits too (the only lengths above 64); every other slot — a
        longer code's prefix, a prefix no code owns — holds
        :data:`_LUT_MISS` and classifies through :meth:`classify`.
        Built on first use: only the lockstep decode asks for it.
        """
        if self._prefix is None:
            K = int(min(self.lens_arr[-1], _LUT_BITS))
            short = self.lens_arr <= K
            flat_len = np.repeat(self.lens_arr[short], self.count_arr[short].astype(np.int64))
            span = np.left_shift(1, K - flat_len)
            filled = int(span.sum())
            lut_sym = np.zeros(1 << K, dtype=np.int64)
            lut_sym[:filled] = np.repeat(self.flat_syms[: flat_len.size], span)
            if 0 <= self.esc_flat < flat_len.size:
                flat_len[self.esc_flat] += 64
            lut_len = np.full(1 << K, _LUT_MISS, dtype=np.uint8)
            lut_len[:filled] = np.repeat(flat_len, span)
            self._prefix = (K, lut_len, lut_sym)
        return self._prefix


def _payload_words(payload: bytes, total: int, spill: int = 2) -> np.ndarray:
    """Payload as big-endian 64-bit words, zero padded with spill words."""
    n_bytes = (total + 7) >> 3
    n_words = (total + 63) >> 6
    byts = np.zeros((n_words + spill) * 8, dtype=np.uint8)
    byts[:n_bytes] = np.frombuffer(payload, dtype=np.uint8, count=n_bytes)
    return byts.view(">u8").astype(np.uint64)


def _windows_at(words: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The 64 stream bits starting at each bit position in ``p``."""
    wi = p >> 6
    r = (p & 63).astype(np.uint64)
    return (words[wi] << r) | ((words[wi + 1] >> (np.uint64(63) - r)) >> np.uint64(1))


def decode_tables(code: HuffmanCode) -> "_DecodeTables":
    """Precompute the canonical decode tables of one code book.

    Pass the result to :func:`huffman_decode` as ``tables=`` to skip
    the per-call table construction — how a stream decoder amortizes a
    code book reused across steps.
    """
    return _DecodeTables.from_code(code)


@functools.lru_cache(maxsize=8)
def _tables_from_json(table_json: str) -> _DecodeTables:
    """Unpickle hook of tables: a pool worker rebuilds each distinct
    book's once, however many jobs or stream steps reuse it."""
    return _DecodeTables.from_code(_code_from_json(table_json))


def _block_bounds(sync: np.ndarray, total: int):
    """First bit and end bit of every sync block of a ``total``-bit payload;
    the starts come back inside ``0..total`` and ascending, or not at all."""
    starts = np.empty(len(sync) + 1, dtype=np.int64)
    starts[0] = 0
    starts[1:] = sync
    ends = np.empty(len(sync) + 1, dtype=np.int64)
    ends[:-1] = sync
    ends[-1] = total
    if np.any(starts > total) or np.any(np.diff(starts) < 0):
        raise ValueError("corrupt Huffman payload: bad sync offsets")
    return starts, ends


_TRUNCATED = "truncated Huffman payload"
_NO_MATCH = "corrupt Huffman payload: no codeword matches"
_SYNC_MISMATCH = "corrupt Huffman payload: sync mismatch"


def _walk_blocks(words, starts, ends, block, rem, total, tables: _DecodeTables):
    """The C walk of the blocks starting at ``starts`` (``block`` symbols
    each, the last ``rem``), which must stop at ``ends`` where given;
    ``None`` when the NumPy body has to run."""
    search = (tables.lens_arr, tables.first_arr, tables.count_arr, tables.base_arr, tables.limits)
    walked = native.huff_decode(
        words, starts, block, rem, total, tables.prefix_lut(), search, tables.flat_syms,
        tables.esc_flat,
    )
    if walked is None:
        return None
    status, out, pos = walked
    if status:
        raise ValueError(_TRUNCATED if status == native.HUFF_TRUNCATED else _NO_MATCH)
    if ends is not None and not np.array_equal(pos, ends):
        raise ValueError(_SYNC_MISMATCH)
    return out


def _decode_sync_range(
    words, starts, ends, rem, total, tables: _DecodeTables
) -> np.ndarray:
    """Decode one contiguous run of sync blocks: the C walk where the
    kernel backend has it, the vectorized lockstep below otherwise.

    Every block holds :data:`_SYNC_BLOCK` symbols except the last of
    the run, which holds ``rem``.  One 64-bit window per cursor is
    fetched per round and ``64 // max_len`` symbols are decoded out of
    it — so every sub-step still sees a whole codeword — each by a
    single gather from the K-bit prefix tables and a shift.  Cursors
    whose prefix is not table-resident (a longer code, no code at all)
    classify their window by the first-code search; an ESCAPE's 64 raw
    bits are fetched separately and end the round, since they spend the
    window.  Symbols are written slot-major, ``(_SYNC_BLOCK,
    n_blocks)``, and transposed once.
    """
    out = _walk_blocks(words, starts, ends, _SYNC_BLOCK, rem, total, tables)
    if out is not None:
        return out
    n_blocks = len(starts)
    K, lut_len, lut_sym = tables.prefix_lut()
    top = np.uint64(64 - K)
    per_fetch = max(64 // int(tables.lens_arr[-1]), 1)
    esc_flat, esc_len = tables.esc_flat, tables.esc_len
    out = np.empty((_SYNC_BLOCK, n_blocks), dtype=np.int64)
    pos = np.array(starts, dtype=np.int64)
    t = 0
    while t < _SYNC_BLOCK:
        # slots below rem exist in every block, the rest in all but the last
        m, stop = (n_blocks, rem) if t < rem else (n_blocks - 1, _SYNC_BLOCK)
        if m == 0:
            break
        p = pos[:m]
        if p.max() > total:
            raise ValueError(_TRUNCATED)
        win = _windows_at(words, p)
        for t in range(t, min(t + per_fetch, stop)):
            key = win >> top
            L = lut_len[key]
            out[t, :m] = lut_sym[key]
            escaped = False
            if L.max() > K:  # rare: patch L and out for the cursors the table cannot serve
                miss = np.flatnonzero(L == _LUT_MISS)
                if miss.size:
                    Lm, flat, valid = tables.classify(win[miss])
                    if not valid.all():
                        raise ValueError(_NO_MATCH)
                    out[t, miss] = tables.flat_syms[flat]
                    L[miss] = Lm + np.where(flat == esc_flat, 64, 0)
                esc = np.flatnonzero(L > 64)  # only ESCAPE + raw bits is that long
                if esc.size:
                    raw_at = p[esc] + esc_len
                    if raw_at.max() + 64 > total:
                        raise ValueError(_TRUNCATED)
                    # two's complement reinterpretation of the raw bits
                    out[t, esc] = _windows_at(words, raw_at).astype(np.int64)
                    escaped = True
            p += L
            if escaped:
                break
            np.left_shift(win, L, out=win)
        t += 1
    if pos.max() > total:
        raise ValueError(_TRUNCATED)
    if not np.array_equal(pos, ends):
        raise ValueError(_SYNC_MISMATCH)
    return out.T.reshape(-1)[: (n_blocks - 1) * _SYNC_BLOCK + rem]


def _decode_chain(payload, n, total, tables: _DecodeTables, sync=None) -> np.ndarray:
    """Whole-stream classification + pointer-doubling chain resolution
    (the ``reference`` body; ``native`` walks the chain in C instead).

    Allocates a few machine words per payload *bit*; ``sync``, when the
    header has it, is checked against the resolved codeword starts.
    """
    words = _payload_words(payload, total, spill=1)
    if native.active():
        # the C walks the codeword chain itself: from sync point to sync
        # point where the header has them, else as one block of n symbols
        if sync is None:
            out = _walk_blocks(words, [0], None, n, n, total, tables)
        else:
            starts, ends = _block_bounds(sync, total)
            out = _walk_blocks(
                words, starts, ends, _SYNC_BLOCK, n - len(sync) * _SYNC_BLOCK, total, tables
            )
        if out is not None:
            return out
    win = _windows_at(words, np.arange(total, dtype=np.int64))
    L_at, flat_at, valid = tables.classify(win)
    len_at = np.where(valid, L_at, 0)
    step = len_at.copy()
    esc_flat, esc_len = tables.esc_flat, tables.esc_len
    if esc_flat >= 0:
        step[valid & (flat_at == esc_flat)] += 64

    nxt = np.empty(total + 1, dtype=np.int64)
    np.add(np.arange(total, dtype=np.int64), step, out=nxt[:total])
    nxt[total] = total  # sentinel self-loop at end-of-stream
    nxt[:total][~valid] = total  # no codeword starts here; flagged if visited
    np.minimum(nxt, total, out=nxt)

    # orbit of position 0 under `nxt` by pointer doubling: when `pos`
    # holds the first m codeword starts and J = nxt^m, J[pos] is the
    # next m starts.
    pos = np.zeros(1, dtype=np.int64)
    J = nxt
    while pos.size < n:
        pos = np.concatenate([pos, J[pos]])
        if pos.size < n:
            J = J[J]
    pos = pos[:n]

    overrun = np.flatnonzero(pos >= total)
    if overrun.size:
        k = int(overrun[0])
        if k > 0 and len_at[pos[k - 1]] == 0:
            raise ValueError(_NO_MATCH)
        raise ValueError(_TRUNCATED)
    if len_at[pos[-1]] == 0:
        raise ValueError(_NO_MATCH)
    if int(pos[-1] + step[pos[-1]]) > total:
        raise ValueError(_TRUNCATED)
    if sync is not None and not (
        np.array_equal(pos[_SYNC_BLOCK::_SYNC_BLOCK], sync)
        and int(pos[-1] + step[pos[-1]]) == total  # the last block ends the stream
    ):
        raise ValueError(_SYNC_MISMATCH)

    ranks = flat_at[pos]
    out = tables.flat_syms[ranks]
    if esc_flat >= 0:
        em = ranks == esc_flat
        if np.any(em):
            pe = pos[em] + esc_len  # start of the 64 raw bits
            out[em] = win[pe].astype(np.int64)  # two's complement
    return out
