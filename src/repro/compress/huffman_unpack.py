"""The Huffman decode side: canonical tables and the one codeword walk.

A segment's sync offsets (u64, after its book) split its bitstream
into blocks of :data:`_SYNC_BLOCK` symbols, and
:func:`_decode_blocks` walks one cursor per block: a K-bit prefix-table
hit, the first-code search on a miss, ESCAPE + 64 raw bits.  Under the
``native`` kernel backend that walk is one C loop
(``native.c:huff_decode``); its NumPy body — the ``reference`` backend,
the same per-block structure advanced in vectorized lockstep — defines
the symbols and the ``ValueError`` every corruption ends in.
"""

from __future__ import annotations

import functools

import numpy as np

from ..core import native
from .huffman_book import HuffmanCode, _code_from_book
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

    Tables pickle as their source book's packed bytes.
    """

    def __init__(self, code: HuffmanCode):
        order, self.lens_arr, self.first_arr, count, self.base_arr = code._canon
        if code.esc_len is None:
            self.flat_syms, self.esc_flat = code.symbols[order], -1
        else:
            self.flat_syms = np.append(code.symbols, 0)[order]
            self.esc_flat = int(np.flatnonzero(order == code.symbols.size)[0])
        self.count_arr = count.astype(np.uint64)
        ends = self.first_arr[:-1] + self.count_arr[:-1]
        self.limits = ends << (64 - self.lens_arr[:-1]).astype(np.uint64)
        self.esc_len = code.esc_len
        self.code = code
        self._prefix = None

    def __reduce__(self):
        return _tables_from_book, (self.code.book,)

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
        Built on first use.
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


def _payload_words(segment: bytes, start: int, total: int) -> np.ndarray:
    """The bitstream at byte ``start`` of a segment as big-endian 64-bit
    words, zero padded with two spill words: a window fetched at bit
    ``total`` reads up to two words past the bitstream's."""
    n_bytes = (total + 7) >> 3
    n_words = (total + 63) >> 6
    byts = np.zeros((n_words + 2) * 8, dtype=np.uint8)
    byts[:n_bytes] = np.frombuffer(segment, dtype=np.uint8, count=n_bytes, offset=start)
    return byts.view(">u8").astype(np.uint64)


def _windows_at(words: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The 64 stream bits starting at each bit position in ``p``."""
    wi = p >> 6
    r = (p & 63).astype(np.uint64)
    return (words[wi] << r) | ((words[wi + 1] >> (np.uint64(63) - r)) >> np.uint64(1))


def decode_tables(code: HuffmanCode) -> _DecodeTables:
    """Precompute the canonical decode tables of one code book.

    Pass the result to :func:`huffman_decode` as ``tables=`` to skip
    the per-call table construction — how a stream decoder amortizes a
    code book reused across steps.
    """
    return _DecodeTables(code)


@functools.lru_cache(maxsize=8)
def _tables_from_book(book: bytes) -> _DecodeTables:
    """The decode tables of a packed book, rebuilt once per distinct
    bytes: how a segment's own book is read, and the unpickle hook of
    tables."""
    return _DecodeTables(_code_from_book(book))


def _block_bounds(sync: np.ndarray, total: int):
    """First bit and end bit of every sync block of a ``total``-bit payload;
    refuses (uint64) ``sync`` offsets that descend or pass ``total``."""
    if sync.size and int(sync.max()) > total:
        raise ValueError("corrupt Huffman payload: sync offset past the bitstream")
    bounds = np.concatenate(([0], sync.astype(np.int64), [total]))
    if np.any(bounds[1:] < bounds[:-1]):
        raise ValueError("corrupt Huffman payload: bad sync offsets")
    return bounds[:-1], bounds[1:]


_TRUNCATED = "truncated Huffman payload"
_NO_MATCH = "corrupt Huffman payload: no codeword matches"
_SYNC_MISMATCH = "corrupt Huffman payload: sync mismatch"


def _walk_blocks(words, starts, ends, rem, total, tables: _DecodeTables):
    """The C walk of the blocks starting at ``starts``, which must stop at
    ``ends``; ``None`` when the NumPy body has to run."""
    search = (tables.lens_arr, tables.first_arr, tables.count_arr, tables.base_arr, tables.limits)
    walked = native.huff_decode(
        words, starts, _SYNC_BLOCK, rem, total, tables.prefix_lut(), search, tables.flat_syms,
        tables.esc_flat,
    )
    if walked is None:
        return None
    status, out, pos = walked
    if status:
        raise ValueError(_TRUNCATED if status == native.HUFF_TRUNCATED else _NO_MATCH)
    if not np.array_equal(pos, ends):
        raise ValueError(_SYNC_MISMATCH)
    return out


def _decode_blocks(words, starts, ends, rem, total, tables: _DecodeTables) -> np.ndarray:
    """Decode the sync blocks of one segment: the C walk where the kernel
    backend has it, the vectorized lockstep below otherwise.

    Block ``b`` starts at bit ``starts[b]``, must end at ``ends[b]`` and
    holds :data:`_SYNC_BLOCK` symbols, except the last, which holds
    ``rem``.  One cursor per block: one 64-bit window per cursor is
    fetched per round and ``64 // max_len`` symbols are decoded out of
    it — so every sub-step still sees a whole codeword — each by a
    single gather from the K-bit prefix tables and a shift.  Cursors
    whose prefix is not table-resident (a longer code, no code at all)
    classify their window by the first-code search; an ESCAPE's 64 raw
    bits are fetched separately and end the round, since they spend the
    window.  Symbols are written slot-major, ``(_SYNC_BLOCK,
    n_blocks)``, and transposed once.
    """
    out = _walk_blocks(words, starts, ends, rem, total, tables)
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
