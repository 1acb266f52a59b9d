"""The Huffman encode side: symbol mapping, chunking, the word pack.

:func:`_map_symbols` maps symbols to book slots through a dense offset
table cached on the book when the book's symbol span is small next to
the segment (``searchsorted`` otherwise); :func:`_chunks` turns slots
into (code, length, bit offset) chunks; :func:`_pack_chunks_words`
scatters them MSB-first into 64-bit words — one C loop under the
``native`` kernel backend, a word-aligned scatter-OR in NumPy otherwise,
the same words either way.  :func:`_encode_blocks` is the block-parallel
form: one sync-aligned symbol range per worker, each packed at local bit
0 and realigned (:func:`_shift_words`) and OR-merged by the coordinator
(the MSB-first concatenation is associative, so the merged payload is
bit-identical to the serial one).
"""

from __future__ import annotations

import numpy as np

from ..core import native
from .huffman_book import HuffmanCode

# Both encoders record the bit offset of every _SYNC_BLOCK-th symbol in
# the header ("sync").  The offsets let the decoder run one cursor per
# block in vectorized lockstep instead of chasing the serial codeword
# chain; real parallel entropy decoders use the same device.
_SYNC_BLOCK = 512

# the dense value -> index table is built (once, cached on the book)
# when the book's symbol span is at most this multiple of the segment
# being mapped: filling it costs one store per span entry, which a
# single saved O(n log m) ``searchsorted`` pass repays only while the
# span stays within a few times n.  Fine classes span a few thousand
# bins; a coarse class of 8 symbols spread over millions keeps
# ``searchsorted``.
_DENSE_SPAN_FACTOR = 4


def _map_symbols(values: np.ndarray, code: HuffmanCode) -> np.ndarray:
    """Slot of every value in the book: its index in ``code.symbols``,
    or ``code.symbols.size`` — the ESCAPE slot — where the book has none.

    A book whose symbol span is at most :data:`_DENSE_SPAN_FACTOR`
    times the segment maps through one gather from a dense offset table
    (built once, cached on the book); wider books binary-search.  Both
    give the same slots, so the choice never shows in the payload.
    """
    syms = code.symbols
    n_syms = syms.size
    if n_syms == 0:
        return np.zeros(values.size, dtype=np.intp)
    lo, hi = int(syms[0]), int(syms[-1])
    lut = code._lut
    if lut is None and hi - lo < _DENSE_SPAN_FACTOR * values.size:
        lut = np.full(hi - lo + 1, n_syms, dtype=np.intp)
        lut[syms - lo] = np.arange(n_syms)
        code._lut = lut
    if lut is None:
        pos = np.minimum(np.searchsorted(syms, values), n_syms - 1)
        return np.where(syms[pos] == values, pos, n_syms)
    if values.min() >= lo and values.max() <= hi:
        return lut[values - lo]
    slots = np.full(values.size, n_syms, dtype=np.intp)
    inside = (values >= lo) & (values <= hi)
    slots[inside] = lut[values[inside] - lo]
    return slots


_NO_ESCAPE = (
    "value outside the code book and the book has no escape code; "
    "rebuild the book (or build it with reserve_escape=True)"
)


def _chunks(slots: np.ndarray, code: HuffmanCode):
    """Per-element codes, code lengths and bit positions of mapped symbols.

    Returns ``(c_codes, c_lens, offsets, esc)``: ``offsets`` (size
    ``n + 1``) is the bit position of every element in the range and
    its total; ``esc`` lists the escaped elements, each of which
    occupies its ESCAPE code plus 64 raw bits.
    """
    esc = np.flatnonzero(slots == code.symbols.size)
    if esc.size and code.esc_len is None:
        raise ValueError(_NO_ESCAPE)
    c_codes = code._slot_codes[slots]
    c_lens = code._slot_lens[slots]
    step = c_lens
    if esc.size:
        step = c_lens.copy()
        step[esc] += 64
    offsets = np.zeros(slots.size + 1, dtype=np.int64)
    np.cumsum(step, out=offsets[1:])
    return c_codes, c_lens, offsets, esc


def _chunkify(values: np.ndarray, code: HuffmanCode):
    """Map + :func:`_chunks`: the per-block work unit of the parallel encode."""
    return _chunks(_map_symbols(values, code), code)


def _pack_words(values, c_codes, c_lens, offsets, esc) -> np.ndarray:
    """Word buffer of one chunkified range (``offsets`` may start mid-word).

    The codes — ESCAPE codes included — pack at their positions; the
    raw 64 bits of the escaped values pack right behind their ESCAPE
    codes in a second pass and OR in, the bit ranges being disjoint.
    """
    buf = _pack_chunks_words(c_codes, c_lens, offsets)
    if esc.size:
        raw_at = np.append(offsets[esc] + c_lens[esc], offsets[-1])
        raw = values[esc].astype(np.uint64)  # two's complement
        buf |= _pack_chunks_words(raw, np.full(esc.size, 64), raw_at)
    return buf


def _pack_chunks_words(
    c_codes: np.ndarray, c_lens: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """MSB-first scatter of (code, length) chunks into 64-bit words: one C
    loop where the kernel backend has it, the scatter-OR below otherwise.

    Word-aligned: every chunk (1..64 bits) lands in at most two
    big-endian 64-bit words.  Each code is left-justified once; the
    part in its first word is that shifted right by the chunk's bit
    offset ``r`` in the word, the spill into the next word the same
    left-justified code shifted left by ``64 - r`` (as ``63 - r`` then
    1, so ``r = 0`` spills nothing without a 64-bit shift) — plus one
    ``bitwise_or.reduceat`` per landing word, no per-bit expansion.
    ``offsets`` is the chunk bit-position prefix sum (size ``n_chunks +
    1``; callers already have it); ``offsets[0]`` (< 64) offsets the
    first chunk inside word 0, which is how a block whose global bit
    position is mid-word packs locally and still merges into the stream
    with a plain OR.
    """
    words = native.huff_pack(c_codes, c_lens, offsets)
    if words is not None:
        return words
    n_words = (int(offsets[-1]) + 63) >> 6
    buf = np.zeros(n_words + 1, dtype=np.uint64)  # +1 spill word
    if c_codes.size == 0:
        return buf
    w0 = offsets[:-1] >> 6
    r = (offsets[:-1] & 63).astype(np.uint64)
    justified = c_codes << (64 - c_lens).astype(np.uint64)
    part0 = justified >> r
    np.subtract(np.uint64(63), r, out=r)
    part1 = (justified << r) << np.uint64(1)

    # offsets are monotone, so chunks hitting the same word are contiguous
    new_word = np.empty(w0.size, dtype=bool)
    new_word[0] = True
    np.not_equal(w0[1:], w0[:-1], out=new_word[1:])
    starts = np.flatnonzero(new_word)
    idx = w0[starts]
    buf[idx] = np.bitwise_or.reduceat(part0, starts)
    buf[idx + 1] |= np.bitwise_or.reduceat(part1, starts)
    return buf


def _payload_bytes(words: np.ndarray, total_bits: int) -> bytes:
    """Big-endian bytes of a word buffer, cut to the payload's bit count."""
    n_words = (total_bits + 63) >> 6
    return words[:n_words].astype(">u8").tobytes()[: (total_bits + 7) >> 3]


# granularity of the encode ranges (a multiple of _SYNC_BLOCK, so range
# boundaries coincide with sync points and the merged header's sync
# offsets match the serial encoder's exactly)
_BLOCK_SYMBOLS = 64 * _SYNC_BLOCK


# what the encode paths return when a reuse guard rejects the book
_GUARD_TRIPPED = (None, None, None)


def _note_stats(stats: dict | None, n: int, n_escaped: int) -> None:
    if stats is not None:
        stats["n_symbols"] = int(n)
        stats["n_escaped"] = int(n_escaped)


def _guard_exceeded(guard: dict, n: int, total_bits: int) -> bool:
    max_bps = guard.get("max_bits_per_symbol")
    return max_bps is not None and total_bits > max_bps * n + 1e-9


def _shift_words(buf: np.ndarray, s: int) -> np.ndarray:
    """Realign a pack-at-bit-0 word buffer to start at bit ``s`` (< 64).

    Packing is a plain OR of chunks at bit positions, so shifting the
    whole buffer right by ``s`` bits is *exactly* the buffer that
    packing at initial offset ``s`` would have produced — the
    realignment that lets a worker pack its symbol range without
    knowing the range's global bit position (which the coordinator only
    learns after every range reports its bit count).
    """
    if s == 0:
        return buf
    sh = np.uint64(s)
    inv = np.uint64(64 - s)
    out = np.zeros(buf.size + 1, dtype=np.uint64)
    out[:-1] = buf >> sh
    out[1:] |= buf << inv
    return out


def _encode_range(
    values: np.ndarray, start: int, stop: int, code: "HuffmanCode", max_bps=None
):
    """Chunkify + pack ``values[start:stop]`` at local bit offset 0.

    Returns ``(words, nbits, sync_local, n_escaped)`` where ``words``
    is the pack-at-0 word buffer (realigned and OR-merged by the
    coordinator), and ``sync_local`` the range-local bit offsets of
    every :data:`_SYNC_BLOCK`-th symbol *including* symbol 0 — ranges
    start on sync boundaries, so the coordinator turns these into the
    stream's global sync table with one add per range.

    ``max_bps`` is the reuse guard's bound applied as a *local hint*:
    when this range alone exceeds it, the (expensive) pack is skipped
    and ``words`` comes back ``None`` — the bit count, sync offsets,
    and escape count are still returned, so the coordinator can make
    the real (global, executor-independent) guard decision and re-pack
    the odd locally-skewed range inline if the stream as a whole
    passes.
    """
    values = values[start:stop]
    c_codes, c_lens, offsets, esc = _chunkify(values, code)
    nbits = int(offsets[-1])
    lsync = offsets[:-1:_SYNC_BLOCK].copy()
    if max_bps is not None and nbits > max_bps * values.size + 1e-9:
        return None, nbits, lsync, esc.size
    return _pack_words(values, c_codes, c_lens, offsets, esc), nbits, lsync, esc.size


def _encode_blocks(values, code, executor, stats=None, guard=None):
    """Block-parallel encode: one sync-aligned symbol range per worker.

    Every worker packs its range at local bit offset 0
    (:func:`_encode_range` — it cannot know its global position yet);
    the coordinator prefix-sums the per-range bit counts into global
    positions and OR-merges the returned word packs after
    :func:`_shift_words` realignment.  MSB-first concatenation is
    associative, so the payload is bit-identical to the single-shot
    path for any executor.

    A reuse ``guard`` keeps its documented before-any-bits-are-packed
    economics: workers skip their pack when their own range exceeds the
    bound (the overwhelmingly common shape of a guard trip — drift is
    stream-wide), while the *decision* itself is made here from the
    summed bit counts, so accept/reject is exactly the serial path's.
    A range skipped locally on a stream that globally passes (escapes
    concentrated in one range) is re-packed inline.
    """
    n = values.size
    n_blocks = -(-n // _BLOCK_SYMBOLS)
    k = min(executor.max_workers, n_blocks)
    # contiguous runs of whole blocks per worker, so every range starts
    # on a sync boundary (_BLOCK_SYMBOLS is a multiple of _SYNC_BLOCK)
    # and the local sync offsets splice exactly
    cuts = (np.linspace(0, n_blocks, k + 1).astype(int) * _BLOCK_SYMBOLS).tolist()
    cuts[-1] = n
    max_bps = guard.get("max_bits_per_symbol") if guard is not None else None
    parts = executor.map_shared(
        _encode_range, values, cuts[:-1], cuts[1:], [code] * k, [max_bps] * k
    )

    starts = np.cumsum([0] + [nbits for _, nbits, _, _ in parts])
    total_bits = int(starts[-1])
    _note_stats(stats, n, sum(p[3] for p in parts))
    if guard is not None and _guard_exceeded(guard, n, total_bits):
        return _GUARD_TRIPPED
    sync = np.concatenate(
        [lsync + start for (_, _, lsync, _), start in zip(parts, starts)]
    )[1:]  # drop the stream start (bit 0 is not a sync entry)

    n_words = (total_bits + 63) >> 6
    out = np.zeros(n_words + 3, dtype=np.uint64)  # shift + spill slack
    for i, (words, _, _, _) in enumerate(parts):
        if words is None:  # local hint tripped, stream passed: pack now
            words = _encode_range(values, cuts[i], cuts[i + 1], code)[0]
        s = int(starts[i])
        shifted = _shift_words(words, s & 63)
        w0 = s >> 6
        out[w0 : w0 + shifted.size] |= shifted
    return _payload_bytes(out, total_bits), total_bits, sync

