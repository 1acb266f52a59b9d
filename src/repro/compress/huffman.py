"""Canonical Huffman coder for quantized coefficient integers.

MGARD's entropy stage Huffman-codes the quantizer output (most bins are
at or near zero for smooth data, so the distribution is highly skewed
and Huffman does well) before a final lossless pass.  This is a
self-contained canonical-Huffman implementation that is array-native
end to end:

* a code book (:class:`HuffmanCode`) *is* arrays — the sorted distinct
  int64 symbols, their code lengths and canonical codes, plus an
  optional escape code for rare outliers (values outside the table are
  emitted as the ESCAPE code followed by 64 raw bits).  Lengths come
  from a two-queue merge over the stably sorted ``np.unique`` counts
  (ties: smaller symbol first, ESCAPE last, leaves before merged nodes
  — the order a ``(count, id)`` heap pops them in); code assignment is
  canonical (sorted by (length, symbol)), so the decoder only needs the
  (symbol, length) pairs;
* :func:`huffman_encode` maps symbols to book indices through a dense
  offset table cached on the book when the book's symbol span is small
  next to the segment (``searchsorted`` otherwise), decides a reuse
  guard from that one mapping pass, and packs with a word-aligned
  scatter-OR;
* :func:`huffman_decode` picks by segment size: few payload bits take a
  whole-stream classification resolved by pointer doubling, wide
  segments run one cursor per sync block in vectorized lockstep,
  classifying through a prefix table (≤ 2**16 entries, built lazily
  from the first-code arrays) and decoding several symbols per 64-bit
  window fetch;
* both directions are *block-schedulable*: pass an executor (see
  :mod:`repro.parallel.executors`) and the encoder cuts the symbol
  stream into one sync-aligned range per worker, each packed at local
  bit 0 and realigned (:func:`_shift_words`) and OR-merged by the
  coordinator (the MSB-first concatenation is associative, so the
  merged payload is bit-identical to the serial one), while the
  decoder partitions the sync blocks across workers; both fan out
  through ``executor.map_shared`` over one operand — the symbol array,
  the payload words — and code books pickle as their table JSON, so
  nothing here knows whether a worker shares this address space;
* a code book can be supplied (``code=``) instead of rebuilt from the
  data, which is how slowly-varying streams amortize entropy setup
  across time steps; :func:`table_delta` / :func:`apply_table_delta`
  express one book as a compact edit script against another so reused
  books cost almost no header bytes.

The coder is exact: ``decode(encode(x)) == x`` for any int64 array.
The per-element/per-bit reference coders and the heap construction the
builder must agree with live in ``tests/huffman_oracle.py``.
"""

from __future__ import annotations

import functools
import json

import numpy as np

__all__ = [
    "HuffmanCode",
    "huffman_encode",
    "huffman_decode",
    "build_code",
    "decode_tables",
    "table_from_code",
    "code_from_table",
    "table_delta",
    "apply_table_delta",
]

# Both encoders record the bit offset of every _SYNC_BLOCK-th symbol in
# the header ("sync").  The offsets let the decoder run one cursor per
# block in vectorized lockstep instead of chasing the serial codeword
# chain; real parallel entropy decoders use the same device.
_SYNC_BLOCK = 512

# a parallel decode range below this many sync blocks spends more on
# its (fixed-count) lockstep loop than it gains from concurrency
_MIN_DECODE_BLOCKS_PER_WORKER = 256

# the dense value -> index table is built (once, cached on the book)
# when the book's symbol span is at most this multiple of the segment
# being mapped: filling it costs one store per span entry, which a
# single saved O(n log m) ``searchsorted`` pass repays only while the
# span stays within a few times n.  Fine classes span a few thousand
# bins; a coarse class of 8 symbols spread over millions keeps
# ``searchsorted``.
_DENSE_SPAN_FACTOR = 4

# width cap of the decoder's prefix table: 2**16 entries of (length,
# symbol) stay cache-resident, and at 16 bits per lookup a 64-bit
# window holds four symbols; longer codes are rare by construction
# (a symbol of probability p gets ~-log2 p bits) and classify through
# the first-code search instead
_LUT_BITS = 16

# payloads of at most this many bits decode by whole-stream
# classification + pointer doubling, whose cost is proportional to the
# bit count; above it the lockstep loop wins — its _SYNC_BLOCK
# iterations are call-overhead bound whatever the segment size
_CHAIN_MAX_BITS = 1 << 16

# prefix-table length entry of a slot no table-resident code owns; real
# entries are 1.._LUT_BITS, or at most 64 + _LUT_BITS for a resident ESCAPE
_LUT_MISS = 255


def _canonical(all_lens: np.ndarray):
    """Canonical code assignment for per-entry lengths (ESCAPE last).

    Returns ``(order, lens, first, count, base)``: ``order`` lists the
    entries in canonical (length, position) order, and per distinct
    length ``lens[k]`` the codes are the contiguous range ``[first[k],
    first[k] + count[k])`` occupying canonical ranks ``base[k]...``.
    """
    if all_lens.size == 0:
        raise ValueError("corrupt Huffman header: empty code table")
    if all_lens.min() < 1 or all_lens.max() > 64:
        raise ValueError("corrupt Huffman header: code length outside 1..64")
    per_len = np.bincount(all_lens, minlength=65)
    lens = np.flatnonzero(per_len)
    count = per_len[lens]
    first = []
    code = prev = 0
    for ln, c in zip(lens.tolist(), count.tolist()):
        code <<= ln - prev
        first.append(code)
        code += c
        prev = ln
        if code > 1 << ln:
            raise ValueError(
                "corrupt Huffman header: code lengths oversubscribe the code space"
            )
    order = np.argsort(all_lens, kind="stable")
    return order, lens, np.array(first, dtype=np.uint64), count, np.cumsum(count) - count


class HuffmanCode:
    """A canonical Huffman code book held as arrays.

    ``symbols`` are the distinct in-table int64 values in ascending
    order, ``lengths`` / ``codes`` their code lengths and canonical
    codes (uint64, right-aligned).  ``esc_len`` / ``esc_code`` describe
    the ESCAPE code, ``None`` when the book has none.  Canonical order
    is (length, symbol) with ESCAPE after every symbol of its length,
    so the lengths alone determine the codes.
    """

    def __init__(self, symbols, lengths, esc_len: int | None = None):
        symbols = np.asarray(symbols, dtype=np.int64).ravel()
        lengths = np.asarray(lengths, dtype=np.int64).ravel()
        if symbols.size != lengths.size:
            raise ValueError("corrupt Huffman header: symbols and lengths differ in size")
        if symbols.size > 1 and not np.all(symbols[1:] > symbols[:-1]):
            raise ValueError(
                "corrupt Huffman header: code-book symbols must be distinct and ascending"
            )
        all_lens = lengths if esc_len is None else np.append(lengths, int(esc_len))
        self._canon = _canonical(all_lens)
        order, _, first, count, base = self._canon
        # one slot past the symbols: the ESCAPE entry, where out-of-book
        # values map (length 0 in a book that has no escape)
        codes = np.zeros(symbols.size + 1, dtype=np.uint64)
        rank = np.arange(all_lens.size) - np.repeat(base, count)
        codes[order] = np.repeat(first, count) + rank.astype(np.uint64)
        self._slot_codes = codes
        self._slot_lens = np.append(lengths, 0 if esc_len is None else int(esc_len))
        self.symbols = symbols
        self.lengths = self._slot_lens[:-1]
        self.codes = codes[:-1]
        self.esc_len = None if esc_len is None else int(esc_len)
        self.esc_code = None if esc_len is None else int(codes[-1])
        self._lut: np.ndarray | None = None  # dense value -> slot map
        self._table: list | None = None
        self._table_json: str | None = None

    @classmethod
    def from_counts(cls, symbols, counts, esc_count: int = 0) -> "HuffmanCode":
        """Build the book of ascending ``symbols`` occurring ``counts`` times.

        ``esc_count > 0`` adds an ESCAPE leaf of that weight.  Two-queue
        Huffman merge: leaves stably sorted by count in one queue,
        merged nodes (created in non-decreasing weight) in the other;
        taking the leaf on equal weight reproduces, merge for merge,
        a heap keyed ``(weight, id)`` whose leaf ids follow symbol order
        (ESCAPE last) and precede every merged node's.
        """
        counts = np.asarray(counts, dtype=np.int64).ravel()
        if esc_count > 0:
            counts = np.append(counts, int(esc_count))
        n = counts.size
        if n == 0:
            raise ValueError("cannot build a Huffman code from no symbols")
        if n == 1:
            depth = np.ones(1, dtype=np.int64)
        else:
            order = np.argsort(counts, kind="stable")
            leaf = counts[order].tolist()
            node = [0] * (n - 1)  # merged-node weights, in creation order
            leaf_parent = [0] * n
            node_parent = [0] * (n - 1)
            i = j = 0
            for k in range(n - 1):
                w = 0
                for _ in range(2):
                    if i < n and (j == k or leaf[i] <= node[j]):
                        w += leaf[i]
                        leaf_parent[i] = k
                        i += 1
                    else:
                        w += node[j]
                        node_parent[j] = k
                        j += 1
                node[k] = w
            # the root is the last merged node; parents are created
            # after their children, so one reverse pass sets every depth
            node_depth = [0] * (n - 1)
            for j in range(n - 3, -1, -1):
                node_depth[j] = node_depth[node_parent[j]] + 1
            depth = np.empty(n, dtype=np.int64)
            depth[order] = np.asarray(node_depth, dtype=np.int64)[leaf_parent] + 1
        if esc_count > 0:
            return cls(symbols, depth[:-1], int(depth[-1]))
        return cls(symbols, depth)

    @property
    def table(self) -> list:
        """Header-form ``[symbol, length]`` table, ``["ESC", length]``
        last; built once per book and shared by every header that ships
        it, so treat it as read-only."""
        if self._table is None:
            table = [list(e) for e in zip(self.symbols.tolist(), self.lengths.tolist())]
            if self.esc_len is not None:
                table.append(["ESC", self.esc_len])
            self._table = table
        return self._table

    @property
    def table_json(self) -> str:
        """JSON of :attr:`table`, serialized once per book (the reuse
        policy weighs deltas against its length, and it is the form a
        book is pickled in)."""
        if self._table_json is None:
            self._table_json = json.dumps(self.table)
        return self._table_json

    def __reduce__(self):
        return _code_from_json, (self.table_json,)


# "auto" escape reservation kicks in at this alphabet size: one
# frequency-1 symbol among >= this many is rate noise (it displaces
# only the rarest real symbol by one bit), while for tiny alphabets it
# would visibly lengthen every code — there, rebuilding on the first
# genuinely new symbol is cheaper than carrying the escape
_RESERVE_ESCAPE_MIN_SYMS = 64


def _build_code(
    values: np.ndarray, max_table: int, reserve_escape: bool | str = False
) -> HuffmanCode:
    if max_table < 2:
        raise ValueError(f"max_table must be at least 2, got {max_table}")
    syms, counts = np.unique(values, return_counts=True)
    if reserve_escape == "auto":
        reserve_escape = syms.size >= _RESERVE_ESCAPE_MIN_SYMS
    if syms.size == 0:
        return HuffmanCode.from_counts([0], [1])
    if syms.size <= max_table - (1 if reserve_escape else 0):
        # a reserved (never-yet-used) escape lets this book absorb
        # symbols that only appear in *later* data when it is reused
        return HuffmanCode.from_counts(syms, counts, 1 if reserve_escape else 0)
    # keep the most frequent symbols; the tail goes through ESCAPE
    order = np.argsort(-counts, kind="stable")  # ties: smaller symbol first
    keep = np.sort(order[: max_table - 1])
    # every dropped symbol occurred at least once, so the escape weight is >= 1
    escaped = int(counts.sum() - counts[keep].sum())
    return HuffmanCode.from_counts(syms[keep], counts[keep], max(escaped, 1))


def build_code(
    values: np.ndarray, max_table: int = 4096, reserve_escape: bool | str = False
) -> HuffmanCode:
    """Build a canonical code book from data without encoding it.

    With ``reserve_escape=True`` the book always contains an ESCAPE
    code even when every distinct symbol fits the table, so the book
    can later encode arrays containing symbols it has never seen — the
    property cross-step code-book reuse relies on.  ``"auto"`` reserves
    only for alphabets big enough that the extra symbol is rate noise;
    reusers of escape-less books simply rebuild when a new symbol shows
    up.
    """
    values = np.ascontiguousarray(values, dtype=np.int64).ravel()
    return _build_code(values, max_table, reserve_escape=reserve_escape)


def _header(table: list | None, n: int, total_bits: int, sync=None) -> dict:
    """Segment header; ``table`` is the header-form book, or ``None``
    when the caller ships a reference to a cached book instead."""
    header = {"n": int(n), "bits": int(total_bits)}
    if table is not None:
        header["table"] = table
    if sync is not None and len(sync):
        header["sync"] = sync.tolist()
    return header


# ----------------------------------------------------------------------
# code-book (de)serialization and cross-step deltas


def table_from_code(code: HuffmanCode) -> list:
    """The header-form symbol/length table of a code book."""
    return code.table


def code_from_table(table: list) -> HuffmanCode:
    """Rebuild the canonical code book from a header-form table."""
    esc_len = None
    try:
        esc = [i for i, e in enumerate(table) if e[0] == "ESC"]
        if esc:
            esc_len = int(table[esc[-1]][1])
            table = [e for e in table if e[0] != "ESC"]
        pairs = np.array(table, dtype=np.int64).reshape(-1, 2)
    except (TypeError, ValueError, OverflowError, IndexError) as exc:
        raise ValueError(f"corrupt Huffman header: bad code table ({exc})") from None
    order = np.argsort(pairs[:, 0], kind="stable")
    return HuffmanCode(pairs[order, 0], pairs[order, 1], esc_len)


def _table_dict(table: list) -> dict:
    return {("ESC" if s == "ESC" else int(s)): int(ln) for s, ln in table}


def table_delta(ref_table: list, new_table: list) -> dict:
    """Edit script turning ``ref_table`` into ``new_table``.

    Returns ``{"set": [[sym, len], ...], "drop": [sym, ...]}`` — only
    the symbols whose code length changed, appeared, or vanished.  For
    slowly-varying streams this is a small fraction of the full table,
    so rebuilt books cost few header bytes when expressed as deltas.
    """
    ref = _table_dict(ref_table)
    new = _table_dict(new_table)
    return {
        "set": [[s, ln] for s, ln in new.items() if ref.get(s) != ln],
        "drop": [s for s in ref if s not in new],
    }


def apply_table_delta(ref_table: list, delta: dict) -> list:
    """Invert :func:`table_delta`: apply an edit script to a base table."""
    d = _table_dict(ref_table)
    for s in delta.get("drop", ()):
        d.pop("ESC" if s == "ESC" else int(s), None)
    for s, ln in delta.get("set", ()):
        d[("ESC" if s == "ESC" else int(s))] = int(ln)
    return [[s, ln] for s, ln in d.items()]


# ----------------------------------------------------------------------
# vectorized fast path


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
    """MSB-first scatter of (code, length) chunks into 64-bit words.

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


def _encode_payload(values, code, executor=None, stats=None, guard=None):
    """Encode with a given book; returns ``(payload, total_bits, sync)``.

    The header-less core of :func:`huffman_encode` (same ``executor`` /
    ``stats`` / ``guard``), for callers that ship a reference to a
    cached book instead of its table.  A tripped guard — or, under a
    guard, a new symbol the book has no escape for — returns
    :data:`_GUARD_TRIPPED`.
    """
    n = values.size
    if (
        executor is not None
        and getattr(executor, "max_workers", 1) > 1
        and n >= 2 * _BLOCK_SYMBOLS
    ):
        try:
            return _encode_blocks(values, code, executor, stats, guard)
        except ValueError:
            if guard is not None:
                return _GUARD_TRIPPED  # a new symbol and no escape for it
            raise
    slots = _map_symbols(values, code)
    if guard is not None:
        # decided from the mapping pass alone: no chunk is gathered, let
        # alone packed, for a book about to be replaced
        used = np.bincount(slots, minlength=code._slot_lens.size)
        n_esc = int(used[-1])
        if n_esc and code.esc_len is None:
            return _GUARD_TRIPPED
        if _guard_exceeded(guard, n, int(used @ code._slot_lens) + 64 * n_esc):
            _note_stats(stats, n, n_esc)
            return _GUARD_TRIPPED
    c_codes, c_lens, offsets, esc = _chunks(slots, code)
    _note_stats(stats, n, esc.size)
    total_bits = int(offsets[-1])
    payload = _payload_bytes(_pack_words(values, c_codes, c_lens, offsets, esc), total_bits)
    return payload, total_bits, offsets[_SYNC_BLOCK:-1:_SYNC_BLOCK]


def huffman_encode(
    values: np.ndarray,
    max_table: int = 4096,
    *,
    code: HuffmanCode | None = None,
    executor=None,
    stats: dict | None = None,
    guard: dict | None = None,
):
    """Encode an int64 array; returns (payload, header).

    The header carries the canonical code book as plain Python data
    (symbol/length pairs) plus the element count; it is what a container
    format would serialize alongside the payload.

    Parameters
    ----------
    code:
        Encode with this (externally built, e.g. cached from a previous
        stream step) code book instead of building one from the data.
        The book needs an escape code to cover symbols it has not seen.
    executor:
        Schedule sync-aligned symbol blocks through this executor (see
        :mod:`repro.parallel.executors`); the payload is bit-identical
        to the serial path.
    stats:
        Optional dict that receives ``n_symbols`` / ``n_escaped`` — the
        signal reuse policies watch to decide when a stale book must be
        rebuilt.
    guard:
        Optional reuse guard ``{"max_bits_per_symbol": b}``.  Decided
        from the symbol-mapping pass alone, *before* any chunk is
        gathered or packed; when the would-be payload exceeds the bound
        (or the book lacks an escape for a new symbol) the call returns
        ``(None, None)`` so the caller can rebuild the book without
        having paid for a wasted encode.
    """
    values = np.ascontiguousarray(values, dtype=np.int64).ravel()
    if values.size == 0:
        return b"", {"n": 0, "bits": 0, "table": []}
    if code is None:
        code = _build_code(values, max_table)
    payload, total_bits, sync = _encode_payload(values, code, executor, stats, guard)
    if payload is None:
        return None, None
    return payload, _header(code.table, values.size, total_bits, sync)


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
    """Unpickle hook of books and tables: a pool worker rebuilds each
    distinct book once, however many jobs or stream steps reuse it."""
    return _DecodeTables.from_code(code_from_table(json.loads(table_json)))


def _code_from_json(table_json: str) -> HuffmanCode:
    return _tables_from_json(table_json).code


def huffman_decode(
    payload: bytes, header: dict, *, executor=None, tables=None
) -> np.ndarray:
    """Invert :func:`huffman_encode`.

    Canonical decoding normally walks the bit stream serially.  Small
    payloads (at most :data:`_CHAIN_MAX_BITS` bits) and headers without
    sync offsets take a whole-stream classification: "if a codeword
    started at bit ``p``, which (length, symbol) would it be?", with the
    actual codeword-start chain ``p -> p + len(p)`` resolved by pointer
    doubling — work proportional to the bit count.  Wider payloads use
    the header's sync offsets (one per :data:`_SYNC_BLOCK` symbols —
    any payload our encoders emit) to run one cursor per block in
    vectorized lockstep; an ``executor`` partitions the blocks into
    contiguous runs decoded as independent work units.  The output, and
    every corruption check (no codeword matches, truncated payload,
    sync mismatch), is the same either way.
    """
    n = int(header["n"])
    if n < 0:
        raise ValueError(f"corrupt Huffman header: negative element count {n}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    total = int(header["bits"])
    if total < 0:
        raise ValueError(f"corrupt Huffman header: negative bit count {total}")
    if n > total:
        # every symbol costs at least one bit; checked before anything
        # is sized from the (untrusted) element count
        raise ValueError(
            f"corrupt Huffman header: {n} symbols cannot fit in {total} bits"
        )
    if len(payload) < (total + 7) >> 3:
        raise ValueError("truncated Huffman payload")
    sync = header.get("sync")
    if sync is not None:
        try:
            sync = np.asarray(sync, dtype=np.int64).reshape(-1)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("corrupt Huffman header: bad sync offsets") from None
        if sync.size + 1 != -(-n // _SYNC_BLOCK):
            raise ValueError(
                f"corrupt Huffman header: {sync.size} sync offsets for {n} symbols"
            )
    if tables is None:
        tables = _DecodeTables.from_code(code_from_table(header["table"]))
    if sync is None or total <= _CHAIN_MAX_BITS:
        return _decode_chain(payload, n, total, tables, sync)
    return _decode_sync(payload, n, total, tables, sync, executor)


def _decode_sync(
    payload, n, total, tables: _DecodeTables, sync, executor=None
) -> np.ndarray:
    """Lockstep decode: one cursor per sync block, advanced together."""
    n_blocks = len(sync) + 1
    starts = np.empty(n_blocks, dtype=np.int64)
    starts[0] = 0
    starts[1:] = sync
    ends = np.empty(n_blocks, dtype=np.int64)
    ends[:-1] = sync
    ends[-1] = total
    if np.any(starts > total) or np.any(np.diff(starts) < 0):
        raise ValueError("corrupt Huffman payload: bad sync offsets")
    rem = n - (n_blocks - 1) * _SYNC_BLOCK  # symbols in the last block
    workers = getattr(executor, "max_workers", 1) if executor is not None else 1
    # every range pays the full _SYNC_BLOCK-iteration lockstep loop, so
    # splitting only pays off when each worker keeps wide vectors; keep
    # at least _MIN_DECODE_BLOCKS_PER_WORKER blocks per range
    workers = min(workers, n_blocks // _MIN_DECODE_BLOCKS_PER_WORKER)
    words = _payload_words(payload, total)
    if workers > 1:
        # one contiguous sync-block run per worker
        cuts = np.linspace(0, n_blocks, workers + 1).astype(int)
        parts = executor.map_shared(
            _decode_sync_range,
            words,
            [starts[a:b] for a, b in zip(cuts[:-1], cuts[1:])],
            [ends[a:b] for a, b in zip(cuts[:-1], cuts[1:])],
            [_SYNC_BLOCK] * (workers - 1) + [rem],
            [total] * workers,
            [tables] * workers,
        )
        return np.concatenate(parts)
    return _decode_sync_range(words, starts, ends, rem, total, tables)


_TRUNCATED = "truncated Huffman payload"
_NO_MATCH = "corrupt Huffman payload: no codeword matches"


def _decode_sync_range(
    words, starts, ends, rem, total, tables: _DecodeTables
) -> np.ndarray:
    """Lockstep-decode one contiguous run of sync blocks.

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
        raise ValueError("corrupt Huffman payload: sync mismatch")
    return out.T.reshape(-1)[: (n_blocks - 1) * _SYNC_BLOCK + rem]


def _decode_chain(payload, n, total, tables: _DecodeTables, sync=None) -> np.ndarray:
    """Whole-stream classification + pointer-doubling chain resolution.

    Allocates a few machine words per payload *bit*; ``sync``, when the
    header has it, is checked against the resolved codeword starts.
    """
    words = _payload_words(payload, total, spill=1)
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
        raise ValueError("corrupt Huffman payload: sync mismatch")

    ranks = flat_at[pos]
    out = tables.flat_syms[ranks]
    if esc_flat >= 0:
        em = ranks == esc_flat
        if np.any(em):
            pe = pos[em] + esc_len  # start of the 64 raw bits
            out[em] = win[pe].astype(np.int64)  # two's complement
    return out
