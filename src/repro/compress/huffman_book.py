"""The canonical Huffman code book: construction and its packed bytes.

A code book (:class:`HuffmanCode`) *is* arrays — the sorted distinct
int64 symbols, their code lengths and canonical codes, plus an optional
escape code for rare outliers (values outside the table are emitted as
the ESCAPE code followed by 64 raw bits).  Lengths come from the symbol
counts (:func:`_histogram`) by :func:`_code_lengths`: a two-queue merge
in C under the ``native`` kernel backend, and otherwise
:func:`_heap_lengths`, a ``heapq`` tree over ``(count, id)`` that is
also the tests' oracle — integer compares either way, so the same
lengths.  Code assignment is canonical (sorted by (length, symbol)), so
the decoder only needs the (symbol, length) pairs.

The C segment encode (``native.huff_segment``) builds the same book from
the same histogram — the same cut, merge and canonical order — and hands
its arrays over as is (:meth:`HuffmanCode._assigned`).

A book's one serialized form is :attr:`HuffmanCode.book`: a fixed head
(first symbol, symbol count, ESCAPE length, gap width), the lengths as
u8 and the symbol gaps at the narrowest unsigned width, deflated at
level 1 (:data:`_BOOK_LEVEL`).  It is what a Huffman segment ships in
front of its bitstream and what a book (and its decode tables) pickles
as; :meth:`HuffmanCode.from_book` checks every field of foreign bytes
before it believes one.
"""

from __future__ import annotations

import functools
import heapq
import zlib

import numpy as np

from ..core import native


def _canonical(all_lens: np.ndarray):
    """Canonical code assignment for per-entry lengths (ESCAPE last).

    Returns ``(order, lens, first, count, base)``: ``order`` lists the
    entries in canonical (length, position) order, and per distinct
    length ``lens[k]`` the codes are the contiguous range ``[first[k],
    first[k] + count[k])`` occupying canonical ranks ``base[k]...``.
    """
    if all_lens.size == 0:
        raise ValueError("corrupt Huffman book: empty code table")
    if all_lens.min() < 1 or all_lens.max() > 64:
        raise ValueError("corrupt Huffman book: code length outside 1..64")
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
                "corrupt Huffman book: code lengths oversubscribe the code space"
            )
    order = np.argsort(all_lens, kind="stable")
    return order, lens, np.array(first, dtype=np.uint64), count, np.cumsum(count) - count


def _code_lengths(counts: np.ndarray) -> np.ndarray:
    """Huffman code length of every leaf weight in ``counts`` (int64): the
    C two-queue merge where the kernel backend has it, the heap otherwise.

    Two-queue merge: leaves stably sorted by count in one queue, merged
    nodes (created in non-decreasing weight) in the other; taking the
    leaf on equal weight reproduces, merge for merge, :func:`_heap_lengths`.
    """
    order = np.argsort(counts, kind="stable")
    sorted_depth = native.huff_lengths(counts[order])
    if sorted_depth is None:
        return _heap_lengths(counts)
    depth = np.empty(counts.size, dtype=np.int64)
    depth[order] = sorted_depth
    return depth


def _heap_lengths(counts: np.ndarray) -> np.ndarray:
    """Huffman code lengths by a ``heapq`` tree keyed ``(weight, id)``: leaf
    ids follow position order and precede every merged node's, which are
    numbered in creation order — so every tie, and every length, is fixed."""
    n = counts.size
    if n == 1:
        return np.ones(1, dtype=np.int64)
    heap = list(zip(counts.tolist(), range(n)))
    heapq.heapify(heap)
    parent = [0] * (2 * n - 1)
    for node in range(n, 2 * n - 1):
        (wa, a), (wb, b) = heapq.heappop(heap), heapq.heappop(heap)
        parent[a] = parent[b] = node
        heapq.heappush(heap, (wa + wb, node))
    # parents are created after their children: one reverse pass from the root
    depth = [0] * (2 * n - 1)
    for i in range(2 * n - 3, -1, -1):
        depth[i] = depth[parent[i]] + 1
    return np.array(depth[:n], dtype=np.int64)


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
            raise ValueError("corrupt Huffman book: symbols and lengths differ in size")
        if symbols.size > 1 and not np.all(symbols[1:] > symbols[:-1]):
            raise ValueError(
                "corrupt Huffman book: code-book symbols must be distinct and ascending"
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
        self._book: bytes | None = None

    @classmethod
    def _assigned(cls, symbols, slot_lens, slot_codes) -> "HuffmanCode":
        """The book whose slot lengths and canonical codes (ESCAPE's last,
        length 0 where there is none) the C build assigned — which follows
        :meth:`from_counts` and :func:`_canonical` step for step, so there is
        nothing to check or recompute."""
        code = cls.__new__(cls)
        esc_len = int(slot_lens[-1]) or None
        code.symbols, code._slot_lens, code._slot_codes = symbols, slot_lens, slot_codes
        code.lengths, code.codes = slot_lens[:-1], slot_codes[:-1]
        code.esc_len = esc_len
        code.esc_code = None if esc_len is None else int(slot_codes[-1])
        code._lut = code._book = None
        return code

    @functools.cached_property
    def _canon(self):
        """:func:`_canonical` of the slot lengths (the decode tables' operand)."""
        return _canonical(self._slot_lens if self.esc_len is not None else self.lengths)

    @classmethod
    def from_counts(cls, symbols, counts, esc_count: int = 0) -> "HuffmanCode":
        """Build the book of ascending ``symbols`` occurring ``counts`` times.

        ``esc_count > 0`` adds an ESCAPE leaf of that weight, after every
        symbol in :func:`_code_lengths`' tie order.
        """
        counts = np.asarray(counts, dtype=np.int64).ravel()
        if esc_count > 0:
            counts = np.append(counts, int(esc_count))
        if counts.size == 0:
            raise ValueError("cannot build a Huffman code from no symbols")
        depth = _code_lengths(counts)
        if esc_count > 0:
            return cls(symbols, depth[:-1], int(depth[-1]))
        return cls(symbols, depth)

    @property
    def book(self) -> bytes:
        """The packed book (:data:`_BOOK_HEAD`, lengths, gaps; zlib'd),
        built once per book and shared by every segment that ships it."""
        if self._book is None:
            syms = self.symbols
            # ascending, so every gap is 1..2**64 - 1: exact in wrapping uint64
            gaps = np.diff(syms.view(np.uint64))
            top = int(gaps.max()) if gaps.size else 0
            width = next(w for w in (1, 2, 4, 8) if top < 1 << 8 * w)
            head = np.array((syms[0] if syms.size else 0, syms.size, self.esc_len or 0, width),
                            dtype=_BOOK_HEAD)
            self._book = zlib.compress(b"".join((
                head.tobytes(), self.lengths.astype(np.uint8).tobytes(),
                gaps.astype(f"<u{width}").tobytes())), _BOOK_LEVEL)
        return self._book

    @classmethod
    def from_book(cls, book: bytes) -> "HuffmanCode":
        """Unpack a :attr:`book`.  Every corruption — bad zlib, a size off
        the head's counts, a gap width, symbols that do not ascend, a
        length outside 1..64 — is a ``ValueError``."""
        inflate = zlib.decompressobj()
        try:
            raw = inflate.decompress(book)
        except zlib.error as exc:
            raise ValueError(f"corrupt Huffman book: {exc}") from None
        if not inflate.eof or inflate.unused_data or len(raw) < _BOOK_HEAD.itemsize:
            raise ValueError("corrupt Huffman book: truncated or trailing bytes")
        first, count, esc_len, width = np.frombuffer(raw, _BOOK_HEAD, 1)[0].item()
        n_gaps = max(count - 1, 0)
        if width not in (1, 2, 4, 8) or len(raw) != _BOOK_HEAD.itemsize + count + width * n_gaps:
            raise ValueError("corrupt Huffman book: size disagrees with its head")
        lengths = np.frombuffer(raw, np.uint8, count, _BOOK_HEAD.itemsize)
        gaps = np.frombuffer(raw, f"<u{width}", n_gaps, _BOOK_HEAD.itemsize + count)
        # a wrap past int64's top lands below its predecessor: the ascending check refuses it
        symbols = np.concatenate(([np.int64(first).view(np.uint64)], gaps)).cumsum(dtype=np.uint64)
        code = cls(symbols[:count].view(np.int64), lengths, esc_len or None)
        code._book = bytes(book)
        return code

    def __reduce__(self):
        return _code_from_book, (self.book,)


# The deflate level of a packed book.  A book is rebuilt on every key step and
# every drift, so its deflate is per-step work: on the stream_huffman steps
# level 1 packs a 4 095-symbol book in a tenth of level 6's time for ~1/5 more
# book bytes — 0.05 % of the stream.
_BOOK_LEVEL = 1

# the fixed head of a packed book: first symbol, symbol count, ESCAPE
# length (0: none) and the byte width of the symbol gaps behind the lengths
_BOOK_HEAD = np.dtype([("first", "<i8"), ("count", "<u4"), ("esc_len", "u1"), ("width", "u1")])


@functools.lru_cache(maxsize=8)
def _code_from_book(book: bytes) -> HuffmanCode:
    """Unpickle hook of books: a pool worker rebuilds each distinct book
    once, however many jobs or stream steps reuse it."""
    return HuffmanCode.from_book(book)


# "auto" escape reservation kicks in at this alphabet size: one
# frequency-1 symbol among >= this many is rate noise (it displaces
# only the rarest real symbol by one bit), while for tiny alphabets it
# would visibly lengthen every code — there, rebuilding on the first
# genuinely new symbol is cheaper than carrying the escape
_RESERVE_ESCAPE_MIN_SYMS = 64

# A value range of at most this multiple of the segment length is counted
# (here) and mapped to book slots (``huffman_pack._dense_lut``) through
# dense tables over the range instead of a sort or a binary search: one
# store per range entry, which a saved O(n log m) pass repays only while
# the range stays within a few times n.  Fine classes span a few thousand
# bins; a coarse class of 8 symbols spread over millions keeps the sort.
_DENSE_SPAN_FACTOR = 4


def _histogram(values: np.ndarray):
    """``np.unique(values, return_counts=True)``, by ``bincount`` over a
    ``[min, max]`` of at most :data:`_DENSE_SPAN_FACTOR` times the values."""
    if values.size:
        lo, hi = int(values.min()), int(values.max())  # Python ints: no int64 wrap
        if hi - lo < _DENSE_SPAN_FACTOR * values.size:
            counts = np.bincount(values - lo)
            syms = np.flatnonzero(counts)
            return syms + lo, counts[syms]
    return np.unique(values, return_counts=True)


def _build_code(
    values: np.ndarray, max_table: int, reserve_escape: bool | str = False
) -> HuffmanCode:
    if max_table < 2:
        raise ValueError(f"max_table must be at least 2, got {max_table}")
    syms, counts = _histogram(values)
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
