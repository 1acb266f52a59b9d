"""The canonical Huffman code book: construction, header form, deltas.

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
:func:`table_delta` / :func:`apply_table_delta` express one book as a
compact edit script against another so reused books cost almost no
header bytes; :func:`_delta` weighs it against the full table on the
books' arrays.

The dict-built delta the builder must agree with lives in
``tests/huffman_oracle.py``.
"""

from __future__ import annotations

import functools
import heapq
import json

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
    def table(self) -> list:
        """Header-form ``[symbol, length]`` table, ``["ESC", length]``
        last; built once per book and shared by every header that ships
        it, so treat it as read-only."""
        if self._table is None:
            table = np.stack([self.symbols, self.lengths], axis=1).tolist()
            if self.esc_len is not None:
                table.append(["ESC", self.esc_len])
            self._table = table
        return self._table

    @property
    def table_json(self) -> str:
        """JSON of :attr:`table`, serialized once per book: the form a
        book (and its decode tables) is pickled in."""
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


# ----------------------------------------------------------------------
# code-book (de)serialization and cross-step deltas


def table_from_code(code: HuffmanCode) -> list:
    """The header-form symbol/length table of a code book."""
    return code.table


def code_from_table(table: list) -> HuffmanCode:
    """Rebuild the canonical code book from a header-form table."""
    try:
        esc_len, body = None, table
        if len(table) and table[-1][0] == "ESC":  # where the emitter puts it
            esc_len, body = int(table[-1][1]), table[:-1]
        try:
            pairs = np.array(body, dtype=np.int64).reshape(-1, 2)
        except ValueError:
            # a foreign table: ESC anywhere, any number of times, the last counts
            esc = [e for e in table if e[0] == "ESC"]
            if not esc:
                raise
            esc_len = int(esc[-1][1])
            pairs = np.array([e for e in table if e[0] != "ESC"], dtype=np.int64).reshape(-1, 2)
    except (TypeError, ValueError, OverflowError, IndexError) as exc:
        raise ValueError(f"corrupt Huffman header: bad code table ({exc})") from None
    order = np.argsort(pairs[:, 0], kind="stable")
    return HuffmanCode(pairs[order, 0], pairs[order, 1], esc_len)


@functools.lru_cache(maxsize=8)
def _code_from_json(table_json: str) -> HuffmanCode:
    """Unpickle hook of books: a pool worker rebuilds each distinct book
    once, however many jobs or stream steps reuse it."""
    return code_from_table(json.loads(table_json))


def _table_dict(table: list) -> dict:
    return {("ESC" if s == "ESC" else int(s)): int(ln) for s, ln in table}


def table_delta(ref_table: list, new_table: list) -> dict:
    """Edit script turning ``ref_table`` into ``new_table``.

    Returns ``{"set": [[sym, len], ...], "drop": [sym, ...]}`` — only
    the symbols whose code length changed, appeared, or vanished, in
    table order (ascending, ``"ESC"`` last).  For slowly-varying streams
    this is a small fraction of the full table, so rebuilt books cost
    few header bytes when expressed as deltas.
    """
    return _delta(code_from_table(ref_table), code_from_table(new_table))


_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)


def _json_len(x: np.ndarray) -> np.ndarray:
    """``len(json.dumps(int(v)))`` of every int64 ``v``: digits and sign."""
    neg = x < 0
    magnitude = np.where(neg, ~x, x).astype(np.uint64) + neg  # ~v = -v - 1: no overflow
    return np.searchsorted(_POW10, magnitude, side="right") + 1 + neg


def _list_len(item_chars: np.ndarray, tail: list) -> int:
    """``len(json.dumps(items + tail))``, ``item_chars`` the items' lengths."""
    return int(item_chars.sum()) + sum(len(json.dumps(t)) for t in tail) + 2 * max(
        item_chars.size + len(tail), 1)


def _delta(ref: HuffmanCode, new: HuffmanCode, only_if_smaller: bool = False) -> dict | None:
    """:func:`table_delta` from one ``searchsorted`` of the sorted symbol
    arrays — ``set`` rows of ``new.table``, ``drop`` symbols of ``ref``.
    With ``only_if_smaller``, ``None`` unless its JSON is shorter than the
    table's: both lengths counted from the arrays (``[sym, len]`` is the
    two integers plus four characters), the lists built only if it wins."""
    pos = np.searchsorted(ref.symbols, new.symbols)
    found = pos < ref.symbols.size
    found[found] = ref.symbols[pos[found]] == new.symbols[found]
    set_ = ~found  # absent from ref, or coded at another length
    set_[found] = ref.lengths[pos[found]] != new.lengths[found]
    drop = np.ones(ref.symbols.size, dtype=bool)
    drop[pos[found]] = False
    set_esc = [["ESC", new.esc_len]] if new.esc_len not in (None, ref.esc_len) else []
    drop_esc = ["ESC"] if new.esc_len is None and ref.esc_len is not None else []
    if only_if_smaller:
        item = _json_len(new.symbols) + _json_len(new.lengths) + 4
        full = _list_len(item, [] if new.esc_len is None else [["ESC", new.esc_len]])
        if full <= (len('{"set": , "drop": }') + _list_len(item[set_], set_esc)
                    + _list_len(_json_len(ref.symbols[drop]), drop_esc)):
            return None
    rows = new.table
    return {"set": [rows[i] for i in np.flatnonzero(set_).tolist()] + set_esc,
            "drop": ref.symbols[drop].tolist() + drop_esc}


def apply_table_delta(ref_table: list, delta: dict) -> list:
    """Invert :func:`table_delta`: apply an edit script to a base table."""
    d = _table_dict(ref_table)
    for s in delta.get("drop", ()):
        d.pop("ESC" if s == "ESC" else int(s), None)
    for s, ln in delta.get("set", ()):
        d[("ESC" if s == "ESC" else int(s))] = int(ln)
    return [[s, ln] for s, ln in d.items()]
