"""Dict-held, per-bit canonical Huffman oracle for ``repro.compress.huffman``.

The production coder holds a code book as arrays; this module is what
it must agree with, written the slow obvious way: code lengths from
``huffman_book._heap_lengths`` (the ``heapq`` tree over ``(count, id)``
that is also the ``reference`` backend's body, leaf ids in symbol order,
ESCAPE last), canonical codes assigned by a sort, per-element / per-bit
encode and decode loops, and the packed book spelled out field by field
with ``int.to_bytes``.  Test-only: production is compared against it
byte for byte (segments, headers) and symbol for symbol (decodes).
"""

import zlib

import numpy as np

from repro.compress.huffman_book import _RESERVE_ESCAPE_MIN_SYMS, _heap_lengths
from repro.compress.huffman_pack import _SYNC_BLOCK

ESCAPE = "ESC"  # the lengths-dict key of the escape entry; never an int symbol


def lengths_of(freqs: dict) -> dict:
    """Code length per symbol of ``freqs`` (insertion-ordered) by the heap."""
    return dict(zip(freqs, _heap_lengths(np.array(list(freqs.values()), dtype=np.int64)).tolist()))


def canonical_codes(lengths: dict) -> dict:
    """Canonical code per symbol: (length, symbol) order, ESCAPE last."""
    def keyfn(item):
        sym, ln = item
        return (ln, 1, 0) if sym == ESCAPE else (ln, 0, sym)

    code = prev = 0
    codes = {}
    for sym, ln in sorted(lengths.items(), key=keyfn):
        code <<= ln - prev
        codes[sym] = code
        code += 1
        prev = ln
    return codes


def book_lengths(values, max_table: int = 4096, reserve_escape=False) -> dict:
    """The book ``build_code`` must produce for ``values``, as lengths."""
    values = np.asarray(values, dtype=np.int64).ravel()
    syms, counts = np.unique(values, return_counts=True)
    if reserve_escape == "auto":
        reserve_escape = syms.size >= _RESERVE_ESCAPE_MIN_SYMS
    if syms.size == 0:
        return {0: 1}
    if syms.size <= max_table - (1 if reserve_escape else 0):
        freqs = {int(s): int(c) for s, c in zip(syms, counts)}
        if reserve_escape:
            freqs[ESCAPE] = 1
        return lengths_of(freqs)
    # keep the max_table - 1 most frequent symbols (ties: smaller first)
    ranked = sorted(range(syms.size), key=lambda i: (-int(counts[i]), i))
    keep = sorted(ranked[: max_table - 1])
    freqs = {int(syms[i]): int(counts[i]) for i in keep}
    freqs[ESCAPE] = int(counts.sum()) - sum(freqs.values())
    return lengths_of(freqs)


def book_bytes(lengths: dict) -> bytes:
    """The packed book of a lengths dict: first symbol (i64), symbol count
    (u32), ESCAPE length (u8, 0: none), gap width (u8), the lengths (u8
    each) and the gaps between ascending symbols at the narrowest of 1, 2,
    4 or 8 bytes — all little-endian, deflated at level 1."""
    syms = sorted(s for s in lengths if s != ESCAPE)
    gaps = [b - a for a, b in zip(syms, syms[1:])]
    width = next(w for w in (1, 2, 4, 8) if all(g < 1 << 8 * w for g in gaps))
    raw = ((syms[0] if syms else 0).to_bytes(8, "little", signed=True)
           + len(syms).to_bytes(4, "little") + bytes([lengths.get(ESCAPE, 0), width])
           + bytes(lengths[s] for s in syms) + b"".join(g.to_bytes(width, "little") for g in gaps))
    return zlib.compress(raw, 1)


def lengths_from_book(book: bytes) -> dict:
    """Inverse of :func:`book_bytes` (symbols ascending, ESC last)."""
    raw = zlib.decompress(book)
    first = int.from_bytes(raw[:8], "little", signed=True)
    count, esc, width = int.from_bytes(raw[8:12], "little"), raw[12], raw[13]
    lens = raw[14 : 14 + count]
    gaps = raw[14 + count :]
    syms = [first]
    for k in range(count - 1):
        syms.append(syms[-1] + int.from_bytes(gaps[k * width : (k + 1) * width], "little"))
    lengths = dict(zip(syms[:count], lens))
    if esc:
        lengths[ESCAPE] = esc
    return lengths


def encode_with_book(values, lengths: dict):
    """Per-element, per-bit encode; returns ``(payload, bits, sync)``."""
    codes = canonical_codes(lengths)
    bits: list[int] = []
    sync: list[int] = []

    def emit(val: int, ln: int) -> None:
        bits.extend((val >> shift) & 1 for shift in range(ln - 1, -1, -1))

    for i, v in enumerate(np.asarray(values, dtype=np.int64).ravel().tolist()):
        if i and i % _SYNC_BLOCK == 0:
            sync.append(len(bits))
        if v in codes:
            emit(codes[v], lengths[v])
        else:
            assert ESCAPE in codes, "value outside table but no escape code"
            emit(codes[ESCAPE], lengths[ESCAPE])
            emit(v & ((1 << 64) - 1), 64)
    payload = np.packbits(np.array(bits, dtype=np.uint8)).tobytes()
    return payload, len(bits), sync


def huffman_encode_scalar(values, max_table: int = 4096):
    """Reference for ``huffman_encode(values, max_table)``: (segment, header)."""
    values = np.asarray(values, dtype=np.int64).ravel()
    if values.size == 0:
        return b"", {"n": 0, "bits": 0, "book": 0}
    lengths = book_lengths(values, max_table)
    payload, bits, sync = encode_with_book(values, lengths)
    book = book_bytes(lengths)
    segment = book + b"".join(o.to_bytes(8, "little") for o in sync) + payload
    return segment, {"n": int(values.size), "bits": bits, "book": len(book)}


def split_segment(segment: bytes, header: dict):
    """``(lengths, sync, bitstream)`` of a segment that ships its book."""
    book, n = header["book"], header["n"]
    n_sync = max(-(-n // _SYNC_BLOCK) - 1, 0)
    sync_bytes = segment[book : book + 8 * n_sync]
    sync = [int.from_bytes(sync_bytes[k : k + 8], "little") for k in range(0, len(sync_bytes), 8)]
    return lengths_from_book(segment[:book]), sync, segment[book + 8 * n_sync :]


def huffman_decode_scalar(segment: bytes, header: dict) -> np.ndarray:
    """Per-bit reference decoder (ignores the sync offsets)."""
    n = int(header["n"])
    if n == 0:
        return np.empty(0, dtype=np.int64)
    lengths, _, payload = split_segment(segment, header)
    by_code = {(lengths[s], c): s for s, c in canonical_codes(lengths).items()}
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))[: header["bits"]].tolist()
    max_len = max(lengths.values())
    out = np.empty(n, dtype=np.int64)
    pos = 0
    for i in range(n):
        acc = acc_len = 0
        while (acc_len, acc) not in by_code:
            if pos >= len(bits):
                raise ValueError("truncated Huffman payload")
            if acc_len >= max_len:
                raise ValueError("corrupt Huffman payload: no codeword matches")
            acc = (acc << 1) | bits[pos]
            acc_len += 1
            pos += 1
        sym = by_code[(acc_len, acc)]
        if sym == ESCAPE:
            if pos + 64 > len(bits):
                raise ValueError("truncated Huffman payload")
            raw = int("".join(map(str, bits[pos : pos + 64])), 2)
            pos += 64
            sym = raw - (1 << 64) if raw >= 1 << 63 else raw
        out[i] = sym
    return out
