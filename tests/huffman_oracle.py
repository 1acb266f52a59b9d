"""Dict-held, per-bit canonical Huffman oracle for ``repro.compress.huffman``.

The production coder holds a code book as arrays; this module is what
it must agree with, written the slow obvious way: code lengths from
``huffman_book._heap_lengths`` (the ``heapq`` tree over ``(count, id)``
that is also the ``reference`` backend's body, leaf ids in symbol order,
ESCAPE last), canonical codes assigned by a sort, per-element / per-bit
encode and decode loops, and the code-book delta as two dicts weighed by
``json.dumps``.  Test-only: production is compared against it byte for
byte (payloads, headers) and symbol for symbol (decodes).
"""

import json

import numpy as np

from repro.compress.huffman_book import _RESERVE_ESCAPE_MIN_SYMS, _heap_lengths
from repro.compress.huffman_pack import _SYNC_BLOCK

ESCAPE = "ESC"  # the header-form name of the escape entry; never an int symbol


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


def header_table(lengths: dict) -> list:
    """Header-form table of a lengths dict (symbols ascending, ESC last)."""
    return [[s, ln] for s, ln in lengths.items()]


def lengths_from_table(table: list) -> dict:
    """Inverse of :func:`header_table`."""
    return {(ESCAPE if s == ESCAPE else int(s)): int(ln) for s, ln in table}


def table_delta(ref_table: list, new_table: list) -> dict:
    """The edit script from one table to another, by dicts: ``set`` in the
    new table's order, ``drop`` in the reference's."""
    ref, new = lengths_from_table(ref_table), lengths_from_table(new_table)
    return {
        "set": [[s, ln] for s, ln in new.items() if ref.get(s) != ln],
        "drop": [s for s in ref if s not in new],
    }


def rebuild_form(ref_table: list, new_table: list) -> dict:
    """What a drift rebuild ships: ``{"table_delta": ...}`` when the delta's
    JSON is shorter than the new table's, else ``{"table": new_table}``."""
    delta = table_delta(ref_table, new_table)
    if len(json.dumps(delta)) < len(json.dumps(new_table)):
        return {"table_delta": delta}
    return {"table": new_table}


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
    """Reference for ``huffman_encode(values, max_table)``: (payload, header)."""
    values = np.asarray(values, dtype=np.int64).ravel()
    if values.size == 0:
        return b"", {"n": 0, "bits": 0, "table": []}
    lengths = book_lengths(values, max_table)
    payload, bits, sync = encode_with_book(values, lengths)
    header = {"n": int(values.size), "bits": bits, "table": header_table(lengths)}
    if sync:
        header["sync"] = sync
    return payload, header


def huffman_decode_scalar(payload: bytes, header: dict) -> np.ndarray:
    """Per-bit reference decoder (ignores ``sync``)."""
    n = int(header["n"])
    if n == 0:
        return np.empty(0, dtype=np.int64)
    lengths = lengths_from_table(header["table"])
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
