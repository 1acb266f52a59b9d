"""The array-native Huffman stage against the heap/scalar oracle.

``tests/huffman_oracle.py`` builds books with the ``heapq`` tree of
``huffman_book._heap_lengths``, packs them field by field and codes per
element and per bit.  Production must give the same code lengths,
canonical codes and packed books from the C two-queue merge, the same
segment bytes and headers from its mapped/packed encode whichever symbol
mapping the C picks, and the same symbols from the decode under either
kernel backend — including a ``ValueError`` from both on every corrupt
segment.
"""

import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import huffman_oracle as O
import repro.compress.huffman as H
import repro.compress.huffman_book as B
import repro.compress.huffman_pack as P
import repro.compress.huffman_unpack as U
from repro.compress import lossless
from repro.compress.lossless import decode_classes, encode_classes
from repro.core import native

SYNC = P._SYNC_BLOCK


def _fib(n):
    out = [1, 1]
    while len(out) < n:
        out.append(out[-1] + out[-2])
    return out[:n]


# Fibonacci counts give the maximum-depth tree (n symbols -> codes up to
# n - 1 bits); every profile past 17 of them holds codes longer than the
# decoder's prefix table is wide
COUNT_PROFILES = {
    "one": [7],
    "two": [3, 3],
    "two-skewed": [1, 1000],
    "all-equal-3": [5] * 3,
    "all-equal-64": [5] * 64,
    "all-equal-100": [1] * 100,
    "powers-of-two": [1 << k for k in range(24)],
    "powers-of-two-doubled": [1 << (k // 2) for k in range(30)],
    "fibonacci-24": _fib(24),
    "fibonacci-40": _fib(40),
    "ties": [1, 1, 2, 2, 4, 4, 8, 8, 3, 3, 6, 6, 12, 12, 1, 1],
    "random": np.random.default_rng(5).integers(1, 50, 300).tolist(),
}


def _symbols_for(counts, rng):
    """Distinct ascending symbols, negatives included, gaps irregular."""
    return np.cumsum(rng.integers(1, 9, len(counts))) - 4 * len(counts)


def _data_for(counts, rng):
    vals = np.repeat(_symbols_for(counts, rng), counts).astype(np.int64)
    rng.shuffle(vals)
    return vals


def _assert_book_is(code: B.HuffmanCode, lengths: dict):
    """``code`` holds exactly the oracle book ``lengths`` (ESC included)."""
    assert code.book == O.book_bytes(lengths)
    codes = O.canonical_codes(lengths)
    assert code.codes.tolist() == [codes[s] for s in code.symbols.tolist()]
    assert code.esc_len == lengths.get(O.ESCAPE)
    assert code.esc_code == codes.get(O.ESCAPE)


def _raw_book(first, count, esc_len, width, lengths, gaps) -> bytes:
    """The unzipped bytes of a packed book, any field as given."""
    return (np.array((first, count, esc_len, width), dtype=B._BOOK_HEAD).tobytes()
            + bytes(lengths) + b"".join(g.to_bytes(width, "little") for g in gaps))


_CORRUPT_BOOKS = {  # unzipped book bytes, each off the format one way
    "zero-gap": _raw_book(1, 2, 0, 1, [2, 3], [0]),  # a duplicate symbol
    "oversubscribed": _raw_book(1, 3, 0, 1, [1, 1, 1], [1, 1]),
    "length-0": _raw_book(1, 1, 0, 1, [0], []),
    "length-65": _raw_book(1, 1, 0, 1, [65], []),
    "escape-65": _raw_book(1, 2, 65, 1, [1, 2], [1]),
    "int64-wrap": _raw_book(2**63 - 2, 3, 0, 1, [1, 2, 2], [1, 1]),
    "width-3": _raw_book(0, 2, 0, 3, [1, 1], [1]),
    "trailing-byte": _raw_book(0, 2, 0, 1, [1, 1], [1]) + b"\0",
    "gap-cut-short": _raw_book(0, 2, 0, 2, [1, 1], [1])[:-1],
    "no-entry": _raw_book(0, 0, 0, 1, [], []),
    "short-head": b"\0" * 13,
}


def _assert_same_book(a, b):
    for field in ("symbols", "lengths", "codes"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field), field)
    assert (a.esc_len, a.esc_code) == (b.esc_len, b.esc_code)


class TestBookBuilder:
    @pytest.mark.parametrize("esc_count", [0, 1, 5])
    @pytest.mark.parametrize("profile", COUNT_PROFILES)
    def test_two_queue_merge_equals_heap(self, rng, profile, esc_count):
        counts = COUNT_PROFILES[profile]
        symbols = _symbols_for(counts, rng)
        freqs = dict(zip(symbols.tolist(), counts))
        if esc_count:
            freqs[O.ESCAPE] = esc_count
        code = B.HuffmanCode.from_counts(symbols, counts, esc_count)
        _assert_book_is(code, O.lengths_of(freqs))

    def test_fibonacci_book_outgrows_the_decode_table(self):
        code = B.HuffmanCode.from_counts(np.arange(40), _fib(40))
        assert code.lengths.max() == 39 > U._LUT_BITS

    @pytest.mark.parametrize("reserve", [False, True, "auto"])
    @pytest.mark.parametrize("max_table", [2, 16, 4096])
    def test_build_code_equals_oracle_book(self, rng, max_table, reserve):
        """Full tables, the escape tail past ``max_table``, and reserved
        escapes (``auto`` flips at 64 symbols: 63 and 64 are both here)."""
        for profile in ("one", "two", "all-equal-64", "powers-of-two-doubled",
                        "fibonacci-24", "ties", "random"):
            vals = _data_for(COUNT_PROFILES[profile], rng)
            code = B.build_code(vals, max_table, reserve_escape=reserve)
            _assert_book_is(code, O.book_lengths(vals, max_table, reserve))
        vals = _data_for([2] * 63, rng)
        _assert_book_is(
            B.build_code(vals, max_table, reserve_escape=reserve),
            O.book_lengths(vals, max_table, reserve),
        )

    def test_book_round_trips_and_pickles_as_its_bytes(self, rng):
        code = B.build_code(_data_for(COUNT_PROFILES["random"], rng), 64, True)
        for back in (B.HuffmanCode.from_book(code.book), pickle.loads(pickle.dumps(code))):
            _assert_same_book(back, code)
            assert back.book == code.book
        assert pickle.loads(pickle.dumps(code)) is pickle.loads(pickle.dumps(code))  # one rebuild
        tables = U.decode_tables(code)
        assert pickle.loads(pickle.dumps(tables)) is U._tables_from_book(code.book)

    @pytest.mark.parametrize("case", list(_CORRUPT_BOOKS))
    def test_corrupt_books_rejected(self, case):
        with pytest.raises(ValueError, match="corrupt Huffman book"):
            B.HuffmanCode.from_book(zlib.compress(_CORRUPT_BOOKS[case]))

    def test_book_bytes_off_zlib_rejected(self, rng):
        book = B.build_code(rng.integers(-9, 9, 300)).book
        for bad in (book[:-1], book + b"\0", b"\x78" + bytes(len(book) - 1), b""):
            with pytest.raises(ValueError, match="corrupt Huffman book"):
                B.HuffmanCode.from_book(bad)

    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_histogram_is_np_unique_on_both_sides_of_the_dense_span(self, rng, n):
        """``bincount`` over ``[min, max]`` while that span is at most
        ``_DENSE_SPAN_FACTOR`` times the segment, the sort past it, and
        int64 extremes — where an int64 ``max - min`` would wrap."""
        span = B._DENSE_SPAN_FACTOR * n
        lo = int(rng.integers(-(2**40), 2**40))
        cases = [np.full(n, lo), [-(2**63)] * n, [2**63 - 1] * n,
                 [-(2**63), 2**63 - 1] * n, [0, -(2**63) + 1, 2**63 - 2]]
        for hi in (lo + span - 1, lo + span):  # span entries: dense; one more: sorted
            cases.append(np.append(rng.integers(lo, hi + 1, n - 1), [lo, hi][: n]))
        for vals in cases:
            vals = np.asarray(vals, dtype=np.int64)
            got, want = B._histogram(vals), np.unique(vals, return_counts=True)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)


_EXTREMES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]


@st.composite
def books(draw):
    """Code books as a stream would build them: one symbol up to 4096,
    negative and int64-extreme symbols, gaps of every width, with and
    without ESCAPE."""
    n = draw(st.sampled_from([1, 2, 3, 64, 4095, 4096]))
    kind = draw(st.sampled_from(["narrow", "wide", "extremes"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "narrow":
        syms = np.unique(rng.integers(-(n + 300), n + 300, n))
    elif kind == "wide":
        syms = np.unique(rng.integers(-(2**62), 2**62, n))
    else:
        syms = np.unique(np.append(rng.integers(-(2**63), 2**63 - 1, n, endpoint=True),
                                   _EXTREMES[: draw(st.integers(1, len(_EXTREMES)))]))[:n]
    counts = rng.integers(1, 1000, syms.size)
    return B.HuffmanCode.from_counts(syms, counts, draw(st.sampled_from([0, 1, 50])))


class TestBookBytes:
    @settings(max_examples=60, deadline=None)
    @given(books())
    def test_book_round_trips_byte_for_byte_against_the_oracle(self, code):
        lengths = dict(zip(code.symbols.tolist(), code.lengths.tolist()))
        if code.esc_len is not None:
            lengths[O.ESCAPE] = code.esc_len
        assert code.book == O.book_bytes(lengths)
        assert O.lengths_from_book(code.book) == lengths
        back = B.HuffmanCode.from_book(code.book)
        _assert_same_book(back, code)
        assert back.book == code.book


class TestSymbolMapping:
    def _book(self):
        # three symbols spanning 4000: dense iff the segment has > 1000 values
        return B.HuffmanCode.from_counts([0, 5, 4000], [5, 3, 1], esc_count=1)

    @pytest.mark.parametrize("n, dense", [(1000, False), (1001, True)])
    def test_dense_table_boundary(self, rng, n, dense):
        assert B._DENSE_SPAN_FACTOR == 4
        code = self._book()
        vals = rng.choice([0, 5, 4000, -1, 3, 4001, 2**62, -(2**63)], n).astype(np.int64)
        assert (P._dense_lut(code, n) is not None) == dense
        index = {0: 0, 5: 1, 4000: 2}
        want = [index.get(v, 3) for v in vals.tolist()]
        for backend in ("reference", "native") if native.available() else ("reference",):
            with native.forced(backend):
                slots, hist = P._map_slots(vals, code)
            assert slots.tolist() == want
            assert hist.tolist() == np.bincount(want, minlength=4).tolist()

    def test_mapping_choice_never_shows_in_the_bytes(self, rng):
        vals = rng.choice([0, 5, 4000, 7, -9], 3000).astype(np.int64)
        dense, sparse = self._book(), self._book()
        sparse_out = H.huffman_encode(vals[:1000], code=sparse)
        dense_out = H.huffman_encode(vals, code=dense)
        assert sparse._lut is None
        assert (dense._lut is not None) == native.active()  # only the C mapping builds it
        # the cached table now serves a segment that would not have built it
        assert H.huffman_encode(vals[:1000], code=dense) == sparse_out
        lengths, got_sync, got_payload = O.split_segment(*dense_out)
        payload, bits, sync = O.encode_with_book(vals, lengths)
        assert (got_payload, dense_out[1]["bits"], got_sync) == (payload, bits, sync)

    def test_guard_decided_from_the_mapping_pass(self, rng, monkeypatch):
        """Accept/reject equals the packed size, and rejecting packs nothing."""
        code = self._book()
        vals = rng.choice([0, 5, 4000, 7], 2000, p=[0.6, 0.2, 0.1, 0.1]).astype(np.int64)
        _, header = H.huffman_encode(vals, code=code)
        # every 7 escapes: its ESCAPE code and 64 raw bits
        in_book = vals != 7
        coded = code.lengths[np.searchsorted(code.symbols, vals[in_book])].sum()
        assert header["bits"] == coded + (~in_book).sum() * (code.esc_len + 64)
        bps = header["bits"] / vals.size
        assert H.huffman_encode(vals, code=code, guard={"max_bits_per_symbol": bps})[0]
        monkeypatch.setattr(H, "_pack_slots", lambda *a: pytest.fail("packed"))
        tight = {"max_bits_per_symbol": bps - 1e-6}
        assert H.huffman_encode(vals, code=code, guard=tight) == (None, None)
        bare = B.HuffmanCode.from_counts([0, 5, 4000], [5, 3, 1])
        assert H.huffman_encode(vals, code=bare, guard={"max_bits_per_symbol": 99}) == (
            None,
            None,
        )
        # unguarded, a new symbol and no escape for it is an error
        with pytest.raises(ValueError, match="escape"):
            H.huffman_encode(vals, code=bare)


@pytest.fixture(params=["reference", "native"])
def decode(request):
    """``huffman_decode`` under one kernel backend: the NumPy lockstep body
    (``reference``) or the C walk it hands its blocks to (``native``)."""
    if request.param == "native" and not native.available():
        pytest.skip("no C compiler on this host")

    def run(payload, header, **kw):
        with native.forced(request.param):
            return H.huffman_decode(payload, header, **kw)

    return run


class TestDecodeBackends:
    @pytest.mark.parametrize("max_table", [4096, 16, 2])
    @pytest.mark.parametrize(
        "profile",
        ["one", "two", "all-equal-64", "powers-of-two-doubled", "fibonacci-24", "random"],
    )
    def test_both_backends_equal_scalar(self, rng, decode, profile, max_table):
        vals = _data_for(COUNT_PROFILES[profile], rng)[: 6 * SYNC + 77]
        if vals.size < SYNC:  # reach the sync-carrying header form
            vals = np.resize(vals, 2 * SYNC + 5)
        payload, header = H.huffman_encode(vals, max_table=max_table)
        assert (payload, header) == O.huffman_encode_scalar(vals, max_table)
        np.testing.assert_array_equal(decode(payload, header), vals)
        np.testing.assert_array_equal(O.huffman_decode_scalar(payload, header), vals)

    @pytest.mark.parametrize("max_table", [4096, 16])
    @pytest.mark.parametrize("n", [1, 2, SYNC - 1, SYNC, SYNC + 1, 2 * SYNC, 2 * SYNC + 1, 3000])
    def test_sync_block_boundaries(self, rng, decode, n, max_table):
        """``ceil(n / SYNC) - 1`` sync offsets follow the book; a segment
        with one word of them cut out is refused."""
        vals = rng.integers(-40, 40, n).astype(np.int64)
        payload, header = H.huffman_encode(vals, max_table=max_table)
        assert (payload, header) == O.huffman_encode_scalar(vals, max_table)
        assert len(O.split_segment(payload, header)[1]) == -(-n // SYNC) - 1
        np.testing.assert_array_equal(decode(payload, header), vals)
        if n > SYNC:
            book = header["book"]
            with pytest.raises(ValueError, match="truncated"):
                decode(payload[:book] + payload[book + 8 :], header)

    def test_codes_longer_than_the_prefix_table(self, rng, decode):
        """Uniform draws over a 40-symbol Fibonacci book: most symbols
        miss the 16-bit table and classify through the first-code search."""
        code = B.HuffmanCode.from_counts(np.arange(40) * 3, _fib(40), esc_count=1)
        vals = rng.choice(np.arange(41) * 3, 3 * SYNC + 200).astype(np.int64)  # 120: escaped
        payload, header = H.huffman_encode(vals, code=code)
        lengths, _, bitstream = O.split_segment(payload, header)
        assert max(lengths.values()) > U._LUT_BITS
        assert bitstream == O.encode_with_book(vals, lengths)[0]
        np.testing.assert_array_equal(decode(payload, header), vals)
        np.testing.assert_array_equal(O.huffman_decode_scalar(payload, header), vals)

    def test_escapes_on_sync_boundaries_and_in_the_last_partial_block(self, rng, decode):
        code = B.build_code(rng.integers(-3, 4, 500), reserve_escape=True)
        vals = rng.integers(-3, 4, 2 * SYNC + 100).astype(np.int64)
        aliens = [2**63 - 1, -(2**63), 99, -99, 2**40, -1 - 2**40, 12345, 7]
        at = [SYNC - 1, SYNC, 2 * SYNC - 1, 2 * SYNC, 2 * SYNC + 1, vals.size - 2,
              vals.size - 1, 0]
        vals[at] = aliens
        payload, header = H.huffman_encode(vals, code=code)
        lengths, sync, bitstream = O.split_segment(payload, header)
        assert (bitstream, header["bits"], sync) == O.encode_with_book(vals, lengths)
        np.testing.assert_array_equal(decode(payload, header), vals)
        np.testing.assert_array_equal(O.huffman_decode_scalar(payload, header), vals)

    def test_escape_resident_in_the_prefix_table_and_not(self, rng, decode):
        """ESCAPE shorter than the table width is served by the table
        (length entry above 64); a longer one by the first-code search."""
        for counts, esc in (([4, 4], 8), (_fib(32)[2:], 1)):
            code = B.HuffmanCode.from_counts(np.arange(len(counts)), counts, esc)
            assert (code.esc_len <= U._LUT_BITS) == (esc == 8)
            vals = rng.integers(-2, len(counts), 3 * SYNC + 9).astype(np.int64)
            payload, header = H.huffman_encode(vals, code=code)
            np.testing.assert_array_equal(decode(payload, header), vals)


_NON_INTEGER = {  # header edits a truncating parse (``int()``, an int64 cast) accepts
    "bits-half": lambda h: {"bits": h["bits"] + 0.5},
    "bits-float": lambda h: {"bits": float(h["bits"])},
    "n-float": lambda h: {"n": float(h["n"])},
    "book-float": lambda h: {"book": float(h["book"])},
    "n-bool": lambda h: {"n": True},
    "bits-bool": lambda h: {"bits": True},
}


def _with_sync(segment: bytes, header: dict, sync) -> bytes:
    """``segment`` with its sync offsets replaced by ``sync`` (u64 each)."""
    _, old, _ = O.split_segment(segment, header)
    book = header["book"]
    words = np.array(sync, dtype=np.uint64).astype("<u8").tobytes()
    return segment[:book] + words + segment[book + 8 * len(old) :]


class TestCorruptPayloads:
    """Every corruption raises ``ValueError`` under both kernel backends."""

    def _encoded(self, rng):
        vals = rng.integers(-5, 5, 3 * SYNC + 40).astype(np.int64)
        return vals, *H.huffman_encode(vals)

    def test_truncated_payload(self, rng, decode):
        _, payload, header = self._encoded(rng)
        with pytest.raises(ValueError, match="truncated"):
            decode(payload[: len(payload) // 2], header)

    def test_bit_count_past_the_stream(self, rng, decode):
        vals, payload, header = self._encoded(rng)
        with pytest.raises(ValueError):
            decode(payload + bytes(8), {**header, "bits": header["bits"] + 24})
        with pytest.raises(ValueError):
            decode(payload, {**header, "bits": header["bits"] - 9})

    def test_shifted_sync_offsets(self, rng, decode):
        _, payload, header = self._encoded(rng)
        sync = O.split_segment(payload, header)[1]
        for bad in ([o + 1 for o in sync], sync[::-1], [header["bits"] + 1] * 3,
                    [2**64 - 1, 5, 9], [2**63, 2**63 + 1, 2**63 + 2]):
            with pytest.raises(ValueError):
                decode(_with_sync(payload, header, bad), header)

    def test_wrong_symbol_count(self, rng, decode):
        _, payload, header = self._encoded(rng)
        for n in (header["n"] - 1, header["n"] + 1):
            with pytest.raises(ValueError):
                decode(payload, {**header, "n": n})

    def test_no_codeword_matches(self, rng, decode):
        # an incomplete code: 0, 10 — every window starting 11 matches nothing
        code = B.HuffmanCode([0, 1], [1, 2])
        vals = rng.integers(0, 2, 3 * SYNC).astype(np.int64)
        payload, header = H.huffman_encode(vals, code=code)
        _, sync, bitstream = O.split_segment(payload, header)
        head = payload[: len(payload) - len(bitstream)]
        start = sync[1] // 8 + 1
        bad = bitstream[:start] + b"\xff\xff" + bitstream[start + 2 :]
        with pytest.raises(ValueError, match="no codeword matches|sync mismatch"):
            decode(head + bad, header)
        with pytest.raises(ValueError, match="no codeword matches"):
            decode(head + b"\xff" * len(bitstream), header)

    def test_escape_raw_bits_cut_off(self, rng, decode):
        code = B.build_code(np.arange(8), reserve_escape=True)
        vals = np.resize(np.arange(8), 2 * SYNC + 3).astype(np.int64)
        vals[-1] = 10**12
        payload, header = H.huffman_encode(vals, code=code)
        cut = {**header, "bits": header["bits"] - 30}
        bitstream = O.split_segment(payload, header)[2]
        segment = payload[: len(payload) - len(bitstream) + (cut["bits"] + 7) // 8]
        with pytest.raises(ValueError, match="truncated"):
            decode(segment, cut)

    def test_segment_off_its_size(self, rng, decode):
        _, payload, header = self._encoded(rng)
        with pytest.raises(ValueError, match="corrupt Huffman segment"):
            decode(payload + b"\0", header)
        with pytest.raises(ValueError, match="corrupt Huffman segment"):
            decode(payload, {**header, "n": 0})
        with pytest.raises(ValueError, match="ships no code book"):
            decode(payload[header["book"] :], {**header, "book": 0})

    @pytest.mark.parametrize("n", [SYNC + 1, 2 * SYNC + 1, 3000])
    @pytest.mark.parametrize("edit", ["drop-first", "drop-last", "repeat-last", "append-end"])
    def test_sync_count_off_by_one(self, rng, decode, n, edit):
        """Offsets that all lie inside the stream, one too few or one too
        many for ``n``: the segment is off its size, never decoded."""
        vals = rng.integers(-5, 5, n).astype(np.int64)
        payload, header = H.huffman_encode(vals)
        book, (_, sync, bitstream) = header["book"], O.split_segment(payload, header)
        bad = {"drop-first": sync[1:], "drop-last": sync[:-1],
               "repeat-last": [*sync, sync[-1]], "append-end": [*sync, header["bits"]]}[edit]
        words = np.array(bad, dtype="<u8").tobytes()
        with pytest.raises(ValueError, match="truncated|corrupt Huffman segment"):
            decode(payload[:book] + words + bitstream, header)

    @pytest.mark.parametrize("field", list(_NON_INTEGER))
    def test_non_integer_header_fields(self, rng, decode, field):
        """A float or bool is no count, though truncating it would decode."""
        if field.endswith("-bool"):
            payload, header = H.huffman_encode(np.array([7]))  # n == bits == 1 == True
        else:
            _, payload, header = self._encoded(rng)
        with pytest.raises(ValueError, match="corrupt Huffman header"):
            decode(payload, {**header, **_NON_INTEGER[field](header)})


def _segment(payload, sh):
    return payload[sh["offset"] : sh["offset"] + sh["nbytes"]]


class TestEncodeClassesAgainstOracle:
    def test_without_scratch_every_segment_is_the_scalar_encode(self, rng):
        sizes = [9, 100, 0, 1, 700, 3000]
        bins = np.concatenate(
            [rng.integers(-(3 + 40 * i), 4 + 40 * i, s) for i, s in enumerate(sizes)]
        ).astype(np.int64)
        payload, header = encode_classes(bins, sizes, backend="huffman")
        bounds = np.cumsum([0] + sizes)
        for i, sh in enumerate(header["segments"]):
            ref_payload, ref_header = O.huffman_encode_scalar(bins[bounds[i] : bounds[i + 1]])
            assert _segment(payload, sh) == ref_payload, i
            assert sh == {"offset": sh["offset"], "nbytes": len(ref_payload), **ref_header}, i

    def test_scratch_chain_ships_the_oracle_books(self, rng, monkeypatch):
        """Five steps: build, reuse, drift rebuild, reuse, refresh.

        Every rebuilt book is the heap oracle's for that segment
        (``max_table`` 4096, automatic escape), shipped in full under a new
        ``table_id``; every bitstream is the scalar encode with the book
        its header resolves to; and the packed book is built once per
        book — never on a reuse.
        """
        sizes = [40, 6000]
        base = [rng.integers(-2, 3, sizes[0]), rng.integers(-60, 61, sizes[1])]
        drifted = [base[0], rng.integers(-45, 76, sizes[1])]
        steps = []
        for t, src in enumerate((base, base, drifted, drifted, drifted)):
            step = np.concatenate(src).astype(np.int64)
            step[rng.integers(0, step.size, 3)] += t  # a few moved symbols
            steps.append(step)
        steps[1][sizes[0] + 5] = 10**9  # absorbed by the reserved escape

        built = []
        real_book = B.HuffmanCode.book.fget
        monkeypatch.setattr(
            B.HuffmanCode, "book", property(lambda c: (built.append(c), real_book(c))[1])
        )

        scratch: dict = {}
        books: dict = {}
        forms = []
        bounds = np.cumsum([0] + sizes)
        for t, step in enumerate(steps):
            n_before = len({id(c) for c in built})
            payload, header = encode_classes(
                step, sizes, backend="huffman", scratch=scratch, refresh=(t == 4)
            )
            rebuilt = 0
            for i, sh in enumerate(header["segments"]):
                seg = step[bounds[i] : bounds[i + 1]]
                segment = _segment(payload, sh)
                if sh["book"]:
                    assert "table_ref" not in sh
                    lengths = O.lengths_from_book(segment[: sh["book"]])
                    assert lengths == O.book_lengths(seg, 4096, "auto"), (t, i)
                    books[i, sh["table_id"]] = lengths
                    rebuilt += 1
                    forms.append("full")
                else:
                    assert "table_id" not in sh
                    lengths = books[i, sh["table_ref"]]
                    forms.append("ref")
                ref_payload, bits, sync = O.encode_with_book(seg, lengths)
                words = b"".join(o.to_bytes(8, "little") for o in sync)
                assert segment == segment[: sh["book"]] + words + ref_payload, (t, i)
                assert (sh["n"], sh["bits"]) == (seg.size, bits)
            assert len({id(c) for c in built}) - n_before == rebuilt, t
        assert forms == ["full", "full", "ref", "ref", "ref", "full", "ref", "ref",
                         "full", "full"]

        # the same chain decodes, in order, from a fresh decode-side scratch
        enc, dec = {}, {}
        for t, step in enumerate(steps):
            payload, header = encode_classes(
                step, sizes, backend="huffman", scratch=enc, refresh=(t == 4)
            )
            flat, _ = decode_classes(payload, header, scratch=dec)
            np.testing.assert_array_equal(flat, step)

    def test_drift_rebuild_ships_the_full_book(self, rng):
        sizes = [5000]
        scratch: dict = {}
        a = rng.integers(-50, 51, sizes[0]).astype(np.int64)
        b = rng.integers(10**6, 10**6 + 101, sizes[0]).astype(np.int64)  # disjoint alphabet
        encode_classes(a, sizes, backend="huffman", scratch=scratch)
        payload, header = encode_classes(b, sizes, backend="huffman", scratch=scratch)
        sh = header["segments"][0]
        assert set(sh) == {"offset", "nbytes", "n", "bits", "book", "table_id"}
        assert sh["table_id"] == 1
        assert lossless._books(scratch)["default", 0]["code"].book == payload[: sh["book"]]
