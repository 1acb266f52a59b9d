"""The array-native Huffman stage against the heap/scalar oracle.

``tests/huffman_oracle.py`` builds books with the ``heapq`` tree of
``huffman_book._heap_lengths`` and codes per element and per bit.
Production must give the same code lengths and canonical codes from the
C two-queue merge, the same payload bytes and headers from its
mapped/packed encode whichever symbol mapping the C picks, and the same
symbols from the decode under either kernel backend — including a
``ValueError`` from both on every corrupt payload.
"""

import json

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
    assert B.table_from_code(code) == O.header_table(lengths)
    codes = O.canonical_codes(lengths)
    assert code.codes.tolist() == [codes[s] for s in code.symbols.tolist()]
    assert code.esc_len == lengths.get(O.ESCAPE)
    assert code.esc_code == codes.get(O.ESCAPE)


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

    def test_table_round_trips_in_any_order(self, rng):
        code = B.build_code(_data_for(COUNT_PROFILES["random"], rng), 64, True)
        table = B.table_from_code(code)
        back = B.code_from_table([table[i] for i in rng.permutation(len(table))])
        assert B.table_from_code(back) == table
        np.testing.assert_array_equal(back.codes, code.codes)
        assert back.esc_code == code.esc_code

    @pytest.mark.parametrize(
        "table",
        [
            [[1, 2], [1, 3]],  # duplicate symbol
            [[1, 1], [2, 1], [3, 1]],  # oversubscribed
            [[1, 0]],
            [[1, 65]],
            [[1, "x"]],
            [["ESC", 1], [0, 1], [1, 1]],
        ],
    )
    def test_corrupt_tables_rejected(self, table):
        with pytest.raises(ValueError, match="corrupt Huffman header"):
            B.code_from_table(table)

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


_DIGITS = [0, 9, 10, 99, 100, -1, -9, -10, -99, -100, 2**63 - 1, -(2**63), 10**18, -(10**18)]


@st.composite
def book_pairs(draw):
    """A reference book and the book of a rebuild: the same data, a drift of
    it, or a disjoint alphabet; with and without ESCAPE, truncated tables,
    symbols at every decimal width including the int64 extremes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 400))
    kind = draw(st.sampled_from(["narrow", "wide", "digits"]))
    if kind == "narrow":
        vals = rng.integers(-30, 30, n)
    elif kind == "wide":
        vals = rng.integers(-(10**12), 10**12, n)
    else:
        vals = rng.choice(_DIGITS, n)
    change = draw(st.sampled_from(["same", "drift", "disjoint"]))
    new_vals = vals.copy()
    if change == "drift":
        at = rng.integers(0, n, max(n // 10, 1))
        new_vals[at] = rng.choice(np.append(_DIGITS, vals[:5] // 2 + 1), at.size)
    elif change == "disjoint":
        new_vals = rng.integers(10**15, 10**15 + 100, n)

    def book(v):
        return B.build_code(v.astype(np.int64), draw(st.sampled_from([2, 16, 4096])),
                            draw(st.sampled_from([False, True, "auto"])))

    return book(vals), book(new_vals)


class TestBookDeltas:
    def test_counted_json_lengths_are_json_dumps(self, rng):
        """Digits and sign of every width, and lists with and without an
        ``"ESC"`` tail, measured as ``json.dumps`` writes them."""
        ints = np.array(_DIGITS + [-(2**63) + 1, 2**63 - 2, 1, -2] + [10**k for k in range(19)]
                        + [-(10**k) for k in range(19)] + [10**k - 1 for k in range(1, 19)]
                        + rng.integers(-(2**63), 2**63 - 1, 500).tolist(), dtype=np.int64)
        assert B._json_len(ints).tolist() == [len(json.dumps(v)) for v in ints.tolist()]
        pairs = np.stack([ints, rng.integers(1, 65, ints.size)], axis=1)
        for k in (0, 1, 2, ints.size):
            for tail in ([], [["ESC", 7]], ["ESC"], [["ESC", 64]]):
                chars = B._json_len(pairs[:k, 0]) + B._json_len(pairs[:k, 1]) + 4
                assert B._list_len(chars, tail) == len(json.dumps(pairs[:k].tolist() + tail))

    @settings(max_examples=150, deadline=None)
    @given(book_pairs())
    def test_array_delta_and_decision_equal_the_dict_oracle(self, pair):
        """The edit script and the delta-or-table choice, weighed by counted
        JSON lengths, are what two dicts and ``json.dumps`` make of it."""
        ref, new = pair
        want = O.table_delta(ref.table, new.table)
        assert B._delta(ref, new) == want == B.table_delta(ref.table, new.table)
        form = O.rebuild_form(ref.table, new.table)
        assert B._delta(ref, new, only_if_smaller=True) == form.get("table_delta")
        assert B.code_from_table(B.apply_table_delta(ref.table, want)).table == new.table


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
        lengths = O.lengths_from_table(B.table_from_code(dense))
        payload, bits, sync = O.encode_with_book(vals, lengths)
        assert dense_out[0] == payload
        assert (dense_out[1]["bits"], dense_out[1]["sync"]) == (bits, sync)

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
        """``len(sync) == ceil(n / SYNC) - 1``; a header without ``sync`` is
        one block, so it decodes up to ``SYNC`` symbols and is refused past."""
        vals = rng.integers(-40, 40, n).astype(np.int64)
        payload, header = H.huffman_encode(vals, max_table=max_table)
        assert (payload, header) == O.huffman_encode_scalar(vals, max_table)
        assert len(header.get("sync", [])) == -(-n // SYNC) - 1
        np.testing.assert_array_equal(decode(payload, header), vals)
        bare = {k: v for k, v in header.items() if k != "sync"}
        if n <= SYNC:
            np.testing.assert_array_equal(decode(payload, bare), vals)
        else:
            with pytest.raises(ValueError, match="sync offsets for"):
                decode(payload, bare)

    def test_codes_longer_than_the_prefix_table(self, rng, decode):
        """Uniform draws over a 40-symbol Fibonacci book: most symbols
        miss the 16-bit table and classify through the first-code search."""
        code = B.HuffmanCode.from_counts(np.arange(40) * 3, _fib(40), esc_count=1)
        vals = rng.choice(np.arange(41) * 3, 3 * SYNC + 200).astype(np.int64)  # 120: escaped
        payload, header = H.huffman_encode(vals, code=code)
        lengths = O.lengths_from_table(header["table"])
        assert max(lengths.values()) > U._LUT_BITS
        assert payload == O.encode_with_book(vals, lengths)[0]
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
        lengths = O.lengths_from_table(header["table"])
        ref_payload, bits, sync = O.encode_with_book(vals, lengths)
        assert (payload, header["bits"], header["sync"]) == (ref_payload, bits, sync)
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
    "sync-quarter": lambda h: {"sync": [h["sync"][0] + 0.25, *h["sync"][1:]]},
    "sync-floats": lambda h: {"sync": [float(o) for o in h["sync"]]},
    "sync-bool": lambda h: {"sync": [True, *h["sync"][1:]]},
    "n-bool": lambda h: {"n": True},
    "bits-bool": lambda h: {"bits": True},
}


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
        for bad in ([o + 1 for o in header["sync"]], header["sync"][::-1],
                    [header["bits"] + 1] * 3, [-1, 5, 9]):
            with pytest.raises(ValueError):
                decode(payload, {**header, "sync": bad})

    def test_wrong_symbol_count(self, rng, decode):
        _, payload, header = self._encoded(rng)
        for n in (header["n"] - 1, header["n"] + 1):
            with pytest.raises(ValueError):
                decode(payload, {**header, "n": n})

    def test_no_codeword_matches(self, rng, decode):
        # an incomplete code: 0, 10 — every window starting 11 matches nothing
        code = B.code_from_table([[0, 1], [1, 2]])
        vals = rng.integers(0, 2, 3 * SYNC).astype(np.int64)
        payload, header = H.huffman_encode(vals, code=code)
        start = header["sync"][1] // 8 + 1
        bad = payload[:start] + b"\xff\xff" + payload[start + 2 :]
        with pytest.raises(ValueError, match="no codeword matches|sync mismatch"):
            decode(bad, header)
        with pytest.raises(ValueError, match="no codeword matches"):
            decode(b"\xff" * len(payload), header)

    def test_escape_raw_bits_cut_off(self, rng, decode):
        code = B.build_code(np.arange(8), reserve_escape=True)
        vals = np.resize(np.arange(8), 2 * SYNC + 3).astype(np.int64)
        vals[-1] = 10**12
        payload, header = H.huffman_encode(vals, code=code)
        cut = {**header, "bits": header["bits"] - 30}
        with pytest.raises(ValueError, match="truncated"):
            decode(payload, cut)

    def test_bad_sync_entries(self, rng, decode):
        _, payload, header = self._encoded(rng)
        with pytest.raises(ValueError, match="corrupt Huffman header"):
            decode(payload, {**header, "sync": ["a", None, 3]})

    @pytest.mark.parametrize("n", [SYNC + 1, 2 * SYNC + 1, 3000])
    @pytest.mark.parametrize("edit", ["drop-first", "drop-last", "repeat-last", "append-end"])
    def test_sync_count_off_by_one(self, rng, decode, n, edit):
        """Offsets that all lie inside the stream, one too few or one too
        many for ``n``: refused by the count rule, never decoded."""
        vals = rng.integers(-5, 5, n).astype(np.int64)
        payload, header = H.huffman_encode(vals)
        sync = header["sync"]
        bad = {"drop-first": sync[1:], "drop-last": sync[:-1],
               "repeat-last": [*sync, sync[-1]], "append-end": [*sync, header["bits"]]}[edit]
        with pytest.raises(ValueError, match="sync offsets for"):
            decode(payload, {**header, "sync": bad})

    @pytest.mark.parametrize("field", list(_NON_INTEGER))
    def test_non_integer_header_fields(self, rng, decode, field):
        """A float or bool is no count, though truncating it would decode."""
        if field.endswith("-bool") and not field.startswith("sync"):
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
        """Five steps: build, reuse, drift rebuild as a delta, reuse, refresh.

        Every rebuilt book is the heap oracle's for that segment
        (``max_table`` 4096, automatic escape), every payload the scalar
        encode with the book its header resolves to, and the header-form
        table is built once per book — never on a reuse.
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
        real_table = B.HuffmanCode.table.fget
        monkeypatch.setattr(
            B.HuffmanCode, "table", property(lambda c: (built.append(c), real_table(c))[1])
        )

        scratch: dict = {}
        tables: dict = {}
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
                if "table" in sh:
                    table, form = sh["table"], "full"
                elif "table_delta" in sh:
                    base_table = tables[i, sh["table_ref"]]
                    table, form = B.apply_table_delta(base_table, sh["table_delta"]), "delta"
                else:
                    table, form = tables[i, sh["table_ref"]], "ref"
                forms.append(form)
                lengths = O.lengths_from_table(table)
                if form != "ref":
                    rebuilt += 1
                    assert lengths == O.book_lengths(seg, 4096, "auto"), (t, i)
                    tables[i, sh["table_id"]] = table
                ref_payload, bits, sync = O.encode_with_book(seg, lengths)
                assert _segment(payload, sh) == ref_payload, (t, i)
                assert (sh["n"], sh["bits"], sh.get("sync", [])) == (seg.size, bits, sync)
            assert len({id(c) for c in built}) - n_before == rebuilt, t
        assert {"full", "delta", "ref"} <= set(forms)
        assert forms[:4] == ["full", "full", "ref", "ref"] and forms[-2:] == ["full", "full"]

        # the same chain decodes, in order, from a fresh decode-side scratch
        enc, dec = {}, {}
        for t, step in enumerate(steps):
            payload, header = encode_classes(
                step, sizes, backend="huffman", scratch=enc, refresh=(t == 4)
            )
            flat, _ = decode_classes(payload, header, scratch=dec)
            np.testing.assert_array_equal(flat, step)

    def test_drift_rebuild_keeps_only_the_shorter_header_form(self, rng):
        sizes = [5000]
        scratch: dict = {}
        a = rng.integers(-50, 51, sizes[0]).astype(np.int64)
        b = rng.integers(10**6, 10**6 + 101, sizes[0]).astype(np.int64)  # disjoint alphabet
        encode_classes(a, sizes, backend="huffman", scratch=scratch)
        _, header = encode_classes(b, sizes, backend="huffman", scratch=scratch)
        sh = header["segments"][0]
        # dropping 101 symbols and setting 101 costs more than the table itself
        assert "table" in sh and "table_delta" not in sh and "table_ref" not in sh
        assert lossless._books(scratch)["default", 0]["code"].table is sh["table"]
