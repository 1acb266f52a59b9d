"""The one container frame (``repro.frame``) under single-bit damage.

Two halves:

* **The sweep.**  For each of the five stream kinds, a two-step 9×9
  stream has every single-bit flip and every truncation of step 1's
  frame prefix (magic + length word + JSON header + the first 8 payload
  bytes) applied in turn — some 20 000 damaged files.  Reading one with
  ``on_error="raise"`` may raise only ``ContainerError``/``StreamError``;
  the default ``on_error="recover"`` must serve — the exact field, or a
  degraded one that is honest about what it lost — or raise
  ``StreamError``; a read that does neither yet differs from the truth
  is *silent*, and no kind may have more of those than the parent
  commit had; a path, a ``BytesIO`` and a ``bytes`` source parse to
  the same outcome; and ``scrub_stream`` (run over the damaged files a
  batch per call, as one badly damaged stream) never raises and calls
  ok whatever read back exactly.  At the parent commit the same sweep
  let ``MemoryError``, ``OverflowError``, ``zlib.error``, ``TypeError``,
  ``KeyError`` and raw ``ValueError`` through, and served sharded reads
  with rows of uninitialised memory.
* **Unit cases the sweep cannot reach**: table rows no single flip
  produces, and header lengths far past the end of the file, which
  must be refused before anything is read or allocated.
"""

import io
import json
import struct

import numpy as np
import pytest

from repro import frame
from repro.errors import ContainerError
from repro.io.scrub import scrub_stream
from repro.io.stream import StepStreamReader, StepStreamWriter, StreamError

SHAPE = (9, 9)
TOL = 0.05  # coarse, so the Huffman tables (and the sweep) stay small
KINDS = {
    "refactored": {},
    "zlib": {"tol": TOL, "backend": "zlib"},
    "huffman": {"tol": TOL, "backend": "huffman"},
    "sharded-refactored": {"shards": 2},
    "sharded-compressed": {"tol": TOL, "backend": "zlib", "shards": 2},
}
#: degraded-but-served reads (one shard lost, the other served) the
#: parent commit managed on the same sweep — some with rows of
#: uninitialised memory, which the honesty asserts below would refuse;
#: the one frame may not lose any
PARENT_DEGRADED = {"sharded-refactored": 385, "sharded-compressed": 384}
#: silent reads — no typed error, no recovery report, wrong values — the
#: parent commit let through on the same sweep (damaged JSON headers)
PARENT_SILENT = {"refactored": 0, "zlib": 230, "huffman": 230,
                 "sharded-refactored": 0, "sharded-compressed": 0}


def _frames():
    rng = np.random.default_rng(7)
    base = rng.standard_normal(SHAPE).cumsum(0).cumsum(1)
    return [base, base + 0.01 * rng.standard_normal(SHAPE)]


def _mutations(clean: bytes):
    """Every single-bit flip and every truncation of the frame prefix."""
    (hlen,) = struct.unpack_from("<Q", clean, 6)
    n = 6 + 8 + hlen + 8
    for i in range(8 * n):
        damaged = bytearray(clean)
        damaged[i // 8] ^= 1 << (i % 8)
        yield f"flip bit {i}", bytes(damaged)
    for i in range(n):
        yield f"truncate to {i}", clean[:i]


def _rewrite(path, data: bytes) -> None:
    # in place: ten times cheaper than create-and-truncate, 20 000 times over
    with open(path, "r+b") as f:
        f.write(data)
        f.truncate()


def _parse_outcome(source):
    """What parsing ``source`` and reading every extent comes to, with
    the source's own name taken out of the message."""
    try:
        fr = frame.parse(source)
        return [fr.extent(i) for i in range(len(fr.rows))]
    except ContainerError as e:
        text = str(e)
        for name in (str(source), "<bytes>", "<stream>"):
            text = text.replace(name, "@")
        return text


def _sweep(kind, tmp_path):
    """Damage step 1 every way; returns (untyped errors, degraded reads,
    silent reads)."""
    root = tmp_path / "s"
    writer = StepStreamWriter(root, SHAPE, **KINDS[kind])
    for f in _frames():
        writer.append(f)
    # one long-lived follower, uncached: re-reading step 0 first costs a
    # copy (the chain is already there) and re-anchors a delta chain on
    # the clean key step, so every read of step 1 decodes the file anew
    reader = StepStreamReader(root, cache_steps=0)
    chained = reader.stream_mode == "compressed" and reader.shard_bounds is None

    def read(on_error):
        if chained:
            reader.read_step(0)
        return reader.read_region(1, on_error=on_error)

    def outcome():
        """"exact" | "silent" | "degraded" | "refused", or the untyped error;
        "silent" is a read that neither raised nor reported, yet is wrong."""
        try:
            got = read("raise")
        except (ContainerError, StreamError):
            pass
        except Exception as e:
            return f"on_error='raise' let {e!r} through"
        else:
            return "exact" if np.array_equal(got, truth[1]) else "silent"
        try:
            served = read("recover")
        except StreamError:
            return "refused"
        except Exception as e:
            return f"on_error='recover' let {e!r} through"
        # a degraded read says what it lost, and the rest is exact
        report = reader.last_recovery
        assert report is not None and report.degraded
        if chained:
            assert report.served == 0 and np.array_equal(served, truth[0])
        else:
            lost = np.zeros(SHAPE[0], dtype=bool)
            for a, b in report.failed_extents:
                lost[a:b] = True
            assert lost.any() and not lost.all()
            assert np.isnan(served[lost]).all()
            assert np.array_equal(served[~lost], truth[1][~lost])
        return "degraded"

    truth = [reader.read_region(0), reader.read_region(1)]
    path = root / reader.steps[1]["file"]
    clean = path.read_bytes()
    mutations = list(_mutations(clean))
    outcomes = []
    for what, damaged in mutations:
        _rewrite(path, damaged)
        outcomes.append(outcome())
        assert (
            _parse_outcome(path)
            == _parse_outcome(damaged)
            == _parse_outcome(io.BytesIO(damaged))
        ), what
    _rewrite(path, clean)
    assert outcome() == "exact"  # the repaired file heals
    assert scrub_stream(root).clean
    _scrub_all(tmp_path / "scrub", root, mutations, outcomes)
    escapes = [
        f"{what}: {o}"
        for (what, _), o in zip(mutations, outcomes)
        if o not in ("exact", "silent", "degraded", "refused")
    ]
    return escapes, outcomes.count("degraded"), outcomes.count("silent")


def _scrub_all(scrub_root, root, mutations, outcomes, batch=256):
    """``scrub_stream`` over every damaged file, a batch of them per call:
    a stream whose every step is step 1, each damaged another way.  It
    never raises, and whatever was read back exactly it calls ok."""
    manifest = json.loads((root / "manifest.json").read_text())
    entry = manifest["steps"][1]
    suffix = entry["file"][entry["file"].rindex("."):]
    manifest["steps"] = [{**entry, "file": f"slot_{i:03d}{suffix}"} for i in range(batch)]
    scrub_root.mkdir()
    (scrub_root / "manifest.json").write_text(json.dumps(manifest))
    slots = [scrub_root / e["file"] for e in manifest["steps"]]
    for slot in slots:
        slot.touch()
    for lo in range(0, len(mutations), batch):
        chunk = mutations[lo : lo + batch]
        for i, slot in enumerate(slots):
            _rewrite(slot, chunk[i % len(chunk)][1])
        report = scrub_stream(scrub_root)  # must not raise
        assert report.manifest_error is None and not report.orphans
        for i, (what, _) in enumerate(chunk):
            assert (i in report.ok) or outcomes[lo + i] != "exact", what


# a flipped ``dtype`` string can spell an alias NumPy has deprecated
@pytest.mark.filterwarnings("ignore:Data type alias:DeprecationWarning")
@pytest.mark.parametrize("kind", KINDS)
def test_flip_and_truncation_sweep(kind, tmp_path):
    escapes, degraded, silent = _sweep(kind, tmp_path)
    assert not escapes, f"{len(escapes)} untyped errors, e.g. {escapes[:5]}"
    assert degraded >= PARENT_DEGRADED.get(kind, 0)
    assert silent <= PARENT_SILENT[kind]


# ----------------------------------------------------------------------
# what no single-bit flip produces


def _container(rows, payload=b"x" * 40):
    buf = io.BytesIO()
    frame.emit(buf, frame.RPSH, {"shards": rows}, [payload])
    return buf.getvalue()


def test_emit_parse_roundtrip_all_sources(tmp_path):
    payloads = [b"alpha", b"", b"gamma" * 100]
    buf = io.BytesIO()
    n = frame.emit(buf, frame.RPMG, {"extents": frame.table(payloads), "k": 1}, payloads)
    blob = buf.getvalue()
    assert n == len(blob)
    (tmp_path / "c").write_bytes(blob)
    for source in (tmp_path / "c", str(tmp_path / "c"), blob, bytearray(blob),
                   memoryview(blob), io.BytesIO(blob)):
        fr = frame.parse(source, want=frame.RPMG)
        assert fr.header["k"] == 1 and fr.label == "payload" and fr.size == n
        assert [fr.extent(i) for i in range(3)] == payloads
        assert frame.parse(fr) is fr
        with pytest.raises(ContainerError, match="bad magic"):
            frame.parse(fr, want=frame.RPRC)
    with pytest.raises(FileNotFoundError):  # absence is not corruption
        frame.parse(tmp_path / "ghost")


@pytest.mark.parametrize("row", [
    {"offset": -1, "nbytes": 4, "crc32": 0},
    {"offset": 0, "nbytes": -4, "crc32": 0},
    {"offset": 0, "nbytes": 4, "crc32": -1},
    {"offset": 0.0, "nbytes": 4, "crc32": 0},
    {"offset": 0, "nbytes": "4", "crc32": 0},
    {"offset": True, "nbytes": 4, "crc32": 0},
    {"offset": 0, "nbytes": None, "crc32": 0},
    {"offset": 0, "nbytes": 4},
    {"offset": 38, "nbytes": 4, "crc32": 0},       # overlaps the end
    {"offset": 0, "nbytes": 41, "crc32": 0},       # one byte too long
    {"offset": 2**70, "nbytes": 1, "crc32": 0},
    {"offset": 0, "nbytes": 2**70, "crc32": 0},
    [0, 4, 0],
    "row",
    None,
])
def test_defective_row_costs_one_extent(row, tmp_path):
    good = frame.table([b"x" * 8])[0]
    blob = _container([row, good])
    (tmp_path / "c").write_bytes(blob)
    for source in (blob, tmp_path / "c"):
        fr = frame.parse(source)  # the header parses: rows are checked per read
        with pytest.raises(ContainerError, match="shard 0"):
            fr.extent(0)
        with pytest.raises(ContainerError, match="shard 0"):
            fr.extent(0, verify=False)
        assert fr.extent(1) == b"x" * 8
    with pytest.raises(ContainerError, match="out of range"):
        fr.extent(2)
    with pytest.raises(ContainerError, match="out of range"):
        fr.extent(-1)


@pytest.mark.parametrize("hlen", [2**40, 2**63, 2**64 - 1, 87])
def test_oversized_header_length_reads_nothing(hlen, tmp_path, monkeypatch):
    """A 100-byte file whose length word promises more is refused from
    the 14 bytes already read: no read is sized from the untrusted word."""
    blob = (frame.RPRC + struct.pack("<Q", hlen)).ljust(100, b" ")
    path = tmp_path / "c.rprc"
    path.write_bytes(blob)
    sizes = []

    class SpyFile:
        def __init__(self, *args):
            self._f = open(*args)

        def read(self, n=-1):
            sizes.append(n)
            return self._f.read(n)

        def seek(self, pos):
            return self._f.seek(pos)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._f.close()

    monkeypatch.setattr(frame, "open", SpyFile, raising=False)
    for source in (path, blob, io.BytesIO(blob)):
        with pytest.raises(ContainerError, match=r"truncated header.*offset 14"):
            frame.parse(source)
    assert sizes and max(sizes) <= 14 + 4096  # one bounded read, never ``hlen``


@pytest.mark.parametrize("header", [
    b"\xff\xfe", b"{", b"[1, 2]", b'"classes"', b'{"classes": 3}', b"[" * 100_000,
])
def test_junk_header_is_container_error(header):
    blob = frame.RPRC + struct.pack("<Q", len(header)) + header
    with pytest.raises(ContainerError, match="corrupt header|class table"):
        frame.parse(blob)


def test_fault_site_fires_only_when_named():
    from repro import faults

    blob = _container(frame.table([b"x" * 40]))
    with faults.inject("bitflip@container.read.*:flips=8"):
        assert frame.parse(blob).extent(0) == b"x" * 40
        with pytest.raises(ContainerError, match="checksum"):
            frame.parse(blob).extent(0, site="container.read.shard 0")


def test_repro_verify_exits_1_on_a_length_word_flip(tmp_path, capsys):
    from repro.io.scrub import main as verify_main

    for kind in ("zlib", "sharded-compressed"):
        root = tmp_path / kind
        writer = StepStreamWriter(root, SHAPE, **KINDS[kind])
        writer.append(_frames()[0])
        step = root / json.loads((root / "manifest.json").read_text())["steps"][0]["file"]
        damaged = bytearray(step.read_bytes())
        damaged[12] ^= 0x40  # header length += 2**54
        step.write_bytes(bytes(damaged))
        assert verify_main([str(root)]) == 1
        assert "truncated header" in capsys.readouterr().out
