"""Fabric parity: the process SPMD fabric against the thread reference.

Every collective must produce identical results on both fabrics, large
ndarrays must ride the shared-memory data plane (with a pickle fallback
for everything else), rank failures must surface as ``SpmdError`` with
per-rank tracebacks, abnormal rank death must not leak shared-memory
segments, and the sharded compress fan-out must emit byte-identical
``RPSH`` containers regardless of fabric.
"""

import glob

import numpy as np
import pytest

from repro import faults
from repro.cluster import (
    RemoteRankError,
    ShardCodec,
    SpmdError,
    SpmdTimeout,
    encode_shards,
    last_run_report,
    plan_shards,
    run_spmd,
)

FABRICS = ["thread", "process"]


def _no_leftover_segments():
    return not glob.glob("/dev/shm/rspmd*")


# ----------------------------------------------------------------------
# collective parity


def _all_collectives(comm):
    arr = np.arange(1000, dtype=np.float64) * (comm.rank + 1)
    out = {}
    out["bcast"] = comm.bcast(arr if comm.rank == 0 else None, root=0)
    chunks = [np.full(300, float(r)) for r in range(comm.size)] if comm.rank == 0 else None
    out["scatter"] = comm.scatter(chunks, root=0)
    gathered = comm.gather(arr, root=0)
    out["gather"] = None if gathered is None else np.concatenate(gathered)
    out["allgather"] = np.concatenate(comm.allgather(arr))
    red = comm.reduce(arr, root=0)
    out["reduce"] = red
    out["allreduce"] = comm.allreduce(arr)
    out["reduce_min"] = comm.allreduce(float(comm.rank), op=min)
    comm.barrier()
    return out


@pytest.mark.parametrize("n_ranks", [2, 4])
def test_collectives_identical_across_fabrics(n_ranks):
    by_fabric = {f: run_spmd(_all_collectives, n_ranks, fabric=f) for f in FABRICS}
    for rank in range(n_ranks):
        t, p = by_fabric["thread"][rank], by_fabric["process"][rank]
        assert set(t) == set(p)
        for key in t:
            if t[key] is None:
                assert p[key] is None
            elif isinstance(t[key], float):
                assert t[key] == p[key]
            else:
                # bit-identical, not merely close: reduce folds in rank
                # order on both fabrics
                assert np.array_equal(t[key], p[key]), (key, rank)
    assert _no_leftover_segments()


def test_barrier_orders_sends_across_it():
    def fn(comm):
        if comm.rank == 0:
            comm.send("pre", 1, tag=1)
        comm.barrier()
        if comm.rank == 1:
            return comm.recv(0, tag=1)
        return None

    for fabric in FABRICS:
        assert run_spmd(fn, 2, fabric=fabric)[1] == "pre"


# ----------------------------------------------------------------------
# data plane: shm engagement and pickle fallback


def _ship_large(comm):
    big = np.full((400, 400), float(comm.rank))  # 1.28 MB >= threshold
    if comm.rank == 0:
        got = comm.recv(1, tag=2)
        return float(got[0, 0]), comm.transport_stats()
    if comm.rank == 1:
        comm.send(big, 0, tag=2)
    return None, comm.transport_stats()


def test_large_arrays_ride_the_shm_plane():
    results = run_spmd(_ship_large, 2, fabric="process")
    assert results[0][0] == 1.0
    stats = [s for _, s in results]
    assert stats[1]["shm_sends"] == 1  # sender staged, never pickled
    assert stats[0]["shm_recvs"] == 1  # receiver attached + unlinked
    assert _no_leftover_segments()


def test_shm_threshold_gates_the_data_plane():
    def fn(comm):
        arr = np.arange(64, dtype=np.float64)  # 512 B: below any threshold
        if comm.rank == 0:
            comm.send(arr, 1, tag=3)
            comm.send({"not": "an array"}, 1, tag=4)
            comm.send(np.array(["a", "b"], dtype=object), 1, tag=5)
        else:
            assert np.array_equal(comm.recv(0, tag=3), arr)
            assert comm.recv(0, tag=4) == {"not": "an array"}
            assert list(comm.recv(0, tag=5)) == ["a", "b"]
        return comm.transport_stats()

    stats = run_spmd(fn, 2, fabric="process", shm_threshold=1 << 20)
    assert stats[0]["shm_sends"] == 0
    assert stats[0]["pickle_sends"] >= 3  # small array, dict, object dtype
    assert stats[1]["shm_recvs"] == 0


def test_sent_arrays_are_copies_on_both_fabrics():
    def fn(comm):
        arr = np.zeros(8)
        if comm.rank == 0:
            comm.send(arr, 1, tag=1)
            arr[:] = 99.0  # mutate after send: receiver must not see it
            comm.barrier()
        else:
            comm.barrier()
            return comm.recv(0, tag=1).sum()
        return None

    for fabric in FABRICS:
        assert run_spmd(fn, 2, fabric=fabric)[1] == 0.0


# ----------------------------------------------------------------------
# failure semantics


def test_rank_failure_surfaces_with_traceback():
    def fn(comm):
        if comm.rank == 1:
            raise ValueError("rank 1 is sick")
        return comm.rank

    for fabric in FABRICS:
        with pytest.raises(SpmdError) as e:
            run_spmd(fn, 2, fabric=fabric, recv_timeout=5.0)
        assert 1 in e.value.failures
        assert "rank 1 is sick" in e.value.tracebacks[1]


def test_recv_timeout_names_src_dst_tag_wait():
    def fn(comm):
        if comm.rank == 1:
            comm.recv(0, tag=9, timeout=0.2)
        return True

    # thread fabric: the live SpmdTimeout object reaches the host
    with pytest.raises(SpmdError) as e:
        run_spmd(fn, 2, fabric="thread")
    err = e.value.failures[1]
    assert isinstance(err, SpmdTimeout)
    assert (err.src, err.dst, err.tag, err.waited_s) == (0, 1, 9, 0.2)

    # process fabric: the timeout crosses as a RemoteRankError carrying
    # the remote traceback, which names the same context
    with pytest.raises(SpmdError) as e:
        run_spmd(fn, 2, fabric="process")
    err = e.value.failures[1]
    assert isinstance(err, RemoteRankError)
    assert "SpmdTimeout" in e.value.tracebacks[1]
    assert "rank 1 timed out receiving from rank 0 (tag 9) after 0.20s" in str(err)


def test_run_spmd_recv_timeout_knob_sets_the_default():
    def fn(comm):
        if comm.rank == 1:
            comm.recv(0, tag=9)  # no per-call timeout: the knob applies
        return True

    with pytest.raises(SpmdError) as e:
        run_spmd(fn, 2, fabric="thread", recv_timeout=0.25)
    err = e.value.failures[1]
    assert isinstance(err, SpmdTimeout) and err.waited_s == 0.25


def test_error_fault_site_fires_on_both_fabrics():
    for fabric in FABRICS:
        with faults.inject("error@spmd.rank.run:count=1", seed=2):
            with pytest.raises(SpmdError) as e:
                run_spmd(lambda comm: comm.rank, 2, fabric=fabric, recv_timeout=3.0)
        assert len(e.value.failures) >= 1


# ----------------------------------------------------------------------
# segment-leak sweep on abnormal rank death


def test_killed_rank_segments_are_swept():
    def fn(comm):
        arr = np.full((400, 400), float(comm.rank))
        comm.send(arr, (comm.rank + 1) % comm.size, tag=6)
        return comm.recv((comm.rank - 1) % comm.size, tag=6)[0, 0]

    # the kill mark fires inside _stage_shm, after the segment exists
    # and before the descriptor is sent — the exact leak window
    with faults.inject("kill@spmd.rank.shm:count=1", seed=3):
        with pytest.raises(SpmdError) as e:
            run_spmd(fn, 3, fabric="process", recv_timeout=2.0)
    assert any(isinstance(err, RemoteRankError) for err in e.value.failures.values())
    report = last_run_report()
    assert report.fabric == "process" and report.n_failures >= 1
    # the host finalizer found and unlinked the orphaned segment(s)
    assert report.swept_segments
    assert _no_leftover_segments()


def test_clean_runs_sweep_nothing():
    run_spmd(_ship_large, 2, fabric="process")
    assert last_run_report().swept_segments == ()
    assert _no_leftover_segments()


# ----------------------------------------------------------------------
# sharded compress fan-out parity


def _encode_own_shards(comm, field, bounds, codec):
    """Rank 0 owns the frame and ships each shard's rows to its owner
    rank (round-robin) as a bare ndarray; every rank encodes what it
    holds; rank 0 gathers the containers back in shard order."""
    if comm.rank == 0:
        for i, (start, stop) in enumerate(bounds):
            if i % comm.size:
                comm.send(np.ascontiguousarray(field[start:stop]), i % comm.size, tag=i)
    encoded = []
    for i in range(comm.rank, len(bounds), comm.size):
        shard = field[slice(*bounds[i])] if comm.rank == 0 else comm.recv(0, tag=i)
        whole = plan_shards(shard.shape, 1)
        encoded.append((i, encode_shards(shard, whole, codec, executor="serial")[0]))
    gathered = comm.gather(encoded, root=0)
    if comm.rank == 0:
        return [blob for _, blob in sorted(p for pairs in gathered for p in pairs)]


@pytest.mark.parametrize("tol", [None, 1e-3])
def test_sharded_fanout_byte_identical_across_fabrics(tol):
    rng = np.random.default_rng(7)
    field = rng.random((48, 33))
    plan = plan_shards(field.shape, 3)
    bounds = list(zip(plan.starts, plan.stops))
    codec = ShardCodec(tol=tol, mode="level", backend="huffman")
    reference = encode_shards(field, plan, codec, executor="serial")
    for fabric in FABRICS:
        payloads = run_spmd(
            _encode_own_shards, 3, field, bounds, codec, fabric=fabric, shm_threshold=4096
        )[0]
        assert [bytes(p) for p in payloads] == [bytes(p) for p in reference], fabric
    assert _no_leftover_segments()


def test_spmd_error_accepts_plain_message():
    e = SpmdError("no fork on this platform")
    assert e.failures == {} and e.tracebacks == {}
    assert "no fork" in str(e)


def test_unknown_fabric_rejected():
    with pytest.raises(ValueError):
        run_spmd(lambda comm: None, 1, fabric="carrier-pigeon")
