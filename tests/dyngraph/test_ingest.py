"""Streaming Libra: bit-equality with batch replay, resumability, drift."""

import numpy as np
import pytest

from repro.dyngraph import LibraState, LibraStateError, streaming_libra_partition
from repro.graph.generators import rmat_graph, sbm_graph
from repro.partition.libra import libra_partition, replication_factor_of_assignment


# -- streaming == batch equivalence ------------------------------------------------


@pytest.mark.parametrize("num_partitions", [2, 4, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_streaming_equals_batch_replay(small_rmat, num_partitions, seed):
    """One edge at a time through LibraState == one libra_partition call
    (assignments, loads, replication factor), across seeds and partition
    counts."""
    batch = libra_partition(
        small_rmat, num_partitions, seed=seed, shuffle_edges=False
    )
    state = LibraState(small_rmat.num_vertices, num_partitions, seed=seed)
    streamed = state.assign_graph(small_rmat)
    assert np.array_equal(streamed, batch)
    assert np.array_equal(state.load, np.bincount(batch, minlength=num_partitions))
    assert state.replication_factor == pytest.approx(
        replication_factor_of_assignment(small_rmat, batch, num_partitions)
    )


def test_edge_by_edge_equals_chunked(small_rmat):
    """Chunk boundaries are invisible: any split of the stream produces
    the same assignments (each decision depends only on prior state)."""
    src, dst, _ = small_rmat.to_coo()
    one = LibraState(small_rmat.num_vertices, 4, seed=0)
    per_edge = np.concatenate(
        [one.assign([u], [v]) for u, v in zip(src[:300], dst[:300])]
    )
    chunked = LibraState(small_rmat.num_vertices, 4, seed=0)
    parts = np.concatenate([
        chunked.assign(src[:113], dst[:113]),
        chunked.assign(src[113:300], dst[113:300]),
    ])
    assert np.array_equal(per_edge, parts)
    assert np.array_equal(one.member, chunked.member)


def test_convenience_wrapper_sets_baseline(small_rmat):
    assignment, state = streaming_libra_partition(small_rmat, 4, seed=1)
    assert np.array_equal(
        assignment, libra_partition(small_rmat, 4, seed=1, shuffle_edges=False)
    )
    assert state.baseline_rf == pytest.approx(state.replication_factor)
    assert state.num_assigned == small_rmat.num_edges


# -- resumability -----------------------------------------------------------------


def test_save_load_resume_equals_uninterrupted(tmp_path, small_rmat):
    """Kill/restart mid-stream via save()/load() is invisible to the
    final assignment, loads, and membership."""
    src, dst, eid = small_rmat.to_coo()
    m = src.size
    cut = m // 3

    first = LibraState(small_rmat.num_vertices, 4, seed=2)
    a1 = first.assign(src[:cut], dst[:cut])
    first.set_baseline()
    path = str(tmp_path / "libra_state.npz")
    first.save(path)

    resumed = LibraState.load(path)
    assert resumed.num_assigned == cut
    assert resumed.baseline_rf == first.baseline_rf
    a2 = resumed.assign(src[cut:], dst[cut:])

    assignment = np.zeros(m, dtype=np.int64)
    assignment[eid] = np.concatenate([a1, a2])
    assert np.array_equal(
        assignment, libra_partition(small_rmat, 4, seed=2, shuffle_edges=False)
    )
    uninterrupted = LibraState(small_rmat.num_vertices, 4, seed=2)
    uninterrupted.assign_graph(small_rmat)
    assert np.array_equal(resumed.member, uninterrupted.member)
    assert np.array_equal(resumed.load, uninterrupted.load)


def test_load_accepts_extensionless_path(tmp_path):
    state = LibraState(8, 2, seed=0)
    state.assign([0, 1], [1, 2])
    path = str(tmp_path / "st")
    state.save(path + ".npz")
    again = LibraState.load(path)
    assert again.num_assigned == 2
    state.save(path)  # ".npz" is appended when missing, as np.savez does
    assert sorted(p.name for p in tmp_path.iterdir()) == ["st.npz"]


def _saved_state(tmp_path, small_rmat):
    src, dst, _ = small_rmat.to_coo()
    state = LibraState(small_rmat.num_vertices, 4, seed=1)
    state.assign(src[:500], dst[:500])
    path = str(tmp_path / "state.npz")
    state.save(path)
    return state, path


def test_truncated_state_file_raises_named_error(tmp_path, small_rmat):
    """A half-written file is one named error at load, whatever the
    offset (zipfile / zlib / numpy each fail differently underneath)."""
    _, path = _saved_state(tmp_path, small_rmat)
    with open(path, "rb") as fh:
        raw = fh.read()
    for cut in (0, 1, 10, len(raw) // 3, len(raw) // 2, len(raw) - 30, len(raw) - 1):
        with open(path, "wb") as fh:
            fh.write(raw[:cut])
        with pytest.raises(LibraStateError, match="state.npz"):
            LibraState.load(path)
    flipped = bytearray(raw)
    flipped[len(raw) // 2] ^= 0xFF  # corrupt, not short
    with open(path, "wb") as fh:
        fh.write(bytes(flipped))
    with pytest.raises(LibraStateError):
        LibraState.load(path)
    with pytest.raises(FileNotFoundError):  # absent is not "corrupt"
        LibraState.load(str(tmp_path / "missing.npz"))


@pytest.mark.parametrize("field,value", [
    ("load", np.zeros(3, dtype=np.int64)),       # wrong length
    ("tie", np.zeros(5)),
    ("member", np.zeros((1, 4), dtype=np.uint8)),
    ("num_assigned", np.asarray(499)),           # load.sum() disagrees
])
def test_inconsistent_state_file_raises_named_error(
    tmp_path, small_rmat, field, value
):
    """Validated on open, not at the first later ``assign``."""
    state, path = _saved_state(tmp_path, small_rmat)
    fields = state.state_dict()
    fields[field] = value
    np.savez_compressed(path, **fields)
    with pytest.raises(LibraStateError, match=r"shapes|num_assigned"):
        LibraState.load(path)


def test_crash_before_publish_keeps_previous_file(
    tmp_path, small_rmat, monkeypatch
):
    """save() = temp file + os.replace: dying between the two leaves the
    previous state file byte-equal and loadable, and no temp litter."""
    state, path = _saved_state(tmp_path, small_rmat)
    with open(path, "rb") as fh:
        before = fh.read()
    src, dst, _ = small_rmat.to_coo()
    state.assign(src[500:900], dst[500:900])

    def crash(*_args):
        raise OSError("simulated crash before publish")

    monkeypatch.setattr("os.replace", crash)
    with pytest.raises(OSError, match="simulated crash"):
        state.save(path)
    monkeypatch.undo()
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert LibraState.load(path).num_assigned == 500
    assert [p.name for p in tmp_path.iterdir()] == ["state.npz"]
    state.save(path)
    assert LibraState.load(path).num_assigned == 900


# -- quality / drift ---------------------------------------------------------------


def test_drift_trigger_on_cross_cluster_traffic():
    """Baseline on a cleanly-clustered graph, then stream only
    cross-cluster edges: replication must climb and trip the trigger."""
    g = sbm_graph([60, 60, 60, 60], p_in=0.3, p_out=0.0, seed=0)
    _, state = streaming_libra_partition(g, 4, seed=0)
    assert not state.should_repartition(0.05)
    rng = np.random.default_rng(0)
    # heavy cross-cluster stream: endpoints from different blocks
    u = rng.integers(0, 60, 3000)
    v = rng.integers(60, 240, 3000)
    state.assign(u, v)
    assert state.drift() > 0.05
    assert state.should_repartition(0.05)


def test_drift_zero_without_baseline():
    state = LibraState(10, 2, seed=0)
    state.assign([0, 1], [1, 2])
    assert state.drift() == 0.0
    assert not state.should_repartition()
    with pytest.raises(ValueError):
        state.should_repartition(-0.1)


def test_single_partition_stream(small_rmat):
    state = LibraState(small_rmat.num_vertices, 1, seed=0)
    asn = state.assign_graph(small_rmat)
    assert np.all(asn == 0)
    assert state.load[0] == small_rmat.num_edges
    assert state.replication_factor == 1.0  # every present vertex once


def test_endpoint_validation():
    state = LibraState(4, 2, seed=0)
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        state.assign([0], [4])
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        state.assign([-1], [0])
    with pytest.raises(ValueError):
        LibraState(4, 0)


def test_endpoint_dtype_validation():
    """Float endpoints used to be truncated by ``asarray(dtype=int)``:
    ``assign([0.7], [1.9])`` silently assigned edge (0, 1)."""
    state = LibraState(4, 2, seed=0)
    with pytest.raises(ValueError, match="float64"):
        state.assign([0.7], [1.9])
    with pytest.raises(ValueError, match="float64"):
        state.assign([0], [1.0])
    with pytest.raises(ValueError, match="bool"):
        state.assign([True], [False])
    assert state.num_assigned == 0 and not state.member.any()
    assert state.assign([], []).shape == (0,)  # numpy types [] float64
    for dtype in (np.int8, np.uint8, np.int32, np.uint64, np.int64):
        state.assign(np.array([0, 1], dtype=dtype), np.array([2, 3], dtype=dtype))
    assert state.num_assigned == 10
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        state.assign(np.array([2**63], dtype=np.uint64), [0])


def test_beats_replayed_quality_claim():
    """Streaming equals batch — so it inherits Libra's quality edge over
    random assignment (sanity anchor, mirrors the batch test)."""
    g = rmat_graph(scale=9, edge_factor=8.0, seed=0)
    from repro.partition.baselines import random_edge_partition

    _, state = streaming_libra_partition(g, 4, seed=0)
    rand_rf = replication_factor_of_assignment(
        g, random_edge_partition(g, 4, seed=0), 4
    )
    assert state.replication_factor < rand_rf
