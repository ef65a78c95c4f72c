"""Packed-mask Libra == the per-edge numpy loop it replaced.

``oracle_assign`` is the loop that used to be ``LibraState.assign``
(dense bool membership matrix, ``np.argmin(load + tie)`` per edge), kept
here verbatim as the reference: the production loop must reproduce its
assignments, membership and loads bit for bit for every P, chunking and
restart point.
"""

import os
import tempfile
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dyngraph import LibraState
from repro.graph.csr import INDEX_DTYPE


def oracle_assign(member, load, tie, src, dst):
    """The pre-packed-mask edge loop; mutates ``member`` / ``load``."""
    src = np.atleast_1d(np.asarray(src, dtype=INDEX_DTYPE))
    dst = np.atleast_1d(np.asarray(dst, dtype=INDEX_DTYPE))
    out = np.zeros(src.size, dtype=INDEX_DTYPE)
    for i in range(src.size):
        u = src[i]
        v = dst[i]
        mu = member[u]
        mv = member[v]
        both = mu & mv
        if both.any():
            cand = both
        else:
            either = mu | mv
            cand = either if either.any() else None
        if cand is None:
            part = int(np.argmin(load + tie))
        else:
            masked = np.where(cand, load + tie, np.inf)
            part = int(np.argmin(masked))
        out[i] = part
        member[u, part] = True
        member[v, part] = True
        load[part] += 1
    return out


def oracle_replication_factor(member):
    clones = member.sum(axis=1)
    present = clones > 0
    return float(clones[present].mean()) if present.any() else 0.0


def _split(n_items, cuts):
    """Chunk boundaries from a list of cut fractions (chunks may be empty)."""
    bounds = sorted({0, n_items, *(int(c * n_items) for c in cuts)})
    return list(zip(bounds[:-1], bounds[1:]))


@given(
    num_partitions=st.sampled_from([2, 3, 4, 7, 8, 63, 64, 65, 130]),
    num_vertices=st.integers(1, 24),
    num_edges=st.integers(0, 80),
    seed=st.integers(0, 2**16),
    cuts=st.lists(st.floats(0, 1), max_size=6),
    per_edge=st.booleans(),
    restart_at=st.floats(0, 1),
)
@settings(max_examples=120, deadline=None)
def test_packed_equals_oracle(
    num_partitions, num_vertices, num_edges, seed, cuts, per_edge, restart_at
):
    """Random multigraphs (self-loops, duplicates, untouched vertices) x P
    on both sides of every word boundary x random chunkings (chunk = 1
    included) x a save/load at a random chunk boundary."""
    rng = np.random.default_rng(seed)
    # endpoints from a sub-range: small enough that duplicates and
    # self-loops are common, and the vertices above it stay untouched
    hi = int(rng.integers(1, num_vertices + 1))
    src = rng.integers(0, hi, num_edges)
    dst = rng.integers(0, hi, num_edges)
    chunks = (
        [(i, i + 1) for i in range(num_edges)] if per_edge
        else _split(num_edges, cuts)
    )
    restart = int(restart_at * len(chunks))

    state = LibraState(num_vertices, num_partitions, seed=seed)
    member = np.zeros((num_vertices, num_partitions), dtype=bool)
    load = np.zeros(num_partitions, dtype=np.int64)
    tie = state.tie.copy()
    with tempfile.TemporaryDirectory() as tmp:
        for k, (lo, up) in enumerate(chunks):
            if k == restart:
                state.save(os.path.join(tmp, "state"))
                state = LibraState.load(os.path.join(tmp, "state"))
            got = state.assign(src[lo:up], dst[lo:up])
            want = oracle_assign(member, load, tie, src[lo:up], dst[lo:up])
            assert np.array_equal(got, want)
            assert got.dtype == want.dtype
    got_member = state.member
    assert np.array_equal(got_member, member)
    assert got_member.dtype == bool and got_member.shape == member.shape
    assert np.array_equal(state.load, load) and state.load.dtype == np.int64
    assert state.num_assigned == num_edges
    assert state.replication_factor == oracle_replication_factor(member)


def test_noise_rounded_away_at_large_loads(tmp_path):
    """At loads >= 2**30 ``load + tie`` rounds the 1e-9 noise away, so
    equal loads tie exactly and argmin falls to the lowest candidate id;
    the packed loop compares the same doubles and must agree edge for
    edge (both sides resume from one crafted state file)."""
    n, p = 64, 4
    crafted = LibraState(n, p, seed=3)
    crafted.load[:] = [2**30 + 1, 2**30, 2**30, 2**30 + 1]
    crafted.num_assigned = int(crafted.load.sum())
    assert np.all(crafted.load + crafted.tie == crafted.load)  # noise is gone
    crafted.save(str(tmp_path / "big.npz"))

    state = LibraState.load(str(tmp_path / "big.npz"))
    member, load, tie = state.member.copy(), state.load.copy(), state.tie.copy()
    rng = np.random.default_rng(0)
    src, dst = rng.integers(0, n, 400), rng.integers(0, n, 400)
    got = state.assign(src, dst)
    want = oracle_assign(member, load, tie, src, dst)
    assert np.array_equal(got, want)
    assert got[0] == 1  # first edge, all-new endpoints: lowest of the tied pair
    assert np.array_equal(state.member, member)
    assert np.array_equal(state.load, load)


def test_one_edge_assign_does_no_per_vertex_work():
    """O(chunk) guard that is not a stopwatch: on a 2**20-vertex state a
    one-edge ``assign`` allocates well under anything proportional to
    ``num_vertices`` (one bool row per vertex would be 8 MiB)."""
    state = LibraState(2**20, 8, seed=0)
    state.assign([1, 2, 3], [4, 5, 6])  # warm: imports, caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        state.assign([7], [8])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
