"""Neighbour sampler and message-flow blocks.

The hop is array code held to the five properties of
``repro.sampling.sampler``'s docstring; ``loop_sampler.LoopSampler`` (the
per-vertex loop it replaced) is the oracle wherever the two must agree
array for array.
"""

import itertools
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.graph.builders import from_edge_list
from repro.graph.csr import CSRGraph
from repro.sampling import NeighborSampler
from repro.sampling import sampler as sampler_module
from tests.sampling.loop_sampler import LoopSampler


@pytest.fixture
def sampler(small_rmat):
    return NeighborSampler(small_rmat, fanouts=(4, 3), seed=0)


class TestSampling:
    def test_block_count_matches_fanouts(self, sampler):
        batch = sampler.sample(np.array([0, 1, 2]))
        assert len(batch.blocks) == 2

    def test_innermost_block_dst_is_seeds(self, sampler):
        seeds = np.array([5, 1, 9])
        batch = sampler.sample(seeds)
        assert np.array_equal(batch.blocks[-1].dst_global, np.unique(seeds))

    def test_block_sizes_match_frontiers(self, sampler):
        """A block is num_dst rows over num_src frontier columns."""
        batch = sampler.sample(np.array([0, 1, 2, 3]))
        for block in batch.blocks:
            assert block.graph.num_vertices == block.num_dst == block.dst_global.size
            assert block.graph.num_src == block.num_src == block.src_global.size
            assert block.num_src >= block.num_dst

    def test_frontier_chains(self, sampler):
        batch = sampler.sample(np.array([0, 1, 2, 3]))
        inner, outer = batch.blocks[1], batch.blocks[0]
        assert np.array_equal(outer.dst_global, inner.src_global)

    def test_self_rows_lead_src_frontier(self, sampler):
        batch = sampler.sample(np.array([0, 1, 2]))
        for block in batch.blocks:
            assert np.array_equal(
                block.src_global[: block.num_dst], block.dst_global
            )

    def test_fanout_bound(self, small_rmat):
        s = NeighborSampler(small_rmat, fanouts=(3,), seed=0)
        batch = s.sample(np.arange(20))
        assert np.all(batch.blocks[0].graph.in_degrees() <= 3)

    def test_sampled_edges_exist_in_graph(self, sampler, small_rmat):
        batch = sampler.sample(np.array([0, 1, 2]))
        dense = small_rmat.to_dense() > 0
        for block in batch.blocks:
            lsrc, ldst, _ = block.graph.to_coo()
            gs = block.src_global[lsrc]
            gd = block.dst_global[ldst]
            assert np.all(dense[gd, gs])

    def test_deterministic(self, small_rmat):
        a = NeighborSampler(small_rmat, (4, 4), seed=3).sample(np.arange(5))
        b = NeighborSampler(small_rmat, (4, 4), seed=3).sample(np.arange(5))
        for ba, bb in zip(a.blocks, b.blocks):
            assert np.array_equal(ba.graph.indices, bb.graph.indices)

    def test_duplicate_seeds_deduped(self, sampler):
        batch = sampler.sample(np.array([1, 1, 1, 2]))
        assert batch.seeds.tolist() == [1, 2]

    def test_empty_seeds_rejected(self, sampler):
        with pytest.raises(ValueError):
            sampler.sample(np.array([], dtype=np.int64))

    def test_invalid_fanouts(self, small_rmat):
        with pytest.raises(ValueError):
            NeighborSampler(small_rmat, fanouts=())
        with pytest.raises(ValueError):
            NeighborSampler(small_rmat, fanouts=(0,))

    def test_isolated_seed_yields_empty_rows(self, line_graph):
        s = NeighborSampler(line_graph, fanouts=(2,), seed=0)
        batch = s.sample(np.array([0]))  # vertex 0 has no in-edges
        assert batch.blocks[0].num_sampled_edges == 0

    def test_work_ops_accounting(self, sampler):
        batch = sampler.sample(np.arange(8))
        dims = [6, 4]
        expected = (
            batch.blocks[0].num_sampled_edges * 6
            + batch.blocks[1].num_sampled_edges * 4
        )
        assert batch.work_ops(dims) == expected

    def test_work_ops_dim_mismatch(self, sampler):
        batch = sampler.sample(np.arange(4))
        with pytest.raises(ValueError):
            batch.work_ops([1])

    def test_norm_shape(self, sampler):
        batch = sampler.sample(np.arange(4))
        block = batch.blocks[-1]
        assert block.norm().shape == (block.num_dst, 1)


class TestSeedValidation:
    """Seeds index arrays now: a bad id must raise, not wrap or truncate."""

    def test_negative_id_rejected(self, sampler):
        with pytest.raises(ValueError, match=r"-1 outside \[0, 256\)"):
            sampler.sample(np.array([-1, 5]))

    def test_id_past_the_graph_rejected(self, sampler, small_rmat):
        n = small_rmat.num_vertices
        with pytest.raises(ValueError, match=rf"{n} outside \[0, {n}\)"):
            sampler.sample(np.array([0, n]))

    def test_float_ids_rejected(self, sampler):
        with pytest.raises(ValueError, match="integer vertex ids"):
            sampler.sample(np.array([1.7, 2.2]))

    def test_map_is_clean_after_a_rejected_call(self, sampler):
        sampler.sample(np.arange(6))
        with pytest.raises(ValueError):
            sampler.sample(np.array([3, -2]))
        assert np.all(sampler._local == -1)
        assert sampler.sample(np.array([3])).seeds.tolist() == [3]

    def test_failure_inside_a_hop_leaves_no_labels_behind(self, sampler, monkeypatch):
        """The second hop dies after the map was written: the next call
        must not see the dead call's labels."""
        seeds = np.arange(10)
        want = NeighborSampler(sampler.graph, sampler.fanouts, seed=0).sample(seeds)
        real, calls = sampler_module.CSRGraph, []

        def dying(**kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise MemoryError("inside the hop")
            return real(**kwargs)

        monkeypatch.setattr(sampler_module, "CSRGraph", dying)
        with pytest.raises(MemoryError):
            sampler.sample(seeds)
        monkeypatch.undo()
        assert sampler._local is None or np.all(sampler._local == -1)
        sampler.rng = np.random.default_rng(0)
        _assert_same_batch(sampler.sample(seeds), want)


def _star(num_dst, degree):
    """``num_dst`` destinations, each fed by the same ``degree`` sources."""
    sources = num_dst + np.arange(degree)
    return from_edge_list(
        [(s, d) for d in range(num_dst) for s in sources],
        num_vertices=num_dst + degree,
    )


class TestUniformity:
    """Property (1): every ``fanout``-subset of a row's edge positions is
    equally likely.  Fixed seeds, so the verdicts never flake."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_every_subset_equally_likely(self, seed):
        rows, rounds = 500, 12
        graph = _star(rows, 6)
        subsets = {c: i for i, c in enumerate(itertools.combinations(range(6), 3))}
        counts = np.zeros(len(subsets))
        s = NeighborSampler(graph, fanouts=(3,), seed=seed)
        for _ in range(rounds):
            block = s.sample(np.arange(rows)).blocks[0]
            assert np.all(block.graph.in_degrees() == 3)
            picked = block.src_global[block.graph.indices].reshape(rows, 3) - rows
            for subset in map(tuple, picked.tolist()):
                counts[subsets[subset]] += 1  # KeyError: a repeated position
        expected = rows * rounds / len(subsets)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.999, df=len(subsets) - 1)

    def test_hub_row_includes_every_position_equally(self):
        degree, fanout, draws = 200, 5, 4000
        graph = _star(1, degree)
        s = NeighborSampler(graph, fanouts=(fanout,), seed=0)
        hits = np.zeros(degree)
        for _ in range(draws):
            block = s.sample(np.array([0])).blocks[0]
            hits[block.src_global[block.graph.indices] - 1] += 1
        p = fanout / degree
        sigma = np.sqrt(draws * p * (1 - p))
        assert hits.sum() == draws * fanout
        assert np.abs(hits - draws * p).max() < 5 * sigma


@st.composite
def graphs(draw):
    """Square graphs with what breaks samplers: isolated vertices,
    multi-edges, self-loops and one hub fed by every vertex."""
    n = draw(st.integers(2, 24))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 2), st.integers(0, n - 2)), max_size=60)
    )
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    if draw(st.booleans()):
        hub = draw(st.integers(0, n - 2))
        pairs += [(s, hub) for s in range(n - 1)]
    # vertex n - 1 is always isolated
    return from_edge_list(pairs, num_vertices=n)


def _row_sources(block, r):
    lo, hi = block.graph.indptr[r], block.graph.indptr[r + 1]
    return block.src_global[block.graph.indices[lo:hi]]


def _assert_same_batch(got, want):
    assert np.array_equal(got.seeds, want.seeds)
    for a, b in zip(got.blocks, want.blocks):
        for field in ("indptr", "indices", "edge_ids"):
            assert np.array_equal(getattr(a.graph, field), getattr(b.graph, field))
        assert a.graph.num_src == b.graph.num_src
        assert np.array_equal(a.src_global, b.src_global)
        assert np.array_equal(a.dst_global, b.dst_global)


@given(
    graph=graphs(),
    fanout_kind=st.sampled_from(["1", "3", "max", "max+5"]),
    hops=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_block_properties(graph, fanout_kind, hops, seed, data):
    max_deg = max(int(graph.in_degrees().max()), 1)
    fanout = {"1": 1, "3": 3, "max": max_deg, "max+5": max_deg + 5}[fanout_kind]
    seeds = np.array(
        data.draw(st.lists(st.integers(0, graph.num_vertices - 1), min_size=1, max_size=8))
    )
    sampler = NeighborSampler(graph, (fanout,) * hops, seed=seed)
    batch = sampler.sample(seeds)
    assert np.all(sampler._local == -1)
    degrees = graph.in_degrees()
    for block in batch.blocks:
        g = block.graph  # the constructor's structural checks, re-run
        CSRGraph(indptr=g.indptr, indices=g.indices, edge_ids=g.edge_ids, num_src=g.num_src)
        # (2) exact edge count, and no edge position taken twice: each row's
        # sources are a sub-multiset of the vertex's in-neighbours
        kept = np.minimum(degrees[block.dst_global], fanout)
        assert np.array_equal(block.graph.in_degrees(), kept)
        for r, v in enumerate(block.dst_global.tolist()):
            have = Counter(_row_sources(block, r).tolist())
            assert not have - Counter(graph.neighbors(v).tolist())
        # (4) self rows lead, new vertices ascending after them
        new = block.src_global[block.num_dst :]
        assert np.array_equal(block.src_global[: block.num_dst], block.dst_global)
        assert np.all(np.diff(new) > 0) and not np.isin(new, block.dst_global).any()
    # (5) same seed, same batch
    _assert_same_batch(batch, NeighborSampler(graph, (fanout,) * hops, seed=seed).sample(seeds))
    # (3) nothing to drop: the per-vertex loop's block, array for array
    if fanout >= max_deg:
        _assert_same_batch(batch, LoopSampler(graph, (fanout,) * hops, seed=seed).sample(seeds))


def test_samplers_over_one_graph_do_not_interfere(small_rmat):
    """Each sampler owns its scratch map and stream: interleaving two of
    them changes nothing either of them returns."""
    solo = NeighborSampler(small_rmat, (3, 3), seed=5)
    a = NeighborSampler(small_rmat, (3, 3), seed=5)
    b = NeighborSampler(small_rmat, (4, 2), seed=6)
    for lo in range(0, 60, 12):
        seeds = np.arange(lo, lo + 12)
        want = solo.sample(seeds)
        b.sample(seeds[::-1])
        got = a.sample(seeds)
        b.sample(seeds)
        _assert_same_batch(got, want)
    assert a._local is not b._local


def test_concurrent_callers_of_one_sampler_take_turns(small_rmat):
    """Serving shares one sampler between its workers: at full fan-out
    (no draws) every thread gets the batch a lone caller gets."""
    full = int(small_rmat.in_degrees().max())
    shared = NeighborSampler(small_rmat, (full, full), seed=0)
    seed_sets = [np.arange(lo, lo + 24) for lo in range(0, 192, 24)]
    want = [NeighborSampler(small_rmat, (full, full)).sample(s) for s in seed_sets]
    got, start = {}, threading.Barrier(len(seed_sets))

    def worker(i):
        start.wait()
        got[i] = [shared.sample(seed_sets[i]) for _ in range(20)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(seed_sets))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert sorted(got) == list(range(len(seed_sets)))
    for i, batches in got.items():
        for batch in batches:
            _assert_same_batch(batch, want[i])
    assert np.all(shared._local == -1)
