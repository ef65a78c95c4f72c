"""Cache-blocking machinery (Alg. 2)."""

import numpy as np
import pytest

from repro.graph.builders import from_edge_list
from repro.kernels import aggregate
from repro.kernels.blocked import BlockedGraph, block_bounds, build_blocks


class TestBlockBounds:
    def test_even_split(self):
        assert block_bounds(8, 4).tolist() == [0, 2, 4, 6, 8]

    def test_ceil_division(self):
        # 10 sources, 4 blocks -> block size 3, last block short
        assert block_bounds(10, 4).tolist() == [0, 3, 6, 9, 10]

    def test_single_block(self):
        assert block_bounds(5, 1).tolist() == [0, 5]

    def test_more_blocks_than_sources(self):
        b = block_bounds(3, 8)
        assert b[-1] == 3
        assert np.all(np.diff(b) >= 0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            block_bounds(5, 0)


class TestBuildBlocks:
    def test_edges_partitioned(self, small_rmat):
        blocks = build_blocks(small_rmat, 4)
        assert len(blocks) == 4
        assert sum(b.num_edges for b in blocks) == small_rmat.num_edges

    def test_sources_in_range(self, small_rmat):
        blocks = build_blocks(small_rmat, 4)
        bounds = block_bounds(small_rmat.num_src, 4)
        for i, b in enumerate(blocks):
            if b.num_edges:
                assert b.indices.min() >= bounds[i]
                assert b.indices.max() < bounds[i + 1]

    def test_single_block_is_original(self, small_rmat):
        blocks = build_blocks(small_rmat, 1)
        assert blocks[0] is small_rmat

    def test_destination_set_preserved(self, small_rmat):
        for b in build_blocks(small_rmat, 3):
            assert b.num_vertices == small_rmat.num_vertices

    def test_edge_ids_global(self, small_rmat):
        blocks = build_blocks(small_rmat, 4)
        all_eids = np.concatenate([b.edge_ids for b in blocks])
        assert sorted(all_eids.tolist()) == sorted(
            small_rmat.edge_ids.tolist()
        )


class TestBlockedGraph:
    def test_build_and_reuse(self, small_rmat, small_features):
        bg = BlockedGraph.build(small_rmat, 4)
        out1 = aggregate(bg, small_features)
        assert np.array_equal(aggregate(bg, small_features), out1)
        whole = aggregate(small_rmat, small_features)
        np.testing.assert_allclose(out1, whole, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("reduce_op", ["max", "min", "mean"])
    def test_finalize_runs_once_after_the_last_block(self, reduce_op):
        """Row 1's only in-edges come from the second source block: after
        the first block it still holds the reducer identity, which a
        per-block finalize would zero (max/min) or divide by a per-block
        count (mean).  One finalize against the whole graph keeps the
        real reduction; row 2 has no in-edges at all and reads 0."""
        g = from_edge_list([(0, 0), (2, 1), (3, 1)], num_vertices=4)
        f_v = -np.arange(1.0, 5.0).reshape(4, 1)  # all negative: max < 0
        bg = BlockedGraph.build(g, 2)
        assert [b.num_edges for b in bg.blocks] == [1, 2]
        got = aggregate(bg, f_v, None, "copylhs", reduce_op)
        want = {"max": [-1.0, -3.0, 0.0, 0.0], "min": [-1.0, -4.0, 0.0, 0.0],
                "mean": [-1.0, -3.5, 0.0, 0.0]}[reduce_op]
        assert got[:, 0].tolist() == want
        assert np.array_equal(got, aggregate(g, f_v, None, "copylhs", reduce_op))

    def test_block_size(self, small_rmat):
        bg = BlockedGraph.build(small_rmat, 4)
        width = -(-small_rmat.num_src // 4)
        assert np.diff(bg.bounds).tolist() == [width] * 3 + [small_rmat.num_src - 3 * width]
        for block, lo, hi in zip(bg.blocks, bg.bounds[:-1], bg.bounds[1:]):
            assert np.all((block.indices >= lo) & (block.indices < hi))
