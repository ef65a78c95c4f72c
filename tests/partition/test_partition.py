"""Partition data structures: local/global ids, vertex_map, membership."""

import numpy as np
import pytest

from repro.graph.builders import from_edge_list
from repro.partition import build_partitions, libra_partition
from repro.partition.baselines import random_edge_partition


@pytest.fixture
def parted(small_rmat):
    asn = libra_partition(small_rmat, 4, seed=0)
    return build_partitions(small_rmat, asn, 4)


class TestBuild:
    def test_edges_conserved(self, small_rmat, parted):
        assert sum(p.num_edges for p in parted.parts) == small_rmat.num_edges

    def test_local_graphs_consistent(self, parted):
        for p in parted.parts:
            assert p.graph.num_vertices == p.num_vertices
            if p.num_edges:
                assert p.graph.indices.max() < p.num_vertices

    def test_local_edges_match_global(self, small_rmat, parted):
        """Every local edge maps back to a global edge of the right pair."""
        gsrc, gdst, geid = small_rmat.to_coo()
        by_eid = {int(e): (int(s), int(d)) for s, d, e in zip(gsrc, gdst, geid)}
        for p in parted.parts:
            lsrc, ldst, leid = p.graph.to_coo()
            for s, d, e in zip(lsrc, ldst, leid):
                assert by_eid[int(e)] == (
                    int(p.global_ids[s]),
                    int(p.global_ids[d]),
                )

    def test_membership_matches_parts(self, parted):
        for p in parted.parts:
            assert np.all(parted.membership[p.global_ids, p.part_id])

    def test_isolated_vertices_placed(self, small_rmat):
        asn = libra_partition(small_rmat, 3, seed=0)
        parted = build_partitions(small_rmat, asn, 3)
        assert np.all(parted.membership.any(axis=1))

    def test_isolated_vertices_dealt_round_robin(self):
        """A vertex no edge touches lives on exactly partition ``v % P``;
        an edge's endpoints live only where the edge was assigned."""
        g = from_edge_list([(0, 1), (1, 2)], num_vertices=7)
        parted = build_partitions(g, np.array([1, 1]), 3)
        for v in range(7):
            want = [1] if v <= 2 else [v % 3]
            assert np.flatnonzero(parted.membership[v]).tolist() == want, v

    def test_assignment_validation(self, small_rmat):
        bad = np.full(small_rmat.num_edges, 9)
        with pytest.raises(ValueError, match="out-of-range"):
            build_partitions(small_rmat, bad, 4)

    def test_wrong_length_rejected(self, small_rmat):
        with pytest.raises(ValueError, match="every edge"):
            build_partitions(small_rmat, np.zeros(3), 4)


class TestIds:
    def test_local_of_round_trip(self, parted):
        for p in parted.parts:
            locs = p.local_of(p.global_ids)
            assert np.array_equal(locs, np.arange(p.num_vertices))

    def test_local_of_missing_raises(self, parted):
        p = parted.parts[0]
        missing = np.setdiff1d(
            np.arange(parted.graph.num_vertices), p.global_ids
        )
        if missing.size:
            with pytest.raises(KeyError):
                p.local_of(missing[:1])

    def test_contains(self, parted):
        p = parted.parts[0]
        assert np.all(p.contains(p.global_ids))

    def test_vertex_map_offsets(self, parted):
        sizes = [p.num_vertices for p in parted.parts]
        assert parted.vertex_map.tolist() == [0] + list(
            np.cumsum(sizes)
        )


class TestSplitVertices:
    def test_clones_consistent(self, parted):
        for gv in parted.split_vertices[:10]:
            clones = parted.clones_of(int(gv))
            assert len(clones) >= 2
            for part_id, local in clones:
                assert parted.parts[part_id].global_ids[local] == gv

    def test_replication_factor_formula(self, parted):
        clones = parted.membership.sum(axis=1)
        present = clones > 0
        assert parted.replication_factor == pytest.approx(
            clones[present].mean()
        )

    def test_random_partition_replicates_more(self, small_rmat, parted):
        rnd = build_partitions(
            small_rmat, random_edge_partition(small_rmat, 4, seed=0), 4
        )
        assert rnd.replication_factor >= parted.replication_factor
