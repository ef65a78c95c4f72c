"""Table 8's work, counted: a partition's AP does one add per local edge
per feature, and its local edges are exactly the edges Libra assigned it
— every edge on one partition, so the counted work sums to |E| x width
(docs/models.md, Table 8 row)."""

import numpy as np
import pytest

from repro.graph.datasets import load_dataset
from repro.partition import (
    build_partitions,
    hash_edge_partition,
    libra_partition,
    random_edge_partition,
)

DATASETS = ("reddit", "ogbn-products", "proteins", "ogbn-papers", "am")
#: the equality holds for any vertex-cut assignment, not only Libra's
PARTITIONERS = {
    "libra": lambda g, p: libra_partition(g, p, seed=0),
    "random": lambda g, p: random_edge_partition(g, p, seed=0),
    "hash-src": lambda g, p: hash_edge_partition(g, p, by="src"),
}


@pytest.fixture(scope="module")
def graphs():
    return {name: load_dataset(name, scale=0.05, seed=0).graph for name in DATASETS}


@pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
@pytest.mark.parametrize("num_parts", (2, 4, 8))
@pytest.mark.parametrize("name", DATASETS)
def test_local_edges_are_the_assigned_edges(graphs, name, num_parts, partitioner):
    g = graphs[name]
    asn = PARTITIONERS[partitioner](g, num_parts)
    parts = build_partitions(g, asn, num_parts).parts
    counts = np.bincount(asn, minlength=num_parts)
    assert [p.num_edges for p in parts] == counts.tolist()
    assert counts.sum() == g.num_edges
    for p in parts:
        assert np.array_equal(np.sort(p.graph.edge_ids), np.flatnonzero(asn == p.part_id))
