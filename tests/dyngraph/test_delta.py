"""DynamicGraph: merged CSR correctness, compaction bit-identity,
tombstone semantics, auto-compaction."""

import numpy as np
import pytest

from repro.dyngraph import DynamicGraph
from repro.graph.builders import coo_to_csr, from_edge_list
from repro.graph.csr import INDEX_DTYPE

EDGES = [(0, 1), (2, 1), (3, 1), (0, 3), (1, 0), (3, 0), (1, 2)]


def rebuild(dyn: DynamicGraph):
    """From-scratch CSR over the surviving edge sequence — the ground
    truth ``csr()``/``compact()`` must equal bit-for-bit."""
    src, dst, eid = dyn.live_edges()
    n = dyn.num_vertices
    return coo_to_csr(src, dst, num_dst=n, num_src=n, edge_ids=eid)


def has_edge(dyn: DynamicGraph, u: int, v: int) -> bool:
    return u in dyn.csr().neighbors(v).tolist()


def assert_csr_equal(a, b):
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.edge_ids, b.edge_ids)
    assert a.num_src == b.num_src


# -- construction -----------------------------------------------------------------


def test_requires_square_base():
    rect = coo_to_csr([0, 1], [0, 1], num_dst=2, num_src=5)
    with pytest.raises(ValueError, match="square"):
        DynamicGraph(rect)


def test_fixed_vertex_set(tiny_graph):
    dyn = DynamicGraph(tiny_graph)
    with pytest.raises(ValueError, match=r"\[0, 5\)"):
        dyn.add_edges([0], [5])
    with pytest.raises(ValueError, match=r"\[0, 5\)"):
        dyn.add_edges([-1], [0])


def test_empty_base():
    g = from_edge_list([], num_vertices=3)
    dyn = DynamicGraph(g)
    assert dyn.num_edges == 0
    dyn.add_edges([0, 1], [1, 2])
    assert dyn.num_edges == 2
    assert dyn.csr().neighbors(1).tolist() == [0]
    assert_csr_equal(dyn.csr(), from_edge_list([(0, 1), (1, 2)], num_vertices=3))


# -- compaction bit-identity -------------------------------------------------------


def test_compact_add_only_equals_from_scratch():
    """Growing a prefix graph edge-by-edge compacts to exactly the graph
    built from the full edge list in one go."""
    for cut in (1, 3, 5):
        full = from_edge_list(EDGES, num_vertices=5)
        dyn = DynamicGraph(
            from_edge_list(EDGES[:cut], num_vertices=5), compact_threshold=None
        )
        for u, v in EDGES[cut:]:
            dyn.add_edges([u], [v])
        assert_csr_equal(dyn.csr(), full)
        assert_csr_equal(dyn.compact(), full)


def test_compact_with_removals_equals_from_scratch(tiny_graph):
    dyn = DynamicGraph(tiny_graph, compact_threshold=None)
    dyn.add_edges([4, 4, 2], [0, 1, 4])
    dyn.remove_edges([0], [1])   # base edge
    dyn.remove_edges([4], [1])   # delta edge
    compacted = dyn.compact()
    assert_csr_equal(compacted, rebuild(dyn))
    assert dyn.num_edges == tiny_graph.num_edges + 3 - 2
    # the new base serves the same merged view
    assert_csr_equal(dyn.csr(), compacted)


def test_edge_ids_stable_across_compactions(tiny_graph):
    """An edge keeps its id through mutation and compaction; removed ids
    are never reused (feature rows / assignments stay valid)."""
    dyn = DynamicGraph(tiny_graph, compact_threshold=None)
    e1 = int(dyn.add_edges([4], [0])[0])
    removed = dyn.remove_edges([1], [0])
    dyn.compact()
    e2 = int(dyn.add_edges([4], [1])[0])
    assert e2 > e1  # monotone: no reuse of removed ids
    assert int(removed[0]) not in dyn.csr().edge_ids.tolist()
    assert e1 in dyn.csr().edge_ids.tolist()
    assert_csr_equal(dyn.csr(), rebuild(dyn))


def test_randomized_mutation_sequence_matches_rebuild(small_rmat):
    """Property-style: an arbitrary interleaving of adds/removes keeps
    the merged view bit-equal to the from-scratch rebuild."""
    rng = np.random.default_rng(0)
    n = small_rmat.num_vertices
    dyn = DynamicGraph(small_rmat, compact_threshold=None)
    for step in range(30):
        if rng.random() < 0.6:
            k = int(rng.integers(1, 8))
            dyn.add_edges(rng.integers(0, n, k), rng.integers(0, n, k))
        else:
            # remove an existing live edge, found via the merged CSR
            v = int(rng.integers(0, n))
            nbrs = dyn.csr().neighbors(v)
            if nbrs.size:
                dyn.remove_edges([int(nbrs[rng.integers(nbrs.size)])], [v])
        if step % 10 == 9:
            assert_csr_equal(dyn.csr(), rebuild(dyn))
    ref = rebuild(dyn)
    assert_csr_equal(dyn.csr(), ref)
    assert_csr_equal(dyn.compact(), ref)


# -- merged CSR -------------------------------------------------------------------


def test_merged_view_matches_csr(tiny_graph):
    """Base + delta - tombstones, read row by row, is the rebuilt graph."""
    dyn = DynamicGraph(tiny_graph, compact_threshold=None)
    dyn.add_edges([4, 0], [1, 2])
    dyn.remove_edges([2], [1])
    merged, ref = dyn.csr(), rebuild(dyn)
    assert np.array_equal(merged.in_degrees(), ref.in_degrees())
    for v in range(dyn.num_vertices):
        assert merged.neighbors(v).tolist() == ref.neighbors(v).tolist()
        assert merged.edge_ids_of(v).tolist() == ref.edge_ids_of(v).tolist()


def test_has_edge(tiny_graph):
    dyn = DynamicGraph(tiny_graph)
    assert has_edge(dyn, 0, 1)
    assert not has_edge(dyn, 1, 4)
    dyn.add_edges([1], [4])
    assert has_edge(dyn, 1, 4)
    dyn.remove_edges([0], [1])
    assert not has_edge(dyn, 0, 1)


# -- tombstone semantics -----------------------------------------------------------


def test_remove_all_parallel_edges(tiny_graph):
    dyn = DynamicGraph(tiny_graph, compact_threshold=None)
    dyn.add_edges([0, 0], [1, 1])  # two more copies of 0 -> 1
    removed = dyn.remove_edges([0], [1])
    assert removed.size == 3  # base copy + both delta copies
    assert not has_edge(dyn, 0, 1)
    assert_csr_equal(dyn.csr(), rebuild(dyn))


def test_strict_remove_raises_and_leaves_graph_untouched(tiny_graph):
    dyn = DynamicGraph(tiny_graph, compact_threshold=None)
    before = dyn.csr()
    with pytest.raises(ValueError, match="no live edge"):
        # first pair exists, second does not: nothing may be applied
        dyn.remove_edges([0, 4], [1, 4])
    assert has_edge(dyn, 0, 1)
    assert dyn.num_removed == 0
    assert_csr_equal(dyn.csr(), before)
    # the existing pair alone applies
    removed = dyn.remove_edges([0], [1])
    assert removed.size == 1 and not has_edge(dyn, 0, 1)


def test_double_remove_is_strict_error(tiny_graph):
    dyn = DynamicGraph(tiny_graph, compact_threshold=None)
    with pytest.raises(ValueError, match="no live edge"):
        dyn.remove_edges([0, 0], [1, 1])  # only one live 0 -> 1 exists


# -- accounting / auto-compaction --------------------------------------------------


def test_counters_and_delta_fraction(tiny_graph):
    dyn = DynamicGraph(tiny_graph, compact_threshold=None)
    assert dyn.delta_fraction == 0.0
    dyn.add_edges([4, 4], [0, 1])
    dyn.remove_edges([0], [3])
    st = dyn.stats()
    assert st["num_added"] == 2 and st["num_removed"] == 1
    assert st["num_delta_edges"] == 2 and st["num_tombstones"] == 1
    assert st["num_edges"] == tiny_graph.num_edges + 1
    assert dyn.delta_fraction == pytest.approx(3 / tiny_graph.num_edges)
    dyn.compact()
    assert dyn.delta_fraction == 0.0 and dyn.num_tombstones == 0


def test_auto_compaction_triggers_at_threshold(small_rmat):
    dyn = DynamicGraph(small_rmat, compact_threshold=0.05)
    budget = int(small_rmat.num_edges * 0.05) + 2
    rng = np.random.default_rng(1)
    n = small_rmat.num_vertices
    dyn.add_edges(rng.integers(0, n, budget), rng.integers(0, n, budget))
    assert dyn.num_compactions >= 1
    assert dyn.num_delta_edges == 0  # folded into the new base
    assert dyn.num_edges == small_rmat.num_edges + budget
    assert_csr_equal(dyn.csr(), rebuild(dyn))


def test_csr_cached_until_mutation(tiny_graph):
    dyn = DynamicGraph(tiny_graph, compact_threshold=None)
    dyn.add_edges([4], [0])
    first = dyn.csr()
    assert dyn.csr() is first  # cached
    dyn.add_edges([4], [1])
    assert dyn.csr() is not first  # invalidated


def test_pristine_csr_is_base(tiny_graph):
    assert DynamicGraph(tiny_graph).csr() is tiny_graph


def test_live_edges_dtype_and_order(tiny_graph):
    dyn = DynamicGraph(tiny_graph, compact_threshold=None)
    dyn.add_edges([4], [4])
    src, dst, eid = dyn.live_edges()
    assert src.dtype == dst.dtype == eid.dtype == INDEX_DTYPE
    # base storage order first, then arrival order
    assert dst[-1] == 4 and src[-1] == 4
    assert eid[-1] == tiny_graph.num_edges
