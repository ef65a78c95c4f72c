"""DynamicGraph: one batch, one rebuild — byte-equal to the delta-CSR
overlay it replaced (``delta_oracle.py``) and to a from-scratch build.

The overlay's merged view is ``coo_to_csr`` over the surviving edges in
base order then arrival order; the single rebuild keeps the current CSR
order and appends arrivals, and ``coo_to_csr``'s stable destination sort
makes the two the same rows, ids and order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delta_oracle
from repro.dyngraph import DynamicGraph
from repro.graph.builders import coo_to_csr, from_edge_list
from repro.graph.csr import INDEX_DTYPE

EDGES = [(0, 1), (2, 1), (3, 1), (0, 3), (1, 0), (3, 0), (1, 2)]


def pairs(*edges):
    """``[(u, v), ...]`` as the ``(src, dst)`` arrays ``update`` takes."""
    arr = np.asarray(edges, dtype=INDEX_DTYPE).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def assert_csr_equal(a, b):
    for name in ("indptr", "indices", "edge_ids"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert a.num_src == b.num_src


def oracle_update(oracle, add=None, remove=None):
    """One batch through the overlay, as ``apply_topology`` drove it:
    both batches validated, then removals, then additions."""
    n = oracle.num_vertices
    add = add if add is not None else pairs()
    remove = remove if remove is not None else pairs()
    delta_oracle._as_endpoint_arrays(*add, n, "add")
    delta_oracle._as_endpoint_arrays(*remove, n, "remove")
    if remove[0].size:
        oracle.remove_edges(*remove)
    if add[0].size:
        oracle.add_edges(*add)


def has_edge(dyn: DynamicGraph, u: int, v: int) -> bool:
    return u in dyn.csr().neighbors(v).tolist()


# -- construction -----------------------------------------------------------------


def test_requires_square_base():
    rect = coo_to_csr([0, 1], [0, 1], num_dst=2, num_src=5)
    with pytest.raises(ValueError, match="square"):
        DynamicGraph(rect)


def test_fixed_vertex_set(tiny_graph):
    dyn = DynamicGraph(tiny_graph)
    for bad in (pairs((0, 5)), pairs((-1, 0))):
        with pytest.raises(ValueError, match=r"\[0, 5\)"):
            dyn.update(add=bad)
        with pytest.raises(ValueError, match=r"\[0, 5\)"):
            dyn.update(remove=bad)
    assert dyn.csr() is tiny_graph


def test_empty_base():
    dyn = DynamicGraph(from_edge_list([], num_vertices=3))
    assert dyn.csr().num_edges == 0
    dyn.update(add=pairs((0, 1), (1, 2)))
    assert dyn.csr().num_edges == 2
    assert dyn.csr().neighbors(1).tolist() == [0]
    assert_csr_equal(dyn.csr(), from_edge_list([(0, 1), (1, 2)], num_vertices=3))


def test_pristine_csr_is_base(tiny_graph):
    dyn = DynamicGraph(tiny_graph)
    assert dyn.csr() is tiny_graph and dyn.compact() is tiny_graph


def test_csr_and_compact_return_the_graph_update_returned(tiny_graph):
    dyn = DynamicGraph(tiny_graph)
    new = dyn.update(add=pairs((4, 0)), remove=pairs((0, 1)))
    assert dyn.csr() is new and dyn.compact() is new
    assert new.num_edges == tiny_graph.num_edges


def test_update_leaves_the_previous_graph_untouched(tiny_graph):
    """A reader holding the old CSR keeps it: an update builds a new one."""
    before = [a.copy() for a in (tiny_graph.indptr, tiny_graph.indices, tiny_graph.edge_ids)]
    dyn = DynamicGraph(tiny_graph)
    assert dyn.update(add=pairs((4, 4)), remove=pairs((1, 2))) is not tiny_graph
    after = (tiny_graph.indptr, tiny_graph.indices, tiny_graph.edge_ids)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


# -- against a from-scratch build ------------------------------------------------------


def test_add_only_equals_from_scratch():
    """Growing a prefix graph batch by batch ends at exactly the graph
    built from the full edge list in one go."""
    full = from_edge_list(EDGES, num_vertices=5)
    for cut in (1, 3, 5):
        dyn = DynamicGraph(from_edge_list(EDGES[:cut], num_vertices=5))
        for u, v in EDGES[cut:]:
            dyn.update(add=pairs((u, v)))
        assert_csr_equal(dyn.csr(), full)
        one_batch = DynamicGraph(from_edge_list(EDGES[:cut], num_vertices=5))
        assert_csr_equal(one_batch.update(add=pairs(*EDGES[cut:])), full)


def test_removals_equal_the_oracle_rebuild(tiny_graph):
    dyn, oracle = DynamicGraph(tiny_graph), delta_oracle.DynamicGraph(tiny_graph, None)
    for batch in (
        {"add": pairs((4, 0), (4, 1), (2, 4))},
        {"remove": pairs((0, 1), (4, 1))},  # a base edge and an added one
    ):
        dyn.update(**batch)
        oracle_update(oracle, **batch)
    src, dst, eid = oracle.live_edges()
    assert_csr_equal(dyn.csr(), coo_to_csr(src, dst, num_dst=5, num_src=5, edge_ids=eid))
    assert dyn.csr().num_edges == tiny_graph.num_edges + 3 - 2


def test_edge_ids_are_never_reused(tiny_graph):
    """Removing the max-id edge and then adding hands out a fresh id, so
    edge-indexed arrays stay valid."""
    dyn = DynamicGraph(tiny_graph)
    added = int(dyn.update(add=pairs((4, 0))).edge_ids.max())
    assert added == tiny_graph.num_edges
    dyn.update(remove=pairs((4, 0)))
    assert added not in dyn.csr().edge_ids.tolist()
    new = dyn.update(add=pairs((4, 1)))
    assert int(new.edge_ids.max()) == added + 1
    assert int(new.edge_ids_of(1)[-1]) == added + 1


# -- batch semantics -----------------------------------------------------------------


def test_add_and_remove_of_one_pair_replaces(tiny_graph):
    """Removals apply before additions: the batch swaps the existing
    ``0 -> 1`` for a new copy with a new id at the end of row 1."""
    dyn = DynamicGraph(tiny_graph)
    old_id = int(tiny_graph.edge_ids_of(1)[tiny_graph.neighbors(1).tolist().index(0)])
    new = dyn.update(add=pairs((0, 1)), remove=pairs((0, 1)))
    assert new.neighbors(1).tolist() == [2, 3, 0]
    assert int(new.edge_ids_of(1)[-1]) == tiny_graph.num_edges
    assert old_id not in new.edge_ids.tolist()


def test_remove_takes_every_parallel_edge(tiny_graph):
    dyn = DynamicGraph(tiny_graph)
    dyn.update(add=pairs((0, 1), (0, 1)))  # two more copies of 0 -> 1
    assert dyn.csr().neighbors(1).tolist().count(0) == 3
    dyn.update(remove=pairs((0, 1)))
    assert not has_edge(dyn, 0, 1)
    assert dyn.csr().num_edges == tiny_graph.num_edges - 1


def test_remove_several_pairs_into_one_row(tiny_graph):
    dyn = DynamicGraph(tiny_graph)
    new = dyn.update(remove=pairs((3, 1), (0, 1), (3, 0)))
    assert new.neighbors(1).tolist() == [2] and new.neighbors(0).tolist() == [1]


@pytest.mark.parametrize(
    "remove",
    [pairs((0, 1), (4, 4)), pairs((0, 1), (0, 1)), pairs((4, 4), (0, 1))],
    ids=["missing", "duplicate", "missing-first"],
)
def test_bad_remove_raises_and_leaves_graph_untouched(tiny_graph, remove):
    """A removed pair with no live edge, or one named twice in a batch,
    fails the whole batch — its additions included — before any change."""
    dyn = DynamicGraph(tiny_graph)
    with pytest.raises(ValueError, match="no live edge"):
        dyn.update(add=pairs((4, 0)), remove=remove)
    assert dyn.csr() is tiny_graph
    assert int(dyn.update(add=pairs((4, 0))).edge_ids.max()) == tiny_graph.num_edges


def test_bad_remove_names_the_first_bad_pair(tiny_graph):
    with pytest.raises(ValueError, match="no live edge 4 -> 4"):
        DynamicGraph(tiny_graph).update(remove=pairs((0, 1), (4, 4), (2, 2)))


# -- against the overlay ---------------------------------------------------------------


@st.composite
def graphs(draw):
    """A small square graph with parallel edges and self loops."""
    n = draw(st.integers(1, 7))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return from_edge_list(draw(st.lists(ends, max_size=20)), num_vertices=n)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(base=graphs(), threshold=st.sampled_from([None, 0.05, 0.5, 2.0]), data=st.data())
def test_random_batches_match_the_overlay(base, threshold, data):
    """Random add/remove batches — parallel edges, a pair removed and
    re-added in one batch, the max-id edge removed before an add, and
    invalid batches (a pair removed twice, a pair with no live edge) —
    leave both graphs byte-equal after every batch, at any overlay
    compaction threshold."""
    n = base.num_vertices
    dyn, oracle = DynamicGraph(base), delta_oracle.DynamicGraph(base, threshold)
    vertex = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(1, 6))):
        graph = dyn.csr()
        src, dst, eid = graph.to_coo()
        live = sorted(set(zip(src.tolist(), dst.tolist())))
        remove = data.draw(st.lists(st.sampled_from(live), unique=True)) if live else []
        if live and data.draw(st.booleans()):  # the max-id edge goes
            top = int(np.argmax(eid))
            remove = sorted(set(remove) | {(int(src[top]), int(dst[top]))})
        add = data.draw(st.lists(st.tuples(vertex, vertex), max_size=4))
        if remove and data.draw(st.booleans()):  # re-add a removed pair
            add.append(data.draw(st.sampled_from(remove)))
        bad = data.draw(st.sampled_from([None, "duplicate", "missing"]))
        if bad == "duplicate" and remove:
            remove = remove + [remove[0]]
        elif bad == "missing":
            absent = [(u, v) for u in range(n) for v in range(n) if (u, v) not in set(live)]
            bad = "missing" if absent else None
            remove = remove + absent[:1]
        else:
            bad = None
        batch = {"add": pairs(*add), "remove": pairs(*remove)}
        if bad:
            with pytest.raises(ValueError, match="no live edge"):
                dyn.update(**batch)
            with pytest.raises(ValueError, match="no live edge"):
                oracle_update(oracle, **batch)
            assert dyn.csr() is graph
        else:
            dyn.update(**batch)
            oracle_update(oracle, **batch)
        assert_csr_equal(dyn.csr(), oracle.csr())
        assert dyn.csr().num_edges == oracle.num_edges
