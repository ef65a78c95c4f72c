"""The radix graph builders equal the comparison-sort oracle byte for byte.

``coo_to_csr``, ``CSRGraph.reverse`` (one stable transpose),
``dedupe_edges`` and ``build_blocks`` order their keys with
``_stable_order``, an LSD radix sort over 16-bit digits; value sets go
through ``sorted_unique``.  The oracle is the ``np.argsort(kind="stable")``
/ ``np.unique`` code they replaced, with the copying ``to_coo`` and the
``to_bidirected`` / ``union`` that held every intermediate, which the
recipes' ``generators._distinct_graph`` pipeline must equal
(``build_oracle.py``).  Key counts of 65,535 / 65,536 / 65,537
and one above 2**32 take the one-, two- and three-digit paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, integer_dtypes, unsigned_integer_dtypes

import build_oracle as oracle
import repro.graph.datasets
import repro.graph.generators
import repro.graph.utils
from repro.graph.builders import _stable_order, coo_to_csr, dedupe_edges, sorted_unique
from repro.graph.datasets import DATASET_REGISTRY, load_dataset
from repro.graph.generators import (
    FEATURE_CHUNK_ROWS,
    _distinct_graph,
    _join_edges,
    community_features,
    powerlaw_cluster_graph,
)
from repro.kernels.blocked import build_blocks

#: one digit either side of the first digit boundary
KEY_COUNTS = (65535, 65536, 65537)
#: three digits
HUGE = 2**32 + 1


@st.composite
def coo(draw, max_edges=60):
    """``(n, src, dst)`` over ``n`` vertices, arriving as drawn, sorted or
    reverse-sorted (destination-major)."""
    n = draw(st.one_of(st.integers(1, 40), st.sampled_from(KEY_COUNTS)))
    m = draw(st.integers(0, max_edges))
    ids = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    src = np.array(draw(ids), dtype=np.int64)
    dst = np.array(draw(ids), dtype=np.int64)
    arrival = draw(st.sampled_from(("drawn", "sorted", "reversed")))
    if arrival != "drawn":
        order = np.lexsort((src, dst))
        order = order if arrival == "sorted" else order[::-1]
        src, dst = src[order], dst[order]
    return n, src, dst


def _pairs_equal(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(coo(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_coo_to_csr_and_reverse_match_oracle(data, with_ids):
    n, src, dst = data
    eids = np.arange(src.size)[::-1] * 7 if with_ids else None
    got = coo_to_csr(src, dst, num_dst=n, num_src=n, edge_ids=eids)
    want = oracle.coo_to_csr(src, dst, num_dst=n, num_src=n, edge_ids=eids)
    assert oracle.graph_bytes(got) == oracle.graph_bytes(want)
    assert oracle.graph_bytes(got.reverse()) == oracle.graph_bytes(oracle.reverse(want))


@given(coo())
@settings(max_examples=80, deadline=None)
def test_coo_to_csr_rectangular_matches_oracle(data):
    n, src, dst = data
    got = coo_to_csr(dst, src // 3, num_dst=n // 3 + 1, num_src=n)
    want = oracle.coo_to_csr(dst, src // 3, num_dst=n // 3 + 1, num_src=n)
    assert oracle.graph_bytes(got) == oracle.graph_bytes(want)
    assert oracle.graph_bytes(got.reverse()) == oracle.graph_bytes(oracle.reverse(want))


@given(coo(max_edges=80))
@settings(max_examples=80, deadline=None)
def test_dedupe_edges_matches_oracle(data):
    _, src, dst = data
    # fold the ids onto a few values so most pairs repeat
    for s, d in ((src, dst), (src % 4, dst % 3)):
        _pairs_equal(dedupe_edges(s, d), oracle.dedupe_edges(s, d))


@given(coo(), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_build_blocks_matches_oracle(data, num_blocks):
    n, src, dst = data
    g = coo_to_csr(src, dst, num_dst=n, num_src=n)
    got, want = build_blocks(g, num_blocks), oracle.build_blocks(g, num_blocks)
    assert [oracle.graph_bytes(b) for b in got] == [oracle.graph_bytes(b) for b in want]


@given(arrays(st.one_of(integer_dtypes(), unsigned_integer_dtypes()),
              st.integers(0, 50)))
@settings(max_examples=100, deadline=None)
def test_sorted_unique_matches_np_unique(x):
    _pairs_equal([sorted_unique(x)], [oracle.unique(x)])


@given(st.lists(st.integers(0, HUGE - 1), max_size=40),
       st.lists(st.integers(0, 70000), max_size=40))
@settings(max_examples=80, deadline=None)
def test_stable_order_multi_digit(keys, ties):
    keys = np.array(keys, dtype=np.int64)
    got = _stable_order(keys, HUGE)
    _pairs_equal([got], [np.argsort(keys, kind="stable")])
    _pairs_equal([sorted_unique(keys)], [oracle.unique(keys)])
    # chained: sort by ``ties`` first, then by ``keys`` — a two-key lexsort
    ties = np.resize(np.array(ties, dtype=np.int64), keys.size)
    got = _stable_order(keys, HUGE, _stable_order(ties, 70001))
    _pairs_equal([got], [np.lexsort((ties, keys))])


@pytest.mark.parametrize("n", KEY_COUNTS)
def test_digit_boundary_graphs(n):
    """Every id at the top of the key range, in both arrival orders."""
    top = np.arange(n - 5, n, dtype=np.int64)
    src = np.concatenate([top, top[::-1], [0, n - 1, 0]])
    dst = np.concatenate([top[::-1], top, [n - 1, 0, n - 1]])
    for s, d in ((src, dst), (src[::-1], dst[::-1])):
        got = coo_to_csr(s, d, num_dst=n, num_src=n)
        want = oracle.coo_to_csr(s, d, num_dst=n, num_src=n)
        assert oracle.graph_bytes(got) == oracle.graph_bytes(want)
        assert oracle.graph_bytes(got.reverse()) == oracle.graph_bytes(oracle.reverse(want))
        _pairs_equal(dedupe_edges(s, d), oracle.dedupe_edges(s, d))


@pytest.mark.parametrize(
    "src, dst, n",
    [
        ([], [], 0),  # empty graph
        ([], [], 3),  # vertices, no edges
        ([0], [0], 1),  # one vertex, one self-loop
        ([0, 0, 0], [0, 0, 0], 1),  # one vertex, all duplicates
        ([2, 2, 2, 2], [1, 1, 1, 1], 3),  # all duplicates
    ],
)
def test_degenerate_inputs_match_oracle(src, dst, n):
    src, dst = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    got = coo_to_csr(src, dst, num_dst=n, num_src=n)
    want = oracle.coo_to_csr(src, dst, num_dst=n, num_src=n)
    assert oracle.graph_bytes(got) == oracle.graph_bytes(want)
    assert oracle.graph_bytes(got.reverse()) == oracle.graph_bytes(oracle.reverse(want))
    _pairs_equal(dedupe_edges(src, dst), oracle.dedupe_edges(src, dst))
    _pairs_equal([sorted_unique(src)], [oracle.unique(src)])
    for b in (1, 2):
        assert [oracle.graph_bytes(g) for g in build_blocks(got, b)] == [
            oracle.graph_bytes(g) for g in oracle.build_blocks(want, b)
        ]


def _oracle_routed(monkeypatch):
    """Route every dataset recipe through the oracle builders."""
    for module in (repro.graph.datasets, repro.graph.generators, repro.graph.utils):
        for name, fn in (("coo_to_csr", oracle.coo_to_csr),
                         ("dedupe_edges", oracle.dedupe_edges),
                         ("sorted_unique", oracle.unique)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fn)


@pytest.mark.parametrize(
    "name, scale",
    [(name, 0.05) for name in sorted(DATASET_REGISTRY)]
    # 81,920 vertices: the two-digit path on a real build
    + [("ogbn-papers", 2.5)],
)
def test_datasets_match_oracle_build(name, scale, monkeypatch):
    got = load_dataset(name, scale=scale, seed=0).graph
    _oracle_routed(monkeypatch)
    want = load_dataset(name, scale=scale, seed=0).graph
    assert got.num_vertices > 65536 or scale < 1
    assert oracle.graph_bytes(got) == oracle.graph_bytes(want)
    assert oracle.graph_bytes(got.reverse()) == oracle.graph_bytes(oracle.reverse(want))


def _graph_of(src, dst, num_dst, num_src, permute_ids=False):
    src, dst = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    eids = np.arange(src.size, dtype=np.int64)[::-1] * 3 if permute_ids else None
    return coo_to_csr(src, dst, num_dst=num_dst, num_src=num_src, edge_ids=eids)


@pytest.mark.parametrize("name", sorted(DATASET_REGISTRY))
def test_reverse_matches_oracle_on_every_dataset(name):
    """``reverse()`` is one stable transpose; the oracle expands to COO
    (copies) and sorts it again."""
    g = load_dataset(name, scale=0.05, seed=0).graph
    assert oracle.graph_bytes(g.reverse()) == oracle.graph_bytes(oracle.reverse(g))


@pytest.mark.parametrize("permute_ids", [False, True])
@pytest.mark.parametrize(
    "src, dst, num_dst, num_src",
    [
        ([0, 4, 4, 1, 2, 4], [0, 0, 1, 2, 2, 2], 3, 5),  # rectangular, 3 x 5
        ([1, 0], [0, 0], 1, 6),  # rectangular, sources past every row
        ([], [], 0, 0),  # empty graph
        ([], [], 4, 4),  # vertices, no edges
        ([0, 2, 2, 0, 3], [2, 0, 0, 3, 3], 5, 5),  # 1 and 4 isolated, a duplicate, a self loop
    ],
)
def test_reverse_matches_oracle_on_edge_cases(src, dst, num_dst, num_src, permute_ids):
    g = _graph_of(src, dst, num_dst, num_src, permute_ids)
    got = g.reverse()
    assert oracle.graph_bytes(got) == oracle.graph_bytes(oracle.reverse(g))
    assert (got.num_vertices, got.num_src) == (num_src, num_dst)


@given(coo(max_edges=80), st.sampled_from(("drawn", "folded", "rectangular")))
@settings(max_examples=80, deadline=None)
def test_to_bidirected_matches_oracle(data, shape):
    """Random multigraphs with self loops and duplicate edges (folded:
    most pairs repeat), square and rectangular."""
    n, src, dst = data
    if shape == "folded":
        src, dst = src % 4, dst % 3
    if shape == "rectangular":
        g = _graph_of(dst, src // 3, n // 3 + 1, n)
    else:
        g = _graph_of(src, dst, n, n)
    got, want = repro.graph.utils.to_bidirected(g), oracle.to_bidirected(g)
    assert oracle.graph_bytes(got) == oracle.graph_bytes(want)


@pytest.mark.parametrize("n, blocks", [(300, 4), (700, 8)])
def test_undirected_powerlaw_cluster_graph_is_its_to_bidirected(n, blocks):
    """Proteins' recipe builds both stages in one pipeline."""
    g = powerlaw_cluster_graph(n, num_blocks=blocks, avg_degree=10.0, seed=2)
    got = powerlaw_cluster_graph(n, num_blocks=blocks, avg_degree=10.0, seed=2, directed=False)
    assert oracle.graph_bytes(got) == oracle.graph_bytes(oracle.to_bidirected(g))


@given(coo(max_edges=60), coo(max_edges=60), st.integers(1, 45), st.booleans())
@settings(max_examples=80, deadline=None)
def test_union_matches_oracle(a, b, n, bidirected):
    """Both graphs' edges, ``b``'s clipped to ``[0, n)``, deduped: the
    recipes' pipeline, with and without the bidirected stage."""
    _, asrc, adst = a
    nb, bsrc, bdst = b
    ga = _graph_of(asrc % n, adst % n, n, n)
    gb = _graph_of(bsrc, bdst, nb, nb)
    got = _distinct_graph(lambda: _join_edges(ga, gb, n), n, bidirected)
    want = oracle.union(ga, gb, n)
    want = oracle.to_bidirected(want) if bidirected else want
    assert oracle.graph_bytes(got) == oracle.graph_bytes(want)


@pytest.mark.parametrize("permute_ids", [False, True])
@given(data=coo())
@settings(max_examples=40, deadline=None)
def test_to_coo_returns_the_stored_arrays_read_only(data, permute_ids):
    n, src, dst = data
    g = _graph_of(src, dst, n, n, permute_ids)
    got = g.to_coo()
    _pairs_equal(got, oracle.to_coo(g))
    assert got[0] is g.indices and got[2] is g.edge_ids
    for arr in (got[0], got[2]):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[:1] = 0


@pytest.mark.parametrize(
    "n, dim, dtype",
    [(1, 3, np.float32), (FEATURE_CHUNK_ROWS, 64, np.float32),
     (FEATURE_CHUNK_ROWS + 1, 5, np.float64), (3 * FEATURE_CHUNK_ROWS - 7, 16, np.float32),
     (81_920, 64, np.float32)],
)
def test_community_features_match_the_one_shot_build(n, dim, dtype):
    """Chunked ``standard_normal`` draws continue the one-shot stream, so
    the chunked build is byte-identical, across chunk boundaries too."""
    labels = np.random.default_rng(n).integers(0, 32, size=n)
    got = community_features(labels, dim, signal=1.5, seed=7, dtype=dtype)
    want = oracle.community_features(labels, dim, signal=1.5, seed=7, dtype=dtype)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
