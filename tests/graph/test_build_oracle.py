"""The radix graph builders equal the comparison-sort oracle byte for byte.

``coo_to_csr`` (and through it ``CSRGraph.reverse``), ``dedupe_edges``
and ``build_blocks`` order their keys with ``_stable_order``, an LSD radix
sort over 16-bit digits; value sets go through ``sorted_unique``.  The
oracle is the ``np.argsort(kind="stable")`` / ``np.unique`` code they
replaced (``build_oracle.py``).  Key counts of 65,535 / 65,536 / 65,537
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
