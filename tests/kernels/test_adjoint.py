"""The adjoint pass ``Aᵀ g`` (the SpMM backward) is the copylhs/sum AP over
the reversed graph, byte for byte, at any thread count.

It multiplies by a CSC view of the forward's own scipy operand, so no
reversed graph is built; more threads cut the feature columns.
"""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph
from repro.kernels import aggregate
from repro.kernels.engine import adjoint_operand, adjoint_pass
from repro.kernels.instrumentation import AP_TIMER
from repro.sampling.sampler import NeighborSampler


def _sampled_block():
    """The outermost hop of a 2-layer sample: rectangular, num_src > rows."""
    graph = rmat_graph(scale=9, edge_factor=8.0, seed=4)
    batch = NeighborSampler(graph, (5, 5), seed=2).sample(np.arange(0, 512, 7))
    block = batch.blocks[0].graph
    assert block.num_src > block.num_vertices > 0
    return block


GRAPHS = {
    "square": lambda: rmat_graph(scale=8, edge_factor=8.0, seed=3),
    "sampled_block": _sampled_block,
    # rows 1 and 4 pull nothing, sources 0, 3 and 6 feed nothing
    "empty_rows_and_cols": lambda: CSRGraph(
        indptr=[0, 2, 2, 5, 6, 6], indices=[5, 1, 2, 2, 4, 5], num_src=7
    ),
    "zero_edges": lambda: CSRGraph(indptr=np.zeros(6, np.int64), indices=[], num_src=3),
}
THREADS = [1, 4]  # 4 cuts the 5 feature columns 1 + 1 + 1 + 2


def _upstream(graph, dtype, seed=0):
    g = np.random.default_rng(seed).standard_normal((graph.num_vertices, 5)).astype(dtype)
    g[:, 0] = -0.0  # a sum of negative zeros is where two orders could differ
    return g


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_adjoint_is_the_pass_over_the_reverse(name, dtype, threads):
    graph = GRAPHS[name]()
    g = _upstream(graph, dtype)
    want = aggregate(graph.reverse(), g, num_threads=1)
    for _ in range(2):  # the second call reads the operand the first built
        got = adjoint_pass(graph, g, threads)
        assert got.shape == (graph.num_src, g.shape[1]) and got.dtype == dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("threads", THREADS)
def test_each_call_is_one_ap_call(small_rmat, threads):
    g = _upstream(small_rmat, np.float32)
    for _ in range(3):
        before = AP_TIMER.read()[1]
        adjoint_pass(small_rmat, g, threads)
        assert AP_TIMER.read()[1] == before + 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_operand_is_a_view_of_the_forward_operand(small_rmat, dtype):
    view, operand = adjoint_operand(small_rmat, dtype), small_rmat.to_scipy(dtype)
    assert view.shape == (small_rmat.num_src, small_rmat.num_vertices)
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(view, name), getattr(operand, name))
