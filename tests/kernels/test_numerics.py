"""The numerics contract of the SpMM pass (docs/ARCHITECTURE.md §1.2).

``copylhs`` with ``sum`` / ``mean`` accumulates in the features' dtype, in
CSR order: float32 features ride a float32 operand (and never pay for a
float64 one), float64 features ride exactly the operand they always did.
A pass that creates its output assigns each range's product instead of
adding it to a zero-fill — same bits, one write.
"""

import numpy as np
import pytest

from repro.core import TrainConfig, Trainer
from repro.graph import csr
from repro.graph.builders import coo_to_csr
from repro.kernels import NUMERICS_EPOCH, aggregate, engine
from repro.kernels.blocked import BlockedGraph

EPS32 = float(np.finfo(np.float32).eps)


def _hub_graph(num_src=12_000, seed=0):
    """Row 0 pulls from every source (in-degree 12,000); the other rows
    are a sparse random graph."""
    rng = np.random.default_rng(seed)
    src = np.concatenate([np.arange(num_src), rng.integers(0, num_src, 40_000)])
    dst = np.concatenate([np.zeros(num_src, np.int64), rng.integers(1, 2_000, 40_000)])
    return coo_to_csr(src, dst, num_dst=2_000, num_src=num_src)


def test_numerics_epoch_is_three():
    assert NUMERICS_EPOCH == 3


@pytest.mark.parametrize("reduce_op", ["sum", "mean"])
@pytest.mark.parametrize("threads", [1, 4])
def test_float32_pass_error_bound_on_a_hub_row(reduce_op, threads):
    """|f32 pass − f64 reference| ≤ deg(v) · eps32 · Σ_u |x_u| per element,
    including a row of in-degree ≥ 10,000."""
    graph = _hub_graph()
    deg = graph.in_degrees().astype(np.float64)[:, None]
    assert deg.max() >= 10_000
    x = np.random.default_rng(1).standard_normal((graph.num_src, 24)).astype(np.float32)
    got = aggregate(graph, x, None, "copylhs", reduce_op, num_threads=threads)
    assert got.dtype == np.float32
    adj64 = graph.to_scipy(np.float64)
    want = adj64 @ x.astype(np.float64)
    bound = deg * EPS32 * (adj64 @ np.abs(x).astype(np.float64))
    if reduce_op == "mean":
        scale = np.maximum(deg, 1.0)
        # the division is one more rounding of the result
        want, bound = want / scale, bound / scale + EPS32 * np.abs(want / scale)
    err = np.abs(got.astype(np.float64) - want)
    assert np.all(err <= bound)
    assert err[0].max() > 0.0  # the hub row really was summed in float32


def test_float64_features_ride_the_float64_operand(small_rmat):
    """float64 in ⇒ the plain float64 CSR product, bit for bit; dtypes
    with no operand of their own are upcast to it."""
    x = np.random.default_rng(2).standard_normal((small_rmat.num_src, 8))
    want = small_rmat.to_scipy(np.float64) @ x
    for threads in (1, 4):
        got = aggregate(small_rmat, x, num_threads=threads)
        assert got.dtype == np.float64 and np.array_equal(got, want)
    half = x.astype(np.float16)
    got = aggregate(small_rmat, half)
    assert got.dtype == np.float16
    assert np.array_equal(got, (small_rmat.to_scipy() @ half.astype(np.float64)).astype(np.float16))
    assert list(small_rmat._scipy) == [np.float64]
    counts = np.arange(small_rmat.num_src * 2).reshape(-1, 2)
    assert np.array_equal(aggregate(small_rmat, counts), small_rmat.to_dense() @ counts)


def _record_operand_requests(monkeypatch):
    """Spy on the two places a float64 detour would show: the ones
    buffers handed out and the ``f_V`` each SpMM call multiplies."""
    ones, f_vs = [], []
    real_ones, real_rows = csr._ones, engine.spmm_rows

    def spy_ones(n, dtype):
        ones.append(np.dtype(dtype))
        return real_ones(n, dtype)

    def spy_rows(graph, f_v, lo, hi):
        f_vs.append(f_v)
        return real_rows(graph, f_v, lo, hi)

    monkeypatch.setattr(csr, "_ones", spy_ones)
    monkeypatch.setattr(engine, "spmm_rows", spy_rows)
    return ones, f_vs


def test_float32_threaded_pass_builds_nothing_float64(small_rmat, small_features, monkeypatch):
    ones, f_vs = _record_operand_requests(monkeypatch)
    aggregate(small_rmat, small_features, num_threads=4)
    assert len(f_vs) > 4 and all(f_v is small_features for f_v in f_vs)
    assert set(ones) == {np.dtype(np.float32)}
    assert list(small_rmat._scipy) == [np.float32]
    operands = [k for k in small_rmat._pass_plans if k[0] == "operand"]
    assert operands and all(k[1] == np.float32 for k in operands)


def test_float32_trainer_epoch_builds_nothing_float64(monkeypatch):
    from repro.graph.datasets import load_dataset

    ds = load_dataset("reddit", scale=0.04, seed=5)  # a graph no other test holds
    assert ds.features.dtype == np.float32
    ones, f_vs = _record_operand_requests(monkeypatch)
    trainer = Trainer(ds, TrainConfig(num_layers=2, hidden_features=16, seed=0))
    trainer.train_epoch(0)
    trainer.evaluate()
    assert f_vs and all(f_v.dtype == np.float32 for f_v in f_vs)
    assert set(ones) == {np.dtype(np.float32)}
    assert list(ds.graph._scipy) == [np.float32]
    assert list(ds.graph._spmm_reverse._scipy) == [np.float32]


# -- a pass that creates its output writes it once ---------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("reduce_op", ["sum", "mean"])
@pytest.mark.parametrize("plan", [{}, {"num_threads": 4}])
def test_assigned_output_is_the_accumulated_one(small_rmat, dtype, reduce_op, plan):
    """Assigning the product ≡ accumulating it into zeros (what a pass
    over several source blocks does) and finalizing by hand."""
    x = np.random.default_rng(3).standard_normal((small_rmat.num_src, 6)).astype(dtype)
    x[:, 0] = -0.0  # a sum of negative zeros is where 0 + p and p could differ
    got = aggregate(small_rmat, x, None, "copylhs", reduce_op, **plan)
    acc = np.zeros((small_rmat.num_vertices, 6), dtype)
    acc += engine.spmm_rows(small_rmat, x, 0, small_rmat.num_vertices)
    if reduce_op == "mean":
        acc /= np.maximum(small_rmat.in_degrees(), 1)[:, None].astype(dtype)
    assert got.dtype == dtype
    assert np.array_equal(got, acc) and np.array_equal(np.signbit(got), np.signbit(acc))


def test_source_blocks_still_accumulate(small_rmat, small_features):
    """More than one source block sums partial products, so that pass
    keeps zero-fill + ``+=`` (float tolerance against the single write)."""
    whole = aggregate(small_rmat, small_features)
    blocked = aggregate(BlockedGraph.build(small_rmat, 3), small_features)
    assert np.allclose(blocked, whole, rtol=1e-5, atol=1e-5)
    one_block = aggregate(BlockedGraph.build(small_rmat, 1), small_features)
    assert np.array_equal(one_block, whole)


@pytest.mark.parametrize("plan", [{}, {"num_threads": 2}])
def test_integer_mean_is_still_refused(small_rmat, plan):
    counts = np.ones((small_rmat.num_src, 2), np.int64)
    with pytest.raises(ValueError, match="mean requires floating-point"):
        aggregate(small_rmat, counts, None, "copylhs", "mean", **plan)
