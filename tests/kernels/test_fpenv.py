"""The floating-point environment contract of a backward sweep.

``Tensor.backward`` runs inside ``flush_subnormals()``: a subnormal result
or operand is zero there — on the sweeping thread and on the ``repro-ap``
pool threads its engine passes run on — and nowhere else.  The mode is
restored when the sweep ends, by return or by raise, and is never set by
importing ``repro`` (hypothesis refuses ``st.floats(0, 1)`` under
flush-to-zero, so a leaked mode breaks unrelated tests).  The CI kernel
job runs this file at ``REPRO_NUM_THREADS`` 1 and 4.
"""

import platform
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernels import engine, fpenv, flush_subnormals
from repro.nn import Tensor

X86_64_LINUX = sys.platform == "linux" and platform.machine() == "x86_64"
needs_x86 = pytest.mark.skipif(
    not X86_64_LINUX, reason="FTZ/DAZ is set through glibc's x86-64 fenv_t"
)

SUBNORMAL = np.float32(1e-40)


def flushed_here() -> bool:
    """Whether this thread's SSE unit flushes a subnormal product to zero."""
    return float(SUBNORMAL * np.float32(1.0)) == 0.0


def assert_mode_restored():
    assert not flushed_here()

    @given(st.floats(0, 1))
    def draws(value):
        assert 0 <= value <= 1

    draws()


def _probe_node(backward_fn) -> Tensor:
    """A scalar on the tape whose backward is ``backward_fn``."""
    leaf = Tensor(np.zeros(1, np.float32), requires_grad=True)
    return Tensor(np.float32(0.0), _parents=(leaf,), _backward_fn=backward_fn)


@pytest.fixture
def fresh_pools(monkeypatch):
    """An empty pool registry, so the test's pool threads are created —
    possibly inside a sweep — by the test itself."""
    pools = {}
    monkeypatch.setattr(engine, "_POOLS", pools)
    yield
    for pool in pools.values():
        pool.shutdown()


@pytest.fixture
def pass_probe(monkeypatch):
    """Records (thread name, flushed?) for every SpMM range a pass runs."""
    seen = []
    real = engine.spmm_rows

    def spmm_rows(*args):
        seen.append((threading.current_thread().name, flushed_here()))
        return real(*args)

    monkeypatch.setattr(engine, "spmm_rows", spmm_rows)
    return seen


def test_import_leaves_the_mode_alone():
    assert not flushed_here()
    code = (
        "import numpy as np, repro, repro.nn, repro.core;"
        "assert np.float32(1e-40) * np.float32(1) != 0"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


@needs_x86
def test_scope_flushes_and_restores_re_entrantly():
    assert not flushed_here()
    with flush_subnormals():
        assert flushed_here()
        with flush_subnormals():
            assert flushed_here()
        assert flushed_here()
    assert_mode_restored()


@needs_x86
def test_scope_is_the_calling_threads():
    ready, go, seen = threading.Event(), threading.Event(), []

    def bystander():
        ready.set()
        go.wait(10)
        seen.append(flushed_here())

    thread = threading.Thread(target=bystander)
    thread.start()
    ready.wait(10)
    with flush_subnormals():
        go.set()
        thread.join(10)
    assert seen == [False]


@needs_x86
def test_backward_flushes_on_the_sweeping_thread_and_the_pool(
    small_rmat, fresh_pools, pass_probe, monkeypatch
):
    from repro.kernels import aggregate

    monkeypatch.setenv("REPRO_NUM_THREADS", "4")
    feats = np.full((small_rmat.num_src, 4), SUBNORMAL, np.float32)
    during = {}

    def backward(g):
        during["main"] = flushed_here()
        during["aggregate"] = aggregate(small_rmat, feats)
        return (np.zeros(1, np.float32),)

    _probe_node(backward).backward()
    assert during["main"]
    workers = {name for name, _ in pass_probe}
    assert len(workers) > 1 and all(n.startswith("repro-ap") for n in workers)
    assert all(flushed for _, flushed in pass_probe)
    assert not during["aggregate"].any()  # every subnormal read as zero

    # the pool threads were born inside the sweep: outside it they are not
    # flushed, and the same pass keeps its subnormal sums
    pass_probe.clear()
    assert aggregate(small_rmat, feats).any()
    assert pass_probe and not any(flushed for _, flushed in pass_probe)
    assert_mode_restored()


@needs_x86
def test_mode_restored_when_a_backward_fn_raises():
    def backward(g):
        assert flushed_here()
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        _probe_node(backward).backward()
    assert_mode_restored()


def test_mode_restored_after_a_backward():
    _probe_node(lambda g: (np.zeros(1, np.float32),)).backward()
    assert_mode_restored()


def test_without_libm_nothing_is_set(monkeypatch, small_rmat):
    """What every platform but x86-64 Linux gets: the scope and the pool
    hand-off run, and the arithmetic is untouched."""
    from repro.kernels import aggregate

    monkeypatch.setattr(fpenv, "_LIBM", None)
    feats = np.full((small_rmat.num_src, 4), SUBNORMAL, np.float32)
    with flush_subnormals():
        assert not flushed_here()
        assert aggregate(small_rmat, feats, num_threads=4).any()
    assert fpenv.in_callers_mode(lambda a: a + 1)(1) == 2
