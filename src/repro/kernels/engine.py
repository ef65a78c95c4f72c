"""The aggregation engine: two inner passes, one plan rule, one executor.

The paper's single-socket recipe (Section 4: Alg. 2 source blocking,
Alg. 3 loop reordering, destination-parallel dynamic scheduling,
Fig. 4) is a fixed *iteration structure* around one inner kernel, and
this module states it that way:

- **Inner passes.**  :func:`segment_pass` is the array-native kernel
  (gather → ⊗ → ``reduceat`` over a destination-row range, the role
  LIBXSMM's JITed SIMD kernels play in the paper); :func:`spmm_rows` is
  the scipy CSR product that replaces it for ``copylhs`` with an
  add-accumulating ``⊕`` (the GNN workhorse), which needs no per-edge
  message intermediate.
- **Plan rule.**  :func:`plan_pass` picks the plan from what it can
  observe — does the pass materialise per-edge messages, how many rows,
  how many threads, is the input a pre-built :class:`BlockedGraph` —
  and nothing a caller sets (measurements: ``docs/kernel-plan.md``).  A
  plan is *source blocks* (run in order, Alg. 2) × *disjoint
  destination-row ranges* (cache-sized buckets, Alg. 3, and with threads
  a work-queue of chunks, OpenMP ``schedule(dynamic)``); it is a pure
  function of the immutable graph, so it is cached on the graph.
- **Executor.**  :func:`execute_plan` is the one loop over blocks and
  ranges (inline or on the thread pool) between the one prologue
  (output init) and the one epilogue (finalize against the *original*
  graph).

Why any plan is race-free and bit-identical to the unchunked
single-thread pass:

- **Disjoint output rows.**  Every range is a contiguous destination-row
  range ``[lo, hi)`` aligned with CSR row boundaries, so two threads
  never touch the same ``out`` row — no synchronization is needed (the
  same argument the paper uses for blocking ``f_V`` instead of ``f_O``,
  Section 4.2).
- **Row-local arithmetic.**  A row's reduction only ever combines that
  row's own messages, in CSR storage order, regardless of how rows are
  grouped into ranges.  Row ranges and threads therefore never change a
  bit, for every ``⊗``/``⊕`` pair and every cover of the rows; only
  *source blocks* reassociate ``⊕`` across blocks (exact for
  ``max``/``min``, within float tolerance for ``sum``/``mean``).

NumPy/scipy release the GIL inside their compiled loops (gather, ufunc,
``reduceat``, CSR SpMM), so plain Python threads give genuine hardware
parallelism without forking.

"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.sanitizers import make_lock
from repro.graph.csr import CSRGraph, operand_dtype
from repro.kernels.blocked import BlockedGraph
from repro.kernels.fpenv import in_callers_mode
from repro.kernels.operators import (
    BinaryOp,
    ReduceOp,
    finalize_with_graph,
    init_output,
    resolve_pass,
)
from repro.kernels.segment import segment_reduce

#: Environment override for the default thread count (the CI matrix sets
#: this to run the kernel suite at 1 and 4 threads).
ENV_NUM_THREADS = "REPRO_NUM_THREADS"

#: Rows per destination bucket of a message-materialising pass; bounds
#: the per-edge message intermediate to roughly (bucket_avg_degree *
#: DEFAULT_CHUNK_ROWS, d) floats.
DEFAULT_CHUNK_ROWS = 8192

# One lazily-created executor per thread count, shared across calls so a
# training loop doesn't pay thread spawn cost every aggregation.
_POOLS: dict = {}
_POOL_LOCK = make_lock("kernels.engine.pool")


def _get_pool(num_threads: int) -> ThreadPoolExecutor:
    with _POOL_LOCK:
        pool = _POOLS.get(num_threads)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=num_threads, thread_name_prefix="repro-ap"
            )
            _POOLS[num_threads] = pool
        return pool


def _reset_pools_after_fork() -> None:
    # A forked child (the shm execution backend) inherits the registry
    # but not the parent's worker threads; drop the stale executors (and
    # the possibly-held lock) so the child lazily builds fresh ones.
    global _POOL_LOCK
    _POOL_LOCK = make_lock("kernels.engine.pool")
    _POOLS.clear()


if hasattr(os, "register_at_fork"):  # pragma: no branch - posix
    os.register_at_fork(after_in_child=_reset_pools_after_fork)


def requested_num_threads(num_threads: Optional[int] = None) -> int:
    """Thread count of one aggregation: an explicit ``num_threads``
    argument, else the ``REPRO_NUM_THREADS`` environment variable, else 1
    — an unconfigured process keeps the single-threaded engine.
    """
    if num_threads is not None:
        source, raw = "num_threads", num_threads
    elif os.environ.get(ENV_NUM_THREADS):
        source, raw = ENV_NUM_THREADS, os.environ[ENV_NUM_THREADS]
    else:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"{source} must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"{source} must be >= 1, got {n}")
    return n


# -- inner passes ----------------------------------------------------------------


def segment_pass(
    graph: CSRGraph,
    f_v: Optional[np.ndarray],
    f_e: Optional[np.ndarray],
    bop: BinaryOp,
    rop: ReduceOp,
    out: np.ndarray,
    row_lo: int = 0,
    row_hi: Optional[int] = None,
) -> np.ndarray:
    """One vectorized pass over destination rows ``[row_lo, row_hi)``.

    Gathers the operand rows of every edge in the range, applies ``⊗``
    edge-wise, and segment-reduces the messages into ``out[row_lo:row_hi]``
    with ``⊕``.  ``out`` rows must already hold the reducer identity (or a
    partial result being chained); rows with no edges in the range are
    left untouched.  This function never finalizes — callers chaining
    several passes finalize once at the end.
    """
    indptr = graph.indptr
    if row_hi is None:
        row_hi = graph.num_vertices
    lo, hi = int(indptr[row_lo]), int(indptr[row_hi])
    if lo == hi:
        return out
    lhs = f_v[graph.indices[lo:hi]] if bop.uses_lhs else None
    if bop.uses_rhs:
        # Zero-copy slice when edge ids are the identity permutation.
        if graph.has_contiguous_edge_ids:
            rhs = f_e[lo:hi]
        else:
            rhs = f_e[graph.edge_ids[lo:hi]]
    else:
        rhs = None
    if (
        bop.ufunc is not None
        and lhs is not None
        and rhs is not None
        and lhs.dtype == rhs.dtype
        and np.issubdtype(lhs.dtype, np.floating)
    ):
        # `lhs` is a private gather buffer — compute the message into it
        # instead of allocating a third edge-sized intermediate.
        msg = bop.ufunc(lhs, rhs, out=lhs)
    else:
        msg = bop(lhs, rhs)
    local_indptr = indptr[row_lo : row_hi + 1] - lo
    segment_reduce(msg, local_indptr, rop, out[row_lo:row_hi])
    return out


def spmm_rows(
    graph: CSRGraph, f_v: np.ndarray, row_lo: int, row_hi: int
) -> np.ndarray:
    """``A[lo:hi] @ f_V`` via scipy's compiled CSR kernel.

    Valid for any add-accumulating reducer (``sum`` and the ``mean``
    pre-division accumulation).  Per-row accumulation order is the same
    for a row slice as for the whole matrix, so a chunked product is
    bit-identical to the full one.  No operand is built per call: the
    full range is the graph's cached :meth:`~CSRGraph.to_scipy` matrix
    for ``f_v``'s dtype (ones of the dtype the sum accumulates in, over
    scipy's int32 copy of the indices), a plan's row range views it under
    a rebased ``indptr`` kept in the plan cache.
    """
    adj = graph.to_scipy(f_v.dtype)
    if row_hi - row_lo < graph.num_vertices:
        cache, key = _plan_cache(graph), ("operand", adj.dtype, row_lo, row_hi)
        if key not in cache:
            elo, ehi = adj.indptr[row_lo], adj.indptr[row_hi]
            rows = type(adj)((row_hi - row_lo, graph.num_src), dtype=adj.dtype)
            # assigned, not passed in: the constructor would copy the views
            rows.data, rows.indices = adj.data[elo:ehi], adj.indices[elo:ehi]
            rows.indptr = adj.indptr[row_lo : row_hi + 1] - elo
            cache[key] = rows
        adj = cache[key]
    return adj @ f_v


# -- plan rule -------------------------------------------------------------------


def plan_row_chunks(
    graph: CSRGraph, num_threads: int, chunk_rows: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Destination-row ranges ``[(lo, hi), ...]`` for one pass.

    The ranges are contiguous, disjoint, cover ``[0, num_vertices)``
    exactly and are returned in row order.  One thread takes the rows
    whole; more threads get a work-queue of fixed-size chunks that idle
    threads pull from (OpenMP ``schedule(dynamic, chunk)``), sized so
    each thread sees ~8 of them — enough queue depth to rebalance a
    power-law graph, coarse enough to amortize dispatch.  ``chunk_rows``
    caps the rows per range either way (Alg. 3's cache-sized buckets).
    """
    if num_threads < 1:
        raise ValueError(f"num_threads must be >= 1, got {num_threads}")
    n = graph.num_vertices
    step = n if num_threads == 1 else -(-n // (num_threads * 8))
    if chunk_rows is not None:
        step = min(step, int(chunk_rows))
    step = max(step, 1)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


class PassPlan(NamedTuple):
    """Iteration structure of one aggregation (see :func:`plan_pass`)."""

    #: the unblocked graph: output shape and finalization counts come
    #: from here (per-block degrees would under-count split rows)
    graph: CSRGraph
    blocks: Sequence[CSRGraph]  # source blocks, run in order
    ranges: Sequence[Tuple[int, int]]  # disjoint row ranges covering [0, n)


def _plan_cache(graph) -> dict:
    # Cached on the graph instance itself, like ``_spmm_reverse`` in
    # :mod:`repro.nn.functional` (an id()-keyed global dict would go
    # stale when Python reuses object ids after GC); a racing duplicate
    # computation is harmless (identical value).
    cache = getattr(graph, "_pass_plans", None)
    if cache is None:
        cache = {}
        object.__setattr__(graph, "_pass_plans", cache)
    return cache


def plan_pass(
    graph: Union[CSRGraph, BlockedGraph], materialises: bool, num_threads: int = 1
) -> PassPlan:
    """The plan rule: source blocks × destination-row ranges for one pass.

    Parameters
    ----------
    graph:
        The CSR adjacency, or a pre-built :class:`BlockedGraph`, whose
        block list is then the plan's (Alg. 2, built once per graph by
        the caller as DistGNN does); a plain graph is one block.
    materialises:
        Whether the pass builds a per-edge message intermediate (every
        ``⊗``/``⊕`` pair but ``copylhs`` with an add-accumulating
        reducer).  Such a pass is always cut into buckets of at most
        :data:`DEFAULT_CHUNK_ROWS` rows, which keeps the intermediate
        cache-sized; an SpMM pass has nothing to bound and keeps its
        rows whole.
    num_threads:
        Above 1 the ranges become :func:`plan_row_chunks`' work-queue.

    ``docs/kernel-plan.md`` holds the measurements behind each branch.
    """
    blocked = isinstance(graph, BlockedGraph)
    base = graph.graph if blocked else graph
    n = base.num_vertices
    chunk_rows = DEFAULT_CHUNK_ROWS if materialises else None
    if not blocked and num_threads == 1 and (chunk_rows is None or chunk_rows >= n):
        # One whole-graph pass is not worth a cache entry, so the hundreds
        # of tiny one-shot sampled blocks of mini-batch training pay no
        # lookup.
        return PassPlan(base, (base,), ((0, n),))
    cache, key = _plan_cache(graph), (num_threads, chunk_rows)
    plan = cache.get(key)
    if plan is None:
        plan = cache[key] = PassPlan(
            base,
            graph.blocks if blocked else (base,),
            plan_row_chunks(base, num_threads, chunk_rows),
        )
    return plan


# -- executor --------------------------------------------------------------------


def _is_spmm(bop: BinaryOp, rop: ReduceOp) -> bool:
    return bop.name == "copylhs" and rop.ufunc is np.add


def execute_plan(
    plan: PassPlan,
    f_v: Optional[np.ndarray],
    f_e: Optional[np.ndarray],
    bop: BinaryOp,
    rop: ReduceOp,
    dim: int,
    dtype,
    num_threads: int = 1,
) -> np.ndarray:
    """Run one resolved AP (:func:`~repro.kernels.operators.resolve_pass`'s
    tuple) over ``plan``: each source block in order, its row ranges
    inline or — with ``num_threads > 1`` — on the thread pool, every
    block ⊕-accumulating into one output that is finalized once after
    the last.  Any ``plan.ranges`` that cover the rows disjointly give
    the same bytes.
    """
    graph, blocks, ranges = plan
    n = graph.num_vertices
    spmm = _is_spmm(bop, rop)
    # An SpMM pass over one source block writes each row once: the range
    # product is assigned, not added to a zero-fill (scipy accumulates
    # from +0.0, so the bits are the same).
    once = spmm and len(blocks) == 1

    if spmm:
        # The upcast scipy would otherwise repeat on all of f_V per range
        # (float32 / float64 features are their own operand dtype: no copy).
        f_v = f_v.astype(operand_dtype(f_v.dtype), copy=False)

        def run(block: CSRGraph, lo: int, hi: int) -> None:
            rows = spmm_rows(block, f_v, lo, hi)
            if once:
                out[lo:hi] = rows
            else:
                out[lo:hi] += rows

    else:

        def run(block: CSRGraph, lo: int, hi: int) -> None:
            segment_pass(block, f_v, f_e, bop, rop, out, lo, hi)

    if once and len(ranges) == 1:
        out = spmm_rows(blocks[0], f_v, 0, n).astype(dtype, copy=False)
    else:
        out = np.empty((n, dim), dtype) if once else init_output(n, dim, rop, dtype)
        threaded = num_threads > 1 and len(ranges) > 1
        for block in blocks:
            if threaded:
                pool, task = _get_pool(num_threads), in_callers_mode(run)  # same bits
                futures = [pool.submit(task, block, *r) for r in ranges]
                for future in futures:
                    future.result()  # re-raises worker exceptions
            else:
                for lo, hi in ranges:
                    run(block, lo, hi)

    finalize_with_graph(out, rop, graph)
    return out


def run_pass(
    graph: Union[CSRGraph, BlockedGraph],
    f_v: Optional[np.ndarray],
    f_e: Optional[np.ndarray] = None,
    binary_op="copylhs",
    reduce_op="sum",
    num_threads: int = 1,
) -> np.ndarray:
    """The AP ``f_O[v] = ⊕_u (f_V[u] ⊗ f_E[e_uv])`` under the plan rule.

    ``graph``, ``f_v``, ``f_e`` and the operator names are those of
    :func:`repro.kernels.spmm.aggregate`, whose ``kernel="auto"`` this is.
    """
    bop, rop, dim, dtype = resolve_pass(f_v, f_e, binary_op, reduce_op)
    plan = plan_pass(graph, not _is_spmm(bop, rop), num_threads)
    return execute_plan(plan, f_v, f_e, bop, rop, dim, dtype, num_threads)
