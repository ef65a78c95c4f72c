"""The aggregation engine: two inner passes, one pass planner, one executor.

The paper's single-socket ladder (Section 4: Alg. 2 source blocking,
Alg. 3 loop reordering, destination-parallel static/dynamic scheduling,
Fig. 4) is three *iteration structures* around one inner kernel, and
this module states it that way:

- **Inner passes.**  :func:`segment_pass` is the array-native kernel
  (gather → ⊗ → ``reduceat`` over a destination-row range, the role
  LIBXSMM's JITed SIMD kernels play in the paper); :func:`spmm_rows` is
  the scipy CSR product that replaces it for ``copylhs`` with an
  add-accumulating ``⊕`` (the GNN workhorse), which needs no per-edge
  message intermediate.
- **Pass planner.**  :func:`plan_pass` turns ``(row_chunk, blocks,
  num_threads, schedule)`` into *source blocks* (run in order, Alg. 2)
  × *disjoint destination-row ranges* (cache-sized buckets, Alg. 3,
  and/or per-thread chunks under an OpenMP-style policy).  The plan is a
  pure function of the immutable graph, so it is cached on the graph.
- **Executor.**  :func:`run_pass` is the one prologue (operator resolve,
  operand check, output init), the one loop over blocks and ranges
  (inline or on the thread pool) and the one epilogue (finalize against
  the *original* graph).

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
  bit, for every ``⊗``/``⊕`` pair and chunking policy; only *source
  blocks* reassociate ``⊕`` across blocks (exact for ``max``/``min``,
  within float tolerance for ``sum``/``mean``).

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
from repro.kernels.blocked import BlockedGraph, build_blocks
from repro.kernels.operators import (
    BinaryOp,
    ReduceOp,
    finalize_with_graph,
    init_output,
    resolve_pass,
)
from repro.kernels.scheduling import per_destination_work
from repro.kernels.segment import segment_reduce
from repro.kernels.tuning import choose_num_blocks, choose_schedule

#: Environment override for the default thread count (the CI matrix sets
#: this to run the kernel suite at 1 and 4 threads).
ENV_NUM_THREADS = "REPRO_NUM_THREADS"

#: Cap on the implicit (cpu-count) default; explicit requests are uncapped.
DEFAULT_MAX_THREADS = 8

#: Valid ``schedule=`` names.
SCHEDULES = ("static", "dynamic", "balanced")

#: Rows per bucket of the ``reordered`` / ``blocked`` presets; bounds the
#: per-edge message intermediate to roughly (bucket_avg_degree *
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


def requested_num_threads(num_threads: Optional[int] = None) -> Optional[int]:
    """The *explicitly requested* thread count, or ``None``.

    An explicit ``num_threads`` argument wins; otherwise the
    ``REPRO_NUM_THREADS`` environment variable.  The ``auto`` kernel
    heuristic only goes parallel when this returns > 1 — an unconfigured
    process keeps the single-threaded engine.
    """
    if num_threads is not None:
        source, raw = "num_threads", num_threads
    elif os.environ.get(ENV_NUM_THREADS):
        source, raw = ENV_NUM_THREADS, os.environ[ENV_NUM_THREADS]
    else:
        return None
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"{source} must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"{source} must be >= 1, got {n}")
    return n


def resolve_num_threads(num_threads: Optional[int] = None) -> int:
    """Effective thread count for one threaded aggregation.

    Explicit argument, else ``REPRO_NUM_THREADS``, else the machine's
    CPU count capped at :data:`DEFAULT_MAX_THREADS`.
    """
    requested = requested_num_threads(num_threads)
    if requested is not None:
        return requested
    return max(1, min(os.cpu_count() or 1, DEFAULT_MAX_THREADS))


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


# -- pass planner ----------------------------------------------------------------


def plan_row_chunks(
    graph: CSRGraph,
    num_threads: int,
    schedule: str = "static",
    chunk_rows: Optional[int] = None,
    work: Optional[np.ndarray] = None,
) -> List[Tuple[int, int]]:
    """Destination-row ranges ``[(lo, hi), ...]`` for one threaded pass.

    The ranges are contiguous, disjoint, cover ``[0, num_vertices)``
    exactly, and are returned in row order (empty ranges are dropped, so
    ``num_threads > num_vertices`` is fine).

    Parameters
    ----------
    schedule:
        Chunking policy, mirroring the simulator in
        :mod:`repro.kernels.scheduling`: ``"static"`` — ``num_threads``
        equal-*count* ranges (OpenMP ``schedule(static)``); ``"dynamic"``
        — a work-queue of fixed-size chunks that idle threads pull from
        (OpenMP ``schedule(dynamic, chunk)``); ``"balanced"`` —
        ``num_threads`` equal-*work* ranges, cut at prefix-sum quantiles
        of ``work`` (degree-aware static, what dynamic converges to on
        power-law graphs).
    chunk_rows:
        Dynamic policy only: rows per work-queue chunk.  Default sizes
        chunks so each thread sees ~8 of them — enough queue depth to
        rebalance, coarse enough to amortize dispatch.
    work:
        Balanced policy only: per-destination work array; defaults to
        :func:`~repro.kernels.scheduling.per_destination_work` (in-degree).
    """
    if schedule not in SCHEDULES:
        raise ValueError(
            f"unknown schedule {schedule!r}; available: {list(SCHEDULES)}"
        )
    if num_threads < 1:
        raise ValueError(f"num_threads must be >= 1, got {num_threads}")
    n = graph.num_vertices
    if n == 0:
        return []
    bounds = None
    if schedule == "dynamic":
        step = (
            max(int(chunk_rows), 1)
            if chunk_rows is not None
            else max(1, -(-n // (num_threads * 8)))
        )
        bounds = np.arange(0, n + step, step, dtype=np.int64)
        bounds[-1] = n
    elif schedule == "balanced":
        if work is None:
            work = per_destination_work(graph)
        cum = np.cumsum(np.asarray(work, dtype=np.float64))
        total = cum[-1] if cum.size else 0.0
        if total > 0.0:
            # Cut after the row whose prefix sum reaches the k-th work
            # quantile (side="right"): a single hub row heavier than a
            # whole quantile becomes its own range instead of dragging
            # the following rows into it.
            targets = total * np.arange(1, num_threads) / num_threads
            cuts = np.searchsorted(cum, targets, side="right")
            bounds = np.concatenate(
                ([0], np.clip(cuts, 0, n), [n])
            ).astype(np.int64)
    if bounds is None:  # static, or balanced with no edges to weigh
        bounds = np.linspace(0, n, num_threads + 1).astype(np.int64)
    return [
        (int(lo), int(hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]


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
    graph: Union[CSRGraph, BlockedGraph],
    row_chunk: Optional[int] = None,
    blocks: int = 1,
    num_threads: int = 1,
    schedule: Optional[str] = None,
) -> PassPlan:
    """Source blocks × destination-row ranges for one aggregation.

    Parameters
    ----------
    graph:
        The CSR adjacency, or a pre-built :class:`BlockedGraph` — a plan
        whose block list already exists (``blocks`` is then ignored).
    row_chunk:
        Upper bound on rows per range (Alg. 3's cache-sized buckets);
        ``None`` leaves the per-thread ranges whole.
    blocks:
        Source block count (Alg. 2); 1 means no blocking.
    num_threads, schedule:
        Worker count and chunking policy for the row ranges; ``None``
        lets :func:`~repro.kernels.tuning.choose_schedule` pick.

    The plan (block construction is an O(E) sort, the policy choice an
    O(V) work-distribution pass) is too expensive to repay on every
    forward/backward AP of every epoch, so it is built once per parameter
    tuple and cached on ``graph``.
    """
    key = (row_chunk, blocks, num_threads, schedule)
    cache = _plan_cache(graph)
    plan = cache.get(key)
    if plan is None:
        if isinstance(graph, BlockedGraph):
            block_list, graph = graph.blocks, graph.graph
        else:
            block_list = build_blocks(graph, blocks)
        ranges = plan_row_chunks(
            graph, num_threads, schedule or choose_schedule(graph, num_threads)
        )
        if row_chunk:
            step = max(int(row_chunk), 1)
            ranges = [
                (lo, min(lo + step, stop))
                for start, stop in ranges
                for lo in range(start, stop, step)
            ]
        plan = cache[key] = PassPlan(graph, block_list, ranges)
    return plan


def _tuned_num_blocks(graph: CSRGraph, dim: int) -> int:
    """The traffic-model block count for ``dim``-wide features, swept once
    per graph and feature width."""
    cache = _plan_cache(graph)
    key = ("num_blocks", dim)
    if key not in cache:
        cache[key] = choose_num_blocks(graph, dim)
    return cache[key]


# -- executor --------------------------------------------------------------------


def run_pass(
    graph: Union[CSRGraph, BlockedGraph],
    f_v: Optional[np.ndarray],
    f_e: Optional[np.ndarray] = None,
    binary_op="copylhs",
    reduce_op="sum",
    out: Optional[np.ndarray] = None,
    row_chunk: Optional[int] = None,
    num_blocks: Optional[int] = 1,
    num_threads: Optional[int] = 1,
    schedule: Optional[str] = None,
) -> np.ndarray:
    """The AP ``f_O[v] = ⊕_u (f_V[u] ⊗ f_E[e_uv])`` under one pass plan.

    ``graph``, ``f_v``, ``f_e``, the operator names and the ``out=``
    accumulate-without-finalize contract are those of
    :func:`repro.kernels.spmm.aggregate`; the remaining arguments are the
    plan parameters its kernel names stand for (see :func:`plan_pass`).
    For each, ``None`` means "pick for me": ``num_blocks`` from the
    traffic model (:func:`~repro.kernels.tuning.choose_num_blocks`),
    ``num_threads`` from :func:`resolve_num_threads`, ``schedule`` from
    the simulated load imbalance.  ``row_chunk`` bounds the per-edge
    message intermediate, so the SpMM path (which has none) ignores it.
    """
    bop, rop, dim, dtype = resolve_pass(f_v, f_e, binary_op, reduce_op)
    spmm = bop.name == "copylhs" and rop.ufunc is np.add
    if spmm:
        row_chunk = None
    if num_threads is None:
        num_threads = resolve_num_threads()
    blocked = isinstance(graph, BlockedGraph)
    if num_blocks is None and not blocked:
        num_blocks = _tuned_num_blocks(graph, dim)
    # One whole-graph pass needs no plan, so the hundreds of tiny one-shot
    # sampled blocks of mini-batch training pay no cache lookup.
    plan = None
    if (
        blocked
        or num_blocks != 1
        or num_threads != 1
        or (row_chunk is not None and row_chunk < graph.num_vertices)
    ):
        plan = plan_pass(graph, row_chunk, num_blocks, num_threads, schedule)
        graph = plan.graph
    n = graph.num_vertices
    blocks, ranges = (plan.blocks, plan.ranges) if plan else ((graph,), ((0, n),))
    created = out is None
    # An SpMM pass over one source block into an output it creates writes
    # each row once: the range product is assigned, not added to a
    # zero-fill (scipy accumulates from +0.0, so the bits are the same).
    once = created and spmm and len(blocks) == 1

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
        if created:
            out = np.empty((n, dim), dtype) if once else init_output(n, dim, rop, dtype)
        threaded = num_threads > 1 and len(ranges) > 1
        for block in blocks:
            if threaded:
                pool = _get_pool(num_threads)
                futures = [pool.submit(run, block, *r) for r in ranges]
                for future in futures:
                    future.result()  # re-raises worker exceptions
            else:
                for lo, hi in ranges:
                    run(block, lo, hi)

    if created:
        finalize_with_graph(out, rop, graph)
    return out
