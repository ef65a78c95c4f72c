"""Public aggregation API — the featgraph-style single SpMM template.

``aggregate`` is the only aggregation entry point the rest of the
library (models, trainers, distributed algorithms) uses, mirroring how
DGL funnels all message passing through one SpMM template (paper Section
2.2).  A kernel name is either one of the two stand-alone ground-truth
functions or a *preset*: a row of pass-plan parameters for the one
engine (:func:`repro.kernels.engine.run_pass`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.graph.csr import CSRGraph
from repro.kernels.baseline import aggregate_baseline, aggregate_dense_reference
from repro.kernels.blocked import BlockedGraph
from repro.kernels.engine import (
    DEFAULT_CHUNK_ROWS,
    SCHEDULES,
    requested_num_threads,
    run_pass,
)
#: kernel name -> what runs.  A callable is a stand-alone function kept
#: apart from the engine because the tests use it as ground truth; a dict
#: is a preset of :func:`~repro.kernels.engine.run_pass` plan parameters,
#: in which ``None`` stands for the same-named ``aggregate`` argument
#: (itself ``None`` when the caller leaves the choice to the tuners).
#: Parameters a preset omits keep the engine's defaults — one block, one
#: thread, no row chunking — so only ``parallel`` (and ``auto``) ever use
#: the thread pool.
KERNELS: Dict[str, Union[Callable, dict]] = {
    "baseline": aggregate_baseline,
    "vectorized": {},
    "parallel": {"num_threads": None, "schedule": None},
    "reordered": {"row_chunk": DEFAULT_CHUNK_ROWS},
    "blocked": {"row_chunk": DEFAULT_CHUNK_ROWS, "num_blocks": None},
    "reference": aggregate_dense_reference,
}

#: Heuristic vertex-count threshold above which the working set stops
#: fitting in a socket-sized LLC.  Below it ``auto`` runs one unchunked
#: pass; above it the ``reordered`` preset, whose cache-sized destination
#: buckets keep the per-edge message intermediate bounded.  That only
#: changes execution for operators that *have* such an intermediate
#: (GAT's ``mul``/``sum``): the ``copylhs``/add SpMM path ignores row
#: chunking and runs the same full-matrix product either way.  Explicit
#: source blocking (Alg. 2) is opt-in — pass ``num_blocks > 1`` or a
#: pre-built :class:`BlockedGraph`; the benchmark baseline
#: (``BENCH_kernels.json``) shows on-the-fly block construction costs more
#: than one engine pass, so ``auto`` never picks it blind.
_AUTO_BLOCK_THRESHOLD = 1 << 15


def validate_kernel(name: str) -> str:
    """Fail fast on an unknown kernel name (``"auto"`` is always valid).

    Trainers call this at construction time so a typo in
    ``TrainConfig.kernel`` surfaces before the first epoch, not mid-run.
    """
    if name != "auto" and name not in KERNELS:
        raise KeyError(
            f"unknown kernel {name!r}; available: ['auto'] + {sorted(KERNELS)}"
        )
    return name


def aggregate(
    graph: Union[CSRGraph, BlockedGraph],
    f_v: Optional[np.ndarray],
    f_e: Optional[np.ndarray] = None,
    binary_op: str = "copylhs",
    reduce_op: str = "sum",
    kernel: str = "auto",
    num_blocks: Optional[int] = None,
    num_threads: Optional[int] = None,
    schedule: Optional[str] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Compute the aggregation primitive ``f_O[v] = ⊕_u (f_V[u] ⊗ f_E[e_uv])``.

    Parameters
    ----------
    graph:
        CSR adjacency (or a pre-blocked :class:`BlockedGraph`).
    f_v, f_e:
        Vertex / edge feature matrices; either may be ``None`` when the
        operator doesn't read it (``copyrhs`` / ``copylhs``).
    binary_op, reduce_op:
        Operator names from paper Table 1 (plus ``mean``).
    kernel:
        A :data:`KERNELS` name or ``"auto"``.  Every name except the two
        ground-truth functions is a preset of pass-plan parameters for
        the one engine (:mod:`repro.kernels.engine`): a gather → ⊗ →
        ``reduceat`` pass, or a scipy SpMM for the ``copylhs``/
        add-accumulating workhorse, iterated over source blocks ×
        destination-row ranges.

        - ``"baseline"`` — Alg. 1, the per-destination Python loop (the
          un-optimized DGL stand-in; for measurement only).
        - ``"vectorized"`` — one pass over the whole graph.
        - ``"parallel"`` — disjoint destination-row chunks on a thread
          pool; bit-identical outputs, ``num_threads``/``schedule``
          control the workers and chunking policy.
        - ``"reordered"`` — Alg. 3: cache-sized destination buckets, so
          the per-edge message intermediate stays bounded (the SpMM path
          has no such intermediate and runs as ``"vectorized"``).
        - ``"blocked"`` — Alg. 2 over Alg. 3: ``num_blocks``
          source-range blocks, each swept bucket by bucket; blocks are
          built once per graph and cached.
        - ``"reference"`` — edge-at-a-time dense reference (test-only).
        - ``"auto"`` — the ``blocked`` parameters whenever
          ``num_blocks > 1`` is requested; else ``parallel`` when
          threads were requested (``num_threads > 1`` or
          ``REPRO_NUM_THREADS``); else ``vectorized`` for graphs below
          ``_AUTO_BLOCK_THRESHOLD`` sources and ``reordered`` above it.

        A pre-built :class:`BlockedGraph` runs its own block list under
        whatever row-range parameters the (engine) kernel name gives.
    num_blocks:
        Block count for the blocked kernel; ``None`` lets the auto-tuner
        pick (see :mod:`repro.kernels.tuning`).
    num_threads:
        Worker count for the parallel kernel (and the ``auto`` trigger
        above); ignored by explicitly-named single-threaded kernels.
        ``None`` falls back to the ``REPRO_NUM_THREADS`` environment
        variable, then (for an explicit ``kernel="parallel"``) the
        machine's capped cpu count.
    schedule:
        Parallel kernel chunking policy — ``"static"`` / ``"dynamic"`` /
        ``"balanced"``; ``None`` lets
        :func:`repro.kernels.tuning.choose_schedule` pick from the
        graph's simulated load imbalance.
    out:
        Optional ``(num_vertices, d)`` accumulator, identical semantics
        across every kernel except ``"reference"`` (which rejects it):
        ``out`` must be pre-filled with the reducer identity (see
        :func:`repro.kernels.operators.init_output`) or hold a partial
        result being chained; the kernel ⊕-accumulates row reductions
        into it and **skips finalization** — no ±inf→0 cleanup for
        ``max``/``min`` and no count division for ``mean``.  Callers
        chaining passes call
        :func:`repro.kernels.operators.finalize_output` once after the
        last pass.  When ``out`` is ``None`` the kernel allocates,
        accumulates, and finalizes, returning a ready-to-use output.
    """
    from repro.kernels.instrumentation import time_ap

    # Validate up front: a typo'd policy or non-positive thread count
    # must fail even when the resolved kernel ends up single-threaded
    # and would never consult them.
    if schedule is not None and schedule not in SCHEDULES:
        raise ValueError(
            f"unknown schedule {schedule!r}; available: {list(SCHEDULES)}"
        )
    requested_num_threads(num_threads)

    if kernel == "auto":
        row = _auto_params(graph, num_blocks, num_threads)
    else:
        row = KERNELS[validate_kernel(kernel)]
    with time_ap():
        if callable(row):
            return row(graph, f_v, f_e, binary_op, reduce_op, out=out)
        args = {
            "num_blocks": num_blocks,
            "num_threads": num_threads,
            "schedule": schedule,
        }
        params = {k: args[k] if v is None else v for k, v in row.items()}
        return run_pass(graph, f_v, f_e, binary_op, reduce_op, out, **params)


def _auto_params(graph, num_blocks, num_threads) -> dict:
    """The plan parameters ``kernel="auto"`` runs with (a ``KERNELS`` row)."""
    if num_blocks is not None and num_blocks > 1:
        return {**KERNELS["blocked"], "num_blocks": num_blocks}
    threads = requested_num_threads(num_threads)
    if threads is not None and threads > 1:
        return {**KERNELS["parallel"], "num_threads": threads}
    if graph.num_src >= _AUTO_BLOCK_THRESHOLD:
        return KERNELS["reordered"]
    return KERNELS["vectorized"]
