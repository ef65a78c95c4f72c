"""Public aggregation API — the featgraph-style single SpMM template.

``aggregate`` is the only aggregation entry point the rest of the
library (models, trainers, distributed algorithms) uses, mirroring how
DGL funnels all message passing through one SpMM template (paper Section
2.2).  ``kernel="auto"`` is the one engine
(:func:`repro.kernels.engine.run_pass`); the other two names are the
stand-alone ground-truth functions.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.graph.csr import CSRGraph
from repro.kernels.baseline import aggregate_baseline, aggregate_dense_reference
from repro.kernels.blocked import BlockedGraph
from repro.kernels.engine import requested_num_threads, run_pass
from repro.kernels.instrumentation import time_ap

#: kernel name -> the stand-alone function behind it: the two
#: implementations kept apart from the engine (``"auto"``) because Fig. 2
#: and the tests use them as ground truth.
KERNELS: Dict[str, Callable] = {
    "baseline": aggregate_baseline,
    "reference": aggregate_dense_reference,
}


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
    num_threads: Optional[int] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Compute the aggregation primitive ``f_O[v] = ⊕_u (f_V[u] ⊗ f_E[e_uv])``.

    Parameters
    ----------
    graph:
        CSR adjacency, or a :class:`BlockedGraph` built once from it to
        run the pass source block by source block (Alg. 2).
    f_v, f_e:
        Vertex / edge feature matrices; either may be ``None`` when the
        operator doesn't read it (``copyrhs`` / ``copylhs``).
    binary_op, reduce_op:
        Operator names from paper Table 1 (plus ``mean``).
    kernel:
        - ``"auto"`` — the engine (:mod:`repro.kernels.engine`): a
          gather → ⊗ → ``reduceat`` pass over cache-sized destination
          buckets (Alg. 3), or one scipy SpMM for the ``copylhs``/
          add-accumulating workhorse, which has no per-edge intermediate
          to bound.
        - ``"baseline"`` — Alg. 1, the per-destination Python loop (the
          un-optimized DGL stand-in; for measurement only).
        - ``"reference"`` — edge-at-a-time dense reference (test-only).
    num_threads:
        Engine worker count: above 1, idle threads pull contiguous
        destination-row chunks from a work-queue (bit-identical
        outputs); the ground-truth kernels ignore it.  ``None`` falls
        back to the ``REPRO_NUM_THREADS`` environment variable, else 1.
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
    # Resolved up front: a non-positive thread count must fail even on a
    # ground-truth kernel that would never consult it.
    threads = requested_num_threads(num_threads)
    ground_truth = None if kernel == "auto" else KERNELS[validate_kernel(kernel)]
    with time_ap():
        if ground_truth is None:
            return run_pass(graph, f_v, f_e, binary_op, reduce_op, out, threads)
        return ground_truth(graph, f_v, f_e, binary_op, reduce_op, out=out)
