"""Aggregation-primitive (AP) kernels.

The AP is the tuple ``(f_V, f_E, ⊗, ⊕, f_O)`` of paper Section 2.1: an
element-wise binary/unary message operator ``⊗`` combined edge-wise and an
element-wise reducer ``⊕`` accumulating messages into destination rows.

One engine, many iteration structures (the paper's optimization ladder,
Fig. 4, is blocking / bucketing / threading around a single inner
kernel):

- :mod:`repro.kernels.engine` — the aggregation engine: the vectorized
  segment-reduce pass (gather → ⊗ → ``reduceat``; our stand-in for
  LIBXSMM JITed SIMD) and the scipy SpMM pass, a pass planner that lays
  out source blocks (Alg. 2) × destination-row ranges (Alg. 3 buckets
  and/or OpenMP-style static/dynamic/balanced thread chunks), and the
  one executor that runs a plan inline or on the thread pool.
- :mod:`repro.kernels.spmm` — the public ``aggregate`` API (the role of
  DGL featgraph's single SpMM template) and the ``KERNELS`` table, in
  which ``vectorized`` / ``reordered`` / ``blocked`` / ``parallel`` are
  presets of plan parameters and ``auto`` picks the parameters itself.
- :mod:`repro.kernels.baseline` — Alg. 1, the DGL-style per-destination
  pull loop (our stand-in for the un-optimized DGL 0.5.3 kernel), and
  the edge-at-a-time dense reference; kept apart from the engine because
  the tests use them as ground truth.
- :mod:`repro.kernels.blocked` — source-block construction for Alg. 2
  (``build_blocks`` / ``BlockedGraph``).
- :mod:`repro.kernels.scheduling` — OpenMP static/dynamic scheduling
  simulator used to quantify load imbalance on power-law graphs.
- :mod:`repro.kernels.tuning` — block-count and chunking-policy
  auto-tuners driven by the cache and scheduling models.
"""

from repro.kernels.operators import (
    BINARY_OPS,
    REDUCE_OPS,
    BinaryOp,
    ReduceOp,
    get_binary_op,
    get_reduce_op,
)
from repro.kernels.engine import plan_row_chunks, resolve_num_threads, segment_pass
from repro.kernels.spmm import KERNELS, aggregate, validate_kernel
from repro.kernels.scheduling import ScheduleResult, simulate_schedule
from repro.kernels.tuning import choose_num_blocks, choose_schedule

#: Generation of the floating-point arithmetic behind ``aggregate``.  Bump
#: it in the PR that changes result bits on purpose (2: the SpMM pass
#: accumulates in the features' dtype); the fingerprint gate then bounds
#: the losses instead of demanding identical bytes (docs/ARCHITECTURE.md §1.2).
NUMERICS_EPOCH = 2

__all__ = [
    "NUMERICS_EPOCH",
    "BinaryOp",
    "ReduceOp",
    "BINARY_OPS",
    "REDUCE_OPS",
    "get_binary_op",
    "get_reduce_op",
    "aggregate",
    "plan_row_chunks",
    "resolve_num_threads",
    "segment_pass",
    "KERNELS",
    "validate_kernel",
    "simulate_schedule",
    "ScheduleResult",
    "choose_num_blocks",
    "choose_schedule",
]
