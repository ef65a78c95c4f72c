"""Aggregation-primitive (AP) kernels.

The AP is the tuple ``(f_V, f_E, ⊗, ⊕, f_O)`` of paper Section 2.1: an
element-wise binary/unary message operator ``⊗`` combined edge-wise and an
element-wise reducer ``⊕`` accumulating messages into destination rows.

One engine, one plan rule (the paper's single-socket recipe, Section 4
and Fig. 4, is blocking / bucketing / threading around a single inner
kernel):

- :mod:`repro.kernels.engine` — the aggregation engine: the vectorized
  segment-reduce pass (gather → ⊗ → ``reduceat``; our stand-in for
  LIBXSMM JITed SIMD) and the scipy SpMM pass, the plan rule that lays
  out source blocks (Alg. 2) × destination-row ranges (Alg. 3 buckets,
  and with threads an OpenMP-``dynamic`` work-queue of chunks) from what
  it can observe, and the one executor that runs a plan inline or on the
  thread pool.
- :mod:`repro.kernels.spmm` — the public ``aggregate`` API (the role of
  DGL featgraph's single SpMM template): ``kernel="auto"`` is the
  engine, ``KERNELS`` the two ground-truth functions.
- :mod:`repro.kernels.baseline` — Alg. 1, the DGL-style per-destination
  pull loop (our stand-in for the un-optimized DGL 0.5.3 kernel), and
  the edge-at-a-time dense reference; kept apart from the engine because
  the tests use them as ground truth.
- :mod:`repro.kernels.blocked` — source-block construction for Alg. 2
  (``build_blocks`` / ``BlockedGraph``).
"""

from repro.kernels.operators import (
    BINARY_OPS,
    REDUCE_OPS,
    BinaryOp,
    ReduceOp,
    get_binary_op,
    get_reduce_op,
)
from repro.kernels.engine import plan_row_chunks, segment_pass
from repro.kernels.fpenv import flush_subnormals
from repro.kernels.spmm import KERNELS, aggregate, validate_kernel

#: Generation of the floating-point arithmetic behind ``aggregate``.  Bump
#: it in the PR that changes result bits on purpose (2: the SpMM pass
#: accumulates in the features' dtype; 3: full-graph layers after the first
#: aggregate ``h @ W`` where ``W`` narrows); the fingerprint gate then bounds
#: the losses instead of demanding identical bytes (docs/ARCHITECTURE.md §1.2).
NUMERICS_EPOCH = 3

__all__ = [
    "NUMERICS_EPOCH",
    "flush_subnormals",
    "BinaryOp",
    "ReduceOp",
    "BINARY_OPS",
    "REDUCE_OPS",
    "get_binary_op",
    "get_reduce_op",
    "aggregate",
    "plan_row_chunks",
    "segment_pass",
    "KERNELS",
    "validate_kernel",
]
