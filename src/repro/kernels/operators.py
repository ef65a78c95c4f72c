"""Operator algebra of the aggregation primitive (paper Table 1).

``⊗`` (message): ``add``, ``sub``, ``mul``, ``div`` (binary over
``(f_V[u], f_E[e])``), ``copylhs`` (unary, vertex features only) and
``copyrhs`` (unary, edge features only).

``⊕`` (reduce): ``sum``, ``max``, ``min`` with their identities, plus
``mean`` (a ``sum`` accumulation finalized by a per-row division with the
in-degree — the GraphSAGE-mean aggregator).  Because ``mean`` is not a
plain fold, kernels accumulate it exactly like ``sum`` and the division
happens once in :func:`finalize_output`, which therefore needs the
per-row message counts.

Operators are described declaratively so every kernel variant (baseline,
blocked, reordered) supports the full table through one code path — the
same role DGL featgraph's operator templates play.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np


@dataclass(frozen=True)
class BinaryOp:
    """Message operator ``⊗``.

    ``fn(lhs, rhs)`` computes the element-wise message.  For unary copy
    operators one side is ignored (``uses_lhs`` / ``uses_rhs`` say which
    operand is read, which the memory-traffic model also relies on).
    ``ufunc`` is the underlying NumPy ufunc for true binary operators
    (``None`` for the copies); the vectorized engine uses it to compute
    messages in place into a scratch gather buffer.
    """

    name: str
    fn: Callable[[Optional[np.ndarray], Optional[np.ndarray]], np.ndarray]
    uses_lhs: bool
    uses_rhs: bool
    ufunc: Optional[np.ufunc] = None

    def __call__(self, lhs, rhs):
        return self.fn(lhs, rhs)


@dataclass(frozen=True)
class ReduceOp:
    """Reduction operator ``⊕`` with its algebraic identity.

    ``ufunc`` must be an associative-commutative NumPy binary ufunc so that
    segment reduction (``reduceat``) and cross-block accumulation agree with
    sequential reduction.  ``mean`` accumulates with ``np.add`` and defers
    the count division to :func:`finalize_output` (``needs_counts``).
    """

    name: str
    ufunc: np.ufunc
    identity: float

    @property
    def needs_counts(self) -> bool:
        """True when finalization requires per-row message counts."""
        return self.name == "mean"

    def combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Reduce two partial results (used when merging block outputs)."""
        return self.ufunc(a, b)


def _binary(name: str, fn) -> BinaryOp:
    def wrapped(lhs, rhs):
        if lhs is None or rhs is None:
            raise ValueError(f"binary operator {name!r} needs both operands")
        return fn(lhs, rhs)

    return BinaryOp(name=name, fn=wrapped, uses_lhs=True, uses_rhs=True, ufunc=fn)


def _copylhs(lhs, rhs):
    if lhs is None:
        raise ValueError("copylhs needs vertex features (lhs)")
    return lhs


def _copyrhs(lhs, rhs):
    if rhs is None:
        raise ValueError("copyrhs needs edge features (rhs)")
    return rhs


BINARY_OPS: Dict[str, BinaryOp] = {
    "add": _binary("add", np.add),
    "sub": _binary("sub", np.subtract),
    "mul": _binary("mul", np.multiply),
    "div": _binary("div", np.divide),
    "copylhs": BinaryOp("copylhs", _copylhs, uses_lhs=True, uses_rhs=False),
    "copyrhs": BinaryOp("copyrhs", _copyrhs, uses_lhs=False, uses_rhs=True),
}

REDUCE_OPS: Dict[str, ReduceOp] = {
    "sum": ReduceOp("sum", np.add, 0.0),
    "max": ReduceOp("max", np.maximum, -np.inf),
    "min": ReduceOp("min", np.minimum, np.inf),
    "mean": ReduceOp("mean", np.add, 0.0),
}


def get_binary_op(name) -> BinaryOp:
    """Look up a ``⊗`` operator by name (pass-through for BinaryOp)."""
    if isinstance(name, BinaryOp):
        return name
    try:
        return BINARY_OPS[name]
    except KeyError:
        raise KeyError(
            f"unknown binary op {name!r}; available: {sorted(BINARY_OPS)}"
        ) from None


def get_reduce_op(name) -> ReduceOp:
    """Look up a ``⊕`` operator by name (pass-through for ReduceOp)."""
    if isinstance(name, ReduceOp):
        return name
    try:
        return REDUCE_OPS[name]
    except KeyError:
        raise KeyError(
            f"unknown reduce op {name!r}; available: {sorted(REDUCE_OPS)}"
        ) from None


def resolve_pass(f_v, f_e, binary_op, reduce_op):
    """The shared AP prologue: ``(⊗, ⊕, feature dim, feature dtype)``.

    Resolves the operator names and checks that every operand ``⊗`` reads
    was actually passed, so a missing matrix fails here with the
    operator's name instead of deep inside a gather.
    """
    bop = get_binary_op(binary_op)
    rop = get_reduce_op(reduce_op)
    for used, operand, label in (
        (bop.uses_lhs, f_v, "vertex features f_v"),
        (bop.uses_rhs, f_e, "edge features f_e"),
    ):
        if used and operand is None:
            raise ValueError(
                f"binary op {bop.name!r} reads the {label}, but got None"
            )
    # ⊗ reads at least one operand, so one is non-None past the check
    feats = f_v if f_v is not None else f_e
    if feats.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {feats.shape}")
    return bop, rop, int(feats.shape[1]), feats.dtype


def init_output(num_rows: int, dim: int, reduce_op: ReduceOp, dtype) -> np.ndarray:
    """Output matrix filled with the reducer's identity (Alg. 1 requires
    zero-init for sum; max/min need -inf/+inf)."""
    if reduce_op.needs_counts and not np.issubdtype(np.dtype(dtype), np.floating):
        raise ValueError(
            f"mean requires floating-point features, got dtype {np.dtype(dtype)}"
        )
    out = np.empty((num_rows, dim), dtype=dtype)
    out.fill(reduce_op.identity)
    return out


def finalize_output(
    out: np.ndarray, reduce_op: ReduceOp, counts: Optional[np.ndarray] = None
) -> np.ndarray:
    """Apply the reducer's one-time post-processing to a finished output.

    - ``max``/``min``: rows that received no message still hold the ±inf
      identity; DGL defines the reduction over an empty neighbourhood as
      0, and leaving ±inf there would poison downstream layers.  With
      ``counts`` (the per-row message counts, usually in-degrees) exactly
      the zero-count rows are zeroed, so NaN and ±inf coming from *real*
      messages propagate untouched.  Without ``counts`` the fallback
      replaces entries still equal to the identity — correct for empty
      rows, but unable to distinguish a genuine message reduction that
      lands on the identity value; callers with graph access should use
      :func:`finalize_with_graph`.
    - ``mean``: divide each row by its message count (``counts``);
      empty rows stay 0.

    Kernels call this exactly once per logical aggregation — when they
    allocated the output themselves.  When accumulating into a
    caller-provided ``out`` (block/bucket chaining) they skip it and the
    outermost caller finalizes after the last partial pass.
    """
    if reduce_op.needs_counts:
        if counts is None:
            raise ValueError("mean finalization requires per-row counts")
        if not np.issubdtype(out.dtype, np.floating):
            raise ValueError(
                f"mean requires floating-point features, got dtype {out.dtype}"
            )
        denom = np.maximum(np.asarray(counts).reshape(-1, 1), 1)
        np.true_divide(out, denom, out=out, casting="unsafe")
        return out
    if reduce_op.name in ("max", "min") and not np.isfinite(reduce_op.identity):
        if counts is not None:
            empty = np.asarray(counts).reshape(-1) == 0
            if empty.any():
                out[empty] = 0.0
        else:
            np.copyto(out, 0.0, where=out == reduce_op.identity)
    return out


def finalize_with_graph(out: np.ndarray, reduce_op: ReduceOp, graph) -> np.ndarray:
    """:func:`finalize_output` with the counts taken from ``graph``.

    The shared epilogue of every kernel:
    ``mean`` needs the destination in-degrees for the division, and
    ``max``/``min`` need them to zero exactly the empty rows (so NaN/±inf
    from real messages survive finalization).  ``graph`` is anything with
    ``in_degrees()`` (for chained block passes, pass the *original*
    graph — per-block degrees would under-count).
    """
    needs = reduce_op.needs_counts or (
        reduce_op.name in ("max", "min") and not np.isfinite(reduce_op.identity)
    )
    counts = graph.in_degrees() if needs else None
    return finalize_output(out, reduce_op, counts=counts)
