"""Collective operations over the simulated world.

The one collective the trainers use is AllReduce (parameter sync, and
the reductions :meth:`World.run_programs` resolves at a sync point).  It
is *lockstep*: the caller passes the per-rank inputs for every rank at
once and receives per-rank outputs.  Byte accounting follows its
standard cost on a fat network: ring/Rabenseifner volume,
``2 * (P-1)/P * nbytes`` per rank.  Partial aggregates travel
point-to-point (``Communicator.isend``), not through a collective.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

import numpy as np

if TYPE_CHECKING:  # communicator imports all_reduce from here
    from repro.comm.communicator import World


def _check(world: World, items: Sequence) -> None:
    if len(items) != world.num_ranks:
        raise ValueError(
            f"expected one entry per rank ({world.num_ranks}), got {len(items)}"
        )


def reduce_in_rank_order(arrays: Sequence[np.ndarray], op: str = "sum") -> np.ndarray:
    """The AllReduce reduction itself: element-wise over the per-rank
    arrays, in rank order — the one both backends apply, so their
    results agree to the last bit."""
    arrays = [np.asarray(a) for a in arrays]
    shape = arrays[0].shape
    for a in arrays:
        if a.shape != shape:
            raise ValueError("all_reduce requires identical shapes")
    if op == "sum":
        return np.sum(arrays, axis=0)
    if op == "mean":
        return np.mean(arrays, axis=0)
    if op == "max":
        return np.max(arrays, axis=0)
    if op == "min":
        return np.min(arrays, axis=0)
    raise ValueError(f"unsupported all_reduce op {op!r}")


def all_reduce(
    world: World, arrays: Sequence[np.ndarray], op: str = "sum"
) -> List[np.ndarray]:
    """AllReduce: every rank receives the element-wise reduction.

    Used once per epoch for weight-gradient synchronization (paper: "For
    parameter sync among the models, in each epoch, we use AllReduce").
    """
    _check(world, arrays)
    total = reduce_in_rank_order(arrays, op)
    p = world.num_ranks
    nbytes = int(np.asarray(arrays[0]).nbytes)
    ring = int(2 * (p - 1) / p * nbytes) if p > 1 else 0
    world.counters.record_collective("all_reduce", [(ring, ring)] * p)
    return [total.copy() for _ in range(p)]
