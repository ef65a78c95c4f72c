"""Collective operations over the simulated world.

All collectives are *lockstep*: the caller passes the per-rank inputs for
every rank at once and receives per-rank outputs, which is how the
distributed trainer drives the ranks.  Byte accounting follows the
standard cost of each collective on a fat network:

- AllReduce: ring/Rabenseifner volume, ``2 * (P-1)/P * nbytes`` per rank;
- AlltoAll(v): each rank sends its off-diagonal row;
- AllGather: each rank sends its block to ``P - 1`` peers;
- Broadcast: root sends ``P - 1`` copies (tree pipelining affects time,
  not volume per link endpoint).
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


def all_gather(world: World, arrays: Sequence[np.ndarray]) -> List[List[np.ndarray]]:
    """AllGather: every rank receives every rank's array."""
    _check(world, arrays)
    p = world.num_ranks
    per_rank = []
    for r in range(p):
        sent = int(np.asarray(arrays[r]).nbytes) * (p - 1)
        recv = sum(
            int(np.asarray(arrays[q]).nbytes) for q in range(p) if q != r
        )
        per_rank.append((sent, recv))
    world.counters.record_collective("all_gather", per_rank)
    return [[np.asarray(a).copy() for a in arrays] for _ in range(p)]


def all_to_all(
    world: World, send: Sequence[Sequence[np.ndarray]]
) -> List[List[np.ndarray]]:
    """AlltoAll: ``send[i][j]`` goes from rank ``i`` to rank ``j``.

    Returns ``recv`` with ``recv[j][i] = send[i][j]``.  This is the
    collective DistGNN uses "for communicating the partial aggregates
    between the root and leaves in the 1-level tree".
    """
    _check(world, send)
    p = world.num_ranks
    for row in send:
        if len(row) != p:
            raise ValueError("send must be a PxP matrix of buffers")
    per_rank = []
    for r in range(p):
        sent = sum(
            int(np.asarray(send[r][q]).nbytes) for q in range(p) if q != r
        )
        recv = sum(
            int(np.asarray(send[q][r]).nbytes) for q in range(p) if q != r
        )
        per_rank.append((sent, recv))
    world.counters.record_collective("all_to_all", per_rank)
    return [[np.asarray(send[i][j]).copy() for i in range(p)] for j in range(p)]


def all_to_allv(
    world: World,
    send_buffers: Sequence[Sequence[np.ndarray]],
) -> List[List[np.ndarray]]:
    """Variable-size AlltoAll (alias of :func:`all_to_all`; the simulated
    buffers already carry their own sizes)."""
    return all_to_all(world, send_buffers)


def broadcast(world: World, array: np.ndarray, root: int = 0) -> List[np.ndarray]:
    """Broadcast from ``root`` to all ranks."""
    p = world.num_ranks
    nbytes = int(np.asarray(array).nbytes)
    per_rank = [
        (nbytes * (p - 1), 0) if r == root else (0, nbytes) for r in range(p)
    ]
    world.counters.record_collective("broadcast", per_rank)
    return [np.asarray(array).copy() for _ in range(p)]


def barrier(world: World) -> None:
    """No-op in lockstep execution; recorded for call accounting."""
    world.counters.record_collective("barrier", [(0, 0)] * world.num_ranks)
