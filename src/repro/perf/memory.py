"""Per-partition memory model (paper Table 6).

Section 6.3 enumerates GraphSAGE's memory: (1) weight matrices, (2) the
input feature matrix ``N x f``, (3) aggregation outputs per layer, (4)
MLP outputs per layer — all intermediates retained for backprop — plus
communication buffers, which differ per algorithm: cd-0 stages one
layer's split-vertex exchange at a time, while cd-r keeps every layer's
delayed messages in flight across the pipeline, so cd-r > cd-0 > 0c
(Table 6: 311 / 199 / 180 GB at 32 partitions for OGBN-Papers).
Aggregation outputs are sized aggregate-first, as in the paper, on
purpose; the trainers' are ``min(in, out)`` wide after layer 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

FLOAT_BYTES = 4


@dataclass(frozen=True)
class MemoryModel:
    """Memory breakdown of one partition (bytes)."""

    weights: float
    input_features: float
    activations: float
    gradients: float
    optimizer_state: float
    comm_buffers: float

    @property
    def total(self) -> float:
        return (
            self.weights
            + self.input_features
            + self.activations
            + self.gradients
            + self.optimizer_state
            + self.comm_buffers
        )

    @property
    def total_GB(self) -> float:
        return self.total / 2**30


def graphsage_memory_bytes(
    num_partition_vertices: float,
    feature_dim: int,
    hidden_dims: Sequence[int],
    num_classes: int,
    algorithm: str = "cd-0",
    split_fraction: float = 0.0,
    optimizer: str = "adam",
) -> MemoryModel:
    """Memory of one partition running 3-layer GraphSAGE (paper's model).

    Parameters mirror Section 6.3's notation: ``N`` partition vertices,
    ``f`` features, ``h1, h2`` hidden sizes, ``l`` labels.
    """
    n = float(num_partition_vertices)
    f = feature_dim
    dims = list(hidden_dims)
    l = num_classes
    widths = [f] + dims  # input width of each layer
    out_widths = dims + [l]

    # (1) weights: f x h1, h1 x h2, h2 x l (+ biases, negligible).
    w_elems = sum(a * b for a, b in zip(widths, out_widths))
    weights = w_elems * FLOAT_BYTES

    # (2) input features.
    input_features = n * f * FLOAT_BYTES

    # (3)+(4) per-layer aggregation outputs and MLP outputs, all retained
    # for backprop: aggregation outputs are N x width_in per layer, MLP
    # outputs N x width_out per layer.
    act_elems = n * (sum(widths) + sum(out_widths))
    activations = act_elems * FLOAT_BYTES

    # Backprop gradients mirror the activations of one live layer chain
    # (the paper stores intermediates; gradient buffers are transient but
    # peak at roughly the widest pair of layers).
    gradients = n * (max(widths) + max(out_widths)) * FLOAT_BYTES

    # Optimizer: Adam keeps m and v per weight; SGD-momentum one slot.
    opt_slots = {"adam": 2, "sgd": 1}.get(optimizer, 2)
    optimizer_state = w_elems * opt_slots * FLOAT_BYTES

    # Communication buffers over the split vertices.
    s = n * split_fraction
    algo = algorithm.lower()
    if algo == "0c" or split_fraction == 0.0:
        comm = 0.0
    elif algo in ("cd-0", "cd0"):
        # One layer's up+down staging at a time (send + recv), at the
        # widest exchanged feature width.
        comm = 2 * 2 * s * max(widths) * FLOAT_BYTES
    else:  # cd-r: all layers' delayed messages live simultaneously
        comm = 2 * 2 * s * sum(widths) * FLOAT_BYTES
    return MemoryModel(
        weights=weights,
        input_features=input_features,
        activations=activations,
        gradients=gradients,
        optimizer_state=optimizer_state,
        comm_buffers=comm,
    )


def papers_partition_vertices(num_partitions: int, replication_factor: float) -> float:
    """Partition vertex count for OGBN-Papers at a given partitioning.

    Clones multiply the resident vertex count: ``N_p = |V| * rf / P``.
    """
    papers_vertices = 111_059_956
    return papers_vertices * replication_factor / num_partitions
