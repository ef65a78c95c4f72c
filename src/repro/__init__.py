"""repro — a from-scratch reproduction of DistGNN (SC 2021).

DistGNN scales full-batch GNN training on CPU clusters via (1) an
architecture-optimized aggregation primitive, (2) vertex-cut graph
partitioning (Libra) for communication reduction, and (3) the Delayed
Remote Partial Aggregates (DRPA) family — ``0c`` / ``cd-0`` / ``cd-r`` —
for communication avoidance.

Public entry points::

    from repro import load_dataset, aggregate, libra_partition
    from repro.core import Trainer, DistributedTrainer, TrainConfig
    from repro.nn import GraphSAGE

See docs/ARCHITECTURE.md for the system inventory and docs/models.md
for which paper figures are measured and which performance models were
checked against a measurement.
"""

__version__ = "1.0.0"

from repro.graph import CSRGraph, load_dataset
from repro.kernels import aggregate
from repro.partition import libra_partition

__all__ = ["CSRGraph", "load_dataset", "aggregate", "libra_partition", "__version__"]
