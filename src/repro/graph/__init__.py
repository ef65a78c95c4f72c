"""Graph substrate for DistGNN.

This package provides the graph data structures and workloads that every
other layer of the reproduction builds on:

- :mod:`repro.graph.csr` — the immutable :class:`CSRGraph` used by the
  aggregation kernels (the role DGL's ``CSRMatrix`` plays in the paper).
- :mod:`repro.graph.builders` — COO accumulation and conversion helpers.
- :mod:`repro.graph.generators` — synthetic graph generators (R-MAT,
  stochastic block model, power-law cluster hybrid) used to synthesize
  structural stand-ins for the paper's datasets.
- :mod:`repro.graph.datasets` — the five benchmark stand-ins (Reddit,
  OGBN-Products, OGBN-Papers, Proteins, AM) with matched structural
  signatures plus planted labels for accuracy experiments.
- :mod:`repro.graph.utils` — average degree, density, bidirection, splits.

:class:`~repro.dyngraph.delta.DynamicGraph` (re-exported here) is the
mutable counterpart: it holds the current :class:`CSRGraph` and rebuilds
it once per batch of edge additions and removals.
"""

from repro.graph.builders import coo_to_csr, from_edge_list
from repro.graph.csr import CSRGraph
from repro.graph.datasets import (
    DATASET_REGISTRY,
    Dataset,
    PAPER_DATASET_STATS,
    PaperDatasetStats,
    load_dataset,
)
from repro.graph.generators import (
    powerlaw_cluster_graph,
    rmat_graph,
    sbm_graph,
)
from repro.graph.utils import (
    average_degree,
    density,
    to_bidirected,
)

# last: repro.dyngraph builds on the modules imported above
from repro.dyngraph.delta import DynamicGraph

__all__ = [
    "CSRGraph",
    "DynamicGraph",
    "coo_to_csr",
    "from_edge_list",
    "rmat_graph",
    "sbm_graph",
    "powerlaw_cluster_graph",
    "Dataset",
    "PaperDatasetStats",
    "PAPER_DATASET_STATS",
    "DATASET_REGISTRY",
    "load_dataset",
    "average_degree",
    "density",
    "to_bidirected",
]
