"""Table 7's work, counted: ``SampledBatch.work_ops`` is each hop's
sampled edges x width, and a hop samples ``min(in-degree, fan-out)``
edges per frontier vertex — so the count follows from the frontiers and
the degrees alone, with no model (docs/models.md, Table 7 row)."""

import numpy as np
import pytest

from repro.graph.datasets import load_dataset
from repro.sampling import NeighborSampler

DATASETS = ("reddit", "ogbn-products", "proteins", "ogbn-papers", "am")
#: fan-outs from the seeds outward, as Table 7 lists its hops
FANOUTS = ((15, 10, 5), (10, 10, 10), (25, 10))


@pytest.fixture(scope="module")
def datasets():
    return {name: load_dataset(name, scale=0.05, seed=0) for name in DATASETS}


@pytest.mark.parametrize("fanouts", FANOUTS, ids=lambda f: "-".join(map(str, f)))
@pytest.mark.parametrize("name", DATASETS)
def test_work_ops_is_min_degree_fanout_times_width(datasets, name, fanouts):
    ds = datasets[name]
    widths = (256,) * (len(fanouts) - 1) + (ds.feature_dim,)  # hop-0 first
    seeds = np.random.default_rng(0).choice(ds.num_vertices, size=64, replace=False)
    batch = NeighborSampler(ds.graph, fanouts[::-1], seed=0).sample(seeds)
    deg = ds.graph.in_degrees()
    hops = list(zip(batch.blocks[::-1], fanouts, widths))
    by_degree = sum(int(np.minimum(deg[b.dst_global], f).sum()) * d for b, f, d in hops)
    assert batch.work_ops(widths[::-1]) == by_degree
    # the paper's frontier x fan-out x width is the bound a full hop reaches
    assert by_degree <= sum(b.num_dst * f * d for b, f, d in hops)
