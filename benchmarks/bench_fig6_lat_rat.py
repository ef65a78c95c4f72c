"""Fig. 6 — forward-pass local (LAT) vs remote (RAT) aggregation scaling.

Paper contracts: LAT scales near-linearly with sockets; RAT scales poorly
(driven by replication).  Measured here from the executing trainer's
per-epoch LAT / RAT timers on the products stand-in; the paper-scale
split was an epoch model nothing measured (docs/models.md).
"""

import pytest
from bench_utils import emit, table

from repro.core import DistributedTrainer, TrainConfig


def test_fig6_measured_lat_rat(products_bench, benchmark):
    """Measured wall-clock LAT/RAT split from the executing trainer."""
    cfg = TrainConfig(
        num_layers=2, hidden_features=16, learning_rate=0.01, eval_every=0, seed=0
    )
    rows = []
    for P in (2, 4, 8):
        dt = DistributedTrainer(products_bench, P, algorithm="cd-0", config=cfg)
        stats = dt.train_epoch(0)
        rows.append(
            [
                P,
                round(stats.local_agg_time_s * 1e3, 2),
                round(stats.remote_agg_time_s * 1e3, 2),
            ]
        )
    lines = table(["P", "LAT_ms/socket", "RAT_ms/socket"], rows)
    emit("fig6_measured_lat_rat", lines)
    # per-socket LAT must shrink as partitions shrink
    assert rows[-1][1] < rows[0][1]

    dt = DistributedTrainer(products_bench, 2, algorithm="cd-0", config=cfg)
    benchmark(dt.train_epoch, 0)
