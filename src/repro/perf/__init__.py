"""Analytic performance models.

The paper's cluster results (Figs. 5–6, Tables 6–9) are wall-clock
measurements on 64 dual-socket Xeon 9242 nodes.  We reproduce their
*shape* by executing the real distributed algorithms in-process (exact
byte/op counts) and converting those counts into modelled time with:

- :mod:`repro.perf.hardware` — socket presets (Xeon 8280 / 9242).
- :mod:`repro.perf.roofline` — memory-BW/compute roofline per socket.
- :mod:`repro.perf.workmodel` — the paper's own aggregation op counting
  (Tables 7/8: vertices x degree x feature width).
- :mod:`repro.perf.epochmodel` — end-to-end epoch time for each
  algorithm/socket count (Fig. 5) and its LAT/RAT split (Fig. 6).
- :mod:`repro.perf.memory` — per-partition peak memory (Table 6).
- :mod:`repro.perf.minibatch` — the Dist-DGL neighbourhood-sampling work
  model used in the comparison tables (7 and 9).
- :mod:`repro.perf.scheduling` — OpenMP static/dynamic scheduling
  simulator quantifying load imbalance on power-law graphs (Fig. 4's
  "DS" bar).
"""

from repro.perf.hardware import SocketSpec, XEON_8280, XEON_9242
from repro.perf.roofline import ap_kernel_time, roofline_time
from repro.perf.workmodel import LayerWork, full_batch_work, total_work_bops
from repro.perf.epochmodel import EpochBreakdown, EpochModel
from repro.perf.memory import MemoryModel, graphsage_memory_bytes
from repro.perf.minibatch import (
    MinibatchHop,
    minibatch_epoch_work,
    sampled_frontier_sizes,
)
from repro.perf.scheduling import ScheduleResult, simulate_schedule

__all__ = [
    "SocketSpec",
    "XEON_8280",
    "XEON_9242",
    "roofline_time",
    "ap_kernel_time",
    "LayerWork",
    "full_batch_work",
    "total_work_bops",
    "EpochModel",
    "EpochBreakdown",
    "MemoryModel",
    "graphsage_memory_bytes",
    "MinibatchHop",
    "minibatch_epoch_work",
    "sampled_frontier_sizes",
    "ScheduleResult",
    "simulate_schedule",
]
