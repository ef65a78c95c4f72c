"""Latency/bandwidth network cost model.

Converts communicated bytes into modelled wall time with the classic
alpha-beta model: ``time = alpha * messages + bytes / beta``.  Defaults
approximate the paper's fabric (Mellanox HDR, DragonFly topology): 200
Gb/s links with ~1.5 us MPI latency, derated for collective efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkModel:
    """Alpha-beta cost model of one interconnect."""

    name: str
    latency_s: float  # per-message software+wire latency (alpha)
    bandwidth_Bps: float  # effective per-rank bandwidth (beta)
    #: efficiency derate for dense collectives (AlltoAll on DragonFly
    #: rarely sustains full line rate).
    collective_efficiency: float = 0.7

    def collective_time(self, max_rank_bytes: float, messages: int = 1) -> float:
        """Time of a collective dominated by its busiest rank."""
        eff = self.bandwidth_Bps * self.collective_efficiency
        return self.latency_s * messages + max_rank_bytes / eff


#: Paper cluster fabric: Mellanox HDR (200 Gb/s), DragonFly.
HDR_200G = NetworkModel(
    name="mellanox-hdr-200g",
    latency_s=1.5e-6,
    bandwidth_Bps=200e9 / 8,
    collective_efficiency=0.7,
)

#: Commodity 10 GbE for sensitivity studies.
ETH_10G = NetworkModel(
    name="10gbe",
    latency_s=20e-6,
    bandwidth_Bps=10e9 / 8,
    collective_efficiency=0.6,
)
