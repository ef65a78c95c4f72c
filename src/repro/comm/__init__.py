"""Simulated distributed runtime.

The paper runs one MPI rank per CPU socket with Intel OneCCL collectives
(AlltoAll for partial aggregates, AllReduce for parameter sync).  We have
no cluster, so this package provides an in-process **simulated MPI world**
that executes the same communication *semantics* deterministically:

- :mod:`repro.comm.communicator` — the :class:`World` of ranks and the
  per-rank :class:`Communicator` handles.
- :mod:`repro.comm.collectives` — AllReduce over NumPy buffers
  (lockstep semantics, rank-order reduction).
- :mod:`repro.comm.async_queue` — epoch-delayed message delivery: a
  message posted at epoch ``e`` becomes visible at epoch ``e + delay``,
  which is exactly the staleness contract of cd-r (Alg. 4).
- :mod:`repro.comm.counters` — per-rank byte/message accounting feeding
  the cost models.
- :mod:`repro.comm.netmodel` — latency/bandwidth network model (HDR-class
  defaults) converting counted bytes into simulated communication time.

Every collective counts the bytes it would move on a real network, so the
benchmark harness can report modelled communication time next to the
algorithmic results.

Execution backends
------------------
Two interchangeable backends implement the per-rank communicator surface
(``isend`` / ``recv_ready`` / ``barrier`` / ``all_reduce``) and each
drives a rank program written against it (see ``docs/ARCHITECTURE.md``
§ "Execution backends"):

- ``"sim"`` — the in-process :class:`World` above: ``run_programs`` runs
  the ``P`` rank programs side by side on threads between sync points
  (deterministic, models communication, measures nothing);
- ``"shm"`` — :mod:`repro.comm.shm`: one OS process per rank over
  ``multiprocessing.shared_memory`` mailboxes, sync points block
  (``ShmCommunicator.run_program``), for measured wall-clock scaling
  with genuine DRPA overlap.

:data:`BACKENDS` is the registry; trainers resolve a backend name through
:func:`validate_backend`.
"""

from repro.comm.async_queue import DelayedQueue, Message
from repro.comm.collectives import all_reduce
from repro.comm.communicator import Communicator, World
from repro.comm.counters import CommCounters
from repro.comm.netmodel import NetworkModel, HDR_200G
from repro.comm.shm import ShmCommunicator, ShmWorld

#: execution backend registry: name -> world factory ``(num_ranks, **kw)``.
BACKENDS = {
    "sim": World,
    "shm": ShmWorld,
}


def validate_backend(name: str) -> str:
    """Fail fast on an unknown backend name (trainer construction time)."""
    if name not in BACKENDS:
        raise KeyError(
            f"unknown execution backend {name!r}; available: {sorted(BACKENDS)}"
        )
    return name


__all__ = [
    "World",
    "Communicator",
    "ShmWorld",
    "ShmCommunicator",
    "BACKENDS",
    "validate_backend",
    "all_reduce",
    "DelayedQueue",
    "Message",
    "CommCounters",
    "NetworkModel",
    "HDR_200G",
]
