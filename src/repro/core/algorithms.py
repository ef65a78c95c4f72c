"""The three distributed algorithms (paper Section 5.3).

=========  =============================================================
``0c``     No communication at all.  Split vertices aggregate only their
           local partial neighbourhood.  Fastest; the scaling roofline.
``cd-0``   Synchronous exchange every epoch: after local aggregation,
           split-vertex partials are tree-reduced and redistributed, so
           every vertex sees its complete neighbourhood (accuracy parity
           with single socket).  Slowest; the scaling lower bound.
``cd-r``   Communication *avoidance*: the exchange of ``cd-0`` is split
           into ``r`` bins and pipelined across epochs; aggregates used
           at epoch ``e`` contain remote partials from epoch ``e - r``
           (and the round trip completes at ``e - 2r`` for leaves).
=========  =============================================================

An :class:`AlgorithmSpec` fully configures the DRPA exchanger and the
trainer's gradient handling:

- cd-0 also tree-sums the aggregate-output *gradients* (the exact adjoint
  of the forward sync — every clone ends up applying the total gradient);
- cd-r and 0c keep gradients local, mirroring their forward freshness
  contract (stale/absent remote partials are treated as constants).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AlgorithmSpec:
    """Communication regime of one distributed run."""

    name: str
    #: exchange partial aggregates at all?
    communicate: bool
    #: epochs between posting and consuming a partial aggregate.
    delay: int
    #: tree-sum aggregate gradients in backward (exact adjoint; cd-0 only).
    sync_gradients: bool

    @property
    def num_bins(self) -> int:
        """cd-r deals trees into ``r`` bins (Alg. 4 lines 3–6)."""
        return max(self.delay, 1)

    @property
    def is_synchronous(self) -> bool:
        return self.communicate and self.delay == 0

    def display_name(self) -> str:
        if not self.communicate:
            return "0c"
        return f"cd-{self.delay}"


def get_algorithm(name: str) -> AlgorithmSpec:
    """Build an algorithm spec from a paper-style name: ``"0c"`` or
    ``"cd-<r>"`` with the delay spelled out (``"cd-0"``, ``"cd-5"``)."""
    key = name.lower().replace("_", "-")
    if key == "0c":
        return AlgorithmSpec("0c", communicate=False, delay=0, sync_gradients=False)
    if key == "cd-0":
        return AlgorithmSpec("cd-0", communicate=True, delay=0, sync_gradients=True)
    if key.startswith("cd-"):
        r = int(key[3:])
        if r < 0:
            raise ValueError("delay must be >= 0")
        if r == 0:
            return AlgorithmSpec("cd-0", communicate=True, delay=0, sync_gradients=True)
        return AlgorithmSpec(
            f"cd-{r}", communicate=True, delay=r, sync_gradients=False
        )
    raise ValueError(f"unknown algorithm {name!r}; use 0c, cd-0 or cd-<r>")
