"""Delayed Remote Partial Aggregates — paper Algorithm 4.

DRPA synchronizes split-vertex partial aggregates over the 1-level trees
of :mod:`repro.partition.tree` in two phases:

1. **up** (leaves -> root): every leaf clone *gathers* its partial
   aggregate rows (pre-processing, Alg. 4 line 10) and async-sends them to
   the root partition (line 11); the root *scatter-reduces* arrivals into
   its own rows (lines 13–14).
2. **down** (root -> leaves): the root gathers the now-complete rows
   (line 15) and async-sends them back (line 16); leaves *scatter*
   (replace) them into their rows (lines 19–20).

The delay parameter ``r`` turns the same machinery into the three paper
algorithms: messages posted with ``delay=r`` become receivable ``r``
epochs later, and the split-vertex trees are dealt into ``r`` bins with
bin ``e % r`` active at epoch ``e`` (lines 3–6, 9).  ``r=0`` is cd-0
(same-epoch synchronous exchange); skipping the exchange entirely is 0c.

The same exchanger also runs the **gradient** tree-sum used by cd-0's
backward pass: since after the forward sync every clone of a split vertex
holds the identical aggregate, the adjoint of the sync is the *sum* of the
clones' output gradients — computed by the identical up-reduce/down-
scatter sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Tuple

import numpy as np

from repro.comm.compression import PayloadCodec
from repro.partition.partition import PartitionedGraph
from repro.partition.tree import TreeExchangePlan, bin_routes


@dataclass
class BinRouting:
    """Per-bin routing tables, grouped by (leaf_part, root_part) bucket.

    ``buckets[(p, q)] = (leaf_rows_on_p, root_rows_on_q)`` with both arrays
    route-aligned, so the up phase sends ``z[leaf_rows]`` from ``p`` to
    ``q`` where it reduces into ``z[root_rows]``, and the down phase runs
    the same tables in reverse.
    """

    buckets: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )

    @classmethod
    def from_plan(cls, plan: TreeExchangePlan) -> "BinRouting":
        buckets: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        if plan.num_routes == 0:
            return cls(buckets)
        order = np.lexsort((plan.root_part, plan.leaf_part))
        lp = plan.leaf_part[order]
        rp = plan.root_part[order]
        ll = plan.leaf_local[order]
        rl = plan.root_local[order]
        keys = lp * (rp.max() + 1) + rp
        boundaries = np.flatnonzero(np.diff(keys)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [keys.size]])
        for s, e in zip(starts, ends):
            buckets[(int(lp[s]), int(rp[s]))] = (ll[s:e], rl[s:e])
        return cls(buckets)

    def out_buckets(self, rank: int):
        """Buckets where ``rank`` is the leaf side (up-phase sender)."""
        return [
            (q, rows_leaf, rows_root)
            for (p, q), (rows_leaf, rows_root) in self.buckets.items()
            if p == rank
        ]

    def in_buckets(self, rank: int):
        """Buckets where ``rank`` is the root side (up-phase receiver)."""
        return [
            (p, rows_leaf, rows_root)
            for (p, q), (rows_leaf, rows_root) in self.buckets.items()
            if q == rank
        ]


def route_bins(plan: TreeExchangePlan, num_bins: int = 1) -> List[BinRouting]:
    """The plan's routes dealt into ``num_bins`` routing tables — built
    once per partitioning and shared by every rank's exchangers."""
    return [BinRouting.from_plan(sub) for sub in bin_routes(plan, num_bins)]


class DRPAExchanger:
    """One rank's side of the DRPA exchange, over that rank's communicator.

    One exchanger serves all layers (messages are tagged with layer and
    direction); the trainer holds one per message family (forward
    aggregates, cd-0 gradients, evaluation) so their tags never mix.
    The same code runs on both backends: a sim communicator's
    ``barrier()`` is a sync point the rank program yields, an shm
    communicator's blocks.
    """

    def __init__(
        self,
        comm,
        bins: List[BinRouting],
        delay: int = 0,
        tag_prefix: str = "agg",
        compression: str = "none",
    ):
        if delay < 0:
            raise ValueError("delay must be >= 0")
        if not bins:
            raise ValueError("need at least one routing bin")
        self.comm = comm
        self.bins = bins
        self.num_bins = len(bins)
        self.delay = delay
        self.tag_prefix = tag_prefix
        #: wire codec (fp16/bf16 halve the counted communication volume —
        #: the paper's stated future-work optimization).
        self.codec = PayloadCodec(compression)

    # -- epoch/bin bookkeeping -------------------------------------------------

    def bin_for_epoch(self, epoch: int) -> int:
        """Active bin at ``epoch`` (Alg. 4 line 9: ``i <- e % r``)."""
        return epoch % self.num_bins

    # -- up phase (leaves -> root) -----------------------------------------------

    def send_up(self, values: np.ndarray, layer: int, epoch: int) -> int:
        """Gather this rank's leaf rows of the active bin and async-send.

        Returns the number of bytes posted (pre-processing accounting).
        """
        bin_id = self.bin_for_epoch(epoch)
        posted = 0
        for q, rows_leaf, _rows_root in self.bins[bin_id].out_buckets(self.comm.rank):
            payload = self.codec.encode(values[rows_leaf])  # local gather (line 10)
            self.comm.isend(
                q, payload, tag=(self.tag_prefix, "up", layer, bin_id),
                delay=self.delay,
            )
            posted += payload.nbytes
        return posted

    def reduce_up(self, values: np.ndarray, layer: int) -> List[int]:
        """Scatter-reduce deliverable leaf partials into root rows.

        Returns the source ranks whose partials were applied (so the down
        phase knows which bins completed).  With delay ``r`` the arrivals
        were posted at epoch ``e - r`` — the staleness of cd-r.
        """
        rank = self.comm.rank
        handled = []
        for bin_id in range(self.num_bins):
            tag = (self.tag_prefix, "up", layer, bin_id)
            for msg in self.comm.recv_ready(tag=tag):
                rows = self.bins[bin_id].buckets[(msg.src, rank)][1]
                decoded = self.codec.decode(msg.payload, dtype=values.dtype)
                values[rows] += decoded  # line 14; a bucket's root rows are unique
                handled.append(msg.src)
        return handled

    # -- down phase (root -> leaves) -----------------------------------------------

    def send_down(self, values: np.ndarray, layer: int, epoch: int) -> int:
        """Gather completed root rows of the bin reduced this epoch and send.

        With delay ``r`` the bin reduced at this epoch is the one whose up
        messages were posted at ``epoch - r`` — which is the same bin index
        as ``epoch`` (``(e - r) % r == e % r``), so the active-bin tables
        apply.
        """
        bin_id = self.bin_for_epoch(epoch)
        posted = 0
        for p, _rows_leaf, rows_root in self.bins[bin_id].in_buckets(self.comm.rank):
            payload = self.codec.encode(values[rows_root])  # local gather (line 15)
            self.comm.isend(
                p, payload, tag=(self.tag_prefix, "down", layer, bin_id),
                delay=self.delay,
            )
            posted += payload.nbytes
        return posted

    def apply_down(self, values: np.ndarray, layer: int) -> int:
        """Scatter deliverable root totals into leaf rows (replace, line 20)."""
        rank = self.comm.rank
        applied = 0
        for bin_id in range(self.num_bins):
            tag = (self.tag_prefix, "down", layer, bin_id)
            for msg in self.comm.recv_ready(tag=tag):
                rows = self.bins[bin_id].buckets[(rank, msg.src)][0]
                values[rows] = self.codec.decode(msg.payload, dtype=values.dtype)
                applied += 1
        return applied

    # -- full synchronous round (cd-0, gradient sync, evaluation) ------------------

    def synchronous_round(
        self, values: np.ndarray, layer: int, epoch: int = 0
    ) -> Generator:
        """A complete up+down exchange within one epoch (requires
        ``delay == 0``), as a generator yielding at its two barriers: all
        sends posted before any reduce; all root totals posted before any
        leaf applies.  After the round every clone of a split vertex
        holds the identical fully reduced row.
        """
        if self.delay != 0:
            raise RuntimeError("synchronous_round requires delay=0 (cd-0 semantics)")
        self.send_up(values, layer, epoch)
        yield self.comm.barrier()
        self.reduce_up(values, layer)
        self.send_down(values, layer, epoch)
        yield self.comm.barrier()
        self.apply_down(values, layer)

    # -- delayed round (cd-r) --------------------------------------------------------

    def delayed_round(self, values: np.ndarray, layer: int, epoch: int) -> None:
        """One cd-r step: post this epoch's bin, consume what is ripe —
        no barriers needed.

        Ordering follows Alg. 4 lines 10–21: send up, then (if anything
        arrived, i.e. ``e >= r``) reduce + send down, then (``e >= 2r``)
        apply arrived root totals.  With ``delay >= 1`` every message
        consumed at epoch ``e`` was posted at ``e - delay`` or earlier,
        i.e. before a previous epoch boundary, so the ripe sets do not
        depend on how far the other ranks have got.  This is the genuine
        communication/computation overlap of cd-r: the posts of this
        epoch travel while every rank computes on.
        """
        if self.delay < 1:
            raise RuntimeError("delayed_round requires delay >= 1 (cd-r)")
        self.send_up(values, layer, epoch)
        # Alg. 4's ``e >= r`` guard: only roots that actually reduced
        # arrivals this epoch forward totals back down.
        if self.reduce_up(values, layer):
            self.send_down(values, layer, epoch)
        self.apply_down(values, layer)


def owned_mask(parted: PartitionedGraph, plan: TreeExchangePlan, rank: int) -> np.ndarray:
    """Boolean mask of local vertices *owned* by ``rank``.

    A vertex is owned by the partition hosting its tree root (or its only
    clone).  Ownership de-duplicates split vertices for loss and accuracy
    computation — each global vertex is counted exactly once across ranks.
    """
    part = parted.parts[rank]
    mask = np.ones(part.num_vertices, dtype=bool)
    leaf_here = plan.leaf_part == rank
    mask[plan.leaf_local[leaf_here]] = False
    return mask
