"""Row covers for the "any cover of the rows gives the same bytes" tests.

``static`` and ``balanced`` were thread-chunking policies of the engine's
planner until docs/kernel-plan.md measured the dynamic work-queue best or
tied everywhere; they live on here as generators of contiguous disjoint
covers the engine's own rule never produces (``num_threads`` equal-count
ranges; equal-work ranges that put a hub row on its own), fed to the
executor through :func:`run_cover`.
"""

import numpy as np

from repro.kernels.blocked import BlockedGraph
from repro.kernels.engine import PassPlan, execute_plan, plan_row_chunks
from repro.kernels.operators import resolve_pass


def op_features(graph, dim=5, seed=0):
    """``(f_V, f_E)`` for the full operator sweep (shifted off 0 for ``div``)."""
    rng = np.random.default_rng(seed)
    f_v = rng.standard_normal((graph.num_src, dim)) + 2.0
    f_e = rng.standard_normal((graph.num_edges, dim)) + 2.0
    return f_v, f_e


def cover_from_bounds(bounds):
    """Ranges between consecutive cut points (empty ones dropped)."""
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def static_cover(graph, parts):
    """``parts`` equal-*count* ranges (OpenMP ``schedule(static)``)."""
    return cover_from_bounds(np.linspace(0, graph.num_vertices, parts + 1).astype(np.int64))


def balanced_cover(graph, parts):
    """``parts`` equal-*work* ranges, cut at in-degree prefix-sum quantiles."""
    n = graph.num_vertices
    cum = np.cumsum(graph.in_degrees().astype(np.float64))
    if cum.size == 0 or cum[-1] == 0.0:
        return static_cover(graph, parts)
    # Cut after the row whose prefix sum reaches the k-th work quantile
    # (side="right"): a hub row heavier than a whole quantile becomes its
    # own range instead of dragging the following rows into it.
    targets = cum[-1] * np.arange(1, parts) / parts
    cuts = np.searchsorted(cum, targets, side="right")
    return cover_from_bounds(np.concatenate(([0], np.clip(cuts, 0, n), [n])))


#: name -> ``(graph, parts) -> ranges``; ``dynamic`` is the engine's own queue
COVERS = {"static": static_cover, "dynamic": plan_row_chunks, "balanced": balanced_cover}


def run_cover(graph, ranges, f_v, f_e, binary_op, reduce_op, out=None, num_threads=1):
    """One pass over an explicit row cover of ``graph`` (its source blocks
    when it is a :class:`BlockedGraph`), bypassing the plan rule."""
    blocked = isinstance(graph, BlockedGraph)
    base = graph.graph if blocked else graph
    plan = PassPlan(base, graph.blocks if blocked else (base,), ranges)
    ops = resolve_pass(f_v, f_e, binary_op, reduce_op)
    return execute_plan(plan, f_v, f_e, *ops, out, num_threads)
