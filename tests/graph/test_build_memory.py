"""Graph construction and transposition hold no scratch copies.

NumPy reports its buffers to ``tracemalloc``, so these peaks are
deterministic: the bytes a build holds at its worst moment, not the
process's resident set.  ``CSRGraph.reverse`` is one stable transpose
(the sort order, the expanded rows and the output, about 1.5x the graph
it returns); expanding the graph to COO copies and sorting it again held
3.0x.  ``load_dataset`` drops each recipe stage's graph before the next
and copies nothing it only reads, in the frame that owns it: the peak is
the same whether a call's arguments move into the callee (Python 3.11+)
or stay alive in the caller until it returns (3.10).
"""

import types
import tracemalloc

import numpy as np
import pytest

from repro.graph import builders, datasets, generators, utils
from repro.graph.datasets import load_dataset

#: ``reverse()``'s transient peak over the bytes of the graph it returns
REVERSE_PEAK_RATIO = 2.0
#: ``community_features``' transient peak over the bytes it returns
FEATURES_PEAK_RATIO = 1.5
#: ``load_dataset("reddit", 1.0)`` traced 46.5 MB at its peak; +20 %
RECIPE_PEAK_MB = 56.0


def _traced(fn):
    """``fn()`` and the most it held above what was traced before it."""
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _nbytes(graph) -> int:
    return sum(a.nbytes for a in (graph.indptr, graph.indices, graph.edge_ids))


@pytest.mark.parametrize(
    "name, scale",
    [("reddit", 1.0), ("ogbn-papers", 2.5)],  # papers 2.5: 81,920 sources, two radix digits
)
def test_reverse_peak_is_within_twice_its_output(name, scale):
    graph = load_dataset(name, scale=scale, seed=0).graph
    rev, peak = _traced(graph.reverse)
    assert peak <= REVERSE_PEAK_RATIO * _nbytes(rev), peak / _nbytes(rev)


def test_reddit_recipe_peak_is_bounded():
    ds, peak = _traced(lambda: load_dataset("reddit", 1.0, seed=0))
    assert ds.num_edges == 999_480
    assert peak <= RECIPE_PEAK_MB * 1e6, peak / 1e6


def test_community_features_peak_is_near_its_output():
    """Features are built a chunk of rows at a time into the output: at
    papers 2.5's shape (81,920 x 64, float32: 21.0 MB) the build holds
    at most 1.5x what it returns; the one-shot float64 build held 4x."""
    labels = np.random.default_rng(0).integers(0, 32, size=81_920)
    feats, peak = _traced(lambda: generators.community_features(labels, 64, seed=7))
    assert peak <= FEATURES_PEAK_RATIO * feats.nbytes, peak / feats.nbytes


def _holding(fn):
    def call(*args, **kwargs):
        return fn(*args, **kwargs)  # ``args`` lives until ``fn`` returns

    return call


def test_reddit_recipe_peak_holds_when_calls_keep_their_arguments(monkeypatch):
    """Every graph-module function the recipe calls is wrapped in a frame
    that holds its arguments until it returns, as Python 3.10's caller
    does; the traced peak stays where it was (the wrappers' own frames
    aside), so no stage relies on a callee dropping its input."""
    _, moved = _traced(lambda: load_dataset("reddit", 1.0, seed=0))
    for module in (builders, generators, datasets, utils):
        for name, fn in list(vars(module).items()):
            if isinstance(fn, types.FunctionType) and fn.__module__.startswith("repro.graph"):
                monkeypatch.setattr(module, name, _holding(fn))
    ds, held = _traced(lambda: load_dataset("reddit", 1.0, seed=0))
    assert ds.num_edges == 999_480
    assert held <= moved + 100_000, (held - moved) / 1e6
    assert held <= RECIPE_PEAK_MB * 1e6, held / 1e6
