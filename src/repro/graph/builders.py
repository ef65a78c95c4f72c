"""Builders converting edge lists / COO into :class:`CSRGraph`.

The conversion sorts edges destination-major (stable, so a deterministic
edge order is preserved within each row) and is the single entry point all
generators and partitioners use to materialize graphs.

Every key order is O(E): :func:`_stable_order` is an LSD radix sort over
16-bit digits on NumPy's stable ``argsort`` (a radix sort for <= 16-bit
ints, a comparison sort for int64), one pass for up to 65,536 vertices.
Value sets use :func:`sorted_unique`: NumPy 2.4's hash-based ``np.unique``
measured 3–27x slower than sort-and-diff on ids (85k: 30.3 vs 1.1 ms).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph, INDEX_DTYPE


def coo_to_csr(
    src: np.ndarray,
    dst: np.ndarray,
    num_dst: Optional[int] = None,
    num_src: Optional[int] = None,
    edge_ids: Optional[np.ndarray] = None,
) -> CSRGraph:
    """Build a destination-major CSR from parallel ``src``/``dst`` arrays.

    Parameters
    ----------
    src, dst:
        Endpoint arrays of equal length; edge ``i`` goes ``src[i] -> dst[i]``.
    num_dst, num_src:
        Vertex-set sizes.  Inferred from the data when omitted.
    edge_ids:
        Optional per-edge identifiers carried through the sort.  Defaults to
        the input order ``arange(len(src))``.
    """
    src = np.asarray(src, dtype=INDEX_DTYPE).ravel()
    dst = np.asarray(dst, dtype=INDEX_DTYPE).ravel()
    if src.shape != dst.shape:
        raise ValueError(f"src/dst length mismatch: {src.shape} vs {dst.shape}")
    m = src.size
    if num_dst is None:
        num_dst = int(dst.max(initial=-1)) + 1
    if num_src is None:
        num_src = int(src.max(initial=-1)) + 1
    if m and (dst.min() < 0 or src.min() < 0):
        raise ValueError("vertex ids must be non-negative")
    if m and int(dst.max()) >= num_dst:
        raise ValueError("dst id out of range")
    if m and int(src.max()) >= num_src:
        raise ValueError("src id out of range")
    if edge_ids is not None:
        edge_ids = np.asarray(edge_ids, dtype=INDEX_DTYPE).ravel()
        if edge_ids.size != m:
            raise ValueError("edge_ids must align with src/dst")

    order, indptr = _sort_rows(dst, num_dst)
    return CSRGraph(
        indptr=indptr,
        indices=src[order],
        edge_ids=order if edge_ids is None else edge_ids[order],
        num_src=num_src,
    )


def _sort_rows(rows: np.ndarray, num_rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """The stable order sorting edges by ``rows``, and its CSR row pointers."""
    indptr = np.zeros(num_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=indptr[1:])
    return _stable_order(rows, num_rows), indptr


def _stable_order(keys: np.ndarray, num_keys: int, order=None) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in
    ``[0, num_keys)``, one 16-bit radix pass per digit.  ``order`` breaks
    ties: the result lists ``order``'s positions sorted by key, equal keys
    in ``order``'s sequence, so ``_stable_order(a, na, _stable_order(b, nb))``
    sorts by ``a``, then ``b``."""
    for shift in range(0, max(int(num_keys) - 1, 1).bit_length(), 16):
        digit = (keys >> shift if shift else keys).astype(np.uint16)  # low 16 bits
        step = np.argsort(digit if order is None else digit[order], kind="stable")
        order = step if order is None else order[step]
    return order


def sorted_unique(x) -> np.ndarray:
    """``np.unique(x)`` for integer values: sort, then keep each entry that
    differs from its predecessor."""
    x = np.sort(np.asarray(x).ravel())
    return x[_run_starts(x)]


def _run_starts(x: np.ndarray) -> np.ndarray:
    """True at each entry of ``x`` that differs from its predecessor."""
    starts = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=starts[1:])
    return starts


def from_edge_list(
    edges: Iterable[Tuple[int, int]],
    num_vertices: Optional[int] = None,
) -> CSRGraph:
    """Build a square CSR graph from an iterable of ``(src, dst)`` pairs."""
    pairs = np.asarray(list(edges), dtype=INDEX_DTYPE)
    if pairs.size == 0:
        n = num_vertices or 0
        return CSRGraph(
            indptr=np.zeros(n + 1, dtype=INDEX_DTYPE),
            indices=np.zeros(0, dtype=INDEX_DTYPE),
            num_src=n,
        )
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (src, dst) pairs")
    src, dst = pairs[:, 0], pairs[:, 1]
    if num_vertices is None:
        num_vertices = int(pairs.max()) + 1
    return coo_to_csr(src, dst, num_dst=num_vertices, num_src=num_vertices)


def dedupe_edges(src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Remove duplicate (src, dst) pairs, preserving first occurrence order.

    Radix-orders the edges by ``(src, dst)`` with ties in input order, then
    keeps the first edge of each run of equal pairs at its input position;
    the order and the pair keys are freed before the kept edges are."""
    src = np.asarray(src, dtype=INDEX_DTYPE)
    dst = np.asarray(dst, dtype=INDEX_DTYPE)
    if src.size == 0:
        return src, dst
    n = max(int(src.max()), int(dst.max())) + 1
    order = _stable_order(src, n, _stable_order(dst, n))
    keep = np.empty(src.size, dtype=bool)
    keep[order] = _run_starts((src * n + dst)[order])  # the pair keys die with the call
    del order
    return src[keep], dst[keep]


def remove_self_loops(
    src: np.ndarray, dst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Drop edges with identical endpoints."""
    src = np.asarray(src, dtype=INDEX_DTYPE)
    dst = np.asarray(dst, dtype=INDEX_DTYPE)
    keep = src != dst
    return src[keep], dst[keep]
