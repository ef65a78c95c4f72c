"""On-disk feature layout: chunked row-major binary + JSON manifest.

The mmap tier of the feature store is one raw ``features.bin`` file
(row-major, written in bounded chunks so a matrix larger than RAM can be
spilled) plus a ``manifest.json`` describing exactly how to read it back:
format version, NumPy dtype string *with explicit byte order*, shape,
and total byte count.  :func:`open_feature_layout` maps the file
read-only (``np.memmap``) — a zero-copy view whose pages the OS shares
across every process that opens it, which is what lets shm SPMD ranks
and sampler workers read one file instead of holding per-process
copies.

Every manifest field is *validated before the first row is read*: a
dtype, shape, endianness, or file-size mismatch raises
:class:`FeatureLayoutError` with a message naming the disagreement —
silently misreading rows (the classic raw-binary failure mode) is the
bug class this module exists to exclude.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Tuple

import numpy as np

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
DATA_NAME = "features.bin"
#: rows per write chunk — bounds writer memory at chunk_rows * row bytes.
DEFAULT_CHUNK_ROWS = 8192


class FeatureLayoutError(ValueError):
    """The on-disk layout and its manifest disagree (or are unreadable)."""


def manifest_path(dirpath: str) -> str:
    return os.path.join(dirpath, MANIFEST_NAME)


def data_path(dirpath: str) -> str:
    return os.path.join(dirpath, DATA_NAME)


def write_feature_layout(
    dirpath: str,
    features: np.ndarray,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> str:
    """Spill a 2-D feature matrix to ``dirpath`` (created if missing).

    Rows are written in native byte order regardless of the input
    array's (a byte-swapped source is converted chunk by chunk), so the
    file is always directly mappable on the machine that wrote it.
    Returns ``dirpath``.
    """
    features = np.asarray(features)
    if features.ndim != 2:
        raise FeatureLayoutError(
            f"features must be 2-D (rows x dim), got shape {features.shape}"
        )
    if features.dtype.hasobject:
        raise FeatureLayoutError(f"unsupported dtype {features.dtype}")
    if chunk_rows < 1:
        raise FeatureLayoutError("chunk_rows must be >= 1")
    native = features.dtype.newbyteorder("=")
    os.makedirs(dirpath, exist_ok=True)
    with open(data_path(dirpath), "wb") as fh:
        for lo in range(0, features.shape[0], int(chunk_rows)):
            chunk = np.ascontiguousarray(
                features[lo : lo + int(chunk_rows)], dtype=native
            )
            fh.write(chunk.tobytes())
    manifest = {
        "format_version": FORMAT_VERSION,
        "dtype": np.dtype(native).str,
        "shape": [int(features.shape[0]), int(features.shape[1])],
        "chunk_rows": int(chunk_rows),
        "byte_order": _byte_order_name(np.dtype(native)),
        "nbytes": int(features.shape[0] * features.shape[1] * native.itemsize),
    }
    with open(manifest_path(dirpath), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return dirpath


def _byte_order_name(dt: np.dtype) -> str:
    """``"little"`` / ``"big"`` for multi-byte dtypes, ``"na"`` for 1-byte."""
    order = dt.byteorder
    if order == "=":
        order = "<" if sys.byteorder == "little" else ">"
    return {"<": "little", ">": "big", "|": "na"}[order]


def read_manifest(dirpath: str) -> dict:
    """Load and fully validate ``manifest.json`` (no data is read yet).

    Returns the manifest dict with ``dtype`` resolved to a ``np.dtype``
    and ``shape`` to a tuple.  Raises :class:`FeatureLayoutError` on any
    missing, malformed, or internally inconsistent field.
    """
    path = manifest_path(dirpath)
    if not os.path.exists(path):
        raise FeatureLayoutError(
            f"no feature layout at {dirpath!r}: missing {MANIFEST_NAME}"
        )
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FeatureLayoutError(f"unreadable manifest {path!r}: {exc}")
    if not isinstance(raw, dict):
        raise FeatureLayoutError(f"manifest {path!r} must be a JSON object")
    missing = {"format_version", "dtype", "shape", "byte_order", "nbytes"} - set(raw)
    if missing:
        raise FeatureLayoutError(
            f"manifest {path!r} missing fields {sorted(missing)}"
        )
    if raw["format_version"] != FORMAT_VERSION:
        raise FeatureLayoutError(
            f"unsupported feature layout format version "
            f"{raw['format_version']!r} (this build reads {FORMAT_VERSION})"
        )
    try:
        dt = np.dtype(raw["dtype"])
    except TypeError as exc:
        raise FeatureLayoutError(
            f"manifest dtype {raw['dtype']!r} is not a NumPy dtype: {exc}"
        )
    if dt.hasobject:
        raise FeatureLayoutError(f"manifest dtype {raw['dtype']!r} unsupported")
    shape = raw["shape"]
    if (
        not isinstance(shape, (list, tuple))
        or len(shape) != 2
        or not all(isinstance(s, int) and s >= 0 for s in shape)
    ):
        raise FeatureLayoutError(
            f"manifest shape {shape!r} must be two non-negative integers"
        )
    shape = (int(shape[0]), int(shape[1]))
    declared_order = raw["byte_order"]
    if declared_order != _byte_order_name(dt):
        raise FeatureLayoutError(
            f"manifest byte_order {declared_order!r} contradicts dtype "
            f"{raw['dtype']!r} ({_byte_order_name(dt)}): refusing to guess "
            "which one describes the file"
        )
    if not dt.isnative:
        raise FeatureLayoutError(
            f"feature file is {declared_order}-endian ({raw['dtype']!r}) but "
            f"this machine is {sys.byteorder}-endian: mapping it would "
            "silently misread every row — rewrite the layout with "
            "write_feature_layout on this machine"
        )
    expected = shape[0] * shape[1] * dt.itemsize
    if raw["nbytes"] != expected:
        raise FeatureLayoutError(
            f"manifest nbytes {raw['nbytes']} does not match shape "
            f"{shape} x dtype {raw['dtype']!r} ({expected} bytes)"
        )
    out = dict(raw)
    out["dtype"] = dt
    out["shape"] = shape
    return out


def open_feature_layout(dirpath: str) -> Tuple[np.memmap, dict]:
    """Map the feature file read-only; returns ``(memmap, manifest)``.

    The actual file size is checked against the manifest before the map
    is created — a truncated or overgrown file fails loudly instead of
    serving garbage rows (or segfaulting on a page past EOF).
    """
    manifest = read_manifest(dirpath)
    path = data_path(dirpath)
    if not os.path.exists(path):
        raise FeatureLayoutError(
            f"manifest present but feature file missing: {path!r}"
        )
    actual = os.path.getsize(path)
    if actual != manifest["nbytes"]:
        raise FeatureLayoutError(
            f"feature file {path!r} is {actual} bytes, manifest declares "
            f"{manifest['nbytes']} (shape {manifest['shape']}, dtype "
            f"{np.dtype(manifest['dtype']).str!r}): the file is truncated "
            "or was written with a different layout"
        )
    if manifest["nbytes"] == 0:
        # np.memmap refuses zero-length maps; an empty matrix is still valid
        empty = np.zeros(manifest["shape"], dtype=manifest["dtype"])
        empty.flags.writeable = False
        return empty, manifest
    mm = np.memmap(
        path, dtype=manifest["dtype"], mode="r", shape=manifest["shape"]
    )
    return mm, manifest
