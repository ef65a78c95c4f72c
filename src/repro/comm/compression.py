"""Low-precision payload compression for communication.

The paper's future work: "To further reduce communication volume, we will
deploy low-precision data formats such FP16 and BFLOAT16".  This module
implements both casts for DRPA payloads:

- ``fp16``: IEEE half precision via NumPy (5 exponent bits — narrow range,
  fine for normalized aggregates);
- ``bf16``: bfloat16 emulated by zeroing the low 16 mantissa bits of
  float32 (8 exponent bits — full float32 range, 8-bit mantissa), stored
  in a uint16 view so the wire size is genuinely halved.

Compression is applied at ``isend`` time, so the byte counters — and
therefore every communication-volume result — see the real wire sizes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class PayloadCodec:
    """Encode/decode feature-row payloads at a given wire precision."""

    VALID = ("none", "fp16", "bf16")

    def __init__(self, mode: str = "none"):
        if mode not in self.VALID:
            raise ValueError(f"unknown compression {mode!r}; use one of {self.VALID}")
        self.mode = mode

    def encode(self, payload: np.ndarray) -> np.ndarray:
        if self.mode == "none":
            return payload
        arr = np.asarray(payload, dtype=np.float32)
        if self.mode == "fp16":
            with np.errstate(over="ignore"):  # out-of-range -> inf, by design
                return arr.astype(np.float16)
        # bf16: keep the top 16 bits of the float32 pattern.
        bits = arr.view(np.uint32)
        return (bits >> np.uint32(16)).astype(np.uint16)

    def decode(self, wire: np.ndarray, dtype=np.float32) -> np.ndarray:
        if self.mode == "none":
            return np.asarray(wire, dtype=dtype)
        if self.mode == "fp16":
            return np.asarray(wire, dtype=np.float16).astype(dtype)
        bits = np.asarray(wire, dtype=np.uint16).astype(np.uint32) << np.uint32(16)
        return bits.view(np.float32).astype(dtype)
