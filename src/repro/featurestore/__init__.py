"""Feature store: resident matrix or read-only mmap file, one interface.

The memory hierarchy for raw vertex features, threaded through every
feature consumer in the repo (trainers, samplers, the serving engine):

- :mod:`repro.featurestore.storage` — the on-disk layout: a chunked
  row-major ``features.bin`` plus a dtype/shape/endianness manifest,
  opened as a zero-copy read-only ``np.memmap`` with every manifest
  field validated before the first row is read.
- :mod:`repro.featurestore.store` — :class:`FeatureStore`: the tiered
  facade.  The ``resident`` tier wraps an in-memory matrix and
  preserves the pre-store behavior bit for bit (the drop-in default);
  the ``mmap`` tier serves out-of-core graphs straight from the mapped
  file.  The OS page cache is its hot tier — one set of pages across
  shm SPMD ranks and sampler workers instead of per-process copies.
"""

from repro.featurestore.storage import (
    FeatureLayoutError,
    open_feature_layout,
    read_manifest,
    write_feature_layout,
)
from repro.featurestore.store import FeatureStore

__all__ = [
    "FeatureStore",
    "FeatureLayoutError",
    "write_feature_layout",
    "open_feature_layout",
    "read_manifest",
]
