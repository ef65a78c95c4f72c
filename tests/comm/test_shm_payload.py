"""The shm backend's wire format, in one process: a payload below
``SHM_PAYLOAD_THRESHOLD`` bytes rides inline, one at or above it goes
through a shared-memory segment the receiver copies out of and unlinks.
The backend's own tests run these two functions only inside forked
ranks."""

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.comm.shm import SHM_PAYLOAD_THRESHOLD, _pack_payload, _unpack_payload

DTYPES = (np.float32, np.float64, np.float16, np.int64)


def _array(nbytes: int, dtype) -> np.ndarray:
    n = max(nbytes // np.dtype(dtype).itemsize, 1)
    return (np.arange(n) % 97 - 48).astype(dtype)


@pytest.mark.parametrize("nbytes, kind", [
    (64, "inline"),
    (SHM_PAYLOAD_THRESHOLD, "shm"),
    (4 * SHM_PAYLOAD_THRESHOLD, "shm"),
])
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_round_trip_is_exact(dtype, nbytes, kind):
    arr = _array(nbytes, dtype)
    ref = _pack_payload(arr)
    assert ref[0] == kind
    out = _unpack_payload(ref)
    assert out.dtype == arr.dtype and out.shape == arr.shape
    assert np.array_equal(out, arr)


@pytest.mark.parametrize("nbytes", [SHM_PAYLOAD_THRESHOLD - 8, SHM_PAYLOAD_THRESHOLD])
def test_threshold_is_inclusive(nbytes):
    ref = _pack_payload(np.zeros(nbytes // 8, dtype=np.float64))
    assert ref[0] == ("shm" if nbytes >= SHM_PAYLOAD_THRESHOLD else "inline")
    _unpack_payload(ref)  # frees the segment


@pytest.mark.parametrize("rows", [4, 256])  # inline, shm
def test_strided_view_travels_as_its_values(rows):
    base = np.arange(rows * 32, dtype=np.float32).reshape(rows, 32)
    view = base.T[::2]  # non-contiguous
    out = _unpack_payload(_pack_payload(view))
    assert out.flags.c_contiguous and np.array_equal(out, view)


def test_empty_payload_rides_inline():
    ref = _pack_payload(np.zeros((0, 16), dtype=np.float32))
    assert ref[0] == "inline"
    assert _unpack_payload(ref).shape == (0, 16)


def test_receiver_unlinks_the_segment():
    ref = _pack_payload(_array(2 * SHM_PAYLOAD_THRESHOLD, np.float32))
    name = ref[1]
    shared_memory.SharedMemory(name=name).close()  # alive until unpacked
    _unpack_payload(ref)
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


@pytest.mark.parametrize("nbytes", [64, 2 * SHM_PAYLOAD_THRESHOLD])  # inline, shm
def test_unpacked_array_owns_its_memory(nbytes):
    """A receiver may write into what it got: no view of the inline bytes
    or of a segment that is already unlinked."""
    out = _unpack_payload(_pack_payload(_array(nbytes, np.float64)))
    assert out.flags.owndata and out.flags.writeable
