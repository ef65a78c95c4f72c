"""Flush subnormal floats to zero, per thread and per scope (an x86 multiply that reads
or writes one takes a ~15x slower microcode path): FTZ|DAZ, MXCSR bits ``0x8040``, set
through glibc's x86-64 ``fenv_t`` (32 bytes, ``__mxcsr`` last); never at import."""

import contextlib
import ctypes
import platform
import sys

_Env = ctypes.c_uint32 * 8
_LIBM = None  # elsewhere nothing is read or set
if sys.platform == "linux" and platform.machine() == "x86_64":
    _LIBM = ctypes.CDLL("libm.so.6")  # int fe[gs]etenv(fenv_t *)
    _LIBM.fegetenv.argtypes = _LIBM.fesetenv.argtypes = [ctypes.POINTER(ctypes.c_uint32)]


@contextlib.contextmanager
def _environment(env=None):
    """This thread in ``env`` (default: its own, flushing) for the scope."""
    saved = _Env()
    if _LIBM is not None:
        _LIBM.fegetenv(saved)
        if env is None:
            env = _Env.from_buffer_copy(saved)
            env[7] |= 0x8040
        _LIBM.fesetenv(env)
    try:
        yield
    finally:
        if _LIBM is not None:
            _LIBM.fesetenv(saved)


def flush_subnormals():
    """Subnormal operands and results are zero on this thread in the scope (re-entrant)."""
    return _environment()


def in_callers_mode(fn):
    """``fn`` for a pool thread, run in this thread's environment, not its own."""
    env = _Env()
    if _LIBM is not None:
        _LIBM.fegetenv(env)

    def run(*args):
        with _environment(env):
            return fn(*args)

    return run
