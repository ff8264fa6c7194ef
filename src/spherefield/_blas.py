"""Running a stretch of code at one OpenBLAS thread.

OpenBLAS splits a product across its threads by shape and thread count, so
the last bits of a result can depend on ``OPENBLAS_NUM_THREADS``.  Code whose
bits must not depend on it runs inside :func:`one_blas_thread`.  The thread
API is reached through ``ctypes`` on the OpenBLAS library bundled with numpy
(``numpy.libs/libscipy_openblas64_*.so``); where that library or its symbols
are missing, the manager does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np


@functools.cache
def _thread_api():
    """``(get, set)`` of the thread count of numpy's OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)   # the handle numpy already loaded
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block at one OpenBLAS thread and restore the count after it."""
    api = _thread_api()
    if api is None:
        yield
        return
    get, set_ = api
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
