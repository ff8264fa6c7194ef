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
import threading

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


_lock = threading.Lock()
_depth = 0        # blocks inside one_blas_thread, over all threads
_saved = None     # the count before the first of them entered


@contextlib.contextmanager
def one_blas_thread():
    """Run the block at one OpenBLAS thread and restore the count after it.

    Overlapping blocks, in one thread or several, share the pin: the first
    to enter saves the count and sets 1, and the last to exit restores it.
    """
    global _depth, _saved
    api = _thread_api()
    if api is None:
        yield
        return
    get, set_ = api
    with _lock:
        if _depth == 0:
            _saved = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_(_saved)
