"""The thread count of numpy's bundled OpenBLAS, read and set in-process.

The library reads no environment variable after it loads, so a process
that forks workers sets the count through ``ctypes`` before the fork:
a forked child has no BLAS thread pool, and setting the count there
starts one whose threads spin for about 0.1 s of CPU.  Every function is
a no-op returning ``None`` where numpy ships no ``scipy_openblas``
library.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Tuple


def _openblas() -> Optional[Tuple[Any, Any]]:
    """``(get, set)`` of the bundled OpenBLAS thread count, or ``None``."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


def blas_threads() -> Optional[int]:
    """This process's OpenBLAS thread count."""
    lib = _openblas()
    return None if lib is None else lib[0]()


def cpu_share(shares: int) -> int:
    """One of *shares* equal shares of this process's CPUs, at least 1."""
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    return max(1, cpus // shares)


def limit_blas_threads(threads: int) -> Optional[int]:
    """Cap OpenBLAS at *threads* threads in this process.

    An equal count is left alone (see the module note on forked
    children).  Returns *threads*.
    """
    lib = _openblas()
    if lib is None:
        return None
    get, put = lib
    if get() != threads:
        put(threads)
    return threads


@contextmanager
def capped_blas_threads(threads: int) -> Iterator[Optional[int]]:
    """Cap OpenBLAS at *threads* for the block, then restore the count."""
    before = blas_threads()
    try:
        yield limit_blas_threads(threads)
    finally:
        if before is not None:
            limit_blas_threads(before)
