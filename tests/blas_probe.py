"""numpy's bundled OpenBLAS as the tests observe it: its thread count and the
threads it starts. It imports nothing beyond numpy, so that the tests' child
processes can import it too."""

import ctypes
import functools
import os
import threading
import time
from pathlib import Path

import numpy as np


@functools.cache
def blas_threads():
    """A function that reads the thread count of the OpenBLAS bundled with
    numpy, or None where numpy bundles none."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            get = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        return get
    return None


def foreign_threads() -> set[int]:
    """This process's threads that Python did not start (Linux's /proc): numpy's
    OpenBLAS server, and other libraries' (scipy bundles an OpenBLAS of its own)."""
    python = {t.native_id for t in threading.enumerate()}
    return {int(tid) for tid in os.listdir("/proc/self/task")} - python


def wait_for(condition, timeout: float = 2.0) -> bool:
    """Whether ``condition()`` holds within ``timeout`` seconds: a joined
    thread can stay listed in /proc for a moment after its join returns."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True
