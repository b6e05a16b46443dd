"""One OpenBLAS thread for buttonlab's own matrix products.

A threaded BLAS splits a large product's sums across its threads, and on
some kernels the bits then follow the thread count.  :func:`one_thread`
holds the OpenBLAS that numpy's wheel bundles to one thread while the
policy gradient and the batched GP posterior run, and gives the caller's
thread count back when the last holder leaves, also on an exception.
Where numpy bundles no OpenBLAS, or it has no thread controls (another
BLAS, another platform), it does nothing.  The controls are looked up
once, on first use; importing buttonlab changes no thread count.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager

import numpy as np

# The thread controls of the scipy-openblas builds numpy 2 bundles, then
# those of plain OpenBLAS builds; {} is get or set.
_CONTROL_NAMES = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)

# The thread count is one per process: the first holder saves the caller's
# and sets 1, the last restores it.
_lock = threading.Lock()
_holders = 0
_saved = 1


@functools.cache
def _controls():
    """(get, set) of the OpenBLAS numpy has loaded, or None."""
    root = os.path.dirname(np.__file__)
    # numpy.libs beside the package (Linux, Windows), .dylibs inside it (macOS).
    paths = glob.glob(os.path.join(root + ".libs", "*openblas*")) + glob.glob(
        os.path.join(root, ".dylibs", "*openblas*")
    )
    # Only a library already loaded, where the platform can refuse others.
    mode = ctypes.DEFAULT_MODE | getattr(os, "RTLD_NOLOAD", 0)
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=mode)
        except OSError:
            continue
        for name in _CONTROL_NAMES:
            try:
                get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def one_thread():
    """Run the body with numpy's OpenBLAS on one thread, where it can be set."""
    global _holders, _saved
    controls = _controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    with _lock:
        if _holders == 0:
            _saved = get()
            set_(1)
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                set_(_saved)
