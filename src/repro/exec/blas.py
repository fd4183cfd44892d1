"""One BLAS thread inside plans.

numpy's bundled OpenBLAS runs every GEMM on all cores by default.  The
crossbar GEMMs of a plan forward are small (at most 4096x288 @ 288x64), so a
second thread buys about 3 ms per batch-64 ResNet-lite forward and then
spin-waits through the elementwise DAC / ADC work that follows each GEMM,
which doubles the CPU a forward costs.  A GEMM's bits also depend on its
thread count (``Linear(588, 150)`` from 12 rows up differs between 1 and 2
threads), so an unpinned plan's logits would depend on the host.

:func:`single_thread` holds OpenBLAS at one thread while any caller is
inside it.  The scope is process-wide and reference-counted under a lock:
the first entrant saves the count and sets 1, the last one out restores it,
so concurrent thread workers never see each other's restore mid-forward.
It makes no set call when the count is already 1.  Parallelism comes from
workers and pipeline stages instead.

The thread-count functions are looked up in the OpenBLAS numpy's wheels
ship in ``numpy.libs``; when none is found, every function here is a no-op
that warns once.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
import warnings
from typing import Callable, Optional, Tuple

import numpy as np

#: ``(getter, setter)`` symbol pairs, most specific first.
_SYMBOLS = tuple(
    (f"{prefix}openblas_get_num_threads{suffix}",
     f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "") for suffix in ("64_", ""))

_Functions = Tuple[Callable[[], int], Callable[[int], None]]

_UNSET = object()
_functions = _UNSET
_lock = threading.Lock()
_depth = 0
_saved = 1


def _find_functions() -> Optional[_Functions]:
    """The OpenBLAS thread-count getter and setter, if numpy has them."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            handle = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            getter = getattr(handle, get_name, None)
            setter = getattr(handle, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


def _resolve() -> Optional[_Functions]:
    global _functions
    if _functions is _UNSET:
        _functions = _find_functions()
        if _functions is None:
            warnings.warn(
                "no OpenBLAS thread-count functions found next to numpy; "
                "plan forwards run on the process's BLAS threads",
                RuntimeWarning, stacklevel=3)
    return _functions


def blas_threads() -> Optional[int]:
    """OpenBLAS's current thread count, or ``None`` when it is not found."""
    functions = _resolve()
    return None if functions is None else int(functions[0]())


def set_blas_threads(count: int) -> None:
    """Set the process's OpenBLAS thread count (a no-op when not found).

    Inside a :func:`single_thread` scope the count is overridden until the
    last entrant leaves, which restores the count it found on entry.
    """
    functions = _resolve()
    if functions is not None:
        functions[1](int(count))


class _SingleThread:
    """The reference-counted scope :func:`single_thread` returns."""

    def __enter__(self) -> None:
        global _depth, _saved
        functions = _resolve()
        if functions is None:
            return
        with _lock:
            if _depth == 0:
                _saved = functions[0]()
                if _saved != 1:
                    functions[1](1)
            _depth += 1

    def __exit__(self, *exc_info) -> None:
        global _depth
        functions = _functions
        if functions is _UNSET or functions is None:
            return
        with _lock:
            _depth -= 1
            if _depth == 0 and _saved != 1:
                functions[1](_saved)


_SCOPE = _SingleThread()


def single_thread() -> _SingleThread:
    """Context manager holding OpenBLAS at one thread while any caller is
    inside; safe to nest and to enter from several threads at once."""
    return _SCOPE


def _reset_after_fork() -> None:
    # A forked child runs only the forking thread (a stage or worker
    # launcher, never a forward): the scopes other parent threads held are
    # gone, and a lock one of them held at the fork would never be freed.
    global _lock, _depth
    _lock = threading.Lock()
    _depth = 0


os.register_at_fork(after_in_child=_reset_after_fork)
