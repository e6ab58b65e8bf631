"""Where the numerical work runs: OpenBLAS held to one thread, and the
samples of a sweep or of an edge stack split into contiguous chunks, one
per core.

Monte-Carlo sweeps (`sampling.haar_sweep`), single Haar draws and the
contraction engine (`traces.graph_trace_stack`, `traces.injective_trace_stack`)
all run under the one counted pin and the one chunk runner below. Their
results do not depend on the number of chunks nor on the OpenBLAS thread
count the caller set.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import functools
import os
import threading
from pathlib import Path

import numpy as np

THREAD_CAP = 64  # worker threads of one sweep; results do not depend on it
# Measured crossovers, pinned serial against two chunks on 2 cores (README:
# Command line for sweeps, Performance notes for stacks); neither is an
# option.
SPLIT_WORK = 2 ** 19  # B * N^3 per chunk of a stack; see `traces._chunks`
SWEEP_SPLIT_WORK = 2 ** 18  # N^3 per sample of a sweep; see `sweep_threads`


def usable_cores() -> int:
    """The cores this process may run on, at most THREAD_CAP."""
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), THREAD_CAP)
    return min(os.cpu_count() or 1, THREAD_CAP)


def sweep_threads(n: int) -> int:
    """The default worker count of an `mc` sweep of N x N samples: the
    usable cores once one sample's N^3 reaches SWEEP_SPLIT_WORK (N >= 64),
    else 1. Below that, starting threads and handing the interpreter lock
    between them cost more than the second core saves."""
    return usable_cores() if n ** 3 >= SWEEP_SPLIT_WORK else 1


@functools.cache
def openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None
    when numpy vendors no OpenBLAS exporting both ("unpinned"). The library
    is looked up once per process."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


class _BlasPin:
    """OpenBLAS held to one thread while any pinned work runs. Pinned work
    may overlap in several Python threads and nest: under one lock, the
    first one in saves the count and sets 1, and the last one out restores
    it. Without the symbols, BLAS stays unpinned."""

    def __init__(self):
        self.lock, self.depth, self.restore = threading.Lock(), 0, None

    @contextlib.contextmanager
    def held(self):
        with self.lock:
            if not self.depth:
                get, put = openblas_threads() or (lambda: None, lambda c: None)
                self.restore = functools.partial(put, get())
                put(1)
            self.depth += 1
        try:
            yield
        finally:
            with self.lock:
                self.depth -= 1
                if not self.depth:
                    self.restore()


BLAS_PIN = _BlasPin()


def run_chunks(run, count: int, chunks: int) -> list:
    """[run(start, stop)] over `chunks` contiguous ranges that split
    range(count) in order, with OpenBLAS held to one thread. The first range
    runs on the calling thread, the others on a pool of chunks - 1 threads
    (no pool for one chunk)."""
    with BLAS_PIN.held():
        if chunks == 1:
            return [run(0, count)]
        cuts = [count * t // chunks for t in range(chunks + 1)]
        with concurrent.futures.ThreadPoolExecutor(chunks - 1) as pool:
            rest = pool.map(run, cuts[1:-1], cuts[2:])
            return [run(0, cuts[1]), *rest]
