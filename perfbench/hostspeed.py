"""Host-speed reference for the benchmark's timings.

The shared 2-vCPU host this benchmark was written on switches between
speeds up to 2x apart, for seconds to minutes at a time, and a whole run
can fall in either state.  Every op and every set-up is therefore timed
against a fixed reference kernel run close to it in time: a Python loop of
2x2 numpy products through a lookup table, the same kind of work the library
does, and none of the library's code.  A timing ``t`` is reported as
``t * (NOMINAL_MS / r) ** EXPONENT`` with ``r`` the kernel's time nearby:
what it would read on a host where the kernel takes NOMINAL_MS, about its
time on that host in the fast state.  In a 360 s probe in which the
kernel's time moved by 2x, the library's ops went as the kernel's time to
the power 0.68-0.84; over twenty 25 s runs the power 0.85 left the smallest
run-to-run spread.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_MS = 1.0
EXPONENT = 0.85
# A phase times the kernel at most this often, between ops; each op is
# scaled by the median of the NEIGHBOURS timings nearest to it.
EVERY_S = 0.05
NEIGHBOURS = 7
# A set-up is scaled by the median of this many timings taken right after it.
SETUP_TIMINGS = 9

_rng = np.random.default_rng(20230206)
_MATS = {i: _rng.normal(size=(2, 2)) for i in range(4)}
_WORD = [int(s) for s in _rng.integers(0, 4, size=300)]


def kernel() -> float:
    m = np.eye(2)
    acc = 0.0
    for k, s in enumerate(_WORD):
        m = _MATS[s] @ m
        n = np.abs(m).max()
        m = m / n
        acc += float(n) * (k % 3)
    return acc


def time_kernel_ms() -> float:
    start = time.perf_counter_ns()
    kernel()
    return (time.perf_counter_ns() - start) / 1e6


def scale_setup(seconds: float) -> tuple[float, float]:
    """``seconds`` of set-up, as measured and scaled by kernel timings taken
    right after."""
    ref = statistics.median(time_kernel_ms() for _ in range(SETUP_TIMINGS))
    return seconds, seconds * (NOMINAL_MS / ref) ** EXPONENT


def scale_ops(op_starts, latencies_ms, ref_starts, ref_ms):
    """Each op's latency scaled by the median of the NEIGHBOURS kernel
    timings nearest to its start."""
    ref_starts = np.asarray(ref_starts)
    ref = np.asarray(ref_ms)
    k = min(NEIGHBOURS, len(ref))
    local = np.median(np.lib.stride_tricks.sliding_window_view(ref, k), axis=1)
    idx = np.searchsorted(ref_starts, np.asarray(op_starts)) - k // 2
    local = local[np.clip(idx, 0, len(local) - 1)]
    return np.asarray(latencies_ms) * (NOMINAL_MS / local) ** EXPONENT
