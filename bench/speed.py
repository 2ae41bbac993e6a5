"""Host speed reference, so that timings can be read at a fixed speed.

Each vCPU of the 2-vCPU KVM guest this benchmark was built on switches
between a fast state and a state in which the same Python code takes
1.5-1.8x longer, for seconds to minutes at a time, with CPU time equal
to wall time (the slowdown is not descheduling, and the guest has no
performance counters to count instructions instead). A fixed kernel
that does not touch wlcnoise is timed next to the workload, and a
timing divided by the kernel's slowdown against K_REF_S, raised to
SLOWDOWN_EXPONENT, reads about the same in either state.
"""

from __future__ import annotations

import cmath
import threading
import time

import numpy as np

# Fastest time of reference_kernel() on the guest above (Intel Xeon,
# family 6 model 143, Python 3.11.7, NumPy 2.4.6). Only a scale: the
# benchmark's speed-adjusted times are in seconds at this kernel speed.
K_REF_S = 8.0e-4

# The survey's code slows less than the kernel. Timed alternately with a
# smaller kernel of the same kind on that guest, survey-like work
# (classify_system plus one rho_r integral) took slowdown**0.8 and
# gate-like work (classify_system plus root_count_oracle) slowdown**0.6.
# Times are divided by slowdown**0.7, between the two.
SLOWDOWN_EXPONENT = 0.7


def reference_kernel() -> complex:
    """Scalar complex arithmetic, 2x2 NumPy products and one vector
    exponential: the kinds of operation the survey spends its time in."""
    acc = 0j
    m = np.eye(2, dtype=complex)
    for k in range(120):
        z = complex(1.0 + 1e-3 * k, 0.5)
        m = m @ np.array([[z, 0.0], [0.0, z.conjugate()]]) / abs(z)
        acc += cmath.exp(1j * z.real) / (z + 1.0)
    x = np.linspace(0.0, 1.0, 4096)
    return acc + np.exp(2j * x).sum() + m[0, 0]


def slowdown(repeats: int = 3) -> float:
    """Host slowdown against K_REF_S: the fastest of ``repeats`` runs of
    the kernel, in CPU time of the calling thread, over K_REF_S."""
    best = float("inf")
    for _ in range(repeats):
        start = time.thread_time()
        reference_kernel()
        best = min(best, time.thread_time() - start)
    return best / K_REF_S


def adjust(seconds: float, slow: float) -> float:
    """A time taken at host slowdown ``slow``, read at the reference speed."""
    return seconds / slow ** SLOWDOWN_EXPONENT


class Sampler:
    """Samples the slowdown every ``interval`` seconds on a background
    thread, for work that runs in other processes. The thread runs on
    whichever CPU is free, so its samples average the CPUs' states."""

    def __init__(self, interval: float = 0.1) -> None:
        self.samples: list[float] = []
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self.samples.append(slowdown())

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self.samples.append(slowdown())

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)
