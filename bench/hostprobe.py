"""Host-speed probe: a fixed Kalman-filter loop timed beside every batch.

On a shared machine the speed one thread gets can change by half within a
minute, as neighbours come and go, so raw wall-clock rates of runs made a
few minutes apart do not compare. Each batch is therefore timed between two
runs of this probe, and its rate is scaled to the rate it would have had on
a host that runs the probe in NOMINAL_S seconds. The probe does the same
kind of work as the program (small numpy products in a Python loop) and is
frozen: no change to immcda changes it.
"""

from __future__ import annotations

import math
import time

import numpy as np

ITERATIONS = 600
# Median probe time on a 2-vCPU x86_64 VM (Python 3.11, numpy 2.4) when
# uncontended; it only sets the scale of the normalised figures.
NOMINAL_S = 0.013


def _kalman_loop(n: int) -> float:
    a = np.eye(5) + np.arange(25.0).reshape(5, 5) / 2500.0
    q = 0.01 * np.eye(5)
    h = np.zeros((2, 5))
    h[0, 0] = h[1, 2] = 1.0
    r = 2500.0 * np.eye(2)
    z = np.array([1.0, 2.0])
    x = np.ones(5)
    p = np.eye(5)
    acc = 0.0
    for _ in range(n):
        x = a @ x
        p = a @ p @ a.T + q
        p = 0.5 * (p + p.T)
        s = h @ p @ h.T + r
        k = p @ h.T @ np.linalg.inv(s)
        x = x + k @ (z - h @ x)
        p = (np.eye(5) - k @ h) @ p
        acc += math.hypot(x[0], x[2])
    return acc


def probe() -> float:
    """Seconds the fixed probe takes now."""
    t0 = time.perf_counter()
    _kalman_loop(ITERATIONS)
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns a rate measured between two probes into a nominal one."""
    return 0.5 * (before + after) / NOMINAL_S
