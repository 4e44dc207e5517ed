"""A fixed block of reference work, timed between passes to track host speed.

On a shared machine the same code runs up to a third slower for minutes
at a time, when other tenants load the cores and caches it shares. A run
of the benchmark times this block before its first pass and after every
pass. ``rescale`` then divides each pass time by the mean of the two
blocks around it and multiplies by ``NOMINAL_S``: the pass time the host
would give when the block takes ``NOMINAL_S``. The block never calls
polartail, so a change to polartail moves the rescaled times exactly as
it moves the measured ones.

The block mixes the kinds of work polartail does: an interpreted Python
loop, ``scipy.integrate.quad`` over a Python integrand, and numpy
arithmetic on freshly allocated arrays (which page-faults as the Monte
Carlo batches do). A block takes about 0.25 s on a 2-CPU x86_64 host.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np
from scipy import integrate

NOMINAL_S = 0.25


def _python_loop() -> int:
    acc = 0
    for i in range(600_000):
        acc = (acc + i * i) % 1_000_003
    return acc


def _quadrature() -> float:
    total = 0.0
    for k in range(80):
        total += integrate.quad(lambda t: math.exp(-t) * math.cos(30.0 * t + 0.01 * k),
                                0.0, 50.0, limit=500)[0]
    return total


def _arrays() -> float:
    rng = np.random.default_rng(12345)
    total = 0.0
    for _ in range(40):
        r = rng.exponential(1.0, 65_536)
        t = rng.uniform(-1.0, 1.0, 65_536)
        total += float(np.count_nonzero(r * (1.0 - t * t) > 0.5))
    return total


def block_seconds(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` reference blocks run back to back."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _python_loop()
        _quadrature()
        _arrays()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def rescale(times, blocks) -> list:
    """Each of ``times`` scaled to nominal host speed.

    ``blocks[i]`` and ``blocks[i + 1]`` are the reference blocks timed just
    before and just after ``times[i]``.
    """
    if len(blocks) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} blocks around them, "
                         f"got {len(blocks)}")
    return [t * NOMINAL_S / (0.5 * (blocks[i] + blocks[i + 1])) for i, t in enumerate(times)]
