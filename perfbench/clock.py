"""Wall time scaled to a reference host speed.

The benchmark runs on shared hosts.  Load from neighbours slows every
instruction of a run: the same job has measured 1.1 s and 1.9 s a few
seconds apart, while its CPU time tracked its wall time within 2%, so the
cause is contention for the core and its caches, not descheduling.  A
median over one run cannot remove a slowdown that lasts the whole run.

:class:`Clock` therefore times a fixed probe before and after every unit
of timed work and scales the unit's wall time by
``PROBE_REF_S / mean(probe before, probe after)``.  The probe is code in
this file only, a mix of interpreter-bound dict updates and numpy
sorting like the program's own mix, so no change to the program under test
can move it.  A real speed-up moves the scaled time exactly as it moves the
wall time.  Scaled times are in seconds of a host that runs the probe in
``PROBE_REF_S``.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, List, Tuple

import numpy as np

#: probe time (s) on the reference host; scaled times are relative to it
PROBE_REF_S = 0.018

_KEYS = np.random.default_rng(20120625).integers(0, 1 << 20, size=1 << 16)


def probe() -> float:
    """Wall time of one fixed unit of probe work."""
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(30_000):
        k = i & 511
        acc[k] = acc.get(k, 0) + i
    order = np.argsort(_KEYS, kind="stable")
    np.cumsum(_KEYS[order])
    np.unique(_KEYS)
    return time.perf_counter() - t0


class Clock:
    """Times units of work with a probe on either side of each."""

    def __init__(self) -> None:
        self._before = probe()
        #: speed factor of every unit timed so far (1.0 = reference host)
        self.factors: List[float] = []

    def time(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """Run ``fn`` after a ``gc.collect()``; return ``(result, wall
        seconds, scaled seconds)``.  If ``fn`` raises, the probe still
        runs before the exception propagates."""
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            wall = time.perf_counter() - t0
            after = probe()
            factor = PROBE_REF_S / ((self._before + after) / 2)
            self._before = after
        self.factors.append(factor)
        return out, wall, wall * factor
