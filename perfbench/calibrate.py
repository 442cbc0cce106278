"""Machine-speed calibration: a fixed kernel timed next to every command.

The hosts this benchmark runs on are shared virtual machines whose speed
swings by up to a factor of two over seconds to minutes, with CPU time
equal to wall time throughout, so no in-guest clock excludes the swing.
The run is pinned to one CPU, and the client times this kernel on it before
the first command, after every command and around every set-up process,
and reports each time scaled to the speed at which the kernel takes
``REFERENCE_S``::

    scaled = wall * REFERENCE_S / sqrt(kernel_before * kernel_after)

The kernel mixes the kinds of work orbitpoly does (a Python dict loop, small
numpy operations, one HiGHS LP, one Qhull call) but calls nothing in
orbitpoly, so a change to the program cannot change it.  Garbage collection
is off while it runs, so the program's live objects cannot slow it.
"""

from __future__ import annotations

import gc
import time

REFERENCE_S = 0.005


class Kernel:
    def __init__(self):
        import numpy as np
        from scipy.optimize import linprog
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(0)
        self._np = np
        self._linprog = linprog
        self._hull = ConvexHull
        self._points = rng.standard_normal((60, 3))
        self._lp = rng.standard_normal((20, 4))

    def __call__(self) -> float:
        """Wall time of one kernel run, in seconds."""
        np, points, lp = self._np, self._points, self._lp
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            counts: dict[int, int] = {}
            for i in range(4000):
                counts[i % 97] = counts.get(i % 97, 0) + i * i
            x = np.zeros(3)
            for i in range(400):
                x = x + points[i % 60] * 0.5 - np.abs(x) * 0.1
            self._linprog(c=lp[0], A_ub=lp, b_ub=np.ones(20), bounds=[(-1, 1)] * 4, method="highs")
            self._hull(points)
            return time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()
