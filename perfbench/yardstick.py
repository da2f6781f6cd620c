"""A fixed reference kernel that measures the machine, not the program.

On a shared virtual machine the same op runs up to twice as slow at one time
as at another, with CPU time equal to wall time: the host, not the program,
sets the pace.  The runner times this kernel next to the ops and reports op
times scaled to the speed at which the kernel takes NOMINAL_S, so that runs
made at different times measure the program rather than the host.

The kernel uses only numpy and the interpreter, never volexec, so no change
to the program can change its time.  It mixes the resources the workloads
spend: per-path Philox generators and small draws (as in `path_rng`), a
dense solve (as in the KKT step), a pass over a 32 MB array (as in the cost
kernel), and a pure-Python loop.  Each part takes about 25 ms on a 2-vCPU
Intel Xeon VM.
"""
from __future__ import annotations

import time

import numpy as np

# Seconds one call takes on a quiet 2-vCPU Intel Xeon VM (OpenBLAS, 1 thread).
NOMINAL_S = 0.1


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((300, 300)) + 300.0 * np.eye(300)
        self.b = rng.standard_normal(300)
        self.x = rng.random(4_000_000)
        self()  # first call pays for page faults and lazy imports

    def __call__(self) -> float:
        """Seconds one pass over the fixed work took."""
        t0 = time.perf_counter()
        for s in range(850):
            np.random.Generator(np.random.Philox(s)).standard_normal(200)
        for _ in range(14):
            np.linalg.solve(self.a, self.b)
        np.cumsum(self.x).sum()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        return time.perf_counter() - t0
