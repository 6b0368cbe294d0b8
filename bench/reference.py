"""A fixed reference kernel that measures how fast the box is right now.

On a shared 2-vCPU Xeon virtual machine the same work runs up to 1.7x
slower, switching within seconds, in proportions that differ from one 30 s
run to the next.  There the interquartile spread of wall-clock throughput
over five runs was 0.14-0.31 of its median; timing this kernel around every
chunk and scaling the chunk's rate by it brought that to 0.03-0.06.  The
kernel mixes what the pipeline spends time on: small Nelder-Mead fits on
numpy arrays, complex exponentials over an oracle-sized matrix, and CSV
formatting.  It uses no code of the package, so a change to the package
cannot move it.
"""

from __future__ import annotations

import csv
import io
from time import perf_counter


def make_reference():
    """Return a function that runs the kernel once and returns its seconds."""
    import numpy as np
    from scipy.optimize import minimize

    azimuths = np.linspace(0.0, 2.0 * np.pi, 15, endpoint=False)
    target = np.exp(2j * np.linspace(-1.0, 1.0, 15))
    matrix = np.random.default_rng(0).standard_normal((200, 160))

    def objective(x):
        d = np.arctan2(np.sin(x[1] - azimuths), np.cos(x[0]) * np.cos(x[1] - azimuths))
        return float(np.sum(np.abs(target - np.exp(4j * (d + x[2]))) ** 2))

    def kernel() -> float:
        start = perf_counter()
        for k in range(4):
            minimize(objective, np.array([0.3 + 0.01 * k, 0.2, 0.1]), method="Nelder-Mead",
                     options={"maxiter": 200, "xatol": 1e-9, "fatol": 1e-10})
        for k in range(20):
            np.exp(-1j * matrix * (1.0 + 1e-3 * k)).sum()
        writer = csv.writer(io.StringIO())
        for i in range(3000):
            writer.writerow([i, format(0.37 * i, ".12g"), format(1.3e-3 * i, ".12g")])
        return perf_counter() - start

    kernel()
    return kernel
