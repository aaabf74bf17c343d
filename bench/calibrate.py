"""Machine-speed probe used to put case times on a fixed speed scale.

The machines this benchmark runs on are shared: the same case, in the
same process, runs 1.3-1.6x slower for stretches of several seconds
while other tenants are busy, and a 30-second run can land mostly in
either kind of stretch.  Over such runs the median of one fixed case
moved by 7-20% from one 20-second window to the next, while its ratio to
this probe, run just before it, moved by 2%.

The probe is a fixed mix of the work the program does -- a sparse LU
factorisation and solve, a pure-Python loop and float formatting -- and
uses no ``concavelab`` code, so a change to the program cannot move it.
A case time ``t`` measured when the probe took ``p`` seconds is reported
as ``t * REFERENCE_S / p``: seconds on a machine on which the probe takes
``REFERENCE_S``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Probe time on the reference machine (2 cores, Python 3.11, numpy 2.4,
# scipy 1.17, OpenBLAS) when it is not slowed down.  Only sets the scale.
REFERENCE_S = 3.0e-3


class SpeedProbe:
    def __init__(self, n: int = 24, loop: int = 3000, formatted: int = 300):
        tri = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
        eye = sp.identity(n)
        self._matrix = (sp.kron(tri, eye) + sp.kron(eye, tri)).tocsc()
        self._rhs = np.ones(n * n)
        self._loop = loop
        self._formatted = formatted

    def __call__(self) -> float:
        """Seconds taken by one run of the probe."""
        t0 = perf_counter()
        x = spla.splu(self._matrix).solve(self._rhs)
        acc = 0
        for i in range(self._loop):
            acc += (i * i) % 7
        ",".join(repr(float(v)) for v in x[: self._formatted])
        return perf_counter() - t0
