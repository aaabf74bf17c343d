"""Timings of the two DST-I paths of the box backend, single-threaded.

Times ``linops._dst`` on random interior arrays of each shape, once
through ``scipy.fft.dstn`` and once as products with the dense sine
matrices of ``linops._sine_matrix``, and prints sorted JSON: per shape the
median of each path in microseconds, their ratio, and the path that
``SineOperator`` takes for it under ``DENSE_SINE_MAX``.  The default
shapes are the interior shapes of the ``box-verify`` grids (2D at 81-201
nodes per axis, 3D at 17-25) and of the 3D ladder at 41^3 and 81^3; more
can be given as ``NxN`` or ``NxNxN`` interior shapes.  BLAS runs on one
thread, as in ``bench/run.py``.

The cutoff is re-derived on another machine by running::

    python tools/sine_crossover.py
    python tools/sine_crossover.py 109x109 129x129 149x149

and setting ``DENSE_SINE_MAX`` near the largest axis length whose dense
form is still the faster one.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from _ladder import report, setup

# interior shapes: box-verify at 81, 101, 121, 141, 161, 201 (2D) and
# 17, 21, 25 (3D) nodes per axis, and the 3D ladder at 41 and 81
SHAPES = ("79x79", "99x99", "119x119", "139x139", "159x159", "199x199",
          "15x15x15", "19x19x19", "23x23x23", "39x39x39", "79x79x79")


def _median_us(call, budget_s: float) -> float:
    """The median time of ``call`` in microseconds, over repeats of batches
    sized so that the repeats take about ``budget_s`` in all."""
    start = time.perf_counter()
    call()
    batch = max(1, int(0.02 / max(time.perf_counter() - start, 1e-7)))
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < 5 or time.perf_counter() < deadline:
        start = time.perf_counter()
        for _ in range(batch):
            call()
        samples.append((time.perf_counter() - start) / batch * 1e6)
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("shapes", nargs="*", help="interior shapes such as 129x129")
    parser.add_argument("--seconds", type=float, default=0.5,
                        help="timing budget per shape and path")
    args = setup(parser, argv)
    import numpy as np

    from concavelab import linops

    rng = np.random.default_rng(0)
    out = {"dense_sine_max": linops.DENSE_SINE_MAX, "shapes": {}}
    for name in (*SHAPES, *args.shapes):
        shape = tuple(int(n) for n in name.split("x"))
        if len(shape) not in (2, 3):
            parser.error(f"{name}: shapes are 2D or 3D")
        x = rng.standard_normal(shape)
        sines = tuple(linops._sine_matrix(n) for n in shape)
        dstn_us = _median_us(lambda: linops._dst(x), args.seconds)
        dense_us = _median_us(lambda: linops._dst(x, sines), args.seconds)
        out["shapes"][name] = {
            "dstn_us": round(dstn_us, 1),
            "dense_us": round(dense_us, 1),
            "dense_over_dstn": round(dense_us / dstn_us, 3),
            "path": "dense" if max(shape) <= linops.DENSE_SINE_MAX else "dstn",
        }
    return report(out)


if __name__ == "__main__":
    sys.exit(main())
