"""Timings of the concavity checks on solved fields, single-threaded.

Solves the logarithmic equation once per grid, on the unit square at
81^2, 121^2 and 161^2 (the sizes of the ``box-verify`` concavity cases),
on the unit cube at 17^3 and on the unit 3D ball at 401 nodes, then times
``concavity.check_transform_concavity`` with the ``log`` transform and a
5-exponent ``concavity.alpha_sweep`` (0.1, ..., 0.5, as the decks run it)
on each field.  Prints sorted JSON: per grid the check-set size and the
median over the repeats of each call in milliseconds.  BLAS runs on one
thread, as in ``bench/run.py``.  Only the checkout's ``src/`` is
imported::

    python tools/concavity_ladder.py
    python tools/concavity_ladder.py --repeats 50
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SWEEP = (0.1, 0.2, 0.3, 0.4, 0.5)


def _median_ms(call, repeats: int) -> float:
    """The median of ``repeats`` timed calls of ``call``, in milliseconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=30, help="timed calls per grid")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from concavelab import ball, box, initial_guess, log_schrodinger, make_grid, newton_solve
    from concavelab.concavity import alpha_sweep, check_transform_concavity
    from concavelab.reactions import log_transform

    grids = {"2d-81": (box(1.0, 1.0), 81), "2d-121": (box(1.0, 1.0), 121),
             "2d-161": (box(1.0, 1.0), 161), "3d-17": (box(1.0, 1.0, 1.0), 17),
             "ball3-401": (ball(1.0, 3), 401)}
    report = {"repeats": args.repeats, "grids": {}}
    for name, (domain, n) in grids.items():
        grid = make_grid(domain, n)
        reaction = log_schrodinger()
        result = newton_solve(grid, reaction, initial_guess(grid, reaction), 1e-10)
        if not result.converged:
            raise RuntimeError(f"{name}: the log solve ended {result.status}")
        field = result.field
        report["grids"][name] = {
            "check_set_size": check_transform_concavity(field, log_transform()).check_set_size,
            "check_log_ms": round(_median_ms(
                lambda: check_transform_concavity(field, log_transform()), args.repeats), 3),
            "alpha_sweep_ms": round(_median_ms(
                lambda: alpha_sweep(field, SWEEP), args.repeats), 3),
        }
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
