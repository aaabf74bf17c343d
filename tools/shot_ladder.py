"""Timings of the one-dimensional shooting pass, single-threaded.

Times ``oned._shoot`` on a fixed ladder of halfwidths, each at the peak
``solve_m_of_b(b)`` found once beforehand, and prints sorted JSON: per
halfwidth the number of DOP853 steps, the minimum over the repeats of one
shot in microseconds, and that time per step.  More halfwidths can be given
as arguments.  BLAS runs on one thread, as in ``bench/run.py``.  Only the
checkout's ``src/`` is imported::

    python tools/shot_ladder.py
    python tools/shot_ladder.py 0.8 4.5 --repeats 100
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the oned-table decks draw b from [0.35, 4]; the ladder runs on to the widest reachable
HALFWIDTHS = (0.35, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.14, 3.9, 5.0, 6.0)


def _min_us(call, repeats: int) -> float:
    """The fastest of ``repeats`` timed calls of ``call``, in microseconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("halfwidths", nargs="*", type=float, help="more halfwidths b")
    parser.add_argument("--repeats", type=int, default=30, help="timed shots per halfwidth")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from concavelab import oned

    report = {"repeats": args.repeats, "halfwidths": {}}
    for b in (*HALFWIDTHS, *args.halfwidths):
        m = oned.solve_m_of_b(b)
        steps = len(oned._shoot(m).dense.h)
        shot_us = _min_us(lambda: oned._shoot(m), args.repeats)
        report["halfwidths"][f"{b:g}"] = {
            "steps": steps,
            "us_per_shot": round(shot_us, 1),
            "us_per_step": round(shot_us / steps, 2),
        }
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
