"""Timings of the exact-reference residual checks, single-threaded.

Times ``oned.tensor_solution``, ``oned.gausson_field`` and
``solver.log_residual_sup`` on the grids of the ``oned-exact`` benchmark
decks: the tensor checks on 3D boxes at 41^3 and 81^3 and on 2D boxes at
161^2 and 321^2 (each grid and its refinement), the Gausson residuals on 2D
boxes at 41^2 and 81^2 and on 3D boxes at 21^3 and 41^3.  Tensor boxes have
halfwidth 1 on every axis and take the decks' margin, 0.1 of it; Gausson
boxes have halfwidth 3.5 and no margin.  The one-dimensional profile is
solved once beforehand, so ``tensor_solution`` is timed without its
shooting.  Prints sorted JSON: per grid the median over the repeats of each
call in milliseconds.  BLAS runs on one thread, as in ``bench/run.py``.
Only the checkout's ``src/`` is imported::

    python tools/residual_ladder.py
    python tools/residual_ladder.py --repeats 50
"""

from __future__ import annotations

import argparse
import sys

from _ladder import median_ms, report, setup

TENSOR_HALFWIDTH = 1.0
GAUSSON_HALFWIDTH = 3.5
# (dimension, nodes per axis) as the oned-exact decks build them
TENSOR_GRIDS = ((3, 41), (3, 81), (2, 161), (2, 321))
GAUSSON_GRIDS = ((2, 41), (2, 81), (3, 21), (3, 41))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=30, help="timed calls per grid")
    args = setup(parser, argv)
    from concavelab import box, make_grid, oned
    from concavelab.solver import log_residual_sup

    out = {"repeats": args.repeats, "tensor": {}, "gausson": {}}
    profiles = {TENSOR_HALFWIDTH: oned.solve_interval(TENSOR_HALFWIDTH)}
    margin = 0.1 * TENSOR_HALFWIDTH
    for dim, n in TENSOR_GRIDS:
        bs = [TENSOR_HALFWIDTH] * dim
        field = oned.tensor_solution(bs, n, solutions=profiles)
        out["tensor"][f"{dim}d-{n}"] = {
            "tensor_solution_ms": round(median_ms(
                lambda: oned.tensor_solution(bs, n, solutions=profiles), args.repeats), 3),
            "log_residual_sup_ms": round(median_ms(
                lambda: log_residual_sup(field, boundary_margin=margin), args.repeats), 3),
        }
    for dim, n in GAUSSON_GRIDS:
        grid = make_grid(box(*[GAUSSON_HALFWIDTH] * dim), n)
        field = oned.gausson_field(grid)
        out["gausson"][f"{dim}d-{n}"] = {
            "gausson_field_ms": round(median_ms(
                lambda: oned.gausson_field(grid), args.repeats), 3),
            "log_residual_sup_ms": round(median_ms(
                lambda: log_residual_sup(field), args.repeats), 3),
        }
    return report(out)


if __name__ == "__main__":
    sys.exit(main())
