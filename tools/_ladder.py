"""What the timing tools share: arguments, one BLAS thread, the checkout's
``src/`` and a sorted-JSON report.

A tool builds its ``argparse`` parser, calls :func:`setup`, imports numpy and
``concavelab`` only after it (the BLAS thread count is read when numpy
loads), times its calls and ends with ``return report(...)``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = Path(__file__).resolve().parent.parent / "src"


def setup(parser, argv=None):
    """Parse ``argv``, refusing a ``--repeats`` below 1, run BLAS on one
    thread, as ``bench/run.py`` does, and import ``concavelab`` from ``SRC``."""
    args = parser.parse_args(argv)
    if getattr(args, "repeats", 1) < 1:
        parser.error("--repeats must be at least 1")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return args


def median_ms(call, repeats: int) -> float:
    """The median of ``repeats`` timed calls of ``call``, in milliseconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def report(data: dict) -> int:
    """Print ``data`` as sorted JSON and return the exit code 0."""
    json.dump(data, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0
