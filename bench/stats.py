"""Order statistics used by the benchmark report."""

from __future__ import annotations

import statistics

MIN_BEYOND = 10


def tail_percentile(n_cases: int) -> int:
    """Highest whole percentile ``p`` whose nearest-rank value leaves at
    least ``MIN_BEYOND`` of ``n_cases`` samples strictly above its rank."""
    for p in range(99, 0, -1):
        rank = -(-p * n_cases // 100)  # ceil(p n / 100), exact in integers
        if n_cases - rank >= MIN_BEYOND:
            return p
    raise ValueError(f"{n_cases} cases leave fewer than {MIN_BEYOND} beyond any percentile")


def nearest_rank(values, p: int) -> float:
    """Nearest-rank ``p``-th percentile: the ``ceil(p n / 100)``-th smallest value."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)
