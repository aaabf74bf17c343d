"""Convex computational domains and their uniform grids.

Three domain families are supported: symmetric intervals ``(-b, b)``,
plurirectangles ``prod (-b_i, b_i)`` up to dimension three, and balls of
radius ``R`` in ambient dimension ``N``.  Balls are discretized radially
(one coordinate ``r``), relying on the radial symmetry of the positive
solutions computed on them.  Grids are immutable after construction and
may be shared freely between concurrent solves; each carries one operator
(:class:`concavelab.linops.GridOperator`) built on first use.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Domain",
    "Grid",
    "interval",
    "box",
    "ball",
    "make_grid",
]


@dataclass(frozen=True)
class Domain:
    """A convex domain: ``interval``, ``box`` or ``ball``.

    ``halfwidths`` is used by intervals/boxes, ``radius``/``ambient_dim``
    by balls.  All lengths are dimensionless.
    """

    kind: str
    halfwidths: tuple[float, ...] = ()
    radius: float = 0.0
    ambient_dim: int = 0

    def __post_init__(self):
        if self.kind not in ("interval", "box", "ball"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind in ("interval", "box"):
            if not self.halfwidths:
                raise ValueError("interval/box domains need halfwidths")
            if any(b <= 0 for b in self.halfwidths):
                raise ValueError("halfwidths must be strictly positive")
            if self.kind == "interval" and len(self.halfwidths) != 1:
                raise ValueError("interval takes exactly one halfwidth")
            if self.kind == "box" and not 1 <= len(self.halfwidths) <= 3:
                raise ValueError("box dimension must be 1, 2 or 3")
        else:
            if self.radius <= 0:
                raise ValueError("ball radius must be strictly positive")
            if self.ambient_dim < 1:
                raise ValueError("ball ambient dimension must be >= 1")

    @property
    def dim(self) -> int:
        """Ambient space dimension N."""
        if self.kind == "ball":
            return self.ambient_dim
        return len(self.halfwidths)


# tracemalloc peak bytes per node of a run on a 3D box at 61^3, set when fields were
# written as text (383 for a solve, 536 for a concavity check of two transforms; with
# field.npy the same runs peak at 213 and 268), and the memory the grids of one
# experiment may take; a grid with more nodes than ``MAX_NODES`` is refused
NODE_BYTES = 512
GRID_BYTES_MAX = 2**30
MAX_NODES = GRID_BYTES_MAX // NODE_BYTES


def check_nodes(nodes: int) -> None:
    """Raise ``ValueError`` if ``nodes`` grid nodes exceed ``MAX_NODES``."""
    if nodes > MAX_NODES:
        raise ValueError(f"{nodes} grid nodes exceed the cap {MAX_NODES}")


def interval(halfwidth: float) -> Domain:
    return Domain("interval", halfwidths=(float(halfwidth),))


def box(*halfwidths: float) -> Domain:
    return Domain("box", halfwidths=tuple(float(b) for b in halfwidths))


def ball(radius: float, ambient_dim: int) -> Domain:
    return Domain("ball", radius=float(radius), ambient_dim=int(ambient_dim))


class Grid:
    """Uniform tensor grid on a domain.

    For intervals/boxes the axes run from ``-b_i`` to ``b_i`` with
    ``n_i`` nodes and spacing ``h_i = 2 b_i / (n_i - 1)``; every node on
    the topological boundary of the box is a boundary node.  For balls
    the single axis is ``r_k = k R/(n-1)`` and only ``r = R`` is a
    boundary node (the center is interior).

    A grid does not change after construction: its axes and interior mask
    are read-only arrays, and :attr:`operator` -- the discrete Laplacian
    with its solves, principal eigenpair and quadrature weights -- is
    built once, on first use, under a lock, and is itself immutable.
    Grids may therefore be shared freely between concurrent solves.
    """

    def __init__(self, domain: Domain, resolution):
        if np.isscalar(resolution):
            ns = (int(resolution),) * (1 if domain.kind == "ball" else domain.dim)
        else:
            ns = tuple(int(n) for n in resolution)
        if domain.kind == "ball" and len(ns) != 1:
            raise ValueError("radial grids take a single resolution")
        if domain.kind in ("interval", "box") and len(ns) != domain.dim:
            raise ValueError("one resolution per axis required")
        if any(n < 3 for n in ns):
            raise ValueError("resolution must be >= 3 per axis")
        check_nodes(math.prod(ns))

        self.domain = domain
        self.shape = ns
        if domain.kind == "ball":
            self.axes = (np.linspace(0.0, domain.radius, ns[0]),)
            self.spacing = (domain.radius / (ns[0] - 1),)
        else:
            self.axes = tuple(
                np.linspace(-b, b, n) for b, n in zip(domain.halfwidths, ns)
            )
            self.spacing = tuple(
                2.0 * b / (n - 1) for b, n in zip(domain.halfwidths, ns)
            )
        mask = np.zeros(ns, dtype=bool)
        if domain.kind == "ball":
            mask[:-1] = True
        else:
            mask[(slice(1, -1),) * len(ns)] = True
        self.interior_mask = mask
        for array in (*self.axes, mask):
            array.setflags(write=False)
        self._operator = None
        self._operator_lock = threading.Lock()

    # -- structure -----------------------------------------------------

    @property
    def ndim(self) -> int:
        """Number of grid coordinates (1 for radial grids)."""
        return len(self.shape)

    @property
    def is_radial(self) -> bool:
        return self.domain.kind == "ball"

    @property
    def ambient_dim(self) -> int:
        return self.domain.dim

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def num_interior(self) -> int:
        return int(np.count_nonzero(self.interior_mask))

    @property
    def operator(self):
        """The grid's :class:`concavelab.linops.GridOperator`, built on first use."""
        if self._operator is None:
            with self._operator_lock:
                if self._operator is None:
                    from .linops import GridOperator  # linops imports this module

                    self._operator = GridOperator.for_grid(self)
        return self._operator

    def coordinate_arrays(self) -> tuple[np.ndarray, ...]:
        """Meshgrid ('ij') coordinate arrays over the full grid."""
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    def _axis_distances(self) -> tuple[np.ndarray, ...]:
        """Per axis the distance of its nodes to the boundary: ``b_i - |x_i|``,
        or ``R - r`` on balls."""
        if self.is_radial:
            return (self.domain.radius - self.axes[0],)
        return tuple(b - np.abs(x) for b, x in zip(self.domain.halfwidths, self.axes))

    def boundary_distance(self) -> np.ndarray:
        """Nodal distance to the domain boundary: the least of the node's
        axis distances."""
        if self.is_radial:
            return self._axis_distances()[0]
        dist = np.full(self.shape, np.inf)
        for axis, axis_dist in enumerate(self._axis_distances()):
            shape = [1] * self.ndim
            shape[axis] = axis_dist.size
            np.minimum(dist, axis_dist.reshape(shape), out=dist)
        return dist

    def interior_region(self, margin: float = 0.0) -> tuple[slice, ...]:
        """The interior nodes at :meth:`boundary_distance` ``>= margin`` (all
        of them unless ``margin > 0``), as one slice of node indices per axis.

        A node is kept when every axis distance is ``>= margin``, and along
        an axis that distance rises to the centre and falls after it, so each
        axis keeps one range of indices.  An empty region has an empty slice."""
        region = [slice(0 if self.is_radial else 1, n - 1) for n in self.shape]
        if not margin > 0.0:
            return tuple(region)
        for axis, (inner, dist) in enumerate(zip(region, self._axis_distances())):
            kept = inner.start + np.flatnonzero(dist[inner] >= margin)
            region[axis] = (slice(int(kept[0]), int(kept[-1]) + 1) if kept.size
                            else slice(inner.start, inner.start))
        return tuple(region)

    def node_coordinates(self, index) -> tuple[float, ...]:
        idx = (index,) if np.isscalar(index) else tuple(index)
        return tuple(float(ax[i]) for ax, i in zip(self.axes, idx))

    def quadrature_weights(self) -> np.ndarray:
        """Trapezoidal weights (read-only); radial grids carry the
        ``r^(N-1)`` metric factor and the unit-sphere surface measure."""
        return self.operator.weights

    def __repr__(self):
        return f"Grid({self.domain.kind}, shape={self.shape})"


def make_grid(domain: Domain, resolution) -> Grid:
    """Build a uniform grid covering ``domain`` with the given nodes per axis."""
    return Grid(domain, resolution)
