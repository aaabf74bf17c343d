"""Convex computational domains and their uniform grids.

Three domain families are supported: symmetric intervals ``(-b, b)``,
plurirectangles ``prod (-b_i, b_i)`` up to dimension three, and balls of
radius ``R`` in ambient dimension ``N``.  Balls are discretized radially
(one coordinate ``r``), relying on the radial symmetry of the positive
solutions computed on them.  Grids are immutable after construction and
may be shared freely between concurrent solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Domain",
    "Grid",
    "GeometrySummary",
    "interval",
    "box",
    "ball",
    "make_grid",
    "geometry_summary",
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


def interval(halfwidth: float) -> Domain:
    return Domain("interval", halfwidths=(float(halfwidth),))


def box(*halfwidths: float) -> Domain:
    return Domain("box", halfwidths=tuple(float(b) for b in halfwidths))


def ball(radius: float, ambient_dim: int) -> Domain:
    return Domain("ball", radius=float(radius), ambient_dim=int(ambient_dim))


@dataclass(frozen=True)
class GeometrySummary:
    diameter: float
    eccentricity: float  # circumradius / inradius, always >= 1


def geometry_summary(domain: Domain) -> GeometrySummary:
    """Diameter and eccentricity (circumradius over inradius) of the domain.

    Exact for the supported shapes: a ball is its own in- and circumball,
    a box has circumradius ``sqrt(sum b_i^2)`` and inradius ``min b_i``.
    """
    if domain.kind == "ball":
        return GeometrySummary(2.0 * domain.radius, 1.0)
    bs = np.asarray(domain.halfwidths)
    circum = math.sqrt(float(np.sum(bs * bs)))
    inr = float(np.min(bs))
    return GeometrySummary(2.0 * circum, circum / inr)


class Grid:
    """Uniform tensor grid on a domain.

    For intervals/boxes the axes run from ``-b_i`` to ``b_i`` with
    ``n_i`` nodes and spacing ``h_i = 2 b_i / (n_i - 1)``; every node on
    the topological boundary of the box is a boundary node.  For balls
    the single axis is ``r_k = k R/(n-1)`` and only ``r = R`` is a
    boundary node (the center is interior).

    Derived arrays, the sparse Laplacian, the principal eigenpair and (on
    interval and radial grids) the LU factorization are cached on the
    instance; the caches are filled lazily and never invalidated since
    grids are immutable.
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
        self._cache: dict = {}

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
    def interior_mask(self) -> np.ndarray:
        """Boolean array over the grid shape, True at interior nodes."""
        mask = self._cache.get("interior_mask")
        if mask is None:
            mask = np.zeros(self.shape, dtype=bool)
            if self.is_radial:
                mask[:-1] = True
            else:
                mask[(slice(1, -1),) * self.ndim] = True
            mask.setflags(write=False)
            self._cache["interior_mask"] = mask
        return mask

    @property
    def num_interior(self) -> int:
        return int(np.count_nonzero(self.interior_mask))

    def coordinate_arrays(self) -> tuple[np.ndarray, ...]:
        """Meshgrid ('ij') coordinate arrays over the full grid."""
        coords = self._cache.get("coords")
        if coords is None:
            coords = np.meshgrid(*self.axes, indexing="ij")
            self._cache["coords"] = coords
        return coords

    def boundary_distance(self) -> np.ndarray:
        """Nodal distance to the domain boundary."""
        dist = self._cache.get("boundary_distance")
        if dist is None:
            if self.is_radial:
                dist = self.domain.radius - self.axes[0]
            else:
                dist = np.full(self.shape, np.inf)
                coords = self.coordinate_arrays()
                for b, x in zip(self.domain.halfwidths, coords):
                    dist = np.minimum(dist, b - np.abs(x))
            dist.setflags(write=False)
            self._cache["boundary_distance"] = dist
        return dist

    def node_coordinates(self, index) -> tuple[float, ...]:
        idx = (index,) if np.isscalar(index) else tuple(index)
        return tuple(float(ax[i]) for ax, i in zip(self.axes, idx))

    def refine(self) -> "Grid":
        """Grid with halved spacing (n -> 2n - 1 per axis)."""
        return Grid(self.domain, tuple(2 * n - 1 for n in self.shape))

    def quadrature_weights(self) -> np.ndarray:
        """Trapezoidal weights; radial grids carry the ``r^(N-1)`` metric
        factor and the unit-sphere surface measure."""
        w = self._cache.get("quad_weights")
        if w is None:
            if self.is_radial:
                n_amb = self.ambient_dim
                r = self.axes[0]
                h = self.spacing[0]
                w1 = np.full(self.shape[0], h)
                w1[0] = w1[-1] = h / 2.0
                surface = 2.0 * math.pi ** (n_amb / 2.0) / math.gamma(n_amb / 2.0)
                w = surface * w1 * r ** (n_amb - 1)
            else:
                w = np.ones(self.shape)
                for axis, (n, h) in enumerate(zip(self.shape, self.spacing)):
                    w1 = np.full(n, h)
                    w1[0] = w1[-1] = h / 2.0
                    shape = [1] * self.ndim
                    shape[axis] = n
                    w = w * w1.reshape(shape)
            w.setflags(write=False)
            self._cache["quad_weights"] = w
        return w

    def __repr__(self):
        return f"Grid({self.domain.kind}, shape={self.shape})"


def make_grid(domain: Domain, resolution) -> Grid:
    """Build a uniform grid covering ``domain`` with the given nodes per axis."""
    return Grid(domain, resolution)
