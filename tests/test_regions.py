"""The residual region, the zero-trace check and the exact reference fields
against the boolean-mask and loop formulas they replaced, bit for bit."""

import math

import numpy as np
import pytest

from concavelab import ScalarField, apply_laplacian, ball, box, interval, make_grid, oned
from concavelab import reactions
from concavelab.reactions import ReactionDomainError
from concavelab.solver import log_residual_sup

TINY = 1e-160  # t * t underflows: the 2 log t branch of reactions.log_square


def masked_log_residual_sup(field, boundary_margin=0.0):
    """The boolean-mask formula: the residual on the whole grid, its sup over
    ``interior & (u >= 0) & (distance >= margin)``."""
    grid = field.grid
    g = -apply_laplacian(field).values - reactions.f(reactions.log_schrodinger(), field.values)
    mask = grid.interior_mask & (field.values >= 0.0)
    if boundary_margin > 0.0:
        mask = mask & (grid.boundary_distance() >= boundary_margin)
    if not np.any(mask):
        raise ValueError("no nodes satisfy the residual mask")
    return float(np.max(np.abs(g[mask])))


GRIDS = {
    "interval": (interval(1.3), 17),
    "square": (box(1.2, 1.2), (13, 17)),
    "rectangle": (box(1.0, 1.4), (13, 17)),
    "cube": (box(1.1, 1.1, 1.1), (9, 11, 13)),
    "box3": (box(0.9, 1.1, 1.2), (9, 11, 13)),
    **{f"ball{n}": (ball(1.5, n), 21) for n in (1, 2, 3)},
}


# grids on which the largest interior distance leaves one node per axis
ONE_NODE = ("interval", "square", "cube", "ball1", "ball2", "ball3")


def _grid(name):
    return make_grid(*GRIDS[name])


def _layers(grid):
    """Per node the rank of its boundary distance, distances within 1e-9 of
    each other (the two sides of an axis) ranked alike, and per rank the
    least distance of its nodes: the margin that keeps the layer."""
    dist = grid.boundary_distance()
    _, rank = np.unique(np.round(dist, 9), return_inverse=True)
    rank = rank.reshape(grid.shape)
    return rank, [float(dist[rank == k].min()) for k in range(rank.max() + 1)]


def _values(grid, shape, seed=0):
    """Positive noise whose amplitude falls 10-fold per distance layer inward
    ("rim") or rises 10-fold ("core"), so that the sup of the residual sits on
    the outermost or innermost layer of a region and a region one layer off
    gives another sup."""
    rng = np.random.default_rng(seed)
    rank, _ = _layers(grid)
    scale = 10.0 ** (-rank if shape == "rim" else rank - rank.max())
    return scale * rng.uniform(0.5, 1.0, grid.shape)


def _margins(grid):
    """0, a tenth of the smallest halfwidth, the largest interior distance
    (one node left on an odd cube or at a ball's centre), and just beyond it."""
    far = float(grid.boundary_distance()[grid.interior_mask].max())
    short = grid.domain.radius if grid.is_radial else min(grid.domain.halfwidths)
    return {"zero": 0.0, "tenth": 0.1 * short, "last": far, "none": far * (1.0 + 1e-12)}


def assert_same_outcome(field, margin):
    """``log_residual_sup`` gives the mask formula's value bit for bit, or
    raises its exception, of the same type and message."""
    try:
        expected = masked_log_residual_sup(field, margin)
    except ValueError as exc:  # ReactionDomainError included
        with pytest.raises(ValueError) as raised:
            log_residual_sup(field, boundary_margin=margin)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return None
    actual = log_residual_sup(field, boundary_margin=margin)
    assert type(actual) is float
    assert np.float64(actual).tobytes() == np.float64(expected).tobytes()
    return actual


def _centre(grid):
    return tuple(n // 2 for n in grid.shape) if not grid.is_radial else (0,)


# ---------------------------------------------------------------------------
# log_residual_sup against the boolean mask


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("margin", ["zero", "tenth", "last", "none"])
@pytest.mark.parametrize("special", ["plain", "zeros", "tiny", "nan", "nan_outside"])
@pytest.mark.parametrize("shape", ["rim", "core"])
@pytest.mark.parametrize("name", list(GRIDS))
def test_log_residual_sup_equals_the_mask_formula(name, shape, special, margin):
    grid = _grid(name)
    m = _margins(grid)[margin]
    values = _values(grid, shape)
    values[~grid.interior_mask] = 0.0
    inner = grid.interior_region(m)
    if special == "zeros":  # every third interior node, the centre among them
        values.ravel()[::3] = 0.0
        values[_centre(grid)] = 0.0
    elif special == "tiny":
        values.ravel()[1::4] = TINY
        values[_centre(grid)] = TINY
    elif special == "nan":  # inside every region that is not empty
        values[_centre(grid)] = np.nan
    elif special == "nan_outside":  # a boundary node, outside every region
        values[(-1,) * grid.ndim] = np.nan
    field = ScalarField(grid, values, validate=False)
    sup = assert_same_outcome(field, m)
    one_node = margin == "last" and name in ONE_NODE
    if margin == "none":
        assert sup is None and any(s.start == s.stop for s in inner)
    if one_node:
        assert all(s.stop - s.start == 1 for s in inner)
    if special == "nan" and one_node:
        assert sup is None  # the one node left is NaN
    elif special == "nan" and margin != "none":
        assert math.isnan(sup)  # the NaN node's neighbours


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(GRIDS))
def test_log_residual_sup_a_region_one_layer_off_gives_another_sup(name):
    """The rim field tells a region from the one a layer wider or narrower:
    the mask formula at the neighbouring margins differs."""
    grid = _grid(name)
    field = ScalarField(grid, _values(grid, "rim"), validate=False)
    _, margins = _layers(grid)
    for k in range(2, len(margins) - 1):  # layer 0 is the boundary
        sup = log_residual_sup(field, boundary_margin=margins[k])
        assert sup == masked_log_residual_sup(field, margins[k])
        assert sup not in {masked_log_residual_sup(field, margins[j]) for j in (k - 1, k + 1)}


@pytest.mark.parametrize("name", list(GRIDS))
@pytest.mark.parametrize("margin", ["zero", "tenth", "last", "none"])
def test_a_negative_node_raises_before_the_region_is_read(name, margin):
    grid = _grid(name)
    m = _margins(grid)[margin]
    for node in ((-1,) * grid.ndim, _centre(grid)):  # a boundary node, an interior node
        values = _values(grid, "rim")
        values[node] = -1e-3
        field = ScalarField(grid, values, validate=False)
        with pytest.raises(ReactionDomainError, match="must be nonnegative"):
            log_residual_sup(field, boundary_margin=m)
        assert_same_outcome(field, m)


@pytest.mark.parametrize("name", list(GRIDS))
def test_interior_region_is_the_mask_it_replaces(name):
    grid = _grid(name)
    dist = grid.boundary_distance()
    for m in (-1.0, 0.0, *np.unique(dist), *_margins(grid).values()):
        mask = np.zeros(grid.shape, dtype=bool)
        mask[grid.interior_region(m)] = True
        expected = grid.interior_mask & (dist >= m) if m > 0 else grid.interior_mask
        assert np.array_equal(mask, expected)


# ---------------------------------------------------------------------------
# the zero-trace check by faces


def _boundary_nodes(grid):
    return [tuple(int(i) for i in node) for node in np.argwhere(~grid.interior_mask)]


@pytest.mark.parametrize("domain, resolution", [
    (interval(1.0), 7), (box(1.0), 5), (box(1.0, 2.0), (5, 6)), (box(1.0, 2.0, 0.5), (4, 5, 6)),
    (ball(1.0, 1), 9), (ball(2.0, 3), 9),
])
def test_scalar_field_refuses_a_nonzero_trace_on_every_boundary_node(domain, resolution):
    grid = make_grid(domain, resolution)
    base = np.zeros(grid.shape)
    base[grid.interior_mask] = 0.5
    ScalarField(grid, base)
    signed = base.copy()
    signed[~grid.interior_mask] = -0.0  # a signed zero is zero
    ScalarField(grid, signed)
    nodes = _boundary_nodes(grid)
    # every face, edge and corner; r = R alone on a ball; both ends of an interval
    assert len(nodes) == grid.num_nodes - grid.num_interior
    for node in nodes:
        for bad in (1.0, -2.5, 5e-324):
            values = base.copy()
            values[node] = bad
            with pytest.raises(ValueError, match="^boundary trace must be exactly zero$"):
                ScalarField(grid, values)
            ScalarField(grid, values, validate=False)
            for nonfinite in (np.nan, np.inf, -np.inf):  # refused first, wherever it sits
                for where in (node, nodes[0], _centre(grid)):
                    worse = values.copy()
                    worse[where] = nonfinite
                    with pytest.raises(ValueError, match="^field values must be finite$"):
                        ScalarField(grid, worse)


# ---------------------------------------------------------------------------
# tensor_solution and gausson_field against their loops


def loop_tensor_solution(bs, resolution, solutions):
    grid = make_grid(box(*bs), resolution)
    values = np.ones(grid.shape)
    for axis, b in enumerate(bs):
        axis_vals = oned._profile_on_axis(solutions[b], grid.axes[axis])
        shape = [1] * grid.ndim
        shape[axis] = grid.shape[axis]
        values = values * axis_vals.reshape(shape)
    return values


def loop_gausson_field(grid):
    pts = np.stack(grid.coordinate_arrays(), axis=-1)
    pts = np.pad(pts, [(0, 0)] * grid.ndim + [(0, grid.ambient_dim - grid.ndim)])
    return oned.gausson(grid.ambient_dim, pts)


@pytest.fixture(scope="module")
def profiles():
    return {}


@pytest.mark.parametrize("bs, resolution", [
    ((0.9,), 33), ((0.9, 1.2), (17, 25)), ((1.2, 0.9, 1.05), (9, 13, 11)), ((1.0, 1.0), 21),
])
def test_tensor_solution_is_the_product_loop(profiles, bs, resolution):
    field = oned.tensor_solution(bs, resolution, solutions=profiles)
    expected = loop_tensor_solution(bs, resolution, profiles)
    assert field.values.shape == expected.shape
    assert field.values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("domain, resolution", [
    (interval(2.0), 41), (box(3.0, 3.5), (21, 31)), (box(3.5, 3.0, 4.0), (11, 13, 15)),
    (ball(2.5, 1), 41), (ball(2.5, 2), 41), (ball(2.5, 3), 41),
])
def test_gausson_field_is_the_stacked_point_formula(domain, resolution):
    grid = make_grid(domain, resolution)
    values = oned.gausson_field(grid).values
    expected = loop_gausson_field(grid)
    assert values.shape == expected.shape
    assert values.tobytes() == expected.tobytes()
