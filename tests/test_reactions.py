import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from concavelab import ScalarField, interval, make_grid, solver
from concavelab import reactions as rx


# ---------------------------------------------------------------------------
# reaction families


def test_log_reaction_vanishes_at_one_and_zero():
    r = rx.log_schrodinger()
    assert rx.f(r, 1.0) == 0.0
    assert rx.f(r, 0.0) == 0.0


def test_lane_emden_near_one_matches_log_reaction():
    # sigma = 2/(q-1) makes the power family approximate t log t^2
    q = 1.001
    r = rx.lane_emden(q, 2.0 / (q - 1.0))
    assert abs(rx.f(r, 2.0) - 2.0 * math.log(4.0)) < 1e-3


def test_dispersive_log_value():
    r = rx.dispersive_log()
    assert math.isclose(rx.f(r, math.exp(0.5)), -math.exp(0.5), rel_tol=1e-14)


def test_lane_emden_to_log_convergence_is_monotone():
    grid = np.linspace(0.0, 3.0, 301)
    log_vals = rx.f(rx.log_schrodinger(), grid)
    gaps = []
    for q in (1.1, 1.01, 1.001):
        vals = rx.f(rx.lane_emden(q, 2.0 / (q - 1.0)), grid)
        gaps.append(float(np.max(np.abs(vals - log_vals))))
    assert gaps[0] > gaps[1] > gaps[2]


def test_antiderivative_log_values():
    r = rx.log_schrodinger()
    assert abs(rx.F(r, math.sqrt(math.e))) < 1e-15
    assert math.isclose(rx.F(r, 1.0), -0.5, rel_tol=1e-14)
    assert math.isclose(rx.F(r, math.e), math.e**2 / 2.0, rel_tol=1e-14)


def test_f_prime_log_rejects_zero():
    with pytest.raises(rx.ReactionDomainError):
        rx.f_prime(rx.log_schrodinger(), 0.0)
    with pytest.raises(rx.ReactionDomainError):
        rx.f_prime(rx.dispersive_log(), np.array([1.0, 0.0]))


def test_negative_argument_rejected():
    with pytest.raises(rx.ReactionDomainError):
        rx.f(rx.log_schrodinger(), -0.1)


@pytest.mark.parametrize(
    "reaction",
    [
        rx.lane_emden(2.0, 1.0),
        rx.lane_emden(1.3, 17.0),
        rx.log_schrodinger(),
        rx.dispersive_lane_emden(2.5, 3.0),
        rx.dispersive_log(),
    ],
)
def test_antiderivative_differentiates_to_reaction(reaction):
    # central differences of F against f at 10 spread points
    ts = np.linspace(0.31, 2.71, 10)
    h = 1e-6
    for t in ts:
        dF = (rx.F(reaction, t + h) - rx.F(reaction, t - h)) / (2.0 * h)
        assert abs(dF - rx.f(reaction, t)) <= 1e-6 * max(1.0, abs(rx.f(reaction, t)))


def test_f_prime_matches_finite_differences():
    ts = np.linspace(0.4, 2.6, 10)
    h = 1e-6
    for reaction in (rx.lane_emden(2.0, 3.0), rx.log_schrodinger()):
        for t in ts:
            df = (rx.f(reaction, t + h) - rx.f(reaction, t - h)) / (2.0 * h)
            assert abs(df - rx.f_prime(reaction, t)) < 1e-5


def test_supercritical_exponent_rejected():
    with pytest.raises(rx.ReactionDomainError):
        rx.validate_exponent(rx.lane_emden(6.0, 1.0), 3)  # 2* - 1 = 5 in 3d
    rx.validate_exponent(rx.lane_emden(6.0, 1.0), 2)  # subcritical in 2d


# ---------------------------------------------------------------------------
# transformations


def test_sqrt_one_minus_log_at_one():
    tr = rx.sqrt_one_minus_log()
    assert rx.transform_value(tr, 1.0) == 1.0
    assert not tr.increasing


def test_atanh_poly_vanishes_at_validity_edge():
    q = 2.0
    tr = rx.atanh_poly(q)
    t_edge = ((q + 1.0) / 2.0) ** (1.0 / (q - 1.0))
    assert abs(rx.transform_value(tr, t_edge)) < 1e-12
    assert tr.validity[1] == pytest.approx(t_edge)


def test_sqrt_log_edge_value_and_divergent_slope():
    tr = rx.sqrt_log(2.0)
    assert rx.transform_value(tr, 2.0) == 0.0
    assert math.isinf(rx.transform_d1(tr, 2.0))


def test_validity_violations_raise():
    with pytest.raises(rx.TransformDomainError):
        rx.transform_value(rx.sqrt_one_minus_log(), 1.2)
    with pytest.raises(rx.TransformDomainError):
        rx.transform_value(rx.sqrt_log(1.5), 1.6)
    with pytest.raises(rx.TransformDomainError):
        rx.transform_value(rx.power(0.5), 0.0)


@given(st.floats(min_value=0.05, max_value=0.95), st.floats(min_value=0.01, max_value=50.0))
def test_power_second_derivative_negative_for_concave_exponents(alpha, t):
    assert rx.transform_d2(rx.power(alpha), t) < 0.0


@given(st.floats(min_value=-4.0, max_value=-0.05), st.floats(min_value=0.01, max_value=50.0))
def test_power_second_derivative_positive_for_negative_exponents(alpha, t):
    assert rx.transform_d2(rx.power(alpha), t) > 0.0


def _transforms_with_interior_points():
    return [
        (rx.power(0.4), np.linspace(0.2, 3.0, 7)),
        (rx.power(-0.5), np.linspace(0.2, 3.0, 7)),
        (rx.log_transform(), np.linspace(0.2, 3.0, 7)),
        (rx.neg_log(), np.linspace(0.2, 3.0, 7)),
        (rx.sqrt_log(2.0), np.linspace(0.2, 1.8, 7)),
        (rx.atanh_poly(2.0), np.linspace(0.1, 1.15, 7)),
        (rx.sqrt_one_minus_log(), np.linspace(0.1, 0.95, 7)),
    ]


@pytest.mark.parametrize("transform,ts", _transforms_with_interior_points())
def test_transform_derivatives_match_finite_differences(transform, ts):
    for t in ts:
        h1 = 1e-7 * max(1.0, t)
        d1_fd = (
            rx.transform_value(transform, t + h1) - rx.transform_value(transform, t - h1)
        ) / (2.0 * h1)
        d1 = rx.transform_d1(transform, t)
        assert abs(d1_fd - d1) < 1e-5 * max(1.0, abs(d1))
        # second differences need a larger step to beat float64 roundoff
        h2 = 1e-4 * max(1.0, t)
        d2_fd = (
            rx.transform_value(transform, t + h2)
            - 2.0 * rx.transform_value(transform, t)
            + rx.transform_value(transform, t - h2)
        ) / h2**2
        d2 = rx.transform_d2(transform, t)
        assert abs(d2_fd - d2) < 1e-4 * max(1.0, abs(d2))


@pytest.mark.parametrize("transform,ts", _transforms_with_interior_points())
def test_orientation_matches_slope_sign(transform, ts):
    d1 = rx.transform_d1(transform, ts)
    if transform.increasing:
        assert np.all(d1 > 0)
    else:
        assert np.all(d1 < 0)


def test_negation_flips_orientation_and_values():
    tr = rx.log_transform()
    neg = tr.negate()
    assert tr.increasing and not neg.increasing
    assert rx.transform_value(neg, 2.0) == -rx.transform_value(tr, 2.0)
    assert rx.transform_d2(neg, 2.0) == -rx.transform_d2(tr, 2.0)


# ---------------------------------------------------------------------------
# transformed right-hand side


def test_transformed_rhs_log_identity():
    # w = -log u turns the logarithmic equation into Delta w = |Dw|^2 - 2w
    r = rx.log_schrodinger()
    tr = rx.neg_log()
    assert rx.transformed_rhs(r, tr, 1.0, 0.0) == 0.0
    assert math.isclose(rx.transformed_rhs(r, tr, math.e, 4.0), 6.0, rel_tol=1e-12)


def test_transformed_rhs_matches_log_formula_on_range():
    r = rx.log_schrodinger()
    tr = rx.neg_log()
    ts = np.linspace(0.3, 3.0, 11)
    z2 = np.linspace(0.0, 5.0, 11)
    w = -np.log(ts)
    expected = z2 - 2.0 * w
    assert np.allclose(rx.transformed_rhs(r, tr, ts, z2), expected, rtol=1e-12)


def test_transformed_rhs_power_identity():
    # v = u^((1-q)/2) for the power reaction at q = 3, t = 1, |z|^2 = 1
    r = rx.lane_emden(3.0, 1.0)
    tr = rx.power(-1.0)
    assert math.isclose(rx.transformed_rhs(r, tr, 1.0, 1.0), 2.0, rel_tol=1e-12)


def test_transformed_rhs_power_general_formula():
    q, sigma = 3.0, 1.0
    r = rx.lane_emden(q, sigma)
    tr = rx.power((1.0 - q) / 2.0)
    ts = np.linspace(0.5, 2.0, 9)
    v = ts ** ((1.0 - q) / 2.0)
    z2 = 0.7
    expected = (q + 1.0) / (q - 1.0) * z2 / v + sigma * (q - 1.0) / (2.0 * v) - sigma * (
        q - 1.0
    ) / 2.0 * v
    assert np.allclose(rx.transformed_rhs(r, tr, ts, z2), expected, rtol=1e-12)


def test_transformed_rhs_rejects_singular_slope():
    with pytest.raises(rx.TransformDomainError):
        rx.transformed_rhs(rx.log_schrodinger(), rx.sqrt_log(2.0), 2.0, 1.0)


def test_log_family_keeps_values_where_t_squared_underflows():
    # t * t underflows to 0 below about 1.5e-154; log t^2 is 2 log t there
    t = 1e-300
    assert rx.f(rx.log_schrodinger(), t) == -1.3815510557964273e-297
    assert rx.f(rx.dispersive_log(), t) == 1.3815510557964273e-297
    assert math.copysign(1.0, rx.F(rx.log_schrodinger(), t)) == -1.0  # -0.0
    assert rx.F(rx.log_schrodinger(), t) == 0.0
    assert rx.f_prime(rx.log_schrodinger(), t) == -1379.5510557964274
    assert rx.transform_value(rx.sqrt_one_minus_log(), t) == 37.182671445129216
    g = make_grid(interval(1.0), 5)
    values = np.array([0.0, t, 0.5, 0.25, 0.0])
    ordinary = np.array([0.0, 0.0, 0.5, 0.25, 0.0])
    ordinary[2:4] = ordinary[2:4] ** 2 * np.log(ordinary[2:4] ** 2)
    assert solver._entropy_integral(g, ScalarField(g, values)) == solver._quadrature(g, ordinary)
