import dataclasses
import functools
import hashlib
import math
import operator
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import DOP853, OdeSolution, quad, solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.optimize import brentq
from scipy.special import lambertw

from concavelab import apply_laplacian, ball, box, make_grid
from concavelab import oned
from concavelab.reactions import f, log_schrodinger
from concavelab.solver import log_residual_sup

SQRT_E = math.sqrt(math.e)


# ---------------------------------------------------------------------------
# time map and inversion


def test_time_map_rejects_small_peak():
    with pytest.raises(oned.TimeMapError):
        oned.time_map(SQRT_E)
    with pytest.raises(oned.TimeMapError):
        oned.time_map(1.0)


def test_time_map_limits():
    # peaks near sqrt(e) live on huge intervals, tall peaks on tiny ones
    assert oned.time_map(SQRT_E * (1.0 + 1e-9)) > 4.0
    assert oned.time_map(1e5) < 0.35
    assert oned.time_map(SQRT_E * (1.0 + 1e-9)) > oned.time_map(2.0) > oned.time_map(1e5)


def test_time_map_frozen_golden():
    # frozen after the quadrature and shooting routes agreed to 2e-13
    assert abs(oned.time_map(math.e) - 1.2586883392959585) < 1e-9


def _reference_time_map(m: float) -> float:
    """The reference for the tanh-sinh time map: two adaptive ``quad``s,
    ``[0, m/2]`` directly and ``[m/2, m]`` after ``t = m - s^2`` removes the
    inverse-square-root singularity at ``t = m``."""
    log_m2 = math.log(m * m)

    def gap(t):  # 2 F(m) - 2 F(t), free of cancellation
        if t <= 0:
            return m * m * (log_m2 - 1.0)
        return (m * m - t * t) * (log_m2 - 1.0) + 2.0 * t * t * math.log(m / t)

    def lower(t):
        return 1.0 / math.sqrt(gap(t))

    def upper(s):
        g = gap(m - s * s)
        return 2.0 / math.sqrt(2.0 * m * log_m2) if g <= 0.0 else 2.0 * s / math.sqrt(g)

    tol = oned.QUAD_TOL / 2.0
    i1, _ = quad(lower, 0.0, m / 2.0, epsabs=tol, epsrel=1e-13, limit=500)
    i2, _ = quad(upper, 0.0, math.sqrt(m / 2.0), epsabs=tol, epsrel=1e-13, limit=500)
    return i1 + i2


# peaks from M_FLOOR, dense in m - sqrt(e) down to 1e-14, up to the 1e6 cap:
# halfwidths from 6.04 down to 0.30
REFERENCE_PEAKS = np.concatenate([SQRT_E * (1.0 + np.geomspace(1e-14, 1e-1, 131)),
                                  np.geomspace(2.0, 1e6, 60)])


def test_time_map_agrees_with_adaptive_quadrature():
    assert REFERENCE_PEAKS[0] == oned.M_FLOOR
    rule = np.array([oned.time_map(float(m)) for m in REFERENCE_PEAKS])
    reference = np.array([_reference_time_map(float(m)) for m in REFERENCE_PEAKS])
    assert np.max(np.abs(rule - reference)) <= oned.QUAD_TOL
    assert rule[0] <= oned.MAX_HALFWIDTH and rule[-1] < 0.31


def test_time_map_strictly_decreases():
    rule = np.array([oned.time_map(float(m)) for m in REFERENCE_PEAKS])
    assert np.all(np.diff(rule) < 0.0)
    # the rule is convex in z = log m^2 - 1, which makes the Newton iterates
    # of the inversion rise monotonically to the root
    z = np.array([math.log(m * m) - 1.0 for m in REFERENCE_PEAKS])
    assert np.all(np.diff(np.diff(rule) / np.diff(z)) > 0.0)


@pytest.mark.parametrize("m", [1.7, 2.0, math.e, 5.0])
def test_round_trip_m_to_b(m):
    b = oned.time_map(m)
    assert abs(oned.solve_m_of_b(b) - m) < 1e-8


def test_widest_halfwidth_bounds_the_time_map():
    # the sample cap of a profile rests on this bound
    assert oned.time_map(oned.M_FLOOR) <= oned.MAX_HALFWIDTH
    with pytest.raises(oned.TimeMapError):
        oned.solve_m_of_b(oned.MAX_HALFWIDTH)
    oned.check_samples_per_unit(oned.MAX_SAMPLES_PER_UNIT)
    with pytest.raises(ValueError):
        oned.check_samples_per_unit(oned.MAX_SAMPLES_PER_UNIT + 1)


def test_solve_m_of_b_out_of_range():
    with pytest.raises(oned.TimeMapError):
        oned.solve_m_of_b(50.0)  # beyond the time map at M_FLOOR
    with pytest.raises(oned.TimeMapError):
        oned.solve_m_of_b(0.05)  # would need a peak beyond the 1e6 cap


def test_monotone_inversion_on_b_grid():
    bs = np.geomspace(0.4, 4.0, 20)
    ms = [oned.solve_m_of_b(float(b)) for b in bs]
    assert all(a > b for a, b in zip(ms, ms[1:]))
    assert ms[-1] - SQRT_E < 0.01  # wide interval: peak approaches sqrt(e)
    assert ms[0] > 100.0           # narrow interval: peak blows up


def test_inversion_loads_no_root_finder():
    probe = (f"import sys; sys.path.insert(0, {str(Path(oned.__file__).parents[1])!r}); "
             "from concavelab import oned; oned.solve_m_of_b(1.0); "
             "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# boundary slope and the critical exponent


def test_boundary_slope_at_e():
    assert math.isclose(oned.boundary_slope(math.e), math.e, rel_tol=1e-14)


def test_boundary_slope_limits_along_b():
    bs = np.geomspace(0.4, 4.0, 20)
    slopes = [oned.boundary_slope(oned.solve_m_of_b(float(b))) for b in bs]
    assert all(a > b for a, b in zip(slopes, slopes[1:]))
    assert slopes[0] > 10.0
    assert slopes[-1] < 0.2


def test_alpha_equality_lhs_monotone():
    alphas = np.linspace(0.05, 0.95, 40)
    vals = [oned.alpha_equality_lhs(a) for a in alphas]
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_alpha_star_limits_and_monotonicity():
    bs = np.geomspace(0.4, 4.0, 20)
    alphas = [oned.alpha_star(float(b)) for b in bs]
    assert all(a > b for a, b in zip(alphas, alphas[1:]))
    assert alphas[0] > 0.9   # b small: exponent near 1
    assert alphas[-1] < 0.2  # b large: exponent near 0


# the arguments W0 takes from its two callers: e^(-2 - z) / z over the time
# map's range of z in alpha*, and alpha_equality_lhs(alpha) / e over the
# exponents that halfwidth_for_alpha reaches
W0_ARGUMENTS = [
    *(math.exp(-2.0 - z) / z for z in np.geomspace(oned.Z_FLOOR, oned.Z_CAP, 2000).tolist()),
    *(oned.alpha_equality_lhs(a) / math.e for a in np.linspace(0.0367, 1.0 - 1e-12, 2000).tolist()),
]


def test_lambert_w0_matches_scipy_on_the_arguments_its_callers_reach():
    for x in W0_ARGUMENTS:
        reference = lambertw(x).real
        assert abs(oned._lambert_w0(x) - reference) <= 2 * math.ulp(reference), x


# W0(x) at 40 digits (mpmath)
LAMBERT_W0_REFERENCES = {
    1e-12: "9.999999999989999798866491292958420693276e-13",
    0.5: "0.3517337112491958260249093009299510651715",
    math.e: "0.9999999999999999734088114669705433241736",
    1e6: "11.38335808614005262200015678158500428903",
    1e12: "24.43500440493491313826304962506291488698",
    1e16: "33.33476076844818450988714603526224144936",
    1e300: "684.2472086297608492920157606522940852892",
}


@pytest.mark.parametrize("x", sorted(LAMBERT_W0_REFERENCES))
def test_lambert_w0_holds_to_rounding(x):
    reference = float(LAMBERT_W0_REFERENCES[x])
    assert abs(oned._lambert_w0(x) - reference) <= math.ulp(reference)


@pytest.mark.parametrize("x", [0.0, 5e-324, 1e-310])
def test_lambert_w0_is_x_at_zero_and_subnormal_arguments(x):
    # W0(x) = x - x^2 + ... rounds to x once x is below the rounding unit
    assert oned._lambert_w0(x) == x


@pytest.mark.parametrize("alpha0", [0.25, 0.5, 0.75])
def test_halfwidth_for_alpha_inverts_alpha_star(alpha0):
    b = oned.halfwidth_for_alpha(alpha0)
    assert abs(oned.alpha_star(b) - alpha0) < 1e-8


@pytest.mark.parametrize("alpha0", [0.04, 0.05, 0.25, 0.5, 0.75, 0.95])
def test_alpha_round_trip_holds_to_rounding(alpha0):
    # both maps are closed forms in z = log m^2 - 1; only the time map's inversion rounds
    assert abs(oned.alpha_star(oned.halfwidth_for_alpha(alpha0)) - alpha0) <= 1e-14


@pytest.mark.parametrize("alpha0", [0.03, 0.031, 0.035])
def test_halfwidth_for_alpha_refuses_exponents_beyond_the_widest_halfwidth(alpha0):
    with pytest.raises(oned.TimeMapError, match=r"0\.03666.*MAX_HALFWIDTH = 6\.04"):
        oned.halfwidth_for_alpha(alpha0)


# alpha*(b) at 40 digits (mpmath at 100 digits): z = log m^2 - 1 solves
# b = integral_0^1 (z (1 - r^2) - 2 r^2 log r)^(-1/2) dr, the time map under
# t = m r, then alpha* = 1 / (1 + W0(e^(-2 - z) / z))
ALPHA_STAR_REFERENCES = {
    3.0: 0.2713404646857144561808941576874150299961,
    4.0: 0.1124327052347323327628809211255768427075,
    5.0: 0.05983687331124254542873463153615212383732,
}


@pytest.mark.parametrize("b", sorted(ALPHA_STAR_REFERENCES))
def test_alpha_star_holds_to_rounding_on_wide_intervals(b):
    reference = ALPHA_STAR_REFERENCES[b]
    assert abs(oned.alpha_star(b) - reference) <= 1e-15 * reference


# b(alpha) at 50 digits (mpmath): m = exp((1 + W0(L/e)) / 2) with
# L = alpha e^(-1/alpha) / (1 - alpha), then the time map under t = m (1 - s^2)
HALFWIDTH_REFERENCES = {
    0.25: 3.0819306869082932,
    0.5: 2.3854080162290930,
    0.75: 1.8617210597950889,
    0.95: 1.2817759531511340,
}


@pytest.mark.parametrize("alpha0", sorted(HALFWIDTH_REFERENCES))
def test_halfwidth_for_alpha_matches_references(alpha0):
    assert abs(oned.halfwidth_for_alpha(alpha0) - HALFWIDTH_REFERENCES[alpha0]) <= 5e-14


# ---------------------------------------------------------------------------
# shooting cross-validation


@pytest.fixture(scope="module")
def shot_m2():
    return oned.shoot_profile(2.0, 100_000)


def test_shoot_agrees_with_time_map(shot_m2):
    assert abs(shot_m2.b - oned.time_map(2.0)) < 1e-6


def test_shooting_crossing_matches_the_halfwidth():
    # a bias of 6e-12 at t = m, inside QUAD_TOL, would show here
    bs = [b for b in np.geomspace(0.4, 4.0, 20) if b <= 3.14] + [3.14]
    errors = [abs(oned.solve_interval(float(b)).b_shoot - b) for b in bs]
    assert max(errors) <= 1e-12


def test_shoot_energy_conservation(shot_m2):
    assert shot_m2.energy_drift < 1e-8


def test_shoot_slope_consistency(shot_m2):
    assert abs(shot_m2.boundary_slope - oned.boundary_slope(2.0)) < 1e-6


def test_shoot_rejects_small_peak():
    with pytest.raises(oned.TimeMapError):
        oned.shoot_profile(1.2, 1000)


def test_inflection_sits_at_unit_value(shot_m2):
    from scipy.interpolate import PchipInterpolator

    x_star = shot_m2.x_star
    assert 0.0 < x_star < shot_m2.b
    u_at_star = float(PchipInterpolator(shot_m2.xs, shot_m2.us)(x_star))
    assert abs(u_at_star - 1.0) < 1e-6
    # curvature u'' = -u log u^2 vanishes together with u - 1
    assert abs(u_at_star * math.log(u_at_star**2)) < 1e-5


# fixed-step RK4, the reference for the adaptive shooting pass


def _rhs(u: float) -> float:
    # odd extension through 0; the isolated log singularity is harmless
    return -u * math.log(u * u) if u != 0.0 else 0.0


def _rk4_step(u: float, p: float, h: float) -> tuple[float, float]:
    k1u, k1p = p, _rhs(u)
    k2u, k2p = p + 0.5 * h * k1p, _rhs(u + 0.5 * h * k1u)
    k3u, k3p = p + 0.5 * h * k2p, _rhs(u + 0.5 * h * k2u)
    k4u, k4p = p + h * k3p, _rhs(u + h * k3u)
    return (
        u + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
        p + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
    )


def _rk4_shoot(m: float, n: int):
    """Profile values at ``x = k / n`` from ``u(0) = m``, ``u'(0) = 0`` until
    the first step that crosses zero, then the crossing and ``x*`` with
    ``u(x*) = 1``, each refined by root-finding on one RK4 substep."""
    h = 1.0 / n
    us, ps = [m], [0.0]
    for _ in range(60 * n):
        u, p = _rk4_step(us[-1], ps[-1], h)
        if u <= 0.0:
            break
        us.append(u)
        ps.append(p)
    else:
        raise AssertionError("no crossing within 60 units")
    crossing = (len(us) - 1) * h + brentq(
        lambda s: _rk4_step(us[-1], ps[-1], s)[0], 0.0, h, xtol=1e-15)
    k = int(np.argmax(np.asarray(us) <= 1.0)) - 1
    x_star = k * h + brentq(lambda s: _rk4_step(us[k], ps[k], s)[0] - 1.0, 0.0, h, xtol=1e-15)
    return np.asarray(us), crossing, x_star


@pytest.mark.parametrize("b", [1.0, 2.7])
def test_shooting_matches_rk4_reference(b):
    n = 20_000
    m = oned.solve_m_of_b(b)
    shot = oned.shoot_profile(m, n)
    rk4_us, crossing, x_star = _rk4_shoot(m, n)
    # both sample x = k / n below their crossings; compare 401 common samples
    common = min(len(shot.xs) - 1, len(rk4_us))
    idx = np.linspace(0, common - 1, 401).round().astype(int)
    assert np.array_equal(shot.xs[idx], idx / n)
    assert np.max(np.abs(shot.us[idx] - rk4_us[idx])) < 1e-10
    assert abs(shot.b - crossing) < 1e-9
    assert abs(shot.x_star - x_star) < 1e-9


# scipy's solve_ivp, the reference for the package's own DOP853 loop


def _phase_rhs(x, y):
    u, p = y
    return p, _rhs(u)


def _crossing(x, y):
    return y[0]


def _unit_value(x, y):
    return y[0] - 1.0


_crossing.terminal = True
_crossing.direction = -1.0
_unit_value.direction = -1.0


def _scipy_shot(m: float, window: float = oned.SHOOT_WINDOW):
    return solve_ivp(_phase_rhs, (0.0, window), (m, 0.0), method="DOP853",
                     rtol=oned.SHOOT_RTOL, atol=oned.SHOOT_ATOL, dense_output=True,
                     events=(_crossing, _unit_value))


@pytest.mark.parametrize("b", np.geomspace(0.35, 3.14, 12).round(6).tolist())
def test_shot_matches_solve_ivp(b):
    m = oned.solve_m_of_b(b)
    shot = oned._shoot(m)
    ivp = _scipy_shot(m)
    assert ivp.status == 1
    assert abs(shot.b - ivp.t_events[0][0]) <= 1e-13
    assert abs(shot.x_star - ivp.t_events[1][0]) <= 1e-13
    assert shot.crossing[1] == pytest.approx(ivp.y_events[0][0][1], rel=5e-12, abs=0)
    # each component within 5e-12 of its sup: m for u, the boundary slope for u'
    xs = np.linspace(0.0, shot.b, 2001)
    gap = np.max(np.abs(shot.dense(xs) - ivp.sol(xs)), axis=1)
    assert gap[0] <= 5e-12 * m and gap[1] <= 5e-12 * oned.boundary_slope(m)
    # the same method: the step sequences differ only by the rounding of the
    # error estimates, which decides the first steps
    assert abs(len(shot.dense.h) - (len(ivp.sol.ts) - 1)) <= 2


def test_tableau_literals_are_scipys_dop853():
    assert len(oned._A) == DOP853.n_stages
    for s, row in enumerate(oned._A):
        assert list(row) == DOP853.A[s, :s].tolist() and not DOP853.A[s, s:].any()
    assert list(oned._B) == DOP853.B.tolist()
    assert list(oned._E5) == DOP853.E5.tolist() and list(oned._E3) == DOP853.E3.tolist()
    assert len(oned._A_EXTRA) == len(DOP853.A_EXTRA)
    for s, (row, scipy_row) in enumerate(zip(oned._A_EXTRA, DOP853.A_EXTRA), DOP853.n_stages + 1):
        assert list(row) == scipy_row[:s].tolist() and not scipy_row[s:].any()
    assert [list(row) for row in oned._D] == DOP853.D.tolist()


def _dot(K, row):
    # sum as Python 3.11 takes it over floats: from 0, left to right, one
    # rounding per addition (later versions compensate)
    return functools.reduce(operator.add, map(operator.mul, K, row), 0)


def _summed_step(u, p, h):
    """The step as the loop over the tableau rows took it, summing over full
    rows: the new ``(u, u', u'')``, the E5 and E3 sums, the 16 stages of
    each component and the seven interpolant coefficients of each."""
    accel = oned._accel
    Ku, Kp = [p], [accel(u)]
    for row in oned._A[1:]:
        Ku.append(p + _dot(Kp, row) * h)
        Kp.append(accel(u + _dot(Ku, row) * h))
    u_new = u + h * _dot(Ku, oned._B)
    p_new = p + h * _dot(Kp, oned._B)
    Ku.append(p_new)
    Kp.append(accel(u_new))
    errors = tuple(_dot(K, row) for row in (oned._E5, oned._E3) for K in (Ku, Kp))
    for row in oned._A_EXTRA:
        Ku.append(p + _dot(Kp, row) * h)
        Kp.append(accel(u + _dot(Ku, row) * h))
    du, dp = u_new - u, p_new - p
    coefficients = ((du, h * Ku[0] - du, 2 * du - h * (p_new + Ku[0]),
                     *(h * _dot(Ku, row) for row in oned._D)),
                    (dp, h * Kp[0] - dp, 2 * dp - h * (Kp[12] + Kp[0]),
                     *(h * _dot(Kp, row) for row in oned._D)))
    return (u_new, p_new, Kp[12]), errors, Ku, Kp, coefficients


def test_written_step_equals_the_summed_tableau():
    # states along profiles, past the crossing and at both signs of u'
    rng = np.random.default_rng(3)
    states = list(zip(rng.uniform(-0.5, 50.0, 200), rng.uniform(-30.0, 30.0, 200),
                      np.geomspace(1e-6, 0.5, 200)))
    rows, reference = [], []
    for u, p, h in states:
        new, errors, Ku, Kp, coefficients = _summed_step(u, p, h)
        step_new, step_errors, stages = oned._step(u, p, Kp[0], h)
        assert step_new == new and step_errors == errors
        assert stages == tuple(k for j in range(5, 12) for k in (Ku[j], Kp[j]))
        rows.append((h, u, p, Kp[0], *new, *stages))
        reference.append(coefficients)
    hs, y_old, coefficients = oned._interpolants(rows)
    assert hs.tolist() == [h for _, _, h in states]
    assert y_old.T.tolist() == [[u, p] for u, p, _ in states]
    assert np.array_equal(coefficients, np.array(reference).transpose(1, 2, 0))


# frozen from the loop that summed each stage over the full tableau with
# Python 3.11's ``sum``, which the written-out step reproduces bit for bit:
# per halfwidth the step count, b, x*, the crossing's (u, u') and SHA-256
# digests of the dense output's coefficients and step starts
SHOT_GOLDEN = {
    0.5: (40, "0x1.0000000000027p-1", "0x1.fe0381119e04fp-2",
          ("0x1.a7c4800000000p-42", "-0x1.01c38e708dd25p+9"),
          "91f54986d5504fd52a551854bf8128feedf10c46c0491aebebbd5792311f287b",
          "0790f98c9e483fae398715ada090b34646902be6b7172ac72c26692c05750269"),
    1.5: (47, "0x1.8000000000032p+0", "0x1.e338eff698b3ep-1",
          ("-0x1.43c6000000000p-53", "-0x1.a4f84aee46492p+0"),
          "b87273970c6c68a939c89b827e8639aa45ef86fb63e377711dc948ab98c3f45e",
          "fa9c769780ccb61106d9cce4e795321b852c57920ddc1841706388224f781912"),
    3.14: (67, "0x1.91eb851eb7dfap+1", "0x1.ffe9b9b410ef8p-1",
           ("0x1.ec8bc00000000p-56", "-0x1.11deec77f6107p-4"),
           "d5b6d8e92f50e4cc6d4f238219aa93c810679c95f66ff593813057412cdbb1e3",
           "7b848aaad90413929dff71cf27e0a026a4a108b761dddf5fd52585db673469bf"),
}


@pytest.mark.parametrize("b", sorted(SHOT_GOLDEN))
def test_shot_frozen_golden(b):
    steps, b_shot, x_star, crossing, f_digest, ts_digest = SHOT_GOLDEN[b]
    shot = oned._shoot(oned.solve_m_of_b(b))
    assert len(shot.dense.h) == steps
    assert shot.b == float.fromhex(b_shot) and shot.x_star == float.fromhex(x_star)
    assert shot.crossing == tuple(map(float.fromhex, crossing))
    assert hashlib.sha256(shot.dense.F.tobytes()).hexdigest() == f_digest
    assert hashlib.sha256(shot.dense.ts.tobytes()).hexdigest() == ts_digest


def test_shot_refuses_small_peaks_and_a_missing_crossing(monkeypatch):
    with pytest.raises(oned.TimeMapError, match="requires m > sqrt"):
        oned._shoot(SQRT_E)
    # the profile peaking at 2 crosses zero at 1.26, beyond a window of 1
    monkeypatch.setattr(oned, "SHOOT_WINDOW", 1.0)
    assert _scipy_shot(2.0, window=1.0).status == 0
    with pytest.raises(oned.TimeMapError, match="failed to cross zero within 1 units"):
        oned._shoot(2.0)


def test_profile_monotone_and_convexity_split():
    sol = oned.solve_interval(1.5, n=20_000)
    assert sol.m > SQRT_E
    assert sol.C > 0.0
    assert math.isclose(sol.C, 0.5 * sol.m**2 * (math.log(sol.m**2) - 1.0), rel_tol=1e-12)
    us = sol.us
    assert np.all(np.diff(us) < 1e-12)  # radially decreasing
    xs = sol.xs
    upp = np.diff(us, 2) / np.diff(xs[:2])[0] ** 2
    inner = xs[1:-1] < sol.x_star - 0.01
    outer = xs[1:-1] > sol.x_star + 0.01
    assert np.all(upp[inner] < 0.0)
    assert np.all(upp[outer] > 0.0)


# ---------------------------------------------------------------------------
# square-root-log concavity criterion


def test_sqrtlog_criterion_boundary_cases():
    m = 2.0
    assert abs(oned.sqrtlog_concavity_criterion(np.array([m]), m)[0]) < 1e-15
    val = oned.sqrtlog_concavity_criterion(np.array([m / SQRT_E]), m)[0]
    assert math.isclose(val, -1.0, rel_tol=1e-12)


def test_sqrtlog_check_passes_on_computed_profile(shot_m2):
    assert oned.sqrtlog_concavity_check(shot_m2.us, 2.0)


# ---------------------------------------------------------------------------
# tensor products and the entire profile


def test_tensor_sup_is_product_of_peaks():
    b = 1.0
    m = oned.solve_m_of_b(b)
    field = oned.tensor_solution([b, b], 81)
    assert abs(field.sup_norm() - m * m) < 1e-6


def test_tensor_solves_log_equation_interior():
    residuals = [
        log_residual_sup(oned.tensor_solution([1.0, 1.0], n), boundary_margin=0.15)
        for n in (41, 81)
    ]
    assert 3.5 <= residuals[0] / residuals[1] <= 4.5


def test_tensor_anisotropic_box():
    field = oned.tensor_solution([1.0, 1.5], (41, 61))
    m1 = oned.solve_m_of_b(1.0)
    m2 = oned.solve_m_of_b(1.5)
    assert abs(field.sup_norm() - m1 * m2) < 1e-6


def test_tensor_integrates_each_halfwidth_once(monkeypatch):
    shots = []
    shoot = oned._shoot

    def counting_shoot(m):
        shots.append(m)
        return shoot(m)

    monkeypatch.setattr(oned, "_shoot", counting_shoot)
    profiles = {}
    first = oned.tensor_solution([1.0, 1.5, 1.0], 41, n=1000, solutions=profiles)
    second = oned.tensor_solution([1.0, 1.5, 1.0], 81, n=1000, solutions=profiles)
    assert len(shots) == 2 and sorted(profiles) == [1.0, 1.5]
    expected = profiles[1.0].m ** 2 * profiles[1.5].m
    assert first.sup_norm() == second.sup_norm() == pytest.approx(expected, rel=1e-12)


def test_tensor_never_samples_the_profile(monkeypatch):
    def no_sampling(shot, n):
        raise AssertionError("tensor_solution drew half-profile samples")

    monkeypatch.setattr(oned, "_half_profile", no_sampling)
    profiles = {}
    field = oned.tensor_solution([1.0, 1.5], (41, 61), solutions=profiles)
    assert field.sup_norm() > 0.0
    with pytest.raises(AssertionError):
        profiles[1.0].us


@pytest.mark.parametrize("b", [0.912347, 1.083219, 1.187731])
def test_tensor_values_agree_with_the_pchip_of_dense_samples(b):
    from scipy.interpolate import PchipInterpolator

    # the grid values tensor products were once read from: a PCHIP through
    # the half-profile sampled at 100,000 points per unit length
    shot = oned.shoot_profile(oned.solve_m_of_b(b), 100_000)
    pchip = PchipInterpolator(shot.xs, shot.us, extrapolate=False)
    profiles = {}
    for resolution in (41, 81, 161):
        axis = make_grid(box(b), resolution).axes[0]
        old = np.nan_to_num(pchip(np.minimum(np.abs(axis), shot.xs[-1])), nan=0.0)
        old[np.abs(np.abs(axis) - b) < 1e-14] = 0.0
        values = oned.tensor_solution([b], resolution, solutions=profiles).values
        np.testing.assert_allclose(values, np.maximum(old, 0.0), rtol=1e-12, atol=0)


@pytest.mark.parametrize("b", [0.35, 1.0, 4.0])
@pytest.mark.parametrize("resolution", [41, 81, 160])
def test_axis_values_equal_the_dense_output(b, resolution):
    sol = oned.solve_interval(b)
    axis = make_grid(box(b), resolution).axes[0]
    dense = sol.shot.dense(np.minimum(np.abs(axis), sol.b_shoot))[0]
    dense[np.abs(np.abs(axis) - b) < 1e-14] = 0.0
    assert np.array_equal(oned._profile_on_axis(sol, axis), np.maximum(dense, 0.0))


def _constant(k: int):
    return lambda t: np.full((2, len(t)), float(k))


@pytest.mark.parametrize("b", [0.35, 1.0, 4.0])
@pytest.mark.parametrize("n", [10_000, 100_000])
def test_step_by_step_samples_equal_the_dense_output(b, n):
    # the reference is scipy's OdeSolution over scipy's own per-step
    # interpolants, built from the steps the dense output keeps
    dense = oned._shoot(oned.solve_m_of_b(b)).dense
    ts = dense.ts
    steps = []
    for k in range(len(dense.h)):
        step = Dop853DenseOutput(ts[k], ts[k + 1], dense.y_old[:, k], dense.F[:, :, k].T)
        step.h = dense.h[k]  # the last step runs past the crossing, where ts ends
        steps.append(step)
    reference = OdeSolution(ts, steps)
    xs = np.arange(math.ceil(ts[-1] * n)) / n
    # one abscissa exactly on a step end, which OdeSolution gives to the earlier step
    end = len(ts) // 2
    xs = np.sort(np.append(xs[xs < ts[-1]], ts[end]))
    assert np.array_equal(dense(xs), reference(xs))
    # both neighbouring steps agree there, so compare the step each sample goes to
    index = dataclasses.replace(dense, F=np.zeros_like(dense.F),
                                y_old=np.tile(np.arange(len(dense.h), dtype=float), (2, 1)))
    step_index = OdeSolution(ts, [_constant(k) for k in range(len(dense.h))])
    assert np.array_equal(index(xs), step_index(xs))
    # the evaluation takes the abscissae in any order
    order = np.random.default_rng(7).permutation(len(xs))
    assert np.array_equal(dense(xs[order]), reference(xs)[:, order])


@pytest.mark.parametrize("b", [1.0, 4.0])
def test_reading_the_samples_stays_within_the_sample_budget(b):
    # MAX_SAMPLES_PER_UNIT assumes a profile's samples peak at SAMPLE_BYTES each
    sol = oned.solve_interval(b, n=100_000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        us = sol.us
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= oned.SAMPLE_BYTES * len(us)


def test_solution_samples_equal_the_shooting_pass():
    b, n = 1.3, 20_000
    sol = oned.solve_interval(b, n)
    shot = oned.shoot_profile(sol.m, n)
    assert np.array_equal(sol.xs, shot.xs) and np.array_equal(sol.us, shot.us)
    assert sol.energy_drift == shot.energy_drift and sol.b_shoot == shot.b


def test_gausson_center_value_and_residual():
    assert math.isclose(oned.gausson(3, np.zeros(3)), math.exp(1.5), rel_tol=1e-14)
    res = []
    for n in (41, 81):
        g = make_grid(box(1.0, 1.0), n)
        u = oned.gausson_field(g)
        r = -apply_laplacian(u).values - f(log_schrodinger(), u.values)
        res.append(float(np.max(np.abs(r[g.interior_mask]))))
    assert 3.5 <= res[0] / res[1] <= 4.5


def test_gausson_log_profile_is_quadratic():
    g = make_grid(box(1.0, 1.0), 21)
    u = oned.gausson_field(g)
    x, y = g.coordinate_arrays()
    expected = 1.0 - 0.5 * (x**2 + y**2)  # N/2 - |x|^2/2
    assert np.allclose(np.log(u.values), expected, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gausson_field_on_a_ball_is_the_gausson_along_a_ray(dim):
    g = make_grid(ball(2.5, dim), 41)
    r = g.axes[0]
    ray = np.zeros((r.size, dim))
    ray[:, 0] = r
    assert np.array_equal(oned.gausson_field(g).values, oned.gausson(dim, ray))


def _reference_gausson(ambient_dim, points):
    pts = np.asarray(points, dtype=float)
    return math.exp(ambient_dim / 2.0) * np.exp(-np.sum(pts * pts, axis=-1) / 2.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gausson_matches_the_axis_sum_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    scales = rng.choice([1e-3, 1.0, 1e3], size=(500, dim))
    for pts in (rng.normal(size=(500, dim)) * scales, rng.normal(size=(7, 9, dim)),
                np.zeros(dim)):
        assert np.array_equal(oned.gausson(dim, pts), _reference_gausson(dim, pts))
    for grid in (make_grid(box(*[3.5] * dim), 41 if dim < 3 else 21),
                 make_grid(ball(3.5, dim), 101)):
        pts = np.zeros((*grid.shape, dim))
        for axis, c in enumerate(grid.coordinate_arrays()):
            pts[..., axis] = c
        assert np.array_equal(oned.gausson_field(grid).values, _reference_gausson(dim, pts))
