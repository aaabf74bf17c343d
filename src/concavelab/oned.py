"""Exact one-dimensional analysis of ``-u'' = u log u^2`` on ``(-b, b)``.

The positive solution with ``u(0) = m`` has the conserved quantity
``|u'|^2 / 2 + F(u) = F(m)`` with ``F(t) = t^2 (log t^2 - 1) / 2``, which
yields the time map

    b(m) = integral_0^m (2 F(m) - 2 F(t))^(-1/2) dt,        m > sqrt(e).

This module provides the time map, by one fixed tanh-sinh rule whose
nodes and weights are built at import, and its inversion by Newton's
method in ``z = log m^2 - 1``, where the rule is convex; the boundary
slope ``sqrt(2 F(m))``; the sharp power-concavity exponent ``alpha*(b)``
solving ``(1 - a) |u'(b)|^2 = a e^(-1/a)``; the profile
itself by adaptive DOP853 shooting, an independent cross-check of the time
map: scipy's method with its tableau, written as a loop over the two
floats ``(u, u')``, its crossing and unit value located by Newton's
method on a step's interpolant; tensor-product solutions on
plurirectangles; and the explicit entire Gaussian-type profile
``e^(N/2) e^(-|x|^2 / 2)``.

A profile is DOP853's dense output, its 7th-order interpolant per step
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.6), kept as seven
coefficients per step and component and evaluated at many abscissae in
one vectorized pass: tensor products read it at their grid nodes, and
half-profile samples ``x = k / n`` are drawn from it only when they are
read.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, box, make_grid
from .linops import ScalarField

# ``scipy.integrate`` and ``scipy.special`` load where they are called

__all__ = [
    "SQRT_E",
    "OneDimSolution",
    "TimeMapError",
    "time_map",
    "solve_m_of_b",
    "boundary_slope",
    "alpha_star",
    "alpha_equality_lhs",
    "halfwidth_for_alpha",
    "shoot_profile",
    "sqrtlog_concavity_criterion",
    "sqrtlog_concavity_check",
    "solve_interval",
    "tensor_solution",
    "gausson",
    "gausson_field",
]

SQRT_E = math.sqrt(math.e)
# lower end of the time-map inversion; its time map, 6.0398, is the widest
# halfwidth a profile reaches, which ``MAX_HALFWIDTH`` rounds up
M_FLOOR = SQRT_E * (1.0 + 1e-14)
MAX_HALFWIDTH = 6.04
# the inversion works in ``z = log m^2 - 1``: it starts at ``M_FLOOR`` and
# refuses peaks beyond the cap 1e6
Z_FLOOR = math.log(M_FLOOR * M_FLOOR) - 1.0
Z_CAP = math.log(1e12) - 1.0
# absolute error budget of the time map's quadrature rule
QUAD_TOL = 1e-11


class TimeMapError(ValueError):
    pass


def _F(t: float) -> float:
    return 0.5 * t * t * (math.log(t * t) - 1.0) if t > 0 else 0.0


def _time_map_rule(step: float, span: float):
    """Weights and gap coefficients of the tanh-sinh rule for the time map.

    The node ``s = k * step``, ``|s| <= span``, sits at ``t = m lo`` with
    ``m - t = m hi``, where ``lo = 1 / (1 + e^(-pi sinh s))`` and
    ``hi = 1 / (1 + e^(pi sinh s))`` are kept apart so that neither end
    loses digits.  With ``L = log m^2 - 1`` the gap is

        2 F(m) - 2 F(t) = m^2 (hi (1 + lo) L - 2 lo^2 log(lo)),

    free of cancellation, and ``dt = m pi cosh(s) lo hi ds``, so ``m``
    cancels: ``b(m) = sum w / sqrt(slope * L + offset)`` with the weights
    ``w = step * pi cosh(s) lo hi``, ``slope = hi (1 + lo)`` and
    ``offset = -2 lo^2 log(lo)``.  ``log(lo)`` is ``log1p(-hi)`` where
    ``lo >= 1/2``.  Nodes where ``lo`` or ``hi`` underflows carry no weight
    and are dropped before any logarithm is taken.
    """
    s = step * np.arange(-round(span / step), round(span / step) + 1)
    lo = 1.0 / (1.0 + np.exp(-math.pi * np.sinh(s)))
    hi = 1.0 / (1.0 + np.exp(math.pi * np.sinh(s)))
    keep = (lo > 0.0) & (hi > 0.0)
    s, lo, hi = s[keep], lo[keep], hi[keep]
    log_lo = np.empty_like(lo)
    near_zero = lo < 0.5
    log_lo[near_zero] = np.log(lo[near_zero])
    log_lo[~near_zero] = np.log1p(-hi[~near_zero])
    weights = step * math.pi * np.cosh(s) * lo * hi
    return weights, hi * (1.0 + lo), -2.0 * lo * lo * log_lo


# the double-exponential rule (Takahasi & Mori, Publ. RIMS 9, 1974) on
# |s| <= 4 at step 1/64, 513 nodes: it agrees with adaptive quadrature to
# 1e-13 for m in (M_FLOOR, 1e6]; cut at |s| <= 3.5 it leaves a bias of
# 6e-12 at t = m, which shows in the shooting pass's crossing
_TIME_MAP_RULE = _time_map_rule(1.0 / 64.0, 4.0)


def _time_map_in_z(z: float) -> tuple[float, float]:
    """The time map at ``z = log m^2 - 1`` and its derivative in ``z``.

    Each term ``w / sqrt(slope * z + offset)`` of the rule has ``w`` and
    ``slope`` positive and ``offset`` nonnegative, so the rule is convex and
    decreasing in ``z``, as the exact map is."""
    weights, slope, offset = _TIME_MAP_RULE
    gap = slope * z + offset
    terms = weights / np.sqrt(gap)
    return float(np.sum(terms)), -0.5 * float(np.sum(terms * slope / gap))


def time_map(m: float) -> float:
    """Halfwidth ``b`` of the interval on which the profile peaking at ``m``
    solves the problem.

    One fixed tanh-sinh rule on ``[0, m]`` (see ``_time_map_rule``) takes
    both the inverse-square-root singularity at ``t = m`` and, as
    ``m -> sqrt(e)``, the near-singular layer at ``t = 0``; its absolute
    error stays within ``QUAD_TOL``.
    """
    if not m > SQRT_E:
        raise TimeMapError(f"time map requires m > sqrt(e) = {SQRT_E:.12f}, got {m}")
    return _time_map_in_z(math.log(m * m) - 1.0)[0]


def _solve_z(b: float) -> float:
    """Invert the time map in ``z = log m^2 - 1``: the ``z`` with ``b(z) = b``.

    Newton's method starts at ``Z_FLOOR``, left of the root.  The rule is
    convex and decreasing in ``z``, so each tangent meets ``b`` left of the
    root and the iterates rise monotonically to it; the first step that
    does not raise ``z`` ends the iteration at rounding.  ``b`` values
    beyond the time map at ``Z_FLOOR``, or whose iterates pass ``Z_CAP``,
    are out of range."""
    if not b > 0:
        raise TimeMapError("halfwidth b must be positive")
    z = Z_FLOOR
    b_z, db_dz = _time_map_in_z(z)
    if b_z < b:
        raise TimeMapError(f"b = {b} too large: exceeds the reachable time-map range")
    while True:
        z_next = z - (b_z - b) / db_dz
        if not z_next > z:
            return z
        if z_next > Z_CAP:
            raise TimeMapError(f"b = {b} too small: sup norm beyond the cap 1e6")
        z = z_next
        b_z, db_dz = _time_map_in_z(z)


def solve_m_of_b(b: float) -> float:
    """Invert the time map: the sup norm ``m`` with ``time_map(m) = b``,
    found in ``z = log m^2 - 1`` (see ``_solve_z``)."""
    return math.exp(0.5 * (1.0 + _solve_z(b)))


def boundary_slope(m: float) -> float:
    """``|u'(b)| = sqrt(2 F(m))``, from the conserved quantity."""
    if not m > SQRT_E:
        raise TimeMapError("boundary slope requires m > sqrt(e)")
    return math.sqrt(2.0 * _F(m))


def alpha_equality_lhs(alpha: float) -> float:
    """``a e^(-1/a) / (1 - a)``: the slope-squared threshold at which the
    power-concavity criterion becomes an equality; strictly increasing."""
    return alpha / (1.0 - alpha) * math.exp(-1.0 / alpha)


def _alpha_of_z(z: float) -> float:
    from scipy.special import lambertw

    return 1.0 / (1.0 + lambertw(math.exp(-2.0 - z) / z).real)


def alpha_star(b: float, m: float | None = None) -> float:
    """Critical exponent in (0, 1): the profile on ``(-b, b)`` is
    ``a``-power concave exactly for ``a <= alpha_star(b)``.

    With ``s = |u'(b)|^2 = 2 F(m)``, the equality ``(1 - a) s = a e^(-1/a)``
    is ``y e^y = 1 / (e s)`` in ``y = 1/a - 1 > 0``, so
    ``a = 1 / (1 + W0(1 / (e s)))`` with ``W0`` the principal branch of the
    Lambert W function (Corless et al., Adv. Comput. Math. 5, 1996).  In
    ``z = log m^2 - 1``, ``s = e^(1 + z) z``, and ``z`` is taken from the
    time map's inversion unless the peak ``m`` is given."""
    z = _solve_z(b) if m is None else math.log(m * m) - 1.0
    return _alpha_of_z(z)


def halfwidth_for_alpha(alpha: float) -> float:
    """Halfwidth ``b`` whose profile has ``alpha_star(b) = alpha``.

    The peak solves ``2 F(m) = L`` with ``L = alpha_equality_lhs(alpha)``;
    in ``z = log m^2 - 1`` that is ``z e^z = L / e``, so ``z = W0(L / e)``,
    and ``b`` is the time map there.  An ``alpha`` whose ``z`` lies below
    ``Z_FLOOR`` would need a halfwidth beyond ``MAX_HALFWIDTH``."""
    from scipy.special import lambertw

    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    z = lambertw(alpha_equality_lhs(alpha) / math.e).real
    if not z >= Z_FLOOR:
        raise TimeMapError(
            f"alpha = {alpha} out of range: exponents below {_alpha_of_z(Z_FLOOR):.5f} need "
            f"halfwidths beyond the widest reachable, MAX_HALFWIDTH = {MAX_HALFWIDTH}")
    return _time_map_in_z(z)[0]


# ---------------------------------------------------------------------------
# shooting


# DOP853 tolerances of the shooting pass and its window in units of length
SHOOT_RTOL = 1e-13
SHOOT_ATOL = 1e-15
SHOOT_WINDOW = 60.0
# bytes per sample of a half-profile, and the memory one profile may take;
# the bound dates from a PCHIP built on the samples (tracemalloc peak 112),
# while reading the samples from the dense output peaks at 56 (b = 1 and 4,
# n = 100,000)
SAMPLE_BYTES = 112
PROFILE_BYTES_MAX = 2**30
MAX_SAMPLES_PER_UNIT = int(PROFILE_BYTES_MAX / (SAMPLE_BYTES * MAX_HALFWIDTH))


def check_samples_per_unit(n: int) -> None:
    """Raise ``ValueError`` unless ``n`` samples per unit length lie in
    ``[100, MAX_SAMPLES_PER_UNIT]``: a profile holds up to
    ``MAX_HALFWIDTH * n`` samples."""
    if n < 100:
        raise ValueError("need at least 100 samples per unit length")
    if n > MAX_SAMPLES_PER_UNIT:
        raise ValueError(f"{n} samples per unit length exceed the cap {MAX_SAMPLES_PER_UNIT}")


@functools.cache
def _dop853():
    """The DOP853 tableau as tuples of floats, read from scipy's ``DOP853``
    on the first shot: the stage rows, each cut to the stages before it,
    the weights, the E5 and E3 error rows, the three extra stages of the
    dense output and its four ``D`` rows."""
    from scipy.integrate import DOP853

    def floats(row):
        return tuple(map(float, row))

    stages = tuple(floats(row[:s]) for s, row in enumerate(DOP853.A[1:], 1))
    extra = tuple(floats(row[:s]) for s, row in enumerate(DOP853.A_EXTRA, DOP853.n_stages + 1))
    return (stages, floats(DOP853.B), floats(DOP853.E5), floats(DOP853.E3), extra,
            tuple(map(floats, DOP853.D)))


def _accel(u: float) -> float:
    # u'' of the odd extension through 0; the isolated log singularity is harmless
    return -u * math.log(u * u) if u != 0.0 else 0.0


def _initial_step(m: float, fp: float) -> float:
    """scipy's ``select_initial_step`` for order 7 from ``(m, 0)``, whose
    derivative is ``(0, fp)``: its RMS norms over the two components, with
    the entries that vanish there dropped."""
    su = SHOOT_ATOL + m * SHOOT_RTOL
    d0 = m / su / math.sqrt(2.0)
    d1 = abs(fp) / SHOOT_ATOL / math.sqrt(2.0)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, SHOOT_WINDOW)
    # the Euler step to h0 leaves u at m and moves only u', by h0 fp
    d2 = abs(h0 * fp / su) / math.sqrt(2.0) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    return min(100 * h0, h1, SHOOT_WINDOW)


def _interpolate(step: tuple, t: float) -> tuple[float, float]:
    """``(u, u')`` at ``t`` on one step's interpolant, nested as in scipy's
    ``Dop853DenseOutput``; ``step`` is ``(t_old, h, u_old, p_old, F_u,
    F_p)`` with the seven coefficients of each component."""
    t_old, h, u_old, p_old, fu, fp = step
    x = (t - t_old) / h
    u = p = 0.0
    for i in range(6, -1, -1):
        w = x if i % 2 == 0 else 1 - x
        u = (u + fu[i]) * w
        p = (p + fp[i]) * w
    return u + u_old, p + p_old


def _level_crossing(step: tuple, t_end: float, level: float) -> float:
    """Where ``u`` falls to ``level`` on one step's interpolant, with ``u``
    above it at the step's start and not above it at ``t_end``.

    Newton's method takes the interpolated ``u'`` as its slope and starts at
    the secant of the step's ends; an iterate that leaves the bracket is
    replaced by its midpoint.  It stops, as scipy's event location does,
    once the iterates move by at most ``4 eps (1 + |t|)``.  Should rounding
    leave the interpolant at or above ``level`` at ``t_end``, the event is
    there."""
    lo, hi = step[0], t_end
    g_lo, g_hi = step[2] - level, _interpolate(step, hi)[0] - level
    if g_hi >= 0.0:
        return hi
    t = lo + (hi - lo) * g_lo / (g_lo - g_hi)
    while True:
        u, p = _interpolate(step, t)
        g = u - level
        if g == 0.0:
            return t
        if g > 0.0:
            lo = t
        else:
            hi = t
        # u falls, so p < 0; any other slope bisects
        t_next = t - g / p if p < 0.0 else lo
        if not lo < t_next < hi:
            t_next = 0.5 * (lo + hi)
        if abs(t_next - t) <= 4 * math.ulp(1.0) * (1.0 + abs(t_next)):
            return t_next
        t = t_next


def _no_crossing(reason: str) -> TimeMapError:
    return TimeMapError(f"profile failed to cross zero within {SHOOT_WINDOW:g} units ({reason}); "
                        "is m > sqrt(e)?")


@dataclass(frozen=True)
class _DenseOutput:
    """DOP853's dense output of ``(u, u')``: per step its start ``ts[k]``,
    length ``h[k]``, initial state ``y_old[:, k]`` and the seven
    coefficients ``F[:, :, k]`` of each component (Hairer, Norsett & Wanner,
    *Solving ODEs I*, II.6).  ``ts`` ends at the crossing, inside the last
    step."""

    ts: np.ndarray          # step starts, then the crossing
    h: np.ndarray
    y_old: np.ndarray       # (2, steps)
    F: np.ndarray           # (2, 7, steps)

    def __call__(self, xs) -> np.ndarray:
        """``(u, u')`` at the abscissae ``xs``, in any order, shape ``(2, len(xs))``.

        Each sample goes to the step whose span holds it, a sample on a step
        end to the earlier step, as in scipy's ``OdeSolution``; the nested
        form is then evaluated for all samples at once, one coefficient
        gathered at a time, with the arithmetic of scipy's per-step
        evaluation."""
        xs = np.asarray(xs, dtype=float)
        k = np.searchsorted(self.ts, xs, "left") - 1
        np.clip(k, 0, len(self.h) - 1, out=k)
        x = xs - self.ts[k]
        x /= self.h[k]
        one_minus_x = 1 - x
        out = np.zeros((2, len(xs)))
        gathered = np.empty(len(xs))
        for y, rows, y_old in zip(out, self.F, self.y_old):
            for i in range(6, -1, -1):
                y += np.take(rows[i], k, out=gathered, mode="clip")
                y *= x if i % 2 == 0 else one_minus_x
            y += np.take(y_old, k, out=gathered, mode="clip")
        return out


@dataclass(frozen=True)
class _Shot:
    """One integration from the peak ``m`` to the crossing ``b``: the
    dense output, the crossing's ``(u, u')`` and ``x*``, each event read
    off the interpolant of the step in which it falls."""

    m: float                        # u(0)
    dense: _DenseOutput             # of (u, u') from 0 to the crossing
    b: float                        # crossing abscissa
    crossing: tuple[float, float]   # (u, u') there
    x_star: float                   # u(x_star) = 1


def _shoot(m: float) -> _Shot:
    """Integrate ``u'' = -u log u^2`` from ``u(0) = m``, ``u'(0) = 0`` with
    DOP853 until the profile crosses zero, within a window of
    ``SHOOT_WINDOW`` units.

    The method is scipy's ``DOP853`` step for step (its initial step, the
    E5/E3 error norm and its step-size controller), written as a loop over
    the two floats ``(u, u')`` whose stage sums ``sum`` takes over plain
    floats.
    The crossing and the unit value ``u(x*) = 1`` are located on the
    interpolant of the step in which ``u`` falls to them."""
    if not m > SQRT_E:
        raise TimeMapError("shooting requires m > sqrt(e)")
    stages, weights, err5, err3, extra, interp = _dop853()
    rtol, atol, accel, mul = SHOOT_RTOL, SHOOT_ATOL, _accel, operator.mul
    t, u, p, fu, fp = 0.0, m, 0.0, 0.0, _accel(m)
    h_abs = _initial_step(m, fp)
    ts, steps, x_star = [t], [], None
    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise _no_crossing("Required step size is less than spacing between numbers.")
            t_new = min(t + h_abs, SHOOT_WINDOW)
            h = h_abs = t_new - t
            Ku, Kp = [fu], [fp]
            for row in stages:
                Ku.append(p + sum(map(mul, Kp, row)) * h)
                Kp.append(accel(u + sum(map(mul, Ku, row)) * h))
            u_new = u + h * sum(map(mul, Ku, weights))
            p_new = p + h * sum(map(mul, Kp, weights))
            fp_new = accel(u_new)
            Ku.append(p_new)
            Kp.append(fp_new)
            su = atol + max(abs(u), abs(u_new)) * rtol
            sp = atol + max(abs(p), abs(p_new)) * rtol
            e5u, e5p = sum(map(mul, Ku, err5)) / su, sum(map(mul, Kp, err5)) / sp
            e3u, e3p = sum(map(mul, Ku, err3)) / su, sum(map(mul, Kp, err3)) / sp
            e5, e3 = e5u * e5u + e5p * e5p, e3u * e3u + e3p * e3p
            error = 0.0 if e5 == 0.0 and e3 == 0.0 else h * e5 / math.sqrt((e5 + 0.01 * e3) * 2)
            if error < 1.0:
                factor = 10.0 if error == 0.0 else min(10.0, 0.9 * error**-0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error**-0.125)
            rejected = True
        # the dense output's extra stages and coefficients
        for row in extra:
            Ku.append(p + sum(map(mul, Kp, row)) * h)
            Kp.append(accel(u + sum(map(mul, Ku, row)) * h))
        du, dp = u_new - u, p_new - p
        step = (t, h, u, p,
                (du, h * fu - du, 2 * du - h * (p_new + fu),
                 *(h * sum(map(mul, Ku, row)) for row in interp)),
                (dp, h * fp - dp, 2 * dp - h * (fp_new + fp),
                 *(h * sum(map(mul, Kp, row)) for row in interp)))
        steps.append(step)
        # u starts above 1 and stays above 0 until these events are found
        if x_star is None and u_new <= 1.0:
            x_star = _level_crossing(step, t_new, 1.0)
        if u_new <= 0.0:
            b = _level_crossing(step, t_new, 0.0)
            ts.append(b)
            break
        if t_new == SHOOT_WINDOW:
            raise _no_crossing("The solver successfully reached the end of the integration "
                               "interval.")
        t, u, p, fu, fp = t_new, u_new, p_new, p_new, fp_new
        ts.append(t)
    _, hs, u_old, p_old, fus, fps = zip(*steps)
    dense = _DenseOutput(np.array(ts), np.array(hs), np.array([u_old, p_old]),
                         np.array([fus, fps]).transpose(0, 2, 1).copy())
    return _Shot(m, dense, b, _interpolate(step, b), x_star)


def _half_profile(shot: _Shot, n: int):
    """Abscissae ``k / n`` below the crossing, then the crossing, with the
    profile there and the energy drift of the profile and its derivative."""
    xs = np.arange(math.ceil(shot.b * n)) / n
    xs = xs[xs < shot.b]
    us, ps = shot.dense(xs)
    ub, pb = shot.crossing
    xs, us, ps = np.append(xs, shot.b), np.append(us, ub), np.append(ps, pb)
    with np.errstate(divide="ignore", invalid="ignore"):
        f_vals = np.where(us > 0, 0.5 * us**2 * (np.log(us**2) - 1.0), 0.0)
    return xs, us, float(np.max(np.abs(0.5 * ps**2 + f_vals - _F(shot.m))))


def shoot_profile(m: float, n: int = 10_000) -> OneDimSolution:
    """Integrate ``u'' = -u log u^2`` from ``u(0) = m``, ``u'(0) = 0`` with
    DOP853 until the profile crosses zero.

    The crossing and the unit value ``u(x*) = 1`` are located on the
    integrator's step interpolants within a window of ``SHOOT_WINDOW``
    units.  The profile
    on ``(-b, b)`` is returned with ``b`` the crossing; ``n`` is the number
    of samples per unit length of its ``xs`` and ``us``.
    """
    check_samples_per_unit(n)
    shot = _shoot(m)
    return OneDimSolution(b=shot.b, m=m, C=_F(m), x_star=shot.x_star,
                          alpha_star=alpha_star(shot.b, m=m), n=n, shot=shot)


def sqrtlog_concavity_criterion(t, m: float):
    """``(log(t^2/m^2) + 1) t^2/m^2 - 1``; nonpositive on ``(0, m]`` exactly
    when ``-sqrt(-log(u/m))`` is concave along the profile."""
    t = np.asarray(t, dtype=float)
    r2 = (t / m) ** 2
    out = np.full_like(t, -1.0)
    pos = t > 0
    out[pos] = (np.log(r2[pos]) + 1.0) * r2[pos] - 1.0
    return out


def sqrtlog_concavity_check(profile, m: float) -> bool:
    """True when the criterion holds at every positive sample of ``profile``
    not exceeding ``m``, up to a slack of 1e-12."""
    t = np.asarray(profile, dtype=float)
    t = t[(t > 0) & (t <= m)]
    return bool(np.max(sqrtlog_concavity_criterion(t, m)) <= 1e-12)


# ---------------------------------------------------------------------------
# assembled one-dimensional solution


@dataclass
class OneDimSolution:
    """Fully resolved profile on ``(-b, b)`` with its derived quantities.

    The profile is DOP853's dense output; the half-profile samples ``xs``,
    ``us`` and their ``energy_drift`` are evaluated from it in one
    vectorized pass, ``n`` per unit length, on first read.  :func:`solve_interval` sets ``b`` and finds
    ``m`` by the time map; :func:`shoot_profile` sets ``m`` and takes the
    shooting pass's crossing as ``b``."""

    b: float
    m: float
    C: float                # F(m) = |u'(b)|^2 / 2
    x_star: float           # u(x_star) = 1, concave/convex switch
    alpha_star: float
    n: int                  # samples per unit length of the half-profile
    shot: _Shot = field(repr=False, compare=False)

    @property
    def slope(self) -> float:
        return math.sqrt(2.0 * self.C)

    @property
    def b_shoot(self) -> float:
        """The shooting pass's crossing abscissa."""
        return self.shot.b

    @property
    def boundary_slope(self) -> float:
        """The integrator's ``|u'|`` at the crossing, against ``slope``
        from the conserved quantity."""
        return abs(float(self.shot.crossing[1]))

    @functools.cached_property
    def _samples(self) -> tuple[np.ndarray, np.ndarray, float]:
        return _half_profile(self.shot, self.n)

    @property
    def xs(self) -> np.ndarray:
        """Half-profile abscissae ``k / n`` below the crossing, then the crossing."""
        return self._samples[0]

    @property
    def us(self) -> np.ndarray:
        return self._samples[1]

    @property
    def energy_drift(self) -> float:
        """``max |p^2/2 + F(u) - F(m)|`` over the samples."""
        return self._samples[2]


def solve_interval(b: float, n: int = 20_000) -> OneDimSolution:
    """Resolve the unique positive profile on ``(-b, b)`` through the
    time-map inversion plus a shooting pass; ``n`` samples per unit length
    are drawn from its dense output when ``xs`` or ``us`` are read.  The
    exponent is taken from the inversion's ``z``, not from the rounded
    peak."""
    check_samples_per_unit(n)
    m = solve_m_of_b(b)
    shot = _shoot(m)
    return OneDimSolution(b=b, m=m, C=_F(m), x_star=shot.x_star,
                          alpha_star=alpha_star(b), n=n, shot=shot)


def _profile_on_axis(sol: OneDimSolution, axis: np.ndarray) -> np.ndarray:
    """The profile's dense output at ``|axis|``, clipped to the crossing;
    nodes within 1e-14 of the halfwidth are zero."""
    vals = sol.shot.dense(np.minimum(np.abs(axis), sol.b_shoot))[0]
    vals[np.abs(np.abs(axis) - sol.b) < 1e-14] = 0.0
    return np.maximum(vals, 0.0)


def tensor_solution(
    bs, resolution, n: int = 100_000, solutions: dict | None = None
) -> ScalarField:
    """Product of one-dimensional profiles on the plurirectangle
    ``prod (-b_i, b_i)``; the product solves the same equation there and
    its sup norm is the product of the factor sup norms.

    ``solutions`` maps halfwidths to their :class:`OneDimSolution`; a
    halfwidth missing from it is solved and added, so calls that share one
    dict solve each halfwidth once.  Grid values are the dense output of
    each profile at its axis nodes; ``n`` sets only the sample density of
    the returned solutions' ``xs`` and ``us``, which are not drawn here."""
    bs = [float(b) for b in np.atleast_1d(bs)]
    grid = make_grid(box(*bs), resolution)
    values = np.ones(grid.shape)
    sols = {} if solutions is None else solutions
    for axis, b in enumerate(bs):
        if b not in sols:
            sols[b] = solve_interval(b, n=n)
        axis_vals = _profile_on_axis(sols[b], grid.axes[axis])
        shape = [1] * grid.ndim
        shape[axis] = grid.shape[axis]
        values = values * axis_vals.reshape(shape)
    return ScalarField(grid, values)


# ---------------------------------------------------------------------------
# explicit entire profile


def gausson(ambient_dim: int, points) -> np.ndarray:
    """``e^(N/2) e^(-|x|^2/2)`` at coordinates of shape ``(..., N)``."""
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != ambient_dim:
        raise ValueError(f"points must have trailing dimension {ambient_dim}")
    r2 = np.sum(pts * pts, axis=-1)
    return math.exp(ambient_dim / 2.0) * np.exp(-r2 / 2.0)


def gausson_field(grid: Grid) -> ScalarField:
    """Gausson samples on the nodes of a grid (nonzero trace: the entire
    profile does not vanish on the box boundary, so validation is off)."""
    if grid.is_radial:
        r = grid.axes[0]
        vals = math.exp(grid.ambient_dim / 2.0) * np.exp(-(r * r) / 2.0)
    else:
        pts = np.stack(grid.coordinate_arrays(), axis=-1)
        vals = gausson(grid.ambient_dim, pts)
    return ScalarField(grid, vals, validate=False)
