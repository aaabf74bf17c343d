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
map: scipy's method, its tableau held here as literals and each step
written out stage by stage over the two floats ``(u, u')``, its crossing
and unit value located by Newton's method on a step's interpolant;
tensor-product solutions on plurirectangles; and the explicit entire
Gaussian-type profile ``e^(N/2) e^(-|x|^2 / 2)``.

A profile is DOP853's dense output, its 7th-order interpolant per step
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.6), kept as seven
coefficients per step and component.  They are computed after the step
loop, for all steps at once, and evaluated at many abscissae in one
vectorized pass: tensor products read it at their grid nodes, and
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


def _lambert_w0(x: float) -> float:
    """The principal branch ``W0(x)`` of the Lambert W function, ``x >= 0``.

    Newton's method on ``w e^w - x`` starts at ``log1p(x)``, right of the
    root, since ``(1 + x) log(1 + x) >= x``.  The function is convex and
    increasing there, so the iterates fall monotonically to the root; the
    first step that does not lower ``w`` ends the iteration at rounding."""
    w = math.log1p(x)
    while True:
        w_next = w - (w - x / math.exp(w)) / (1.0 + w)
        if not w_next < w:
            return w
        w = w_next


def _alpha_of_z(z: float) -> float:
    return 1.0 / (1.0 + _lambert_w0(math.exp(-2.0 - z) / z))


def alpha_star(b: float, m: float | None = None) -> float:
    """Critical exponent in (0, 1): the profile on ``(-b, b)`` is
    ``a``-power concave exactly for ``a <= alpha_star(b)``.

    With ``s = |u'(b)|^2 = 2 F(m)``, the equality ``(1 - a) s = a e^(-1/a)``
    is ``y e^y = 1 / (e s)`` in ``y = 1/a - 1 > 0``, so
    ``a = 1 / (1 + W0(1 / (e s)))`` with ``W0`` the principal branch of the
    Lambert W function (Corless et al., Adv. Comput. Math. 5, 1996), found
    by monotone Newton steps (see ``_lambert_w0``).  In ``z = log m^2 - 1``,
    ``s = e^(1 + z) z``, and ``z`` is taken from the time map's inversion
    unless the peak ``m`` is given."""
    z = _solve_z(b) if m is None else math.log(m * m) - 1.0
    return _alpha_of_z(z)


def halfwidth_for_alpha(alpha: float) -> float:
    """Halfwidth ``b`` whose profile has ``alpha_star(b) = alpha``.

    The peak solves ``2 F(m) = L`` with ``L = alpha_equality_lhs(alpha)``;
    in ``z = log m^2 - 1`` that is ``z e^z = L / e``, so ``z = W0(L / e)``,
    found by monotone Newton steps (see ``_lambert_w0``), and ``b`` is the
    time map there.  An ``alpha`` whose ``z`` lies below ``Z_FLOOR`` would
    need a halfwidth beyond ``MAX_HALFWIDTH``."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    z = _lambert_w0(alpha_equality_lhs(alpha) / math.e)
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


# DOP853's tableau (Dormand & Prince, J. Comput. Appl. Math. 6, 1980; Hairer,
# Norsett & Wanner, II.5), the reprs of the floats of scipy's ``DOP853``: the
# stage rows, each cut to the stages before it; the weights; the E5 and E3
# error rows; the three extra stages of the dense output, cut likewise; and
# its four ``D`` rows (II.6)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
)
_B = (
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259)
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0)
_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0)
_A_EXTRA = (
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)


def _accel(u: float) -> float:
    # u'' of the odd extension through 0; the isolated log singularity is harmless
    return -u * math.log(u * u) if u != 0.0 else 0.0


def _make_step():
    """DOP853's step on the two floats ``(u, u')``, written out term by term
    on the entries of ``_A``, ``_B``, ``_E5`` and ``_E3`` bound to names.

    Stage ``s`` of each component sums the products of the earlier stages
    with row ``s`` left to right, one rounding per operation, with the terms
    of zero coefficients left out; so do the weights and the error rows.
    Stage 0 is ``(u', u'') = (p, fp)`` at the step's start."""
    (_, (a1_0,), (a2_0, a2_1), (a3_0, _, a3_2), (a4_0, _, a4_2, a4_3),
     (a5_0, _, _, a5_3, a5_4), (a6_0, _, _, a6_3, a6_4, a6_5),
     (a7_0, _, _, a7_3, a7_4, a7_5, a7_6), (a8_0, _, _, a8_3, a8_4, a8_5, a8_6, a8_7),
     (a9_0, _, _, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8),
     (a10_0, _, _, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
     (a11_0, _, _, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10)) = _A
    b0, _, _, _, _, b5, b6, b7, b8, b9, b10, b11 = _B
    e5_0, _, _, _, _, e5_5, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11, _ = _E5
    e3_0, _, _, _, _, e3_5, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11, _ = _E3
    accel = _accel

    def step(u: float, p: float, fp: float, h: float):
        """One step of length ``h`` from ``(u, p)`` with ``fp = u''`` there:
        the new ``(u, p, u'')``, the E5 and E3 error sums of ``u`` and ``p``
        (unscaled), and stages 5 to 11, the ones the dense output reads, as
        ``(u', u'')`` pairs."""
        ku1 = p + fp * a1_0 * h
        kp1 = accel(u + p * a1_0 * h)
        ku2 = p + (fp * a2_0 + kp1 * a2_1) * h
        kp2 = accel(u + (p * a2_0 + ku1 * a2_1) * h)
        ku3 = p + (fp * a3_0 + kp2 * a3_2) * h
        kp3 = accel(u + (p * a3_0 + ku2 * a3_2) * h)
        ku4 = p + (fp * a4_0 + kp2 * a4_2 + kp3 * a4_3) * h
        kp4 = accel(u + (p * a4_0 + ku2 * a4_2 + ku3 * a4_3) * h)
        ku5 = p + (fp * a5_0 + kp3 * a5_3 + kp4 * a5_4) * h
        kp5 = accel(u + (p * a5_0 + ku3 * a5_3 + ku4 * a5_4) * h)
        ku6 = p + (fp * a6_0 + kp3 * a6_3 + kp4 * a6_4 + kp5 * a6_5) * h
        kp6 = accel(u + (p * a6_0 + ku3 * a6_3 + ku4 * a6_4 + ku5 * a6_5) * h)
        ku7 = p + (fp * a7_0 + kp3 * a7_3 + kp4 * a7_4 + kp5 * a7_5 + kp6 * a7_6) * h
        kp7 = accel(u + (p * a7_0 + ku3 * a7_3 + ku4 * a7_4 + ku5 * a7_5 + ku6 * a7_6) * h)
        ku8 = p + (fp * a8_0 + kp3 * a8_3 + kp4 * a8_4 + kp5 * a8_5 + kp6 * a8_6
                   + kp7 * a8_7) * h
        kp8 = accel(u + (p * a8_0 + ku3 * a8_3 + ku4 * a8_4 + ku5 * a8_5 + ku6 * a8_6
                         + ku7 * a8_7) * h)
        ku9 = p + (fp * a9_0 + kp3 * a9_3 + kp4 * a9_4 + kp5 * a9_5 + kp6 * a9_6
                   + kp7 * a9_7 + kp8 * a9_8) * h
        kp9 = accel(u + (p * a9_0 + ku3 * a9_3 + ku4 * a9_4 + ku5 * a9_5 + ku6 * a9_6
                         + ku7 * a9_7 + ku8 * a9_8) * h)
        ku10 = p + (fp * a10_0 + kp3 * a10_3 + kp4 * a10_4 + kp5 * a10_5 + kp6 * a10_6
                    + kp7 * a10_7 + kp8 * a10_8 + kp9 * a10_9) * h
        kp10 = accel(u + (p * a10_0 + ku3 * a10_3 + ku4 * a10_4 + ku5 * a10_5 + ku6 * a10_6
                          + ku7 * a10_7 + ku8 * a10_8 + ku9 * a10_9) * h)
        ku11 = p + (fp * a11_0 + kp3 * a11_3 + kp4 * a11_4 + kp5 * a11_5 + kp6 * a11_6
                    + kp7 * a11_7 + kp8 * a11_8 + kp9 * a11_9 + kp10 * a11_10) * h
        kp11 = accel(u + (p * a11_0 + ku3 * a11_3 + ku4 * a11_4 + ku5 * a11_5 + ku6 * a11_6
                          + ku7 * a11_7 + ku8 * a11_8 + ku9 * a11_9 + ku10 * a11_10) * h)
        u_new = u + h * (p * b0 + ku5 * b5 + ku6 * b6 + ku7 * b7 + ku8 * b8 + ku9 * b9
                         + ku10 * b10 + ku11 * b11)
        p_new = p + h * (fp * b0 + kp5 * b5 + kp6 * b6 + kp7 * b7 + kp8 * b8 + kp9 * b9
                         + kp10 * b10 + kp11 * b11)
        errors = (
            p * e5_0 + ku5 * e5_5 + ku6 * e5_6 + ku7 * e5_7 + ku8 * e5_8 + ku9 * e5_9
            + ku10 * e5_10 + ku11 * e5_11,
            fp * e5_0 + kp5 * e5_5 + kp6 * e5_6 + kp7 * e5_7 + kp8 * e5_8 + kp9 * e5_9
            + kp10 * e5_10 + kp11 * e5_11,
            p * e3_0 + ku5 * e3_5 + ku6 * e3_6 + ku7 * e3_7 + ku8 * e3_8 + ku9 * e3_9
            + ku10 * e3_10 + ku11 * e3_11,
            fp * e3_0 + kp5 * e3_5 + kp6 * e3_6 + kp7 * e3_7 + kp8 * e3_8 + kp9 * e3_9
            + kp10 * e3_10 + kp11 * e3_11)
        return ((u_new, p_new, accel(u_new)), errors,
                (ku5, kp5, ku6, kp6, ku7, kp7, ku8, kp8, ku9, kp9, ku10, kp10, ku11, kp11))

    return step


_step = _make_step()


def _sum_terms(stages: list, row: tuple) -> np.ndarray:
    """The sum of ``stages[j] * row[j]`` over the nonzero entries of ``row``,
    taken left to right as in ``_make_step``, over arrays."""
    return functools.reduce(operator.add, (k * a for k, a in zip(stages, row) if a != 0.0))


def _interpolants(rows: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense output of the accepted steps, after the step loop.

    ``rows`` holds per step ``(h, u, p, fp, u_new, p_new, fp_new)`` and the
    stage pairs ``_step`` returns.  Stages are ``(u', u'')`` arrays over the
    steps; the three extra stages and the four ``D`` rows are summed one
    stage at a time with ``_sum_terms``, so each entry rounds exactly as
    the same sum over floats.  Returns the step lengths, the initial
    states ``(2, steps)`` and the seven coefficients ``(2, 7, steps)`` of
    each component."""
    columns = np.array(rows).T.copy()
    h, y_old, y_new = columns[0], columns[1:3], columns[4:6]
    # stage 0 is (p, fp), stage 12 (p_new, fp_new); stages 1-4 carry zero
    # weight in the extra stages and the D rows
    start, end = columns[2:4], columns[5:7]
    stages = [start, None, None, None, None, *columns[7:].reshape(7, 2, -1), end]
    for row in _A_EXTRA:
        sums = _sum_terms(stages, row)
        # math.log per entry, as in the step: numpy's log may round otherwise
        accel = [_accel(u) for u in (y_old[0] + sums[0] * h).tolist()]
        stages.append(np.array([y_old[1] + sums[1] * h, accel]))
    dy = y_new - y_old
    coefficients = [dy, h * start - dy, 2 * dy - h * (end + start),
                    *(h * _sum_terms(stages, row) for row in _D)]
    return h, y_old, np.stack(coefficients, axis=1)


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
    E5/E3 error norm and its step-size controller), with each step taken by
    ``_step``, written out on the literal tableau over the two floats
    ``(u, u')``.  The dense output's extra stages and coefficients follow
    the step loop, over all steps at once (see ``_interpolants``); the
    crossing and the unit value ``u(x*) = 1`` are then located on the
    interpolant of the step in which ``u`` falls to them."""
    if not m > SQRT_E:
        raise TimeMapError("shooting requires m > sqrt(e)")
    rtol, atol, step = SHOOT_RTOL, SHOOT_ATOL, _step
    t, u, p, fp = 0.0, m, 0.0, _accel(m)
    h_abs = _initial_step(m, fp)
    ts, rows, star = [t], [], None
    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise _no_crossing("Required step size is less than spacing between numbers.")
            t_new = min(t + h_abs, SHOOT_WINDOW)
            h = h_abs = t_new - t
            (u_new, p_new, fp_new), (e5u, e5p, e3u, e3p), stages = step(u, p, fp, h)
            su = atol + max(abs(u), abs(u_new)) * rtol
            sp = atol + max(abs(p), abs(p_new)) * rtol
            e5u, e5p, e3u, e3p = e5u / su, e5p / sp, e3u / su, e3p / sp
            e5, e3 = e5u * e5u + e5p * e5p, e3u * e3u + e3p * e3p
            error = 0.0 if e5 == 0.0 and e3 == 0.0 else h * e5 / math.sqrt((e5 + 0.01 * e3) * 2)
            if error < 1.0:
                factor = 10.0 if error == 0.0 else min(10.0, 0.9 * error**-0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error**-0.125)
            rejected = True
        rows.append((h, u, p, fp, u_new, p_new, fp_new, *stages))
        # u starts above 1 and stays above 0 until these events are found
        if star is None and u_new <= 1.0:
            star = (len(rows) - 1, t_new)
        if u_new <= 0.0:
            break
        if t_new == SHOOT_WINDOW:
            raise _no_crossing("The solver successfully reached the end of the integration "
                               "interval.")
        t, u, p, fp = t_new, u_new, p_new, fp_new
        ts.append(t)
    hs, y_old, coefficients = _interpolants(rows)

    def piece(k: int) -> tuple:
        # step k's interpolant in floats, as _interpolate takes it
        return (ts[k], *rows[k][:3], *coefficients[:, :, k].tolist())

    x_star = _level_crossing(piece(star[0]), star[1], 1.0)
    last = piece(len(rows) - 1)
    b = _level_crossing(last, t_new, 0.0)
    dense = _DenseOutput(np.array([*ts, b]), hs, y_old, coefficients)
    return _Shot(m, dense, b, _interpolate(last, b), x_star)


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
    sols = {} if solutions is None else solutions
    factors = []
    for axis, b in enumerate(bs):
        if b not in sols:
            sols[b] = solve_interval(b, n=n)
        factors.append(_on_axis(_profile_on_axis(sols[b], grid.axes[axis]), axis, grid.ndim))
    # one broadcast product, factors multiplied in axis order
    return ScalarField(grid, functools.reduce(operator.mul, factors))


def _on_axis(values: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """``values`` shaped to broadcast along ``axis`` of an ``ndim``-array."""
    return values.reshape([-1 if a == axis else 1 for a in range(ndim)])


# ---------------------------------------------------------------------------
# explicit entire profile


def gausson(ambient_dim: int, points) -> np.ndarray:
    """``e^(N/2) e^(-|x|^2/2)`` at coordinates of shape ``(..., N)``."""
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != ambient_dim:
        raise ValueError(f"points must have trailing dimension {ambient_dim}")
    # summed in axis order: the bits of np.sum(pts * pts, axis=-1) below 8 axes,
    # without its slow reduction over a short trailing axis
    r2 = pts[..., 0] * pts[..., 0]
    for axis in range(1, ambient_dim):
        r2 += pts[..., axis] * pts[..., axis]
    return math.exp(ambient_dim / 2.0) * np.exp(-r2 / 2.0)


def gausson_field(grid: Grid) -> ScalarField:
    """Gausson samples on the nodes of a grid (nonzero trace: the entire
    profile does not vanish on the box boundary, so validation is off)."""
    # a radial node at r is the point (r, 0, ..., 0)
    pts = np.zeros((*grid.shape, grid.ambient_dim))
    for axis, x in enumerate(grid.axes):
        pts[..., axis] = _on_axis(x, axis, grid.ndim)
    return ScalarField(grid, gausson(grid.ambient_dim, pts), validate=False)
