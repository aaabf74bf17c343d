"""Reaction families and concavity transformations, one record each.

A reaction kind is a family and a sign (all continuous at 0 with ``f(0) = 0``):

========================  ======  ====  ===============  ================================
kind                      family  sign  f(t)             F(t) = integral of f from 0 to t
========================  ======  ====  ===============  ================================
lane_emden                power   +1    sigma (t^q - t)  sigma (t^(q+1)/(q+1) - t^2/2)
dispersive_lane_emden     power   -1    sigma (t - t^q)  -sigma (t^(q+1)/(q+1) - t^2/2)
log_schrodinger           log     +1    t log t^2        t^2 (log t^2 - 1) / 2
dispersive_log            log     -1    -t log t^2       -t^2 (log t^2 - 1) / 2
========================  ======  ====  ===============  ================================

A family record holds ``f``, ``f'``, ``F``, its parameters (``q > 1`` and
``sigma > 0`` for power, none for log) and whether ``f'`` diverges at 0 (log).
Each transformation kind has one record: value, exact first and second
derivatives, validity interval and orientation (sign of ``phi'``).
:func:`transformed_rhs` is the right-hand side ``b(w, z)`` of the equation for
``w = phi(u)`` when ``-Delta u = f(u)``; it takes ``t = psi(w)``, with
``psi = phi^-1``, directly, so no inverse is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Reaction",
    "Transform",
    "ReactionDomainError",
    "TransformDomainError",
    "lane_emden",
    "log_schrodinger",
    "dispersive_lane_emden",
    "dispersive_log",
    "f",
    "f_prime",
    "F",
    "validate_exponent",
    "power",
    "log_transform",
    "neg_log",
    "sqrt_log",
    "atanh_poly",
    "sqrt_one_minus_log",
    "transform_value",
    "transform_d1",
    "transform_d2",
    "transformed_rhs",
]


class ReactionDomainError(ValueError):
    pass


class TransformDomainError(ValueError):
    pass


def _label(kind: str, obj, params) -> str:
    """``kind(name=value, ...)`` over the parameters, or ``kind`` without any."""
    args = ", ".join(f"{name}={getattr(obj, name):g}" for name in params)
    return f"{kind}({args})" if args else kind


def _require(obj, params: dict) -> None:
    for name, (holds, message) in params.items():
        if not holds(getattr(obj, name)):
            raise ValueError(message)


# ---------------------------------------------------------------------------
# reactions


@dataclass(frozen=True)
class ReactionFamily:
    """Formulas of one reaction family.  ``f``, ``f_prime`` and ``F`` take
    ``(reaction, t, sign)`` with ``t`` a nonnegative 1-D array."""

    params: dict  # name -> (predicate it must satisfy, message if it does not)
    singular_at_zero: bool  # whether f' diverges at t = 0
    f: Callable
    f_prime: Callable
    F: Callable


@dataclass(frozen=True)
class ReactionKind:
    family: ReactionFamily
    sign: float

    @property
    def params(self) -> dict:
        return self.family.params


_TINY = float(np.finfo(float).tiny)


def log_square(t: np.ndarray) -> np.ndarray:
    """``log t^2`` for an array ``t > 0``: ``np.log(t * t)`` where ``t * t``
    is a normal number, and ``2 log t`` where it underflows (``t`` below
    about 1.5e-154), so that tiny ``t`` keep finite values."""
    tt = t * t
    if tt.min(initial=math.inf) >= _TINY:  # the common case, one reduction
        return np.log(tt)
    low = tt < _TINY
    out = np.log(np.where(low, 1.0, tt))
    out[low] = 2.0 * np.log(t[low])
    return out


def _on_positive(t, g):
    """``g(t)`` where ``t > 0``, and 0 elsewhere."""
    if t.min(initial=math.inf) > 0.0:  # the common case, one reduction
        return g(t)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = g(t[pos])
    return out


POWER = ReactionFamily(
    params={"q": (lambda q: q > 1, "exponent q must exceed 1"),
            "sigma": (lambda sigma: sigma > 0, "sigma must be positive")},
    singular_at_zero=False,
    # the mirror subtracts the other way round, so that f(0) is +0.0 for both signs
    f=lambda r, t, s: r.sigma * (t**r.q - t if s > 0 else t - t**r.q),
    f_prime=lambda r, t, s: s * (r.sigma * (r.q * t ** (r.q - 1.0) - 1.0)),
    F=lambda r, t, s: s * (r.sigma * (t ** (r.q + 1.0) / (r.q + 1.0) - t * t / 2.0)),
)
LOG = ReactionFamily(
    params={}, singular_at_zero=True,
    f=lambda r, t, s: s * _on_positive(t, lambda p: p * log_square(p)),
    f_prime=lambda r, t, s: s * (log_square(t) + 2.0),
    F=lambda r, t, s: s * _on_positive(t, lambda p: 0.5 * p * p * (log_square(p) - 1.0)),
)
REACTIONS = {
    "lane_emden": ReactionKind(POWER, 1.0),
    "log_schrodinger": ReactionKind(LOG, 1.0),
    "dispersive_lane_emden": ReactionKind(POWER, -1.0),
    "dispersive_log": ReactionKind(LOG, -1.0),
}


@dataclass(frozen=True)
class Reaction:
    kind: str
    q: float = float("nan")
    sigma: float = float("nan")

    def __post_init__(self):
        if self.kind not in REACTIONS:
            raise ValueError(f"unknown reaction kind {self.kind!r}")
        _require(self, self.family.params)

    @property
    def family(self) -> ReactionFamily:
        return REACTIONS[self.kind].family

    @property
    def sign(self) -> float:
        return REACTIONS[self.kind].sign

    @property
    def label(self) -> str:
        return _label(self.kind, self, self.family.params)


def lane_emden(q: float, sigma: float) -> Reaction:
    return Reaction("lane_emden", q=float(q), sigma=float(sigma))


def log_schrodinger() -> Reaction:
    return Reaction("log_schrodinger")


def dispersive_lane_emden(q: float, sigma: float) -> Reaction:
    return Reaction("dispersive_lane_emden", q=float(q), sigma=float(sigma))


def dispersive_log() -> Reaction:
    return Reaction("dispersive_log")


def validate_exponent(reaction: Reaction, ambient_dim: int) -> None:
    """Check ``1 < q < 2* - 1`` against the ambient dimension (``2* - 1``
    is ``(N+2)/(N-2)`` for N >= 3, infinite otherwise)."""
    if reaction.family is not POWER or ambient_dim < 3:
        return
    q_max = (ambient_dim + 2.0) / (ambient_dim - 2.0)
    if not reaction.q < q_max:
        raise ReactionDomainError(
            f"q={reaction.q} is supercritical in dimension {ambient_dim} "
            f"(requires q < {q_max})"
        )


def require_nonnegative(t: np.ndarray) -> None:
    """Raise ``ReactionDomainError`` if an entry of ``t`` is negative; NaN passes."""
    if np.any(t < 0):
        raise ReactionDomainError("reaction argument must be nonnegative")


def _apply(formula, reaction: Reaction, t, defined_at_zero: bool = True):
    """``formula`` of the reaction's family at ``t >= 0``: a float for a scalar."""
    t = np.asarray(t, dtype=float)
    require_nonnegative(t)
    if not defined_at_zero and np.any(t == 0):
        raise ReactionDomainError("f' of the logarithmic reaction is undefined at 0")
    out = formula(reaction, np.atleast_1d(t), reaction.sign)
    return float(out[0]) if t.ndim == 0 else out


def f(reaction: Reaction, t):
    """Reaction value; vectorized, continuous extension ``f(0) = 0``."""
    return _apply(reaction.family.f, reaction, t)


def f_prime(reaction: Reaction, t):
    """Derivative of the reaction; the logarithmic families diverge at 0."""
    family = reaction.family
    return _apply(family.f_prime, reaction, t, not family.singular_at_zero)


def F(reaction: Reaction, t):
    """Antiderivative of ``f`` vanishing at 0, in closed form."""
    return _apply(reaction.family.F, reaction, t)


# ---------------------------------------------------------------------------
# transformations


@dataclass(frozen=True)
class TransformKind:
    """Formulas of one transformation kind at sign +1: ``value``, ``d1`` and ``d2``
    take ``(transform, t)`` with ``t`` a 1-D array in the validity interval,
    ``validity`` and ``increasing`` the transform."""

    params: dict  # as in ReactionFamily
    value: Callable
    d1: Callable
    d2: Callable
    validity: Callable
    increasing: Callable


def _ell(tr, t):
    return -np.log(t / tr.m)


def _atanh_g(tr, t):
    return np.sqrt(np.maximum(1.0 - 2.0 / (tr.q + 1.0) * t ** (tr.q - 1.0), 0.0))


def _s1ml(t):
    return np.sqrt(np.maximum(1.0 - log_square(t), 0.0))


TRANSFORMS = {
    "power": TransformKind(
        {"alpha": (lambda alpha: alpha != 0.0 and math.isfinite(alpha),
                   "power exponent must be finite and nonzero")},
        value=lambda tr, t: t**tr.alpha,
        d1=lambda tr, t: tr.alpha * t ** (tr.alpha - 1.0),
        d2=lambda tr, t: tr.alpha * (tr.alpha - 1.0) * t ** (tr.alpha - 2.0),
        validity=lambda tr: (0.0, math.inf), increasing=lambda tr: tr.alpha > 0,
    ),
    "log": TransformKind(
        {},
        value=lambda tr, t: np.log(t),
        d1=lambda tr, t: 1.0 / t,
        d2=lambda tr, t: -1.0 / (t * t),
        validity=lambda tr: (0.0, math.inf), increasing=lambda tr: True,
    ),
    "sqrt_log": TransformKind(
        {"m": (lambda m: m > 0, "sqrt_log scale m must be positive")},
        value=lambda tr, t: -np.sqrt(np.maximum(_ell(tr, t), 0.0)),
        d1=lambda tr, t: 1.0 / (2.0 * t * np.sqrt(_ell(tr, t))),
        d2=lambda tr, t: (0.5 / _ell(tr, t) - 1.0) / (2.0 * t * t * np.sqrt(_ell(tr, t))),
        validity=lambda tr: (0.0, tr.m), increasing=lambda tr: True,
    ),
    "atanh_poly": TransformKind(
        {"q": (lambda q: q > 1, "atanh_poly exponent q must exceed 1")},
        value=lambda tr, t: np.arctanh(_atanh_g(tr, t)),
        d1=lambda tr, t: -(tr.q - 1.0) / (2.0 * t * _atanh_g(tr, t)),
        d2=lambda tr, t: (tr.q - 1.0) * (1.0 - t ** (tr.q - 1.0))
        / (2.0 * t * t * _atanh_g(tr, t) ** 3),
        validity=lambda tr: (0.0, ((tr.q + 1.0) / 2.0) ** (1.0 / (tr.q - 1.0))),
        increasing=lambda tr: False,
    ),
    "sqrt_one_minus_log": TransformKind(
        {},
        value=lambda tr, t: _s1ml(t),
        d1=lambda tr, t: -1.0 / (t * _s1ml(t)),
        d2=lambda tr, t: -log_square(t) / (t * t * _s1ml(t) ** 3),
        # convex only below t = 1, which is where it is used
        validity=lambda tr: (0.0, 1.0), increasing=lambda tr: False,
    ),
}


@dataclass(frozen=True)
class Transform:
    """Concavity transformation with closed-form derivatives.

    ``validity`` is the closed interval on which values may be requested;
    derivatives at an endpoint may be infinite (e.g. ``sqrt_log`` at
    ``t = m``).  ``sign`` implements negation: ``negate()`` flips it
    together with the orientation.
    """

    kind: str
    alpha: float = float("nan")
    m: float = float("nan")
    q: float = float("nan")
    sign: float = 1.0

    def __post_init__(self):
        if self.kind not in TRANSFORMS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        _require(self, self.record.params)

    @property
    def record(self) -> TransformKind:
        return TRANSFORMS[self.kind]

    @property
    def validity(self) -> tuple[float, float]:
        return self.record.validity(self)

    @property
    def increasing(self) -> bool:
        return self.record.increasing(self) == (self.sign > 0)

    @property
    def label(self) -> str:
        base = _label(self.kind, self, self.record.params)
        return base if self.sign > 0 else f"neg[{base}]"

    def negate(self) -> "Transform":
        return Transform(self.kind, alpha=self.alpha, m=self.m, q=self.q, sign=-self.sign)


def power(alpha: float) -> Transform:
    return Transform("power", alpha=float(alpha))


def log_transform() -> Transform:
    return Transform("log")


def neg_log() -> Transform:
    return Transform("log", sign=-1.0)


def sqrt_log(m: float) -> Transform:
    return Transform("sqrt_log", m=float(m))


def atanh_poly(q: float) -> Transform:
    return Transform("atanh_poly", q=float(q))


def sqrt_one_minus_log() -> Transform:
    return Transform("sqrt_one_minus_log")


def _check_validity(transform: Transform, t: np.ndarray) -> None:
    lo, hi = transform.validity
    if np.any(t <= lo) or np.any(t > hi):
        raise TransformDomainError(
            f"argument outside validity interval ({lo:g}, {hi:g}] of {transform.label}"
        )


def _eval(transform: Transform, t, formula):
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    _check_validity(transform, t)
    out = transform.sign * formula(transform, t)
    return float(out[0]) if scalar else out


def transform_value(transform: Transform, t):
    return _eval(transform, t, transform.record.value)


def transform_d1(transform: Transform, t):
    with np.errstate(divide="ignore"):
        return _eval(transform, t, transform.record.d1)


def transform_d2(transform: Transform, t):
    with np.errstate(divide="ignore"):
        return _eval(transform, t, transform.record.d2)


def transformed_rhs(reaction: Reaction, transform: Transform, t, grad_norm_sq):
    """Right-hand side ``b(w, z)`` of ``Delta w = b(w, Dw)`` for ``w = phi(u)``.

    Expressed through the forward derivatives at ``t = psi(w)``:
    ``b = phi''(t)/phi'(t)^2 |z|^2 - phi'(t) f(t)``.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    z2 = np.broadcast_to(np.asarray(grad_norm_sq, dtype=float), t_arr.shape)
    if np.any(z2 < 0):
        raise ValueError("grad_norm_sq must be nonnegative")
    d1 = np.atleast_1d(transform_d1(transform, t_arr))
    if np.any(~np.isfinite(d1)) or np.any(d1 == 0.0):
        raise TransformDomainError(
            f"psi' undefined: phi' of {transform.label} is zero or infinite here"
        )
    d2 = np.atleast_1d(transform_d2(transform, t_arr))
    fv = np.atleast_1d(f(reaction, t_arr))
    out = d2 / d1**2 * z2 - d1 * fv
    return float(out[0]) if scalar else out
