"""Small special-function kit: sphere surface measure and the regularized
lower incomplete gamma function (chi-square CDF).

The incomplete gamma uses the classic split: power series for x < a + 1,
Lentz continued fraction otherwise. scipy's implementation is used by the
test suite as an independent oracle.
"""
from __future__ import annotations

import math

from .errors import DomainError

_EPS = 1e-15
_TINY = 1e-300
_MAX_ITER = 500


def sphere_surface_measure(k: int) -> float:
    """Surface measure omega_k of the unit k-sphere: 2 pi^{(k+1)/2} / Gamma((k+1)/2)."""
    if k < 0:
        raise DomainError("sphere dimension must be nonnegative")
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def _gamma_p_series(a: float, x: float) -> float:
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b if b != 0.0 else 1.0 / _TINY
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def regularized_gamma_p(a: float, x: float) -> float:
    """P(a, x), the regularized lower incomplete gamma function."""
    if a <= 0.0:
        raise DomainError("shape parameter a must be positive")
    if x < 0.0:
        raise DomainError("argument x must be nonnegative")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_contfrac(a, x)


def chi_square_cdf(df: int, x: float) -> float:
    """P(chi^2_df <= x); equals the Gaussian mass of the ball of radius sqrt(x)."""
    if df < 1:
        raise DomainError("degrees of freedom must be at least 1")
    if x <= 0.0:
        return 0.0
    return regularized_gamma_p(df / 2.0, x / 2.0)
