"""Small special-function kit: sphere surface measure and the chi-square CDF,
the latter through scipy's regularized lower incomplete gamma function."""
from __future__ import annotations

import math

from .errors import DomainError


def sphere_surface_measure(k: int) -> float:
    """Surface measure omega_k of the unit k-sphere: 2 pi^{(k+1)/2} / Gamma((k+1)/2)."""
    if k < 0:
        raise DomainError("sphere dimension must be nonnegative")
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def chi_square_cdf(df: int, x: float) -> float:
    """P(chi^2_df <= x); equals the Gaussian mass of the ball of radius sqrt(x)."""
    if df < 1:
        raise DomainError("degrees of freedom must be at least 1")
    if x <= 0.0:
        return 0.0
    from scipy.special import gammainc

    return float(gammainc(df / 2.0, x / 2.0))
