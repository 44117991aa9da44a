"""Gaussian noise stability of sets and partitions.

The noise stability of a region at correlation rho is P((X, Y) in Omega^2)
for a rho-correlated pair of standard Gaussian vectors; for a partition it
is the sum over cells. Stability is estimated by sampling pairs rather than
by evaluating the smoothing operator pointwise: one unbiased code path
covers sets and partitions in any dimension.

As rho -> 1 the normalized deficit

    sqrt(2*pi) / arccos(rho) * [gamma(Omega) - stability(rho)]

converges to the Gaussian surface area; ``perimeter_from_noise_limit``
evaluates it on a schedule and extrapolates linearly in sqrt(1 - rho^2).
For partitions the summed per-cell deficits are divided by 2 because each
interface is seen from both of its cells.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ContractViolationError,
    DomainError,
    PrecisionError,
    PreconditionError,
)
from .montecarlo import PAIR_SUBSTREAM, IntegrationConfig, mc_mean
from .partitions import cell_moments


@dataclass(frozen=True)
class NoiseStabilityReport:
    """Per-cell probabilities that a correlated pair stays in the same cell."""

    rho: float
    per_cell: np.ndarray
    per_cell_stderr: np.ndarray
    total: float
    total_stderr: float
    config: IntegrationConfig


def noise_stability_partition(partition, rho: float, cfg: IntegrationConfig) -> NoiseStabilityReport:
    """Noise stability of every cell and their total.

    A pair is grouped by the cell both points share, or left ungrouped when
    they differ. The total is the grouped reduction's sum over groups, the
    indicator that both points classify identically, accumulated per pair as
    its own observable: its standard error is a plain Bernoulli error rather
    than a quadrature sum over correlated cells.
    """
    if not -1.0 < rho < 1.0:
        raise DomainError(f"correlation must satisfy |rho| < 1, got {rho}")
    m = partition.m

    def values(x, y):
        cx = partition.classify_points(x)
        cy = partition.classify_points(y)
        return np.where(cx == cy, cx, m), None

    res = mc_mean(cfg, values, substream=PAIR_SUBSTREAM, pair_rho=rho, groups=m)
    return NoiseStabilityReport(
        rho=rho,
        per_cell=res.mean[:m],
        per_cell_stderr=res.stderr[:m],
        total=float(res.mean[m]),
        total_stderr=float(res.stderr[m]),
        config=cfg,
    )


def noise_stability_set(region, rho: float, cfg: IntegrationConfig) -> tuple[float, float]:
    """P((X, Y) in region^2) with its standard error."""
    if not -1.0 < rho < 1.0:
        raise DomainError(f"correlation must satisfy |rho| < 1, got {rho}")

    def values(x, y):
        return (region.contains(x) & region.contains(y)).astype(float)

    res = mc_mean(cfg, values, substream=PAIR_SUBSTREAM, pair_rho=rho)
    return float(res.mean[0]), float(res.stderr[0])


@dataclass(frozen=True)
class NoiseLimitReport:
    """Perimeter recovered from the small-noise limit of the stability deficit."""

    estimate: float
    stderr: float
    table: list  # rows (rho, sqrt(1-rho^2), deficit, normalized, normalized_stderr)
    slope: float


def perimeter_from_noise_limit(target, rho_schedule, cfg: IntegrationConfig) -> NoiseLimitReport:
    """Evaluate the normalized stability deficit on a rho schedule and
    extrapolate to rho = 1.

    ``target`` is either a partition (``classify_points``) or a region
    (``contains``). The deficit is estimated directly as the escape
    probability P(X in cell, Y elsewhere), never as a difference of two
    large Monte Carlo numbers, and every rho shares one sample stream so
    the extrapolation table is smooth.
    """
    rhos = [float(r) for r in rho_schedule]
    if len(rhos) < 3:
        raise ConfigError("the rho schedule needs at least 3 values")
    if any(not 0.0 < r < 1.0 for r in rhos) or any(a >= b for a, b in zip(rhos, rhos[1:])):
        raise ConfigError("the rho schedule must increase strictly inside (0, 1)")
    if rhos[-1] < 0.99:
        raise ConfigError("the largest rho must be at least 0.99")

    is_partition = hasattr(target, "classify_points")
    if not is_partition and not hasattr(target, "contains"):
        raise ContractViolationError("target must be a partition or a region")
    half = 0.5 if is_partition else 1.0  # each interface borders two cells

    table = []
    xs, ys, sigmas = [], [], []
    top_deficit, top_deficit_err = 0.0, 0.0
    for rho in rhos:
        if is_partition:
            def values(x, y):
                return (target.classify_points(x) != target.classify_points(y)).astype(float)
        else:
            def values(x, y):
                return (target.contains(x) & ~target.contains(y)).astype(float)

        res = mc_mean(cfg, values, substream=PAIR_SUBSTREAM, pair_rho=rho)
        deficit = float(res.mean[0])
        deficit_err = float(res.stderr[0])
        scale = half * math.sqrt(2.0 * math.pi) / math.acos(rho)
        s = math.sqrt(1.0 - rho * rho)
        table.append((rho, s, deficit, scale * deficit, scale * deficit_err))
        xs.append(s)
        ys.append(scale * deficit)
        sigmas.append(scale * deficit_err)
        top_deficit, top_deficit_err = deficit, deficit_err

    if top_deficit > 0 and top_deficit_err > 0.2 * top_deficit:
        raise PrecisionError(
            "Monte Carlo error exceeds 20% of the stability deficit at the "
            f"largest rho ({rhos[-1]}); increase sample_count"
        )

    x = np.array(xs)
    y = np.array(ys)
    sig = np.maximum(np.array(sigmas), 1e-15)
    w = 1.0 / sig**2
    sw, sx, sy = w.sum(), (w * x).sum(), (w * y).sum()
    sxx, sxy = (w * x * x).sum(), (w * x * y).sum()
    det = sw * sxx - sx * sx
    intercept = (sxx * sy - sx * sxy) / det
    slope = (sw * sxy - sx * sy) / det
    intercept_err = math.sqrt(max(sxx / det, 0.0))
    return NoiseLimitReport(
        estimate=float(intercept),
        stderr=float(intercept_err),
        table=table,
        slope=float(slope),
    )


@dataclass(frozen=True)
class NoiseCertificate:
    """Both sides of the small-noise stability comparison, modulo the
    remainder term that vanishes faster than sqrt(1 - rho^2).

    ``margin`` = (reference stability - penalty difference) - candidate
    stability; nonnegative margins are consistent with the reference being
    the more stable family.
    """

    rho: float
    epsilon: float
    lhs: float
    lhs_stderr: float
    rhs_core: float
    rhs_stderr: float
    margin: float
    margin_stderr: float
    moment_reference: float
    moment_candidate: float
    note: str = "modulo the o(sqrt(1-rho^2)) remainder"


def noise_stability_certificate(
    reference,
    candidate,
    rho: float,
    epsilon: float,
    w,
    cfg: IntegrationConfig,
    vol_tol: float = 3e-3,
    enforce_rho_range: bool = True,
) -> NoiseCertificate:
    """Compare candidate noise stability against the reference, penalized by
    the moment-functional gap at rate epsilon * sqrt(1-rho^2) * sqrt(pi/2).

    Preconditions: matching cell volumes within ``vol_tol`` (calibrate
    first) and, unless overridden for exploration, 1/2 < rho < 1.
    """
    if reference.m != candidate.m or reference.d != candidate.d:
        raise ContractViolationError("partitions must share m and d")
    if enforce_rho_range and not 0.5 < rho < 1.0:
        raise PreconditionError(
            f"the certificate is stated for 1/2 < rho < 1 (got rho={rho}); "
            "pass enforce_rho_range=False to explore outside that range"
        )
    if not -1.0 < rho < 1.0:
        raise DomainError(f"correlation must satisfy |rho| < 1, got {rho}")

    # The moment reports carry the volumes (exact for m <= 4, else of the
    # same stream), so they also settle the volume precondition.
    mom_ref = cell_moments(reference, w, cfg)
    mom_cand = cell_moments(candidate, w, cfg)
    gap = float(np.max(np.abs(mom_ref.volumes - mom_cand.volumes)))
    if gap > vol_tol:
        raise PreconditionError(
            f"cell volumes differ by {gap:.4f} > vol_tol={vol_tol}; calibrate first"
        )

    stab_ref = noise_stability_partition(reference, rho, cfg)
    stab_cand = noise_stability_partition(candidate, rho, cfg)

    rate = epsilon * math.sqrt(1.0 - rho * rho) * math.sqrt(math.pi / 2.0)
    rhs_core = stab_ref.total - rate * (mom_ref.moment_functional - mom_cand.moment_functional)
    rhs_err = math.sqrt(
        stab_ref.total_stderr**2
        + (rate * mom_ref.moment_functional_stderr) ** 2
        + (rate * mom_cand.moment_functional_stderr) ** 2
    )
    lhs = stab_cand.total
    margin = rhs_core - lhs
    margin_err = math.sqrt(rhs_err**2 + stab_cand.total_stderr**2)
    return NoiseCertificate(
        rho=rho,
        epsilon=epsilon,
        lhs=lhs,
        lhs_stderr=stab_cand.total_stderr,
        rhs_core=rhs_core,
        rhs_stderr=rhs_err,
        margin=margin,
        margin_stderr=margin_err,
        moment_reference=mom_ref.moment_functional,
        moment_candidate=mom_cand.moment_functional,
    )
