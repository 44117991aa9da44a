"""Gaussian surface area by independent estimators.

For affine partitions the boundary between cells i and j is a flat piece of
hyperplane, so its Gaussian mass factorizes exactly: gamma_1(b) (the density
of the hyperplane offset) times the (d-1)-dimensional standard Gaussian
measure, within the hyperplane, of the set where i and j are the joint
argmax. The in-plane measure is evaluated in closed form whenever at most
two other cells constrain a facet (every facet when m <= 4, in any d): it
is then 1, a normal CDF, or a bivariate normal CDF through Owen's T
function, and ``exact`` evaluates all such facets of a partition together.
In d=2 the region is an interval of a 1-D Gaussian for any m: once
constraints with the same direction are merged, one bounds it on each side,
and the bivariate CDF at correlation -1 (up to rounding) gives the
interval's mass. Beyond that the in-plane measure is sampled by Monte
Carlo. For m <= 4 these exact facet masses also give the exact moment
vectors of ``exact.moments``, through the divergence identity.
The second estimator uses the outer epsilon-collar definition of surface
area and extrapolates the collar mass to epsilon -> 0; for affine cells and
round cylinders the collar test uses exact distances. Round cylinders also
get closed forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegeneratePairError,
    DomainError,
    PreconditionError,
)
from .montecarlo import (
    COLLAR_SUBSTREAM,
    FACET_SUBSTREAM,
    IntegrationConfig,
    gaussian_density,
    mc_mean,
)
from . import exact
from .exact import _JOINT_ARGMAX_TOL
from .partitions import (
    _FEASIBLE_TOL,
    AffinePartition,
    PartitionCell,
    RoundCylinder,
    _relaxed_limit,
    _tournament,
)
from .special import chi_square_cdf, sphere_surface_measure

# Bound, relative to the scale of the scores, on the rounding difference
# between a score gap s_l - s_i and the slack PartitionCell.distance computes
# for the same constraint: far above the few ulps each of them carries.
_SCORE_ROUNDING = 1e-12


@dataclass(frozen=True, eq=False)
class InterfaceFacet:
    """Flat interface piece between cells i < j of an affine partition.

    ``normal`` is the unit normal pointing from cell i into cell j (the
    direction along which the advantage of functional j grows), and points
    x of the hyperplane satisfy <x, normal> = offset.
    """

    i: int
    j: int
    normal: np.ndarray
    offset: float
    ordinal: int

    def on_hyperplane(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        pts = np.atleast_2d(points)
        return np.abs(pts @ self.normal - self.offset) <= tol


def interface_facets(partition: AffinePartition) -> list[InterfaceFacet]:
    """All candidate facets (i, j), i < j, with distinct directions.

    Pairs with equal directions but different offsets are parallel and have
    an empty interface: they are skipped (mass 0). Pairs with identical
    functionals are a degenerate construction and raise.
    """
    facets = []
    ordinal = 0
    z, c = partition.directions, partition.offsets
    for i in range(partition.m):
        for j in range(i + 1, partition.m):
            gap = z[j] - z[i]
            norm = np.linalg.norm(gap)
            if norm == 0.0:
                if c[i] == c[j]:
                    raise DegeneratePairError(
                        f"cells {i} and {j} carry identical affine functionals"
                    )
                ordinal += 1
                continue
            normal = gap / norm
            offset = float((c[i] - c[j]) / norm)
            facets.append(
                InterfaceFacet(i=i, j=j, normal=normal, offset=offset, ordinal=ordinal)
            )
            ordinal += 1
    return facets


def _hyperplane_basis(normal: np.ndarray) -> np.ndarray:
    """Orthonormal basis (d, d-1) of the hyperplane orthogonal to ``normal``."""
    from scipy.linalg import null_space

    return null_space(normal[None, :])


def _sampled_mass(
    partition: AffinePartition,
    facet: InterfaceFacet,
    cfg: IntegrationConfig,
    extra_mask=None,
) -> tuple[float, float]:
    """(mass, stderr) of one facet with its in-plane fraction sampled.

    The fraction is estimated by sampling d-1 standard Gaussian coordinates
    in an orthonormal basis of the hyperplane and testing joint-argmax
    membership within the tie tolerance; ``extra_mask`` may further
    restrict the region (e.g. a radial cut), acting on ambient points.
    """
    anchor = facet.offset * facet.normal
    basis = _hyperplane_basis(facet.normal)
    plane_cfg = IntegrationConfig(
        sample_count=cfg.sample_count,
        seed=cfg.seed,
        dimension=partition.d - 1,
        chunk_size=cfg.chunk_size,
        antithetic=cfg.antithetic,
    )

    def values(xi):
        pts = anchor[None, :] + xi @ basis.T
        member = _joint_argmax_mask(partition, facet, pts)
        if extra_mask is not None:
            member &= extra_mask(pts)
        return member.astype(float)

    res = mc_mean(plane_cfg, values, substream=FACET_SUBSTREAM + facet.ordinal)
    density = gaussian_density([facet.offset], 1)
    return density * float(res.mean[0]), density * float(res.stderr[0])


def _joint_argmax_mask(partition, facet, points) -> np.ndarray:
    """Rows where cells i and j tie for the largest score within
    ``_JOINT_ARGMAX_TOL``, from the cell-major scores."""
    others = [k for k in range(partition.m) if k not in (facet.i, facet.j)]
    if not others:
        return np.ones(points.shape[0], dtype=bool)
    scores = partition._cell_scores(points)
    pair_score = np.minimum(scores[facet.i], scores[facet.j])
    return pair_score >= scores[others].max(axis=0) - _JOINT_ARGMAX_TOL


def facet_mass(
    partition: AffinePartition,
    facet: InterfaceFacet,
    cfg: IntegrationConfig,
    extra_mask=None,
) -> tuple[float, float]:
    """(Gaussian mass, stderr) of one facet: gamma_1(offset) times the
    in-plane fraction of its joint-argmax region.

    Whenever at most two distinct conditions "cells i and j beat cell k"
    vary on the plane (every facet when m <= 4 in any d, and every facet in
    d = 2) the fraction is closed-form (``exact``) and the stderr 0.
    ``extra_mask`` forces sampling (``_sampled_mass``), except in d = 1,
    where the hyperplane is the single point offset * normal.
    """
    if extra_mask is None or partition.d == 1:
        geometry = exact._geometry(partition.directions)
        mass = geometry.facet_masses(partition.offsets)[(facet.i, facet.j)]
        if mass is not None:
            if extra_mask is not None:
                mass *= float(extra_mask((facet.offset * facet.normal)[None, :])[0])
            return mass, 0.0
    return _sampled_mass(partition, facet, cfg, extra_mask)


@dataclass(frozen=True)
class PerimeterReport:
    """Pairwise interface masses and the total Gaussian perimeter."""

    masses: dict
    total: float
    total_stderr: float
    method: str

    def rows(self):
        """(i, j, mass, stderr, method) per pair, sorted."""
        for (i, j) in sorted(self.masses):
            mass, err = self.masses[(i, j)]
            yield i, j, mass, err, self.method


def facet_perimeter(partition: AffinePartition, cfg: IntegrationConfig) -> PerimeterReport:
    """Total Gaussian surface area of an affine partition, facet by facet.

    Facets with a closed-form in-plane fraction (every facet when m <= 4)
    are evaluated together (``exact``) and carry stderr 0. Every other facet
    is sampled on its own deterministic substream, so facet masses are
    independent and the total standard error combines in quadrature.
    """
    closed = exact._geometry(partition.directions).facet_masses(partition.offsets)
    sampled = {}
    if any(mass is None for mass in closed.values()):
        sampled = {(f.i, f.j): f for f in interface_facets(partition)}
    masses = {}
    total = 0.0
    var = 0.0
    for pair, mass in closed.items():
        err = 0.0
        if mass is None:
            mass, err = _sampled_mass(partition, sampled[pair], cfg)
        masses[pair] = (mass, err)
        total += mass
        var += err * err
    return PerimeterReport(
        masses=masses, total=total, total_stderr=math.sqrt(var), method="facet"
    )


@dataclass(frozen=True)
class MinkowskiReport:
    """Collar-based surface area estimate with its extrapolation table."""

    estimate: float
    stderr: float
    table: list  # (epsilon, value, stderr) rows
    slope: float
    method: str = "minkowski"


def minkowski_perimeter(
    region, eps_schedule, cfg: IntegrationConfig, substream: int = COLLAR_SUBSTREAM
) -> MinkowskiReport:
    """Surface area from the outer collar: (1/eps) * gamma({x not in region,
    dist(x, region) < eps}), extrapolated to eps -> 0.

    ``region`` needs ``contains`` and a ``distance(points, limit=...)``
    oracle that is exact wherever the distance is below ``limit`` (both are
    provided by PartitionCell and RoundCylinder). The integrand passes the
    largest epsilon as ``limit``, so only rows within that distance of the
    region are projected exactly; the rest cannot land in any collar. All
    epsilon values share one sample stream, so the table is smooth in
    epsilon; the bias of the collar is first order in epsilon. The estimate
    is the intercept of a line through the collar values against epsilon
    with fixed weights (``_collar_coefficients``), formed per row in a last
    column, so its standard error includes the covariance between the
    epsilon values that read the same samples.
    """
    eps = _check_schedule(eps_schedule)
    if not hasattr(region, "contains") or not hasattr(region, "distance"):
        raise ConfigError("region must provide contains() and distance()")

    eps_arr = np.array(eps)
    k = len(eps)
    intercept, slope = _collar_coefficients(eps_arr)

    def values(x):
        outside = ~region.contains(x)
        dist = region.distance(x, limit=eps[0])
        collar = outside[:, None] & (dist[:, None] < eps_arr[None, :])
        collar = collar.astype(float) / eps_arr[None, :]
        fit = np.zeros(x.shape[0])
        for j in range(k):
            fit += intercept[j] * collar[:, j]
        return np.column_stack([collar, fit])

    res = mc_mean(cfg, values, substream=substream)
    table = [(eps[j], float(res.mean[j]), float(res.stderr[j])) for j in range(k)]
    return MinkowskiReport(
        estimate=float(res.mean[k]),
        stderr=float(res.stderr[k]),
        table=table,
        slope=float(slope @ res.mean[:k]),
    )


def _check_schedule(eps_schedule) -> list[float]:
    eps = [float(e) for e in eps_schedule]
    if len(eps) < 3:
        raise ConfigError("the epsilon schedule needs at least 3 values")
    if any(e <= 0 for e in eps) or any(a <= b for a, b in zip(eps, eps[1:])):
        raise ConfigError("the epsilon schedule must be strictly decreasing and positive")
    return eps


def minkowski_partition_perimeter(
    partition: AffinePartition, eps_schedule, cfg: IntegrationConfig
) -> MinkowskiReport:
    """Collar estimate of the total partition perimeter.

    Every cell's collar is measured on one sample stream
    (``_partition_collar_integrand``). The table keeps a row per (cell,
    epsilon). The total is the intercept of a line through the per-row sum
    of the cell collars against epsilon, halved because each interface is
    the boundary of exactly two cells. The line has fixed weights
    (``_collar_coefficients``), so its intercept is formed per row; its
    standard error then includes the correlation between cells and between
    epsilon values that share the stream.
    """
    eps = _check_schedule(eps_schedule)
    eps_arr = np.array(eps)
    m, k = partition.m, len(eps)
    values = _partition_collar_integrand(partition, eps_arr)
    res = mc_mean(cfg, values, substream=COLLAR_SUBSTREAM)
    mean = res.mean[:-1].reshape(m, k)
    err = res.stderr[:-1].reshape(m, k)
    table = [
        (i, eps[j], float(mean[i, j]), float(err[i, j])) for i in range(m) for j in range(k)
    ]
    _, slope = _collar_coefficients(eps_arr)
    return MinkowskiReport(
        estimate=0.5 * float(res.mean[-1]),
        stderr=0.5 * float(res.stderr[-1]),
        table=table,
        slope=0.5 * float(slope @ mean.sum(axis=0)),
    )


def _collar_coefficients(eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) such that a @ y and b @ y are the intercept and the slope of
    the least-squares line through collar values y against epsilon, with
    weights proportional to epsilon: a collar's variance scales as 1/eps."""
    w = eps
    sw, sx, sxx = w.sum(), (w * eps).sum(), (w * eps * eps).sum()
    det = sw * sxx - sx * sx
    return w * (sxx - sx * eps) / det, w * (sw * eps - sx) / det


def _partition_collar_integrand(partition: AffinePartition, eps: np.ndarray):
    """Row-wise collar values of every cell, then the fitted intercept of
    their sum over the cells: m * k + 1 columns.

    A row in cell l lies outside every other cell i and breaks its
    constraint s_i >= s_l by the score gap s_l - s_i, so its distance to
    cell i is at least (s_l - s_i) / |z_i - z_l|. The rows are filtered on
    that bound, relaxed as ``PartitionCell.distance`` relaxes its own (by
    ``_FEASIBLE_TOL`` and ``_relaxed_limit``) and by ``_SCORE_ROUNDING``:
    only rows it cannot place beyond the widest collar, eps[0], get an exact
    distance, and only rows inside that collar are written. Every other row
    reads exact zeros, as it would had every distance been computed. The
    last column is sum_j a_j * total_j, added over the epsilons in order,
    with total_j the row's collars at eps_j summed over the cells in order
    and a the intercept coefficients of ``_collar_coefficients``.
    """
    m, k = partition.m, eps.size
    cells = [PartitionCell(partition, i) for i in range(m)]
    z, c = partition.directions, partition.offsets
    limit = float(eps[0])
    intercept, _ = _collar_coefficients(eps)
    # reach[l, i]: the largest gap s_l - s_i at which a row of cell l can be
    # within limit of cell i. Equal directions drop the constraint, so those
    # rows are always kept; a row is never outside its own cell.
    norms = np.linalg.norm(z[None, :, :] - z[:, None, :], axis=2)
    reach = np.where(norms > 0.0, _relaxed_limit(limit) * norms + _FEASIBLE_TOL, np.inf)
    np.fill_diagonal(reach, -np.inf)
    # |<x, z_j>| + |c_j| <= max|x| * z_scale + c_max, the scale of the rounding.
    z_scale, c_max = partition.d * float(np.abs(z).max()), float(np.abs(c).max())

    def values(x):
        n = x.shape[0]
        # Cell-major, as classify_points labels: gaps[i] is s_l - s_i,
        # formed over the scores, which are not needed after it.
        scores = partition._cell_scores(x)
        best, label = _tournament(scores)
        gaps = np.subtract(best, scores, out=scores)
        allowance = _SCORE_ROUNDING * (1.0 + float(np.abs(x).max()) * z_scale + c_max)
        bound = (reach + allowance).T  # bound[i, l]: the largest gap kept, cell i, label l
        out = np.zeros((n, m * k + 1))
        cell_out = out[:, :-1].reshape(n, m, k)
        total = np.zeros((n, k))
        written = []
        for i, cell in enumerate(cells):
            rows = np.flatnonzero(gaps[i] < bound[i].take(label))
            dist = cell.distance(x[rows], limit=limit)
            near = dist < limit
            rows = rows[near]
            collar = (dist[near, None] < eps[None, :]) / eps[None, :]
            cell_out[rows, i] = collar
            # Cell by cell, in order; the rows left out would add 0.
            total[rows] += collar
            written.append(rows)
        # The fitted intercept of every row with a nonzero total; the others
        # would read 0 as well.
        rows = np.concatenate(written)
        summed = total[rows]
        fit = np.zeros(rows.size)
        for j in range(k):
            fit += intercept[j] * summed[:, j]
        out[rows, -1] = fit
        return out

    return values


def cylinder_closed_forms(cylinder: RoundCylinder) -> tuple[float, float]:
    """(perimeter, volume) of a round cylinder, in closed form.

    The boundary r S^k x R^{n-k} has Gaussian surface area
    omega_k r^k (2 pi)^{-(k+1)/2} exp(-r^2/2), independent of the ambient
    dimension; the inside volume is the chi-square CDF P(chi^2_{k+1} <= r^2).
    """
    k, r = cylinder.k, cylinder.r
    perimeter = (
        sphere_surface_measure(k)
        * r**k
        * (2.0 * math.pi) ** (-(k + 1) / 2.0)
        * math.exp(-0.5 * r * r)
    )
    inside = chi_square_cdf(k + 1, r * r)
    volume = inside if cylinder.orientation == "inside" else 1.0 - inside
    return perimeter, volume


def _solve_cylinder_radius(k: int, orientation: str, a: float) -> float | None:
    """Radius with cylinder volume a, by bisection on the monotone CDF."""
    target = a if orientation == "inside" else 1.0 - a

    def cdf(r: float) -> float:
        return chi_square_cdf(k + 1, r * r)

    lo, hi = 0.0, 1.0
    grow = 0
    while cdf(hi) < target:
        hi *= 2.0
        grow += 1
        if grow > 60:
            return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ScanRow:
    k: int
    orientation: str
    r: float
    perimeter: float
    feasible: bool


@dataclass(frozen=True)
class SymmetricScanResult:
    rows: list
    best: ScanRow


def symmetric_scan(a: float, k_max: int, orientation: str = "inside") -> SymmetricScanResult:
    """Scan round-cylinder candidates of volume a over k = 0..k_max.

    For each k (and each requested orientation) the volume equation is
    solved for r by bisection and the closed-form perimeter evaluated. The
    minimizing row breaks ties toward smaller k.
    """
    if not 0.0 < a < 1.0:
        raise DomainError("volume a must lie strictly between 0 and 1")
    if k_max < 0:
        raise DomainError("k_max must be nonnegative")
    if orientation not in ("inside", "outside", "both"):
        raise DomainError("orientation must be 'inside', 'outside' or 'both'")
    orients = ["inside", "outside"] if orientation == "both" else [orientation]

    rows = []
    for k in range(k_max + 1):
        for orient in orients:
            r = _solve_cylinder_radius(k, orient, a)
            if r is None:
                rows.append(ScanRow(k=k, orientation=orient, r=math.nan, perimeter=math.inf, feasible=False))
                continue
            perim, _ = cylinder_closed_forms(RoundCylinder(k=k, r=r, ambient=k + 1, orientation=orient))
            rows.append(ScanRow(k=k, orientation=orient, r=r, perimeter=perim, feasible=True))
    feasible = [row for row in rows if row.feasible]
    if not feasible:
        raise DomainError(f"no cylinder of any k <= {k_max} achieves volume {a}")
    best = min(feasible, key=lambda row: (row.perimeter, row.k))
    return SymmetricScanResult(rows=rows, best=best)


@dataclass(frozen=True)
class TailReport:
    """Facet mass beyond radius r around w, against the spherical-cut bound."""

    tail_mass: float
    stderr: float
    bound: float
    bound_alt: float
    passed: bool
    margin: float
    margin_alt: float


def tail_perimeter_check(
    partition: AffinePartition, r: float, w, cfg: IntegrationConfig
) -> TailReport:
    """Check the surface-area decay bound outside the ball |x - w| > r.

    The bound is 3m * gamma_{d-1}({|x| = r}); the alternative 2m variant is
    reported alongside (see the notes in the repository ledger). Requires
    r > sqrt(d) + |w|.
    """
    d = partition.d
    w = np.zeros(d) if w is None else np.asarray(w, dtype=float).reshape(-1)
    w_norm = float(np.linalg.norm(w))
    if not r > math.sqrt(d) + w_norm:
        raise PreconditionError(
            f"radial cut r={r} must exceed sqrt(d) + |w| = {math.sqrt(d) + w_norm:.6f}"
        )

    def radial_mask(points):
        return np.linalg.norm(points - w[None, :], axis=1) > r

    tail = 0.0
    var = 0.0
    for facet in interface_facets(partition):
        mass, err = facet_mass(partition, facet, cfg, extra_mask=radial_mask)
        tail += mass
        var += err * err
    stderr = math.sqrt(var)

    sphere_mass = (
        sphere_surface_measure(d - 1)
        * r ** (d - 1)
        * (2.0 * math.pi) ** (-d / 2.0)
        * math.exp(-0.5 * r * r)
    )
    bound = 3.0 * partition.m * sphere_mass
    bound_alt = 2.0 * partition.m * sphere_mass
    return TailReport(
        tail_mass=tail,
        stderr=stderr,
        bound=bound,
        bound_alt=bound_alt,
        passed=tail <= bound + 3.0 * stderr,
        margin=bound - tail,
        margin_alt=bound_alt - tail,
    )
