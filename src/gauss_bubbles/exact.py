"""Exact Gaussian volumes and moment vectors of affine partitions with m <= 4.

Cell i of an affine partition is the polyhedron

    {x : <u_k, x> <= h_k for every k != i},
    u_k = (z_k - z_i) / |z_k - z_i|,  h_k = (c_i - c_k) / |z_k - z_i|,

so its standard Gaussian volume is the probability that at most m - 1
correlated standard normals <u_k, X> lie below their limits h_k, with
correlations <u_k, u_l>. With 0, 1, 2 or 3 distinct constraints that is 1,
the normal CDF Phi, the bivariate CDF Phi_2 (Owen's T function) or the
trivariate CDF Phi_3, evaluated as a one-dimensional integral of Phi_2 after
conditioning on one variable (R. L. Plackett, Biometrika 41, 1954; A. Genz,
Stat. Comput. 14, 2004) by adaptive 21-point Gauss-Kronrod quadrature
(R. Piessens et al., QUADPACK, 1983) that evaluates Phi_2 on whole arrays.
Moment vectors follow from the divergence identity
integral_{A_i} x dgamma = -sum_j n_{i->j} mass_ij over the facet masses of
``perimeter.facet_perimeter``, which are closed-form whenever m <= 4.

Every value carries an error bound where Monte Carlo carries a standard
error: 0 for Phi and Phi_2, and the quadrature's absolute error estimate
for Phi_3.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, owens_t

from .errors import ContractViolationError, DegenerateCellError, UnsupportedGeometryError
from .montecarlo import IntegrationConfig, MomentReport

#: Largest cell count the exact evaluators cover.
MAX_EXACT_CELLS = 4

# Unit constraint directions closer than this (or this close to antipodal)
# are treated as equal (opposite): their correlation is +-1 up to rounding.
_SAME_DIRECTION_TOL = 1e-12
# A partial correlation within this of +-1 is taken as +-1: Phi_2 then differs
# from its kinked limit only on a band of width ~1e-7, so by less than 1e-14.
_KINK_TOL = 1e-14
# Tolerances of the Phi_3 quadrature; conditioning on different variables
# agrees to about 1e-16 at these settings. The conditioning variable is
# integrated over [-10, 10] at most: the normal mass outside is below 1e-23.
# The quadrature starts from ``_QUAD_PANELS`` panels and splits at most
# ``_QUAD_MAX_SPLITS`` of them per round, for at most ``_QUAD_ROUNDS`` rounds.
_QUAD_EPSABS = 1e-15
_QUAD_EPSREL = 1e-13
_QUAD_RANGE = 10.0
_QUAD_PANELS = 4
_QUAD_MAX_SPLITS = 64
_QUAD_ROUNDS = 60
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# 21-point Kronrod nodes on [-1, 1] and their weights, and the weights of the
# embedded 10-point Gauss rule (zero at the Kronrod-only nodes), as in
# QUADPACK's dqk21.
_KRONROD_HALF = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_KRONROD_HALF_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
])
_GAUSS_HALF_WEIGHTS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_KRONROD_NODES = np.concatenate([-_KRONROD_HALF, [0.0], _KRONROD_HALF[::-1]])
_KRONROD_WEIGHTS = np.concatenate(
    [_KRONROD_HALF_WEIGHTS, [0.149445554002916905664936468389821], _KRONROD_HALF_WEIGHTS[::-1]]
)
_GAUSS_WEIGHTS = np.zeros(21)
_GAUSS_WEIGHTS[1:10:2] = _GAUSS_HALF_WEIGHTS
_GAUSS_WEIGHTS[11:20:2] = _GAUSS_HALF_WEIGHTS[::-1]
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def supports(partition) -> bool:
    """True when the exact evaluators cover this partition (m <= 4)."""
    return partition.m <= MAX_EXACT_CELLS


def bivariate_normal_cdf(h: float, k: float, r: float) -> float:
    """P(X <= h, Y <= k) for standard normals X, Y with correlation r.

    Owen's formula through his T function (D. B. Owen, "Tables for
    computing bivariate normal probabilities", Ann. Math. Stat. 27, 1956).
    """
    return float(_bivariate_normal_cdf(np.array([h], dtype=float), np.array([k], dtype=float), r)[0])


def _bivariate_normal_cdf(h: np.ndarray, k: np.ndarray, r: float) -> np.ndarray:
    """``bivariate_normal_cdf`` over arrays of limits with one correlation."""
    if r == 1.0:
        return ndtr(np.minimum(h, k))
    if r == -1.0:
        return np.maximum(ndtr(h) + ndtr(k) - 1.0, 0.0)
    s = math.sqrt(1.0 - r * r)
    h_zero, k_zero = h == 0.0, k == 0.0
    if h_zero.any() or k_zero.any():
        value = np.empty_like(h)
        value[h_zero & k_zero] = 0.25 + math.asin(r) / (2.0 * math.pi)
        for zero, other in ((h_zero & ~k_zero, k), (k_zero & ~h_zero, h)):
            t = other[zero]
            value[zero] = 0.5 * ndtr(t) - owens_t(t, -r / s)
        rest = ~(h_zero | k_zero)
        value[rest] = _bivariate_normal_cdf(h[rest], k[rest], r)
        return np.clip(value, 0.0, 1.0)
    value = (
        0.5 * ndtr(h)
        + 0.5 * ndtr(k)
        - owens_t(h, (k - r * h) / (h * s))
        - owens_t(k, (h - r * k) / (k * s))
        - np.where(h * k < 0.0, 0.5, 0.0)
    )
    return np.clip(value, 0.0, 1.0)


def trivariate_normal_cdf(h, corr, first: int | None = None) -> tuple[float, float]:
    """(P(X_1 <= h_1, X_2 <= h_2, X_3 <= h_3), error bound) for standard
    normals with correlation matrix ``corr``.

    Conditions on X_a = x, a = ``first``, and integrates
    phi(x) * Phi_2((h_b - r_ab x)/s_b, (h_c - r_ac x)/s_c; r_bc.a) over
    x <= h_a with ``_gauss_kronrod``, where s_b = sqrt(1 - r_ab^2) and
    r_bc.a is the partial correlation of X_b and X_c given X_a. The
    conditioning variable must have |r| < 1 with both others; by default the
    one whose largest |r| is smallest is used, since |r| near 1 makes the
    integrand steep. A singular ``corr`` (three constraints in a plane)
    gives a partial correlation of +-1, which ``bivariate_normal_cdf`` takes
    exactly; the kink it puts in the integrand becomes a panel edge.
    """
    h = [float(v) for v in h]
    r = np.asarray(corr, dtype=float)
    if len(h) != 3 or r.shape != (3, 3):
        raise ContractViolationError("Phi_3 needs three limits and a 3x3 correlation matrix")
    admissible = [
        a for a in range(3) if all(abs(r[a, b]) < 1.0 for b in range(3) if b != a)
    ]
    if first is None:
        if not admissible:
            raise ContractViolationError("no variable has |r| < 1 with both others")
        # The least correlated variable keeps the integrand's slopes r/s small.
        first = min(admissible, key=lambda j: max(abs(r[j, l]) for l in range(3) if l != j))
    elif first not in admissible:
        raise ContractViolationError(f"cannot condition on variable {first}: |r| = 1")
    a = first
    b, c = (j for j in range(3) if j != a)
    r_ab, r_ac = float(r[a, b]), float(r[a, c])
    s_b, s_c = math.sqrt(1.0 - r_ab * r_ab), math.sqrt(1.0 - r_ac * r_ac)
    partial = (float(r[b, c]) - r_ab * r_ac) / (s_b * s_c)
    if abs(partial) > 1.0 - _KINK_TOL:
        partial = math.copysign(1.0, partial)
    h_b, h_c = h[b], h[c]

    def integrand(x: np.ndarray) -> np.ndarray:
        density = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        return density * _bivariate_normal_cdf((h_b - r_ab * x) / s_b, (h_c - r_ac * x) / s_c, partial)

    # Below -10 (or 10 below a negative h_a) and above 10 the normal mass is
    # under 1e-23.
    upper = min(h[a], _QUAD_RANGE)
    lower = min(upper, 0.0) - _QUAD_RANGE
    breaks = []
    if abs(partial) == 1.0:
        # Phi_2(y, z; +-1) has a kink where y = +-z; that x is a panel edge.
        slope = r_ab / s_b - partial * r_ac / s_c
        if slope != 0.0:
            breaks.append((h_b / s_b - partial * h_c / s_c) / slope)
    value, abserr = _gauss_kronrod(integrand, lower, upper, breaks)
    return min(max(value, 0.0), 1.0), abserr


def _gauss_kronrod(f, lower: float, upper: float, breaks=()) -> tuple[float, float]:
    """(integral of f over [lower, upper], error estimate).

    Adaptive 21-point Gauss-Kronrod with QUADPACK's error estimate, to
    within max(``_QUAD_EPSABS``, ``_QUAD_EPSREL`` * |integral|). ``f`` maps
    an array of points to an array of values. Each round splits in half
    every panel whose error exceeds its width's share of the tolerance (the
    ``_QUAD_MAX_SPLITS`` largest at most) and evaluates the nodes of all new
    panels in one call of ``f``. Points in ``breaks`` between the limits
    start as panel edges.
    """
    edges = np.linspace(lower, upper, _QUAD_PANELS + 1)
    inside = [x for x in breaks if lower < x < upper]
    edges = np.unique(np.concatenate([edges, inside]))
    left, right = edges[:-1], edges[1:]
    kept_value = kept_error = 0.0
    for _ in range(_QUAD_ROUNDS):
        centre, half = 0.5 * (left + right), 0.5 * (right - left)
        fx = f((centre[:, None] + half[:, None] * _KRONROD_NODES).ravel()).reshape(-1, 21)
        kronrod = fx @ _KRONROD_WEIGHTS
        spread = np.abs(fx - 0.5 * kronrod[:, None]) @ _KRONROD_WEIGHTS * half
        size = np.abs(fx) @ _KRONROD_WEIGHTS * half
        error = np.abs(kronrod - fx @ _GAUSS_WEIGHTS) * half
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = spread * np.minimum(1.0, (200.0 * error / spread) ** 1.5)
        truncation = np.where((spread != 0.0) & (error != 0.0), scaled, error)
        rounding = np.where(size > _TINY / (50.0 * _EPS), 50.0 * _EPS * size, 0.0)
        error = np.maximum(truncation, rounding)
        value = kronrod * half
        total = kept_value + float(value.sum())
        total_error = kept_error + float(error.sum())
        tol = max(_QUAD_EPSABS, _QUAD_EPSREL * abs(total))
        # Halving cannot reduce the rounding floor; it is left out here.
        split = truncation > tol * (right - left) / (upper - lower)
        if split.sum() > _QUAD_MAX_SPLITS:
            split &= truncation >= np.sort(truncation)[-_QUAD_MAX_SPLITS]
        if total_error <= tol or not split.any():
            break
        kept_value += float(value[~split].sum())
        kept_error += float(error[~split].sum())
        middle = centre[split]
        left = np.concatenate([left[split], middle])
        right = np.concatenate([middle, right[split]])
    return total, total_error


def orthant_probability(limits, directions) -> tuple[float, float]:
    """(P(<u_k, X> <= h_k for every k), error bound) for standard normal X.

    ``directions`` holds the unit rows u_k. Rows with the same direction are
    merged, keeping the smallest limit; at most three distinct rows may
    remain. Correlations within ``_SAME_DIRECTION_TOL`` of +-1 are set to
    +-1 exactly.
    """
    h, u = _merge_rows(np.asarray(limits, dtype=float), np.asarray(directions, dtype=float))
    n = h.size
    if n == 0:
        return 1.0, 0.0
    if n == 1:
        return float(ndtr(h[0])), 0.0
    corr = np.clip(u @ u.T, -1.0, 1.0)
    for k in range(n):
        corr[k, k] = 1.0
        for l in range(k + 1, n):
            if np.linalg.norm(u[k] + u[l]) <= _SAME_DIRECTION_TOL:
                corr[k, l] = corr[l, k] = -1.0
    if n == 2:
        return bivariate_normal_cdf(float(h[0]), float(h[1]), float(corr[0, 1])), 0.0
    if n == 3:
        return trivariate_normal_cdf(h, corr)
    raise UnsupportedGeometryError(
        f"{n} distinct constraints: the exact orthant probability covers at most 3"
    )


def _merge_rows(h: np.ndarray, u: np.ndarray):
    """Drop repeated directions, keeping the tightest (smallest) limit."""
    keep_h, keep_u = [], []
    for k in np.argsort(h, kind="stable"):
        if all(np.linalg.norm(u[k] - v) > _SAME_DIRECTION_TOL for v in keep_u):
            keep_h.append(h[k])
            keep_u.append(u[k])
    return np.array(keep_h), np.array(keep_u).reshape(len(keep_u), u.shape[1])


def _check(partition):
    if not hasattr(partition, "directions") or not hasattr(partition, "offsets"):
        raise UnsupportedGeometryError("the exact evaluators need an affine partition")
    if not supports(partition):
        raise UnsupportedGeometryError(
            f"the exact evaluators cover m <= {MAX_EXACT_CELLS}, got m={partition.m}"
        )


def cell_volumes(partition) -> tuple[np.ndarray, np.ndarray]:
    """(volumes, error bounds) of every cell of an affine partition, m <= 4."""
    _check(partition)
    volumes = np.zeros(partition.m)
    errors = np.zeros(partition.m)
    for i in range(partition.m):
        # Cell i is {a_k x >= b_k}, i.e. <u_k, x> <= h_k with u_k = -a_k/|a_k|
        # and h_k = -b_k/|a_k|; an infinite b marks an empty cell.
        a, b = partition.cell_constraints(i)
        if not np.any(np.isinf(b)):
            norms = np.linalg.norm(a, axis=1)
            volumes[i], errors[i] = orthant_probability(-b / norms, -a / norms[:, None])
    return volumes, errors


def facet_masses(partition, report=None) -> dict:
    """{(i, j): mass} of every interface facet, read from ``report`` (the
    partition's ``facet_perimeter`` report) or from a fresh one.

    For m <= 4 every facet mass is closed-form, so the sampling
    configuration passed along is never drawn from.
    """
    _check(partition)
    if report is None:
        from . import perimeter  # perimeter imports this module

        unused = IntegrationConfig(sample_count=1, seed=0, dimension=partition.d, chunk_size=1)
        report = perimeter.facet_perimeter(partition, unused)
    return {pair: mass for pair, (mass, _) in report.masses.items()}


def moments(partition, w=None, report=None) -> MomentReport:
    """Exact volumes, moment vectors and the moment functional, m <= 4.

    Each moment vector is minus the sum of the exterior unit normals of the
    cell's facets weighted by the facet masses (the Gaussian divergence
    identity); pass the partition's ``facet_perimeter`` report as ``report``
    to reuse its masses. The report returned has the fields of
    ``mc_moments``' report: error bounds take the place of standard errors,
    and ``config`` is None.
    """
    volumes, volumes_err = cell_volumes(partition)
    m, d = partition.m, partition.d
    w = np.zeros(d) if w is None else np.asarray(w, dtype=float).reshape(-1)
    if w.size != d:
        raise ContractViolationError(f"shift w has size {w.size}, expected {d}")
    if np.any(w != 0.0) and np.any(volumes == 0.0):
        empty = int(np.flatnonzero(volumes == 0.0)[0])
        raise DegenerateCellError(
            f"cell {empty} has zero estimated volume; w/a_i is undefined for w != 0"
        )
    moment = np.zeros((m, d))
    z = partition.directions
    for (i, j), mass in facet_masses(partition, report).items():
        normal = (z[j] - z[i]) / np.linalg.norm(z[j] - z[i])  # exterior for cell i
        moment[i] -= mass * normal
        moment[j] += mass * normal
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(volumes[:, None] > 0.0, w[None, :] / volumes[:, None], 0.0)
    dev = moment - w[None, :]
    functional = float((dev * dev).sum())
    pen_factor = math.sqrt(math.pi / 2.0)
    return MomentReport(
        volumes=volumes,
        volumes_stderr=volumes_err,
        moments=moment,
        moments_stderr=np.zeros((m, d)),
        shift=w,
        scaled_shifts=scaled,
        moment_functional=functional,
        moment_functional_stderr=0.0,
        penalty=pen_factor * functional,
        penalty_stderr=0.0,
        config=None,
    )
