"""Exact Gaussian volumes, facet masses and moment vectors of affine partitions.

Cell i of an affine partition is the polyhedron

    {x : <u_k, x> <= h_k for every k != i},
    u_k = (z_k - z_i) / |z_k - z_i|,  h_k = (c_i - c_k) / |z_k - z_i|,

so its standard Gaussian volume is the probability that at most m - 1
correlated standard normals <u_k, X> lie below their limits h_k, with
correlations <u_k, u_l>. With 0, 1, 2 or 3 distinct constraints (every cell
when m <= 4) that is 1, the normal CDF Phi, the bivariate CDF Phi_2 (Owen's
T function) or the trivariate CDF Phi_3, evaluated as a one-dimensional
integral of Phi_2 after conditioning on one variable (R. L. Plackett,
Biometrika 41, 1954; A. Genz, Stat. Comput. 14, 2004) by adaptive 21-point
Gauss-Kronrod quadrature (R. Piessens et al., QUADPACK, 1983) that evaluates
Phi_2 on whole arrays. The facet between cells i and j has mass gamma_1(b)
times the in-plane measure of the set where i and j are the joint argmax;
with at most two distinct constraints varying on the plane (every facet when
m <= 4, and every facet in d = 2) that measure is again 1, Phi or Phi_2.
Moment vectors follow from the divergence identity
integral_{A_i} x dgamma = -sum_j n_{i->j} mass_ij over the facet masses.

The evaluation has two layers. ``_Geometry`` is built from the directions
alone: per cell the norms |z_i - z_k|, the correlations of the unit rows
u_k, and which rows share a direction or are antipodal; per facet its
normal, the in-plane projections p_k of the other cells' constraints, which
of them are flat, which share a direction, and their correlation. An
evaluation at given offsets forms every limit with a few array operations,
orders each cell's limits (ascending and stable) and merges repeated
directions, then makes one ``ndtr`` call for all Phi terms and one
``_bivariate_normal_cdf`` call for all Phi_2 terms of every cell and facet;
each Phi_3 cell takes one ``trivariate_normal_cdf`` call. Volume calibration
builds the geometry once and iterates on offsets, and ``_geometry`` keeps
the geometries of recently seen directions.

Every value carries an error bound where Monte Carlo carries a standard
error: 0 for Phi and Phi_2, and the quadrature's absolute error estimate
for Phi_3.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    ContractViolationError,
    DegenerateCellError,
    DegeneratePairError,
    UnsupportedGeometryError,
)
from .montecarlo import TWO_PI, MomentReport, _shift_vector

#: Largest cell count the exact evaluators cover.
MAX_EXACT_CELLS = 4

# Unit constraint directions closer than this (or this close to antipodal)
# are treated as equal (opposite): their correlation is +-1 up to rounding.
_SAME_DIRECTION_TOL = 1e-12
# Unit rows whose product is at most this in absolute value are too far
# apart to be equal or antipodal within _SAME_DIRECTION_TOL.
_NEAR_PARALLEL = 0.99
# A facet's third-cell constraint whose in-plane part p_k has a norm below
# this is parallel to the facet: its condition is constant on the plane.
_PARALLEL_TOL = 1e-15
# Band on the top-two score gap when testing joint-argmax membership; exact
# ties have measure zero but floating point needs slack. A flat constraint
# fails on the whole plane when it is broken by more than this.
_JOINT_ARGMAX_TOL = 1e-12
# Directions whose geometries ``_geometry`` keeps.
_GEOMETRY_CACHE = 32
# gamma_1(t) = _DENSITY_1 * exp(-t^2 / 2), the constant as gaussian_density
# forms it.
_DENSITY_1 = TWO_PI ** (-1 / 2.0)
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


def _bivariate_normal_cdf(h: np.ndarray, k: np.ndarray, r) -> np.ndarray:
    """``bivariate_normal_cdf`` over arrays of limits, with one correlation
    ``r`` or an array of them the shape of the limits.

    Correlations of exactly +-1 take the kinked limits; a zero limit takes
    Owen's one-sided form, and two zero limits the arcsine law, with
    ``math.asin`` element by element.
    """
    from scipy.special import ndtr, owens_t

    r = np.asarray(r, dtype=float)
    if r.ndim == 0:
        r = np.full(h.shape, r)
    up, down = r == 1.0, r == -1.0
    h_zero, k_zero = h == 0.0, k == 0.0
    special = up | down | h_zero | k_zero
    if not np.count_nonzero(special):
        return _owen(h, k, r).clip(0.0, 1.0)
    value = np.empty(h.shape)
    value[up] = ndtr(np.minimum(h[up], k[up]))
    value[down] = np.maximum(ndtr(h[down]) + ndtr(k[down]) - 1.0, 0.0)
    rest = ~(up | down)
    h_zero &= rest
    k_zero &= rest
    both = h_zero & k_zero
    if np.count_nonzero(both):
        asin = np.array([math.asin(x) for x in r[both].tolist()])
        value[both] = 0.25 + asin / (2.0 * math.pi)
    for zero, other in ((h_zero & ~k_zero, k), (k_zero & ~h_zero, h)):
        t, rz = other[zero], r[zero]
        value[zero] = 0.5 * ndtr(t) - owens_t(t, -rz / np.sqrt(1.0 - rz * rz))
    rest = ~special
    value[rest] = _owen(h[rest], k[rest], r[rest])
    return value.clip(0.0, 1.0)


def _owen(h: np.ndarray, k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Owen's form of Phi_2 for nonzero limits and |r| < 1, unclipped."""
    from scipy.special import ndtr, owens_t

    s = np.sqrt(1.0 - r * r)
    return (
        0.5 * ndtr(h)
        + 0.5 * ndtr(k)
        - owens_t(h, (k - r * h) / (h * s))
        - owens_t(k, (h - r * k) / (k * s))
        - np.where(h * k < 0.0, 0.5, 0.0)
    )


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


class _CellGeometry:
    """The offset-independent part of one cell's constraints <u_k, x> <= h_k.

    ``rows`` are the other cells k with z_k != z_i and ``norms`` their
    |z_i - z_k|; ``ties`` are the cells with z_k == z_i, whose constraint is
    constant. ``corr`` holds the correlations <u_k, u_l> of the rows,
    clipped to [-1, 1], with 1 on the diagonal and -1 for antipodal rows,
    and ``corr_list`` the same as nested lists. ``same`` marks pairs of rows
    within ``_SAME_DIRECTION_TOL`` of each other, or is None when there is
    none.
    """

    def __init__(self, i: int, tied: list, norms: list, units: np.ndarray):
        self.rows = [k for k, t in enumerate(tied) if k != i and not t]
        self.ties = [k for k, t in enumerate(tied) if k != i and t]
        self.norms = [norms[k] for k in self.rows]
        u = units[self.rows]
        # One product for the whole cell: any submatrix of it, in any order,
        # equals the product of those rows alone.
        product = u @ u.T
        corr = product.clip(-1.0, 1.0)
        np.fill_diagonal(corr, 1.0)
        n = len(self.rows)
        self.same = None
        for k, row in enumerate(product.tolist()):
            for l in range(k + 1, n):
                # Rows within _SAME_DIRECTION_TOL of each other (or of
                # antipodal) have a product within 1e-20 of +-1.
                if row[l] < -_NEAR_PARALLEL and np.linalg.norm(u[k] + u[l]) <= _SAME_DIRECTION_TOL:
                    corr[k, l] = corr[l, k] = -1.0
                if row[l] > _NEAR_PARALLEL and np.linalg.norm(u[k] - u[l]) <= _SAME_DIRECTION_TOL:
                    if self.same is None:
                        self.same = np.zeros((n, n), dtype=bool)
                    self.same[k, l] = self.same[l, k] = True
        self.corr = corr
        self.corr_list = corr.tolist()


class _FacetGeometry:
    """The offset-independent part of the facet between cells i < j.

    ``norm`` is |z_j - z_i|. On the facet's plane, x = b n + y with n the
    unit normal (z_j - z_i) / norm and y orthogonal to n, "cell i beats
    cell k" reads alpha_k + <p_k, y> >= 0 for g_k = z_i - z_k,
    alpha_k = <b n, g_k> + c_i - c_k and p_k = g_k - <g_k, n> n, over the
    other cells k in pair order. ``flat`` lists the positions of the p_k
    with |p_k| <= ``_PARALLEL_TOL``; ``groups`` the other positions, grouped
    by the direction of p_k (first member first), with ``pnorms`` the
    |p_k|; ``r`` is the correlation of the first two groups' directions.
    """

    def __init__(self, i: int, j: int, norm, pnorms: list, units: np.ndarray):
        self.i, self.j, self.norm = i, j, norm
        self.pnorms = pnorms
        self.flat = [k for k, norm_k in enumerate(pnorms) if norm_k <= _PARALLEL_TOL]
        self.groups, reps = [], []
        for k, norm_k in enumerate(pnorms):
            if norm_k <= _PARALLEL_TOL:
                continue
            u_k = units[k]
            same = [
                l for l, v in enumerate(reps)
                if u_k @ v > _NEAR_PARALLEL and np.linalg.norm(u_k - v) <= _SAME_DIRECTION_TOL
            ]
            if same:
                self.groups[same[0]].append(k)
            else:
                self.groups.append([k])
                reps.append(u_k)
        self.r = min(max(float(reps[0] @ reps[1]), -1.0), 1.0) if len(reps) >= 2 else None


class _Geometry:
    """Everything the exact evaluators need that depends on the directions
    alone: a ``_CellGeometry`` per cell (m <= 4 only, built on first use)
    and a ``_FacetGeometry`` per pair i < j with z_i != z_j, in pair order.
    ``ties`` lists the pairs with z_i == z_j, which have no facet.

    Every array operation runs once over all cells or all facets, and gives
    each of them the bits of the same operation on its own rows; only the
    correlation products of a cell's rows are formed cell by cell.
    """

    def __init__(self, directions: np.ndarray):
        z = self._z = directions
        m = self.m = z.shape[0]
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        gaps = [z[j] - z[i] for i, j in pairs]
        gap_norms = [np.linalg.norm(gap) for gap in gaps]
        self.ties = [pair for pair, norm in zip(pairs, gap_norms) if norm == 0.0]
        kept = [f for f, norm in enumerate(gap_norms) if norm != 0.0]
        self.facets = []
        if not kept:
            return
        self._i = np.array([pairs[f][0] for f in kept])
        self._others = np.array(
            [[k for k in range(m) if k not in pairs[f]] for f in kept], dtype=int
        ).reshape(len(kept), m - 2)
        self._normals = np.array([gaps[f] / gap_norms[f] for f in kept])
        self._g = z[self._i][:, None, :] - z[self._others]
        # One matrix-vector product per facet, as g @ normal forms it.
        along = np.matmul(self._g, self._normals[:, :, None])
        p = self._g - along * self._normals[:, None, :]
        pnorms = np.linalg.norm(p, axis=2)
        with np.errstate(invalid="ignore", divide="ignore"):  # flat p_k
            units = p / pnorms[:, :, None]
        for f, facet_pnorms, facet_units in zip(kept, pnorms.tolist(), units):
            i, j = pairs[f]
            self.facets.append(_FacetGeometry(i, j, gap_norms[f], facet_pnorms, facet_units))

    @functools.cached_property
    def cells(self) -> list:
        """The ``_CellGeometry`` of every cell (m <= 4), built on first use."""
        z = self._z
        diff = z[:, None, :] - z[None, :, :]  # diff[i, k] = z_i - z_k
        tied = np.all(diff == 0.0, axis=2).tolist()
        norms = np.linalg.norm(diff, axis=2)
        with np.errstate(invalid="ignore"):  # 0 / 0 on tied rows
            units = -diff / norms[:, :, None]
        norms = norms.tolist()
        return [_CellGeometry(i, tied[i], norms[i], units[i]) for i in range(self.m)]

    def volumes(self, offsets) -> tuple[np.ndarray, np.ndarray]:
        """(volumes, error bounds) of every cell, m <= 4."""
        volumes, errors, _ = self._evaluate(offsets, cells=True, facets=False)
        return volumes, errors

    def facet_fractions(self, offsets) -> dict:
        """{(i, j): in-plane fraction} of every facet; None where three or
        more distinct constraints vary on the plane."""
        return self._evaluate(offsets, cells=False, facets=True)[2]

    def facet_masses(self, offsets) -> dict:
        """{(i, j): gamma_1(b) * in-plane fraction} of every facet, with
        b = (c_i - c_j) / |z_j - z_i|; None where the fraction is."""
        return self._masses(offsets, self.facet_fractions(offsets))

    def evaluate(self, offsets) -> tuple[np.ndarray, np.ndarray, dict]:
        """(volumes, error bounds, facet masses) from one evaluation, m <= 4."""
        volumes, errors, fractions = self._evaluate(offsets, cells=True, facets=True)
        return volumes, errors, self._masses(offsets, fractions)

    def _masses(self, offsets, fractions: dict) -> dict:
        c = np.asarray(offsets, dtype=float).tolist()
        masses = {}
        for f in self.facets:
            fraction = fractions[(f.i, f.j)]
            if fraction is not None:
                b = (c[f.i] - c[f.j]) / f.norm
                fraction *= float(_DENSITY_1 * math.exp(-0.5 * (b * b)))
            masses[(f.i, f.j)] = fraction
        return masses

    def _evaluate(self, offsets, cells: bool, facets: bool):
        """(volumes, error bounds, facet fractions); the parts not asked for
        are None. All Phi and Phi_2 terms are evaluated together."""
        c = np.asarray(offsets, dtype=float)
        terms = _Terms()
        volumes = errors = fractions = None
        if cells:
            errors = np.zeros(self.m)
            self._cell_terms(c.tolist(), terms, errors)
        if facets:
            self._facet_terms(c, terms)
        values = terms.evaluate()
        if cells:
            volumes = np.array(values[: self.m])
        if facets:
            facet_values = values[self.m:] if cells else values
            fractions = {(f.i, f.j): v for f, v in zip(self.facets, facet_values)}
        return volumes, errors, fractions

    def _cell_terms(self, c: list, terms: "_Terms", errors: np.ndarray) -> None:
        """One term per cell: its volume, or the Phi or Phi_2 term that
        gives it. Phi_3 volumes are evaluated here, with their error bounds."""
        for i, cell in enumerate(self.cells):
            # A constant row c_k - c_i > 0 (or = 0 against a lower index,
            # which wins the tie) empties the cell.
            if any(c[k] - c[i] > 0.0 or (c[k] - c[i] == 0.0 and k < i) for k in cell.ties):
                terms.value(0.0)
                continue
            h = [-(c[k] - c[i]) / norm for k, norm in zip(cell.rows, cell.norms)]
            order = sorted(range(len(h)), key=h.__getitem__)
            if cell.same is not None:
                # Repeated directions keep their smallest limit.
                kept = []
                for k in order:
                    if not any(cell.same[k, l] for l in kept):
                        kept.append(k)
                order = kept
            if len(order) == 0:
                terms.value(1.0)
            elif len(order) == 1:
                terms.phi(h[order[0]])
            elif len(order) == 2:
                a, b = order
                terms.phi2(h[a], h[b], cell.corr_list[a][b])
            else:
                value, errors[i] = trivariate_normal_cdf(
                    [h[k] for k in order], cell.corr[np.ix_(order, order)]
                )
                terms.value(value)

    def _facet_terms(self, c: np.ndarray, terms: "_Terms") -> None:
        """One term per facet: its in-plane fraction, the Phi or Phi_2 term
        that gives it, or None where it must be sampled."""
        cl = c.tolist()
        for i, j in self.ties:
            if cl[i] == cl[j]:
                raise DegeneratePairError(f"cells {i} and {j} carry identical affine functionals")
        if not self.facets:
            return
        b = np.array([(cl[f.i] - cl[f.j]) / f.norm for f in self.facets])
        anchors = b[:, None] * self._normals
        # One matrix-vector product per facet, as g @ anchor forms it.
        alpha = np.matmul(self._g, anchors[:, :, None])[:, :, 0]
        alpha += c[self._i][:, None]
        alpha -= c[self._others]
        for f, a in zip(self.facets, alpha.tolist()):
            if any(a[k] < -_JOINT_ARGMAX_TOL for k in f.flat):
                terms.value(0.0)
                continue
            t = []
            for group in f.groups:
                least = a[group[0]] / f.pnorms[group[0]]
                for k in group[1:]:
                    t_k = a[k] / f.pnorms[k]
                    if t_k < least:
                        least = t_k
                t.append(least)
            if len(t) == 0:
                terms.value(1.0)
            elif len(t) == 1:
                terms.phi(t[0])
            elif len(t) == 2:
                terms.phi2(t[0], t[1], f.r)
            else:
                terms.value(None)


class _Terms:
    """A list of values, some of them given by Phi or Phi_2 terms that are
    evaluated together: one ``ndtr`` call for every Phi term and one
    ``_bivariate_normal_cdf`` call for every Phi_2 term."""

    def __init__(self):
        self.values = []
        self.one, self.one_at = [], []
        self.two, self.two_at = [], []

    def value(self, value) -> None:
        self.values.append(value)

    def phi(self, t: float) -> None:
        self.one_at.append(len(self.values))
        self.one.append(t)
        self.values.append(None)

    def phi2(self, h: float, k: float, r: float) -> None:
        self.two_at.append(len(self.values))
        self.two.append((h, k, r))
        self.values.append(None)

    def evaluate(self) -> list:
        from scipy.special import ndtr

        if self.one:
            for at, v in zip(self.one_at, ndtr(np.array(self.one)).tolist()):
                self.values[at] = v
        if self.two:
            h, k, r = np.array(self.two).T
            for at, v in zip(self.two_at, _bivariate_normal_cdf(h, k, r).tolist()):
                self.values[at] = v
        return self.values


@functools.lru_cache(maxsize=_GEOMETRY_CACHE)
def _cached_geometry(shape: tuple, data: bytes) -> _Geometry:
    # A fresh, aligned copy: the products above take the BLAS path, as they
    # do on a partition's own directions.
    return _Geometry(np.frombuffer(data).reshape(shape).copy())


def _geometry(directions: np.ndarray) -> _Geometry:
    """The ``_Geometry`` of ``directions``, built once for recent ones."""
    return _cached_geometry(directions.shape, np.ascontiguousarray(directions).tobytes())


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
    return _geometry(partition.directions).volumes(partition.offsets)


def facet_masses(partition, report=None) -> dict:
    """{(i, j): mass} of every interface facet, read from ``report`` (the
    partition's ``facet_perimeter`` report) or evaluated in closed form.
    """
    _check(partition)
    if report is None:
        return _geometry(partition.directions).facet_masses(partition.offsets)
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
    w = _shift_vector(w, d)
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
