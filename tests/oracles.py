"""Independent numerical oracles used to freeze expected test values.

Everything here is deliberately dumb and slow: quadrature, brute-force
enumeration, dense scans. None of it shares code with the package paths it
checks. The reference kernels further down are the exception: they keep
earlier, simpler forms of package paths (sample streams, argmax labels,
cell distances, the per-cell exact evaluation, the Pascal-table majority
sum), which tests swap in or compare against to check the faster forms;
they reuse the package's unchanged parts, such as its tolerances, the
Phi_3 quadrature and the binomial pmf of redrawn votes.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import dblquad, quad

from gauss_bubbles.discrete import _redrawn_pmf
from gauss_bubbles.exact import _Geometry


def gaussian_density_1d(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def halfspace_moment(threshold: float) -> float:
    """integral of x * gamma_1(x) over [threshold, inf), by quadrature."""
    value, _ = quad(lambda x: x * gaussian_density_1d(x), threshold, np.inf)
    return value


def sector_moment_norm(half_angle: float) -> float:
    """Norm of the Gaussian moment vector of a plane sector of given half angle.

    The sector is centered on the x-axis; by symmetry only the x component
    survives. Polar quadrature of x * gamma_2 over the sector.
    """
    radial, _ = quad(lambda r: r * r * math.exp(-0.5 * r * r) / (2.0 * math.pi), 0.0, np.inf)
    angular, _ = quad(math.cos, -half_angle, half_angle)
    return radial * angular


def shifted_sector_volume(apex_x: float, half_angle: float) -> float:
    """Gaussian volume of the sector with apex (apex_x, 0) opening around +x."""

    def integrand(r, theta):
        x = apex_x + r * math.cos(theta)
        y = r * math.sin(theta)
        return r * math.exp(-0.5 * (x * x + y * y)) / (2.0 * math.pi)

    value, _ = dblquad(integrand, -half_angle, half_angle, 0.0, 30.0)
    return value


def bivariate_quadrant_probability(rho: float) -> float:
    """P(X > 0, Y > 0) for a correlated standard normal pair, by quadrature."""
    det = 1.0 - rho * rho

    def density(y, x):
        q = (x * x - 2.0 * rho * x * y + y * y) / det
        return math.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(det))

    value, _ = dblquad(density, 0.0, 12.0, 0.0, 12.0)
    return value


def propeller_tail_mass(radius: float) -> float:
    """Interface mass of the three propeller rays beyond the given radius."""
    value, _ = quad(lambda t: math.exp(-0.5 * t * t) / (2.0 * math.pi), radius, np.inf)
    return 3.0 * value


def radial_line_tail(offset: float, radius: float) -> float:
    """Mass of the line {x_1 = offset} in R^2 outside the origin ball of the
    given radius."""
    if radius <= abs(offset):
        cut = 0.0
    else:
        cut = math.sqrt(radius * radius - offset * offset)
    half, _ = quad(
        lambda t: math.exp(-0.5 * (offset * offset + t * t)) / (2.0 * math.pi), cut, np.inf
    )
    return 2.0 * half


def brute_force_discrete_stability(table: np.ndarray, rho: float) -> float:
    """Double sum over all word pairs with explicit product kernel weights.

    ``table`` is a real array of shape (m,) * n. Stay probability
    (1 + (m-1) rho)/m, move probability (1 - rho)/m per coordinate.
    """
    m = table.shape[0]
    n = table.ndim
    stay = (1.0 + (m - 1) * rho) / m
    move = (1.0 - rho) / m
    total = 0.0
    words = list(itertools.product(range(m), repeat=n))
    for omega in words:
        for sigma in words:
            hamming = sum(1 for a, b in zip(omega, sigma) if a != b)
            weight = stay ** (n - hamming) * move**hamming
            total += table[omega] * weight * table[sigma]
    return total / m**n


def threshold_split_moment(threshold: float) -> float:
    """Moment functional of the two-cell threshold split of the line."""
    upper = halfspace_moment(threshold)
    lower, _ = quad(lambda x: x * gaussian_density_1d(x), -np.inf, threshold)
    return upper * upper + lower * lower


def convex_cell_distance(a: np.ndarray, b: np.ndarray, point: np.ndarray) -> float:
    """Distance from a point to {x : A x >= b} via constrained optimization."""
    from scipy.optimize import minimize

    point = np.asarray(point, dtype=float)
    res = minimize(
        lambda y: float(((y - point) ** 2).sum()),
        point,
        jac=lambda y: 2.0 * (y - point),
        constraints=[{"type": "ineq", "fun": lambda y, r=r: float(a[r] @ y - b[r])}
                     for r in range(a.shape[0])],
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-12},
    )
    return float(np.linalg.norm(res.x - point))


def planar_polygon_probability(limits, directions) -> float:
    """Standard Gaussian measure of {x in R^2 : <u_k, x> <= h_k for every k}.

    Rotates the plane so that no constraint line is near vertical, then
    integrates the normal CDF of the x_2 interval over x_1 by quadrature,
    split at every vertex.
    """
    u = np.asarray(directions, dtype=float)
    h = np.asarray(limits, dtype=float)
    angles = np.linspace(0.0, math.pi, 361)
    turn = max(angles, key=lambda t: min(abs(math.cos(t) * b - math.sin(t) * a) for a, b in u))
    u = u @ np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])

    def cdf(y: float) -> float:
        return 0.5 * math.erfc(-y / math.sqrt(2.0))

    def strip(x1: float) -> float:
        lo, hi = -math.inf, math.inf
        for (a, b), c in zip(u, h):
            if b > 0.0:
                hi = min(hi, (c - a * x1) / b)
            else:
                lo = max(lo, (c - a * x1) / b)
        return gaussian_density_1d(x1) * max(cdf(hi) - cdf(lo), 0.0)

    edges = [-12.0, 12.0]
    for k, l in itertools.combinations(range(len(h)), 2):
        pair = u[[k, l]]
        if abs(np.linalg.det(pair)) > 1e-12:
            x1 = float(np.linalg.solve(pair, h[[k, l]])[0])
            if -12.0 < x1 < 12.0:
                edges.append(x1)
    edges.sort()
    return sum(
        quad(strip, lo, hi, epsabs=1e-16, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )


def line_facet_fraction(directions, offsets, i: int, j: int) -> float:
    """In-line standard Gaussian measure of the facet (i, j) of a d = 2
    argmax partition with functionals <x, z_k> + c_k.

    The facet lies on the line <x, n> = t through t n, with n the unit
    normal from cell i into cell j. Each third cell k bounds the line
    coordinate s (along the direction n turned by 90 degrees) from one side,
    so the facet is an interval [lo, hi] and its measure is
    Phi(hi) - Phi(lo).
    """
    z = np.asarray(directions, dtype=float)
    c = np.asarray(offsets, dtype=float)
    gap = z[j] - z[i]
    normal = gap / np.linalg.norm(gap)
    anchor = float((c[i] - c[j]) / np.linalg.norm(gap)) * normal
    along = np.array([-normal[1], normal[0]])
    lo, hi = -math.inf, math.inf
    for k in range(z.shape[0]):
        if k in (i, j):
            continue
        alpha = float(anchor @ (z[i] - z[k]) + c[i] - c[k])
        beta = float(along @ (z[i] - z[k]))
        if abs(beta) <= 1e-15:
            if alpha < -1e-12:
                return 0.0
            continue
        if beta > 0:
            lo = max(lo, -alpha / beta)
        else:
            hi = min(hi, -alpha / beta)
    if hi <= lo:
        return 0.0

    def cdf(y: float) -> float:
        return 0.5 * math.erfc(-y / math.sqrt(2.0))

    return max(cdf(hi) - cdf(lo), 0.0)


def plurality_table(m: int, n: int) -> np.ndarray:
    """Plurality values from the (m^n, n) word matrix, shape (m,)*n + (m,).

    A strict winner j maps to e_j; a tie for the top count maps to the
    barycenter.
    """
    words = np.indices((m,) * n).reshape(n, -1).T  # (m^n, n), lexicographic
    counts = (words[:, :, None] == np.arange(m)[None, None, :]).sum(axis=1)
    top = counts.max(axis=1, keepdims=True)
    winners = counts == top
    strict = winners.sum(axis=1) == 1
    values = np.where(strict[:, None], winners.astype(float), np.full((1, m), 1.0 / m))
    return values.reshape((m,) * n + (m,))


def propeller_noise_stability(rho: float) -> float:
    """P(X, Y in the same 120-degree sector) for rho-correlated planar
    Gaussians, from the law of their angle difference.

    The angle difference delta has density f(delta) = (1 - rho^2) / (2 pi)
    * [1 / (1 - beta^2) + beta * arccos(-beta) / (1 - beta^2)^(3/2)] with
    beta = rho cos(delta), and the second angle lies in the first one's
    sector with probability (1 - |delta| / (2 pi / 3))_+ .
    """
    width = 2.0 * math.pi / 3.0

    def integrand(delta: float) -> float:
        beta = rho * math.cos(delta)
        one = 1.0 - beta * beta
        density = (1.0 - rho * rho) / (2.0 * math.pi) * (
            1.0 / one + beta * math.acos(-beta) / one**1.5)
        return density * (1.0 - delta / width)

    value, _ = quad(integrand, 0.0, width, epsabs=1e-14, epsrel=1e-14, limit=200)
    return 2.0 * value


def noise_kernel_matmul(table: np.ndarray, kernel_matrix: np.ndarray) -> np.ndarray:
    """Product kernel applied as one (m, m) matrix product per axis."""
    out = np.asarray(table, dtype=float)
    for axis in range(out.ndim):
        moved = np.moveaxis(out, axis, -1)
        out = np.moveaxis(moved @ kernel_matrix.T, -1, axis)
    return out


def majority_agreement_enumerated(rho: float, n: int) -> float:
    """P(maj(x) = maj(y)) for rho-correlated x, y in {0,1}^n, by listing
    every word pair (odd n)."""
    stay = (1.0 + rho) / 2.0
    move = (1.0 - rho) / 2.0
    words = list(itertools.product((0, 1), repeat=n))
    terms = []
    for x in words:
        for y in words:
            if (2 * sum(x) > n) == (2 * sum(y) > n):
                hamming = sum(1 for a, b in zip(x, y) if a != b)
                terms.append(stay ** (n - hamming) * move**hamming)
    return math.fsum(terms) / 2**n


def majority_agreement_binom(rho: float, n: int) -> float:
    """The same probability from scipy's binomial pmf and cdf (odd n).

    With K ~ Bin(n, 1/2) ones and partner count
    K' = Bin(K, stay) + Bin(n - K, move), the global flip symmetry gives
    P(agree) = 1 - 2 sum_{k > n/2} P(K = k) P(K' <= n//2 | K = k).
    """
    from scipy.stats import binom

    half = n // 2
    stay = (1.0 + rho) / 2.0
    move = (1.0 - rho) / 2.0
    k = np.arange(half + 1, n + 1)[:, None]
    x = np.arange(n + 1)[None, :]
    below = binom.pmf(x, k, stay) * binom.cdf(half - x, n - k, move)
    return float(1.0 - 2.0 * np.sum(binom.pmf(k[:, 0], n, 0.5) * below.sum(axis=1)))


def majority_agreement_exact(rho: Fraction, n: int) -> Fraction:
    """(1 + sum_k W_k rho^k) / 2 in exact rational arithmetic (odd n).

    The Fourier coefficient of Maj_n on a set of odd size k is, up to sign,
    2 C(h, (k-1)/2) C(n-1, h) / (C(n-1, k-1) 2^n) with h = n // 2, and the
    C(n, k) sets of that size make up the level weight W_k.
    """
    h = n // 2
    total = Fraction(0)
    for k in range(1, n + 1, 2):
        coefficient = Fraction(2 * math.comb(h, k // 2) * math.comb(n - 1, h),
                               math.comb(n - 1, k - 1) * 2**n)
        total += math.comb(n, k) * coefficient**2 * rho**k
    return (1 + total) / 2


def majority_pair_sampler(rho: float, n: int, sample_count: int, seed: int,
                          chunk_size: int):
    """Monte Carlo estimate and stderr of the majority agreement probability.

    Three binomial draws per pair: K ~ Bin(n, 1/2) ones, then the partner
    count Bin(K, stay) + Bin(n - K, move). Chunk c draws from Philox key
    [seed, (3 << 32) | c].
    """
    stay = (1.0 + rho) / 2.0
    move = (1.0 - rho) / 2.0
    total = 0.0
    remaining = sample_count
    chunk = 0
    while remaining > 0:
        block = min(chunk_size, remaining)
        remaining -= block
        rng = np.random.Generator(np.random.Philox(key=[seed, (3 << 32) | chunk]))
        chunk += 1
        ones = rng.binomial(n, 0.5, size=block)
        partner_ones = rng.binomial(ones, stay) + rng.binomial(n - ones, move)
        total += float(((ones > n / 2) == (partner_ones > n / 2)).sum())
    mean = total / sample_count
    var = mean * (1.0 - mean) * sample_count / max(sample_count - 1, 1)
    return mean, math.sqrt(var / sample_count)


def majority_agreement_table(rho: float, n: int) -> float:
    """The majority agreement probability summed over binomial counts, from
    an (n+1) x 2 x (n//2+1) Pascal table in O(n^2) (odd n).

    The partner keeps each coordinate with probability |rho| (copied for
    rho >= 0, flipped for rho < 0) and redraws it otherwise. Given r redrawn
    coordinates and a ones among the n - r kept ones, the word's majority
    is 0 with probability p = P(a + Bin(r, 1/2) <= n//2), and the partner's
    majority is independent of it given (r, a). So the disagreement
    (rho >= 0) or agreement (rho < 0) probability is E[2 p (1 - p)] over
    r ~ Bin(n, 1 - |rho|) and a ~ Bin(n - r, 1/2).
    """
    h = n // 2
    # halves[m, 0, u] and halves[m, 1, u]: pmf and cdf of Binomial(m, 1/2) at
    # u <= h; both follow x_m[u] = (x_{m-1}[u] + x_{m-1}[u-1]) / 2
    halves = np.empty((n + 1, 2, h + 1))
    halves[0, 0] = 0.0
    halves[0, 0, 0] = 1.0
    halves[0, 1] = 1.0
    for m in range(1, n + 1):
        prev, cur = halves[m - 1], halves[m]
        np.add(prev[:, 1:], prev[:, :-1], out=cur[:, 1:])
        cur[:, 0] = prev[:, 0]
        cur *= 0.5
    resampled = _redrawn_pmf(n, abs(rho))
    pmf, cdf = halves[:, 0], halves[:, 1]
    # row r, column u: a = h - u kept ones among n - r, p = cdf[r, u]
    split = 2.0 * cdf * (1.0 - cdf)
    split *= pmf[::-1, ::-1]
    split_mass = float(resampled @ split.sum(axis=1))
    return 1.0 - split_mass if rho >= 0 else split_mass


def argmax_labels(partition, points):
    """Cell index per row by argmax over the row-major scores; exact ties go
    to the lowest index."""
    return np.argmax(partition.scores(points), axis=1)


def projector_loop_distance(cell, points, limit=math.inf):
    """``PartitionCell.distance`` one active-set projector at a time, with
    per-row reductions written as ``np.all(..., axis=1)`` and
    ``np.max(..., axis=1)``: the reference for the stacked projections."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    a, b = cell._a, cell._b
    if a.shape[0] == 0:
        return np.zeros(pts.shape[0])
    if np.any(np.isinf(b)):
        return np.full(pts.shape[0], np.inf)
    slack = pts @ a.T - b[None, :]
    best = np.where(np.all(slack >= -1e-12, axis=1), 0.0, np.inf)
    lower = np.max((-1e-9 - slack) / cell._a_norm[None, :], axis=1)
    todo = np.flatnonzero((best > 0.0) & (lower < limit * (1.0 + 1e-9) + 1e-12))
    near = pts[todo]
    near_best = np.full(todo.size, np.inf)
    for _, subs, rhs, inverses in cell._projectors:
        for sub, sub_b, gram_inv in zip(subs, rhs[:, 0, :], inverses):
            viol = near @ sub.T - sub_b[None, :]
            proj = near - (viol @ gram_inv) @ sub
            feasible = np.all(proj @ a.T - b[None, :] >= -1e-9, axis=1)
            dist = np.linalg.norm(near - proj, axis=1)
            near_best = np.where(feasible & (dist < near_best), dist, near_best)
    best[todo] = near_best
    return best


def normal_chunk(cfg, substream, chunk, columns):
    """One chunk of the package's normal sample stream, each step into a new
    array: Philox uniforms floored at 2**-54, then ndtri."""
    from scipy.special import ndtri

    rows = cfg.chunk_size // 2 if cfg.antithetic else cfg.chunk_size
    key = [cfg.seed, (substream << 32) | chunk]
    u = np.random.Generator(np.random.Philox(key=key)).random((rows, columns))
    z = ndtri(np.maximum(u, 2.0**-54))
    return np.concatenate([z, -z], axis=0) if cfg.antithetic else z


def pair_chunk(cfg, rho, substream, chunk):
    """One chunk of the package's correlated pair stream,
    Y = rho*X + sqrt(1-rho^2)*Z formed into a new array."""
    d = cfg.dimension
    g = normal_chunk(cfg, substream, chunk, 2 * d)
    x = g[:, :d]
    return x, rho * x + math.sqrt(1.0 - rho * rho) * g[:, d:]


def sample_tiles(cfg, substream, chunk, pair_rho=None, tile=None):
    """One chunk of the package's sample stream in the tiles of
    ``montecarlo._sample_tiles``, cut from the whole-chunk draws above: rows
    [start, stop) of the chunk, or with antithetic pairs rows [start, stop)
    of each half, first half first."""
    if pair_rho is None:
        blocks = (normal_chunk(cfg, substream, chunk, cfg.dimension),)
    else:
        blocks = pair_chunk(cfg, pair_rho, substream, chunk)
    rows = cfg.chunk_size // 2 if cfg.antithetic else cfg.chunk_size
    step = rows if tile is None else (tile // 2 if cfg.antithetic else tile)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        if cfg.antithetic:
            yield tuple(np.concatenate([b[start:stop], b[rows + start:rows + stop]])
                        for b in blocks)
        else:
            yield tuple(b[start:stop] for b in blocks)


def use_reference_kernels(monkeypatch) -> list:
    """Swap the reference kernels above into the package: the sample
    tiles, argmax labels and the per-projector distance loop. Returns a
    list that gets one (substream, chunk) entry per chunk the reference
    sampler draws, so a caller can check that the package drew through it."""
    from gauss_bubbles import montecarlo
    from gauss_bubbles.partitions import AffinePartition, PartitionCell

    drawn = []

    def reference_tiles(cfg, substream, chunk, pair_rho=None, tile=None):
        drawn.append((substream, chunk))
        return sample_tiles(cfg, substream, chunk, pair_rho, tile)

    monkeypatch.setattr(montecarlo, "_sample_tiles", reference_tiles)
    monkeypatch.setattr(AffinePartition, "classify_points", argmax_labels)
    monkeypatch.setattr(PartitionCell, "distance", projector_loop_distance)
    return drawn


def unfiltered_collar_integrand(partition, eps):
    """The partition collar integrand without a row filter, m * k + 1
    columns.

    Every row is labelled by ``argmax_labels``, and its distance to every
    cell it lies outside is computed by ``projector_loop_distance`` (exact up
    to the widest epsilon, eps[0]); the last column is the fitted intercept
    sum_j a_j * total_j of the per-row sum of the cell collars (added cell
    by cell), with the coefficients a of ``perimeter._collar_coefficients``,
    added over the epsilons in order.
    """
    from gauss_bubbles.partitions import PartitionCell
    from gauss_bubbles.perimeter import _collar_coefficients

    eps = np.asarray(eps, dtype=float)
    m, k = partition.m, eps.size
    cells = [PartitionCell(partition, i) for i in range(m)]
    intercept, _ = _collar_coefficients(eps)

    def values(x):
        label = argmax_labels(partition, x)
        out = np.zeros((x.shape[0], m, k))
        total = np.zeros((x.shape[0], k))
        for i, cell in enumerate(cells):
            outside = np.flatnonzero(label != i)
            dist = projector_loop_distance(cell, x[outside], limit=eps[0])
            near = dist < eps[0]
            out[outside[near], i] = (dist[near, None] < eps[None, :]) / eps[None, :]
            total += out[:, i]
        fit = np.zeros(x.shape[0])
        for j in range(k):
            fit += intercept[j] * total[:, j]
        return np.column_stack([out.reshape(x.shape[0], m * k), fit])

    return values


def collar_fit(eps: np.ndarray, y: np.ndarray, stderr: np.ndarray) -> tuple[float, float, float]:
    """(intercept, its stderr, slope) of a line through collar values against
    epsilon, weighted by 1 / stderr^2 as if the epsilon columns were
    independent; the single-region collar fitted this way before it formed
    its intercept per row."""
    sig = np.maximum(stderr, 1e-15)
    w = 1.0 / sig**2
    sw, sx, sy = w.sum(), (w * eps).sum(), (w * y).sum()
    sxx, sxy = (w * eps * eps).sum(), (w * eps * y).sum()
    det = sw * sxx - sx * sx
    intercept = (sxx * sy - sx * sxy) / det
    slope = (sw * sxy - sx * sy) / det
    return float(intercept), math.sqrt(max(sxx / det, 0.0)), float(slope)


def bivariate_normal_cdf_scalar_r(h, k, r: float) -> np.ndarray:
    """Owen's Phi_2 over arrays of limits with one scalar correlation, each
    branch taken for the whole array: the reference for the array-``r``
    ``exact._bivariate_normal_cdf``."""
    from scipy.special import ndtr, owens_t

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
        value[rest] = bivariate_normal_cdf_scalar_r(h[rest], k[rest], r)
        return np.clip(value, 0.0, 1.0)
    value = (
        0.5 * ndtr(h)
        + 0.5 * ndtr(k)
        - owens_t(h, (k - r * h) / (h * s))
        - owens_t(k, (h - r * k) / (k * s))
        - np.where(h * k < 0.0, 0.5, 0.0)
    )
    return np.clip(value, 0.0, 1.0)


def merge_rows(h: np.ndarray, u: np.ndarray):
    """Sort the limits (ascending, stable) and drop repeated directions,
    keeping the tightest (smallest) limit."""
    from gauss_bubbles.exact import _SAME_DIRECTION_TOL

    keep_h, keep_u = [], []
    for k in np.argsort(h, kind="stable"):
        if all(np.linalg.norm(u[k] - v) > _SAME_DIRECTION_TOL for v in keep_u):
            keep_h.append(h[k])
            keep_u.append(u[k])
    return np.array(keep_h), np.array(keep_u).reshape(len(keep_u), u.shape[1])


def orthant_probability(limits, directions) -> tuple[float, float]:
    """(P(<u_k, X> <= h_k for every k), error bound) for standard normal X
    and unit rows u_k, one cell at a time: merged rows, their correlation
    product, and Phi, Phi_2 (``bivariate_normal_cdf_scalar_r``) or Phi_3."""
    from gauss_bubbles import exact

    h, u = merge_rows(np.asarray(limits, dtype=float), np.asarray(directions, dtype=float))
    n = h.size
    if n == 0:
        return 1.0, 0.0
    if n == 1:
        from scipy.special import ndtr

        return float(ndtr(h[0])), 0.0
    corr = np.clip(u @ u.T, -1.0, 1.0)
    for k in range(n):
        corr[k, k] = 1.0
        for l in range(k + 1, n):
            if np.linalg.norm(u[k] + u[l]) <= exact._SAME_DIRECTION_TOL:
                corr[k, l] = corr[l, k] = -1.0
    if n == 2:
        r = float(corr[0, 1])
        return float(bivariate_normal_cdf_scalar_r(np.array([h[0]]), np.array([h[1]]), r)[0]), 0.0
    return exact.trivariate_normal_cdf(h, corr)


def per_cell_volumes(partition) -> tuple[np.ndarray, np.ndarray]:
    """(volumes, error bounds) of an affine partition with m <= 4, one
    ``orthant_probability`` per cell of ``cell_constraints``."""
    volumes = np.zeros(partition.m)
    errors = np.zeros(partition.m)
    for i in range(partition.m):
        a, b = partition.cell_constraints(i)
        if not np.any(np.isinf(b)):
            norms = np.linalg.norm(a, axis=1)
            volumes[i], errors[i] = orthant_probability(-b / norms, -a / norms[:, None])
    return volumes, errors


def planar_facet_fraction(partition, facet, anchor):
    """In-plane fraction of one facet's joint-argmax region when at most two
    distinct constraints vary on the plane, else None; one facet at a time,
    merging repeated directions in cell order."""
    from scipy.special import ndtr

    from gauss_bubbles.exact import _JOINT_ARGMAX_TOL, _PARALLEL_TOL, _SAME_DIRECTION_TOL

    z, c = partition.directions, partition.offsets
    others = [k for k in range(partition.m) if k not in (facet.i, facet.j)]
    g = z[facet.i] - z[others]
    alpha = g @ anchor + c[facet.i] - c[others]
    p = g - np.outer(g @ facet.normal, facet.normal)
    norms = np.linalg.norm(p, axis=1)
    flat = norms <= _PARALLEL_TOL
    if np.any(alpha[flat] < -_JOINT_ARGMAX_TOL):
        return 0.0
    t, u = [], []
    for t_k, u_k in zip(alpha[~flat] / norms[~flat], p[~flat] / norms[~flat, None]):
        same = [l for l, v in enumerate(u) if np.linalg.norm(u_k - v) <= _SAME_DIRECTION_TOL]
        if same:
            t[same[0]] = min(t[same[0]], t_k)
        else:
            t.append(t_k)
            u.append(u_k)
    if len(t) == 0:
        return 1.0
    if len(t) == 1:
        return float(ndtr(t[0]))
    if len(t) == 2:
        r = float(np.clip(u[0] @ u[1], -1.0, 1.0))
        return float(bivariate_normal_cdf_scalar_r(np.array([t[0]]), np.array([t[1]]), r)[0])
    return None


class PerCellGeometry(_Geometry):
    """``exact._Geometry`` whose evaluations rebuild the partition and run
    the per-cell and per-facet references above: ``per_cell_volumes``,
    ``planar_facet_fraction`` on ``interface_facets``, and masses
    gamma_1(offset) * fraction through ``gaussian_density``."""

    def __init__(self, directions):
        super().__init__(directions)
        self.directions = np.array(directions, dtype=float)

    def _partition(self, offsets):
        from gauss_bubbles.partitions import AffinePartition

        return AffinePartition(self.directions, np.array(offsets, dtype=float),
                               np.zeros(self.directions.shape[1]))

    def _evaluate(self, offsets, cells, facets):
        from gauss_bubbles.perimeter import interface_facets

        part = self._partition(offsets)
        volumes = errors = fractions = None
        if cells:
            volumes, errors = per_cell_volumes(part)
        if facets:
            fractions = {(f.i, f.j): planar_facet_fraction(part, f, f.offset * f.normal)
                         for f in interface_facets(part)}
        return volumes, errors, fractions

    def _masses(self, offsets, fractions):
        from gauss_bubbles.montecarlo import gaussian_density
        from gauss_bubbles.perimeter import interface_facets

        masses = {}
        for f in interface_facets(self._partition(offsets)):
            fraction = fractions[(f.i, f.j)]
            masses[(f.i, f.j)] = (None if fraction is None
                                  else gaussian_density([f.offset], 1) * float(fraction))
        return masses


def use_reference_exact(monkeypatch):
    """Swap the per-cell exact references above into the package: every
    geometry is a fresh ``PerCellGeometry``, and Phi_2 (also inside the
    Phi_3 quadrature) takes one scalar correlation per call."""
    from gauss_bubbles import exact

    monkeypatch.setattr(exact, "_geometry", PerCellGeometry)
    monkeypatch.setattr(exact, "_bivariate_normal_cdf", bivariate_normal_cdf_scalar_r)


def row_major_joint_argmax_mask(partition, facet, points):
    """Rows where cells i and j tie for the largest score within the
    joint-argmax tolerance, from the row-major ``scores`` product."""
    from gauss_bubbles.exact import _JOINT_ARGMAX_TOL

    scores = partition.scores(points)
    pair_score = np.minimum(scores[:, facet.i], scores[:, facet.j])
    others = np.delete(scores, [facet.i, facet.j], axis=1)
    if others.shape[1] == 0:
        return np.ones(points.shape[0], dtype=bool)
    return pair_score >= others.max(axis=1) - _JOINT_ARGMAX_TOL
