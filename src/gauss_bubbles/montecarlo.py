"""Reproducible Monte Carlo integration against the standard Gaussian measure.

Sampling is chunked and counter-based: every chunk of the stream comes from
a Philox generator keyed by ``(seed, substream, chunk index)``, so chunks are
addressable blocks that can be evaluated in any order (or on any number of
threads) without changing a single bit of the result. Normal variates are
produced by applying the inverse normal CDF to the uniform stream rather
than by Box-Muller; with ``antithetic=True`` the second half of every chunk
is the exact reflection ``-X`` of the first half, so antithetic pairs cancel
odd integrands exactly.

``mc_mean`` reduces each chunk to column sums and sums of squares. Integrands
over the cells of a partition (volumes, moment vectors, noise stability) use
its grouped form: they label each row with its cell, and each chunk sums the
values of every cell over that cell's rows only, instead of summing a dense
one-hot product that is zero almost everywhere. Both forms give the same
bits.

Conventions used throughout the package:

* ``gamma_k(x) = (2*pi)**(-k/2) * exp(-|x|^2/2)`` is the standard Gaussian
  density in k dimensions.
* Reported standard errors are sample standard deviation / sqrt(N), where N
  counts observations (antithetic pairs count as one observation).
* A partition object only needs ``m``, ``d`` and ``classify_points(X)``;
  this module does not depend on any concrete partition type. Every row it
  passes to ``classify_points`` is finite: uniforms are floored at 2**-54
  before ``ndtri``. Affine partitions label rows from cell-major scores (see
  ``partitions``), which needs finite rows.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .errors import (
    ConfigError,
    ContractViolationError,
    DegenerateCellError,
    DomainError,
    UnsupportedGeometryError,
)

TWO_PI = 2.0 * math.pi

#: Largest possible norm of the Gaussian moment vector of any measurable set:
#: integrating x over the half-space where <x, u> >= 0 gives 1/sqrt(2*pi).
MAX_CELL_MOMENT_NORM = 1.0 / math.sqrt(TWO_PI)

# Substream ids partition the key space of one seed. Facet streams use
# FACET_SUBSTREAM + facet ordinal.
MAIN_SUBSTREAM = 0
PAIR_SUBSTREAM = 1
ALIGN_SUBSTREAM = 2
COLLAR_SUBSTREAM = 4
FACET_SUBSTREAM = 1000

_MAX_UINT32 = 2**32 - 1
_MAX_UINT64 = 2**64 - 1
# Floor on uniforms so ndtri never sees an exact 0 from the generator.
_U_FLOOR = 2.0**-54

THREADS_ENV_VAR = "GAUSS_BUBBLES_THREADS"

# Sample coordinates per integrand call. OpenBLAS starts its own threads,
# which compete with the chunk pool for the same cores, once a product of a
# tile's rows with the m directions passes 2**19 multiply-adds. Measured
# with OpenBLAS 0.3.31 on 2 cores, for the (rows x d) @ (d x m) product and
# for the cell-major (m x d) @ (d x rows) one that labels points alike:
# 43690 x 3 x 4 ran on the calling thread, 43691 x 3 x 4 on two. Tiles of
# 2**16 coordinates keep the integrands' products on the calling thread
# for m <= 8.
_TILE_COORDINATES = 2**16

# Marks the threads of a map_chunks pool, so nested calls run serially.
_POOL_THREAD = threading.local()


@dataclass(frozen=True)
class IntegrationConfig:
    """Deterministic description of one Monte Carlo integration.

    Results of every operation in this package are a pure function of these
    five fields. ``sample_count`` must be a multiple of ``chunk_size`` and,
    with antithetic sampling, ``chunk_size`` must be even (each chunk holds
    whole reflection pairs).
    """

    sample_count: int
    seed: int
    dimension: int
    chunk_size: int = 125_000
    antithetic: bool = False

    def __post_init__(self):
        if self.sample_count < 1:
            raise ConfigError("sample_count must be positive")
        if self.chunk_size < 1:
            raise ConfigError("chunk_size must be positive")
        if self.dimension < 1:
            raise ConfigError("dimension must be positive")
        if not (0 <= self.seed <= _MAX_UINT64):
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if self.sample_count % self.chunk_size != 0:
            raise ConfigError(
                f"sample_count={self.sample_count} is not a multiple of "
                f"chunk_size={self.chunk_size}"
            )
        if self.antithetic and self.chunk_size % 2 != 0:
            raise ConfigError("antithetic sampling needs an even chunk_size")
        if self.n_chunks > _MAX_UINT32:
            raise ConfigError("too many chunks for the 32-bit chunk key")

    @property
    def n_chunks(self) -> int:
        return self.sample_count // self.chunk_size

    @property
    def n_observations(self) -> int:
        """Statistical observation count (pairs count once when antithetic)."""
        return self.sample_count // 2 if self.antithetic else self.sample_count


def thread_count() -> int:
    """Worker threads for chunk evaluation; never affects results."""
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}")
    return max(1, value)


def map_chunks(worker: Callable[[int], object], n_chunks: int) -> list:
    """Evaluate ``worker`` over chunk indices, results in chunk order.

    The fold order is fixed by the chunk index, so any thread count produces
    bit-identical output. A call made from inside a ``map_chunks`` worker runs
    serially on that worker's thread, so nested calls (an ``mc_mean`` inside
    an optimizer restart) never run more than ``thread_count()`` threads.
    """
    workers = min(thread_count(), n_chunks)
    if workers <= 1 or getattr(_POOL_THREAD, "active", False):
        return [worker(c) for c in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=workers, initializer=_mark_pool_thread) as pool:
        return list(pool.map(worker, range(n_chunks)))


def _mark_pool_thread():
    _POOL_THREAD.active = True


def _tile_rows(dimension: int) -> int:
    """Rows per integrand call: about ``_TILE_COORDINATES`` sample
    coordinates, rounded down to an even row count."""
    return max(2, _TILE_COORDINATES // dimension // 2 * 2)


def _bit_generator(seed: int, substream: int, chunk: int) -> Philox:
    if not (0 <= substream <= _MAX_UINT32):
        raise ConfigError("substream id out of range")
    return Philox(key=[seed, (substream << 32) | chunk])


def _uniform_chunk(cfg: IntegrationConfig, substream: int, chunk: int, columns: int, rows: int):
    u = Generator(_bit_generator(cfg.seed, substream, chunk)).random((rows, columns))
    np.maximum(u, _U_FLOOR, out=u)
    return u


def _normal_chunk(cfg: IntegrationConfig, substream: int, chunk: int, columns: int):
    """One chunk of standard normal rows; reflected pairs when antithetic."""
    if cfg.antithetic:
        u = _uniform_chunk(cfg, substream, chunk, columns, cfg.chunk_size // 2)
        half = ndtri(u, out=u)
        return np.concatenate([half, -half], axis=0)
    u = _uniform_chunk(cfg, substream, chunk, columns, cfg.chunk_size)
    return ndtri(u, out=u)


def _pair_chunk(cfg: IntegrationConfig, rho: float, substream: int, chunk: int):
    """One chunk of rho-correlated pairs (X, Y), Y = rho*X + sqrt(1-rho^2)*Z.

    Y is formed in place over Z, in the chunk's second d columns; X and Y
    are views of that one array.
    """
    d = cfg.dimension
    g = _normal_chunk(cfg, substream, chunk, 2 * d)
    x, y = g[:, :d], g[:, d:]
    scale = math.sqrt(1.0 - rho * rho)
    # Column by column: numpy updates the strided (rows, d) block in place
    # with an inner loop d long, which runs nearly twice as slowly.
    for k in range(d):
        column = y[:, k]
        column *= scale
        column += rho * x[:, k]
    return x, y


@dataclass(frozen=True)
class MeanResult:
    """Column means with standard errors (stdev / sqrt(observations))."""

    mean: np.ndarray
    stderr: np.ndarray
    n_observations: int


def mc_mean(
    cfg: IntegrationConfig,
    value_fn: Callable,
    substream: int = MAIN_SUBSTREAM,
    pair_rho: float | None = None,
    groups: int | None = None,
) -> MeanResult:
    """Estimate E[value_fn(X)] (or E[value_fn(X, Y)] for correlated pairs).

    ``value_fn`` receives a block of samples with shape (n, dimension) and
    must return per-sample values of shape (n,) or (n, q). It must be
    row-wise: row k of its output depends only on row k of its input, because
    each chunk is passed to it in row tiles of at most ``_tile_rows(d)``
    rows, about 2**16 sample coordinates. The tiles are reassembled into the
    chunk's full value array, so results do not depend on the tile size.
    Antithetic pairs are folded into single observations before the moments
    are accumulated.

    With ``groups=k`` the reduction is grouped: ``value_fn`` returns
    ``(labels, values)``, where ``labels`` is an int per row in [0, k] (k
    means "no group") and ``values`` is an (n, q) array, or None for the
    constant 1. The result has (k + 1) * q columns. Column block g < k
    estimates E[values * 1{label = g}]: the same columns, in the same order
    and to the same bits, as the dense product ``one_hot(labels, k) x values``
    through the per-row path, but each chunk sums only the rows of group g.
    The last block estimates E[values * 1{label < k}], the sum over groups
    taken per row, so its error includes the correlation between groups.
    """
    if groups is not None and groups < 1:
        raise ContractViolationError("groups must be a positive group count")
    tile = _tile_rows(cfg.dimension)

    def work(chunk: int):
        if pair_rho is None:
            blocks = (_normal_chunk(cfg, substream, chunk, cfg.dimension),)
        else:
            blocks = _pair_chunk(cfg, pair_rho, substream, chunk)
        rows = cfg.chunk_size
        labels = v = None
        for start in range(0, rows, tile):
            stop = min(start + tile, rows)
            out = value_fn(*(b[start:stop] for b in blocks))
            if groups is not None:
                labels = _place(labels, start, stop, rows, np.asarray(out[0], dtype=np.intp))
                out = out[1]
                if out is None:
                    continue
            v = _place(v, start, stop, rows, np.asarray(out, dtype=float))
        if v is not None and v.ndim == 1:
            v = v[:, None]
        if groups is not None:
            return _grouped_sums(labels, v, groups, cfg.antithetic)
        if cfg.antithetic:
            # 0.5 * (v(x) + v(-x)), formed in the chunk's own buffer.
            h = v.shape[0] // 2
            v[:h] += v[h:]
            v = v[:h]
            v *= 0.5
        # numpy sums a lone column pairwise; for two or more columns
        # sum(axis=0) adds row by row, as the einsum does several times faster.
        total = v.sum(axis=0) if v.shape[1] == 1 else np.einsum("ij->j", v)
        return total, np.einsum("ij,ij->j", v, v)

    parts = map_chunks(work, cfg.n_chunks)
    total = parts[0][0].copy()
    total_sq = parts[0][1].copy()
    for s, sq in parts[1:]:
        total += s
        total_sq += sq

    n = cfg.n_observations
    mean = total / n
    if n > 1:
        var = np.maximum(total_sq / n - mean * mean, 0.0) * (n / (n - 1))
        stderr = np.sqrt(var / n)
    else:
        stderr = np.full_like(mean, np.inf)
    return MeanResult(mean=mean, stderr=stderr, n_observations=n)


def _place(buf, start: int, stop: int, rows: int, tile: np.ndarray) -> np.ndarray:
    """Copy one tile's output into the chunk-sized buffer, made on first use."""
    if buf is None:
        buf = np.empty((rows,) + tile.shape[1:], dtype=tile.dtype)
    buf[start:stop] = tile
    return buf


def _grouped_sums(labels: np.ndarray, v, k: int, antithetic: bool):
    """Per-group sums and sums of squares of one chunk, (k + 1) * q columns."""
    if np.any((labels < 0) | (labels > k)):
        raise ContractViolationError(f"group labels must lie in [0, {k}]")
    parts = [_masked_sums(labels == g, v, antithetic) for g in range(k)]
    parts.append(_masked_sums(labels < k, v, antithetic))
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _masked_sums(member: np.ndarray, v, antithetic: bool):
    """Sum and sum of squares of ``v * member`` over one chunk's observations.

    Only member rows are visited. Rows outside the mask contribute exact
    zeros to the per-row path's sequential sums, so skipping them changes no
    bit. With antithetic pairs a pair is kept when either half is a member,
    and it is folded as 0.5 * (v(x) + v(-x)) exactly as the per-row path does.
    """
    if antithetic:
        h = member.size // 2
        first, second = member[:h], member[h:]
        if v is None:
            # Folded indicators are 0.5 or 1; these sums are exact in floats.
            hits = np.count_nonzero(first) + np.count_nonzero(second)
            both = np.count_nonzero(first & second)
            return np.array([0.5 * hits]), np.array([0.25 * hits + 0.5 * both])
        if first.all() and second.all():
            obs = 0.5 * (v[:h] + v[h:])
        else:
            # Form 0.5 * (v(x) + v(-x)) with the non-member half read as 0.
            rows = np.flatnonzero(first | second)
            obs = v.take(rows, axis=0)
            in_first, in_second = first[rows], second[rows]
            only_second = ~in_first
            obs[only_second] = v.take(h + rows[only_second], axis=0)
            both = in_first & in_second
            obs[both] += v.take(h + rows[both], axis=0)
            obs *= 0.5
    else:
        if v is None:
            hits = float(np.count_nonzero(member))
            return np.array([hits]), np.array([hits])
        obs = v if member.all() else np.compress(member, v, axis=0)
    if obs.shape[1] == 1 and obs.shape[0] > 0:
        # numpy sums a lone contiguous column pairwise, but the per-row path's
        # one-hot product is wider and summed row by row, as cumsum does.
        return np.cumsum(obs, axis=0)[-1], np.cumsum(obs * obs, axis=0)[-1]
    # For two or more columns both einsums add row by row, like the per-row
    # path's sum(axis=0), and run several times faster than it.
    return np.einsum("ij->j", obs), np.einsum("ij,ij->j", obs, obs)


def gaussian_density(x, k: int | None = None) -> float:
    """Standard Gaussian density gamma_k at the point x in R^k."""
    point = np.asarray(x, dtype=float).reshape(-1)
    if k is None:
        k = point.size
    if k < 1:
        raise DomainError("density dimension must be at least 1")
    if point.size != k:
        raise ContractViolationError(
            f"point has {point.size} coordinates, expected k={k}"
        )
    return float(TWO_PI ** (-k / 2.0) * math.exp(-0.5 * float(point @ point)))


def sample_standard_normal(cfg: IntegrationConfig) -> Iterator[np.ndarray]:
    """Stream of standard normal sample blocks, one array per chunk."""
    for chunk in range(cfg.n_chunks):
        yield _normal_chunk(cfg, MAIN_SUBSTREAM, chunk, cfg.dimension)


def sample_correlated_pairs(rho: float, cfg: IntegrationConfig) -> Iterator[tuple]:
    """Stream of (X, Y) blocks of rho-correlated standard normal points.

    Both marginals are exactly standard normal; E[X_i Y_j] = rho * 1{i=j}.
    """
    if not -1.0 < rho < 1.0:
        raise DomainError(f"correlation must satisfy |rho| < 1, got {rho}")
    for chunk in range(cfg.n_chunks):
        yield _pair_chunk(cfg, rho, PAIR_SUBSTREAM, chunk)


def _check_partition(partition, cfg: IntegrationConfig):
    if not hasattr(partition, "classify_points") or not hasattr(partition, "m"):
        raise ContractViolationError("expected a partition with classify_points and m")
    if getattr(partition, "d", cfg.dimension) != cfg.dimension:
        raise ContractViolationError(
            f"partition dimension {partition.d} != config dimension {cfg.dimension}"
        )


@dataclass(frozen=True)
class VolumeReport:
    """Gaussian cell volumes estimated by classifying Monte Carlo samples."""

    volumes: np.ndarray
    stderr: np.ndarray
    counts: np.ndarray
    config: IntegrationConfig

    @property
    def m(self) -> int:
        return self.volumes.size


def mc_volumes(partition, cfg: IntegrationConfig) -> VolumeReport:
    """Estimate the Gaussian volume of every cell of a partition.

    Each sample lands in exactly one cell, so the integer counts add up to
    ``sample_count`` exactly and the volume estimates sum to 1 up to float
    rounding of the divisions.
    """
    _check_partition(partition, cfg)
    m = partition.m

    def values(x):
        return partition.classify_points(x), None

    res = mc_mean(cfg, values, groups=m)
    volumes, stderr = res.mean[:m], res.stderr[:m]
    # Pair-folded indicator sums are multiples of 1/2, exact in binary floats,
    # so the per-cell sample counts can be recovered exactly.
    scale = 2.0 if cfg.antithetic else 1.0
    counts = np.rint(volumes * res.n_observations * scale).astype(np.int64)
    return VolumeReport(volumes=volumes, stderr=stderr, counts=counts, config=cfg)


@dataclass(frozen=True)
class MomentReport:
    """Cell volumes, moment vectors, and the squared-deviation functional.

    For each cell i, ``moments[i]`` estimates the Gaussian moment vector
    z_i = integral of x over the cell, and ``deviations[i] = z_i - w`` is the
    integral of (x - w/a_i). The moment functional is
    M = sum_i |z_i - w|^2 and the penalty is sqrt(pi/2) * M.

    Standard errors of nonlinear scalars (M, penalty, moment norms) come
    from first-order propagation of the per-column errors; cross-column
    covariances are ignored, which is conservative for the norm bounds used
    by the checks in this package.
    """

    volumes: np.ndarray
    volumes_stderr: np.ndarray
    moments: np.ndarray
    moments_stderr: np.ndarray
    shift: np.ndarray
    scaled_shifts: np.ndarray
    moment_functional: float
    moment_functional_stderr: float
    penalty: float
    penalty_stderr: float
    config: IntegrationConfig

    @property
    def m(self) -> int:
        return self.volumes.size

    @property
    def deviations(self) -> np.ndarray:
        """Per-cell integral of (x - w/a_i), one row per cell."""
        return self.moments - self.shift[None, :]

    @property
    def moment_norms(self) -> np.ndarray:
        return np.linalg.norm(self.moments, axis=1)

    @property
    def moment_norm_stderr(self) -> np.ndarray:
        # |z_hat| - |z| <= |z_hat - z|; the rms of the component errors is a
        # conservative scale for that deviation.
        return np.sqrt((self.moments_stderr**2).sum(axis=1))


def mc_moments(partition, w, cfg: IntegrationConfig) -> MomentReport:
    """Estimate volumes and moment vectors from one shared sample stream.

    Sharing the stream between the volume and moment columns keeps the
    report internally consistent: the scaled shifts w/a_i use the estimated
    volumes, so each cell's deviation integral is exactly ``moments[i] - w``.
    """
    _check_partition(partition, cfg)
    m, d = partition.m, cfg.dimension
    w = np.zeros(d) if w is None else np.asarray(w, dtype=float).reshape(-1)
    if w.size != d:
        raise ContractViolationError(f"shift w has size {w.size}, expected {d}")

    def values(x):
        return partition.classify_points(x), np.hstack([np.ones((x.shape[0], 1)), x])

    # Per cell: the volume column (values 1), then the d moment columns.
    res = mc_mean(cfg, values, groups=m)
    mean = res.mean[: m * (d + 1)].reshape(m, d + 1)
    err = res.stderr[: m * (d + 1)].reshape(m, d + 1)
    volumes, moments = mean[:, 0].copy(), mean[:, 1:].copy()
    volumes_stderr, moments_stderr = err[:, 0].copy(), err[:, 1:].copy()

    if np.any(w != 0.0) and np.any(volumes == 0.0):
        empty = int(np.flatnonzero(volumes == 0.0)[0])
        raise DegenerateCellError(
            f"cell {empty} has zero estimated volume; w/a_i is undefined for w != 0"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(volumes[:, None] > 0.0, w[None, :] / volumes[:, None], 0.0)

    dev = moments - w[None, :]
    functional = float((dev * dev).sum())
    functional_stderr = float(np.sqrt(((2.0 * dev * moments_stderr) ** 2).sum()))
    pen_factor = math.sqrt(math.pi / 2.0)
    return MomentReport(
        volumes=volumes,
        volumes_stderr=volumes_stderr,
        moments=moments,
        moments_stderr=moments_stderr,
        shift=w,
        scaled_shifts=scaled,
        moment_functional=functional,
        moment_functional_stderr=functional_stderr,
        penalty=pen_factor * functional,
        penalty_stderr=pen_factor * functional_stderr,
        config=cfg,
    )


@dataclass(frozen=True)
class DivergenceReport:
    """Both sides of the identity: integral of x over a cell equals minus the
    density-weighted integral of the exterior unit normal over its boundary."""

    volume_side: np.ndarray
    volume_stderr: np.ndarray
    surface_side: np.ndarray
    surface_stderr: np.ndarray
    residual: float
    combined_stderr: float
    passed: bool


def divergence_identity_check(partition, cell: int, cfg: IntegrationConfig) -> DivergenceReport:
    """Check the Gaussian divergence identity on one polyhedral cell.

    The volume side is estimated from the main sample stream; the surface
    side reuses the facet machinery (each flat facet contributes its
    Gaussian mass times its constant exterior normal).
    """
    if not hasattr(partition, "directions") or not hasattr(partition, "offsets"):
        raise UnsupportedGeometryError(
            "divergence check needs a partition with polyhedral facet geometry"
        )
    _check_partition(partition, cfg)
    if not 0 <= cell < partition.m:
        raise ContractViolationError(f"cell index {cell} out of range")

    from . import perimeter  # local import: perimeter builds on this module

    def values(x):
        mask = (partition.classify_points(x) == cell).astype(float)
        return x * mask[:, None]

    vol = mc_mean(cfg, values)
    volume_side = vol.mean
    volume_var = vol.stderr**2

    surface_side = np.zeros(cfg.dimension)
    surface_var = np.zeros(cfg.dimension)
    for facet in perimeter.interface_facets(partition):
        if cell not in (facet.i, facet.j):
            continue
        mass, mass_err = perimeter.facet_mass(partition, facet, cfg)
        sign = 1.0 if facet.i == cell else -1.0
        normal = sign * facet.normal
        surface_side += normal * mass
        surface_var += (normal * mass_err) ** 2

    residual_vec = volume_side + surface_side
    residual = float(np.linalg.norm(residual_vec))
    combined = float(np.sqrt((volume_var + surface_var).sum()))
    return DivergenceReport(
        volume_side=volume_side,
        volume_stderr=np.sqrt(volume_var),
        surface_side=surface_side,
        surface_stderr=np.sqrt(surface_var),
        residual=residual,
        combined_stderr=combined,
        passed=residual <= 3.0 * combined,
    )
