"""Reproducible Monte Carlo integration against the standard Gaussian measure.

Sampling is chunked and counter-based: every chunk of the stream comes from
a Philox generator keyed by ``(seed, substream, chunk index)``, so chunks are
addressable blocks that can be evaluated in any order (or on any number of
threads) without changing a single bit of the result. Normal variates are
produced by applying the inverse normal CDF to the uniform stream rather
than by Box-Muller; with ``antithetic=True`` the second half of every chunk
is the exact reflection ``-X`` of the first half, so antithetic pairs cancel
odd integrands exactly.

``mc_mean`` reduces each chunk to column sums and sums of squares. A chunk
is drawn, evaluated and reduced one row tile at a time: it holds the tile's
samples and integrand values and the running sums, which continue row after
row exactly as a sum over the whole chunk would, never an array as long as
the chunk (except the observations of an ungrouped one-column integrand,
which numpy sums pairwise over the whole chunk). Integrands over the cells
of a partition (volumes, moment vectors, noise stability) use its grouped
form: they label each row with its cell, and each chunk sums the values of
every cell over that cell's rows only, instead of summing a dense one-hot
product that is zero almost everywhere. Both forms give the same bits.

The generator (``numpy.random``'s ``Generator`` and ``Philox``) and
``ndtri`` are imported where sampling starts, in ``_bit_generator`` and
``_sample_tiles``, and the thread pool in ``map_chunks`` when it runs more
than one thread, so the commands that draw no sample (discrete,
clt-crosscheck) never load them. ``mc_mean`` runs the first import of
``numpy.random`` and ``scipy.special`` on the calling thread, before any
chunk reaches a pool worker.

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
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

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

# Observation rows per batch of a running sum (see _RunningSums): two
# batches of 2048 rows of q columns stay in cache, and on 2 cores folding
# and summing a collar tile of 10922 x 13 values ran fastest at 2048 rows,
# about a fifth faster than in one batch.
_CARRY_ROWS = 2048

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
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers, initializer=_mark_pool_thread) as pool:
        return list(pool.map(worker, range(n_chunks)))


def _mark_pool_thread():
    _POOL_THREAD.active = True


def _tile_rows(dimension: int) -> int:
    """Rows per integrand call: about ``_TILE_COORDINATES`` sample
    coordinates, rounded down to an even row count."""
    return max(2, _TILE_COORDINATES // dimension // 2 * 2)


def _bit_generator(seed: int, substream: int, chunk: int) -> Philox:
    from numpy.random import Philox

    if not (0 <= substream <= _MAX_UINT32):
        raise ConfigError("substream id out of range")
    return Philox(key=[seed, (substream << 32) | chunk])


def _sample_tiles(cfg: IntegrationConfig, substream: int, chunk: int,
                  pair_rho: float | None = None, tile: int | None = None) -> Iterator[tuple]:
    """One chunk's sample rows, drawn tile by tile: ``(x,)`` blocks of
    standard normal rows, or ``(x, y)`` blocks of rho-correlated pairs,
    Y = rho*X + sqrt(1-rho^2)*Z, when ``pair_rho`` is given.

    Each tile is drawn as Philox uniforms, floored at ``_U_FLOOR`` and
    passed through ``ndtri``. Philox is counter-based, so successive draws
    from the chunk's generator continue its stream exactly: the rows are the
    chunk's rows in order, to the bit, whatever the tile. A tile holds at
    most ``tile`` rows, the whole chunk when ``tile`` is None. With
    antithetic sampling it holds ``tile // 2`` drawn rows followed by their
    reflections, so the tiles carry the chunk's pairs in order and the whole
    chunk is one block [x; -x].
    """
    # Imported here so that the commands that sample nothing (discrete,
    # clt-crosscheck) never load them.
    from numpy.random import Generator
    from scipy.special import ndtri

    d = cfg.dimension
    columns = d if pair_rho is None else 2 * d
    rows = cfg.chunk_size // 2 if cfg.antithetic else cfg.chunk_size
    step = rows if tile is None else (tile // 2 if cfg.antithetic else tile)
    generator = Generator(_bit_generator(cfg.seed, substream, chunk))
    for start in range(0, rows, step):
        u = generator.random((min(step, rows - start), columns))
        np.maximum(u, _U_FLOOR, out=u)
        g = ndtri(u, out=u)
        if cfg.antithetic:
            g = np.concatenate([g, -g], axis=0)
        if pair_rho is None:
            yield (g,)
            continue
        # Y is formed in place over Z, in the block's second d columns, column
        # by column: numpy updates the strided (rows, d) block in place with
        # an inner loop d long, which runs nearly twice as slowly.
        x, y = g[:, :d], g[:, d:]
        scale = math.sqrt(1.0 - pair_rho * pair_rho)
        for k in range(d):
            column = y[:, k]
            column *= scale
            column += pair_rho * x[:, k]
        yield x, y


def _normal_chunk(cfg: IntegrationConfig, substream: int, chunk: int) -> np.ndarray:
    """One whole chunk of standard normal rows, [x; -x] when antithetic."""
    return next(_sample_tiles(cfg, substream, chunk))[0]


def _pair_chunk(cfg: IntegrationConfig, rho: float, substream: int, chunk: int):
    """One whole chunk of rho-correlated pairs (X, Y), views of one array."""
    return next(_sample_tiles(cfg, substream, chunk, pair_rho=rho))


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
    each chunk is drawn, evaluated and reduced in row tiles of at most
    ``_tile_rows(d)`` rows, about 2**16 sample coordinates. A chunk holds one
    tile at a time and the running column sums and sums of squares of its
    observations, continued tile by tile in row order, so the results do not
    depend on the tile size. The one chunk-long array is the column of an
    ungrouped integrand with a single column, which numpy sums pairwise.
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
    # The sampler's first imports of numpy.random and scipy.special run
    # here, on the calling thread, not in the pool workers.
    import numpy.random  # noqa: F401
    import scipy.special  # noqa: F401

    def work(chunk: int):
        sums = _ChunkSums(cfg) if groups is None else _GroupedSums(groups, cfg.antithetic)
        for blocks in _sample_tiles(cfg, substream, chunk, pair_rho, tile):
            sums.add(value_fn(*blocks))
        return sums.result()

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


def _as_columns(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    return v[:, None] if v.ndim == 1 else v


def _fold(v: np.ndarray, reflected: np.ndarray | None = None,
          out: np.ndarray | None = None) -> np.ndarray:
    """0.5 * (v(x) + v(-x)): one observation per antithetic pair, from a tile
    [x; -x] or from its two halves ``v`` and ``reflected``."""
    if reflected is None:
        h = v.shape[0] // 2
        v, reflected = v[:h], v[h:]
    out = np.add(v, reflected, out=out)
    out *= 0.5
    return out


class _RunningSums:
    """Column sums and sums of squares of ``blocks`` streams of observation
    rows, each added one row after another and continued from tile to tile.

    Two or more columns are added by ``einsum``, a lone column by
    ``cumsum``, because numpy would sum it pairwise. Rows are summed
    ``_CARRY_ROWS`` at a time, each batch carrying its block's running sum
    in as its first row, and the running sum of squares beside a first row
    of ones, so the sums keep the bits of one sequential pass over all of
    the block's rows. ``einsum`` starts from +0, so the first batch's
    carried row of zeros changes no bit either. Every batch is formed in
    the same two small buffers, which stay in cache.
    """

    def __init__(self, blocks: int):
        self.total = [None] * blocks
        self.total_sq = [None] * blocks
        self._carried = self._ones = None

    def add(self, block: int, v: np.ndarray, fold: bool = False) -> None:
        """Continue ``block``'s sums over the rows of ``v``, or over its
        folded pairs ``_fold(v)`` when ``fold``."""
        h = v.shape[0] // 2
        n, q = (h if fold else v.shape[0]), v.shape[1]
        if n == 0:
            return
        if q == 1:
            self._add_column(block, _fold(v) if fold else v)
            return
        if self._carried is None:
            self._carried = np.empty((_CARRY_ROWS + 1, q))
            self._ones = np.empty((_CARRY_ROWS + 1, q))
            self._ones[0] = 1.0
        for start in range(0, n, _CARRY_ROWS):
            stop = min(start + _CARRY_ROWS, n)
            carried = self._carried[:stop - start + 1]
            ones = self._ones[:stop - start + 1]
            if fold:
                _fold(v[start:stop], v[h + start:h + stop], out=carried[1:])
            else:
                carried[1:] = v[start:stop]
            ones[1:] = carried[1:]
            total, total_sq = self.total[block], self.total_sq[block]
            carried[0] = 0.0 if total is None else total
            self.total[block] = np.einsum("ij->j", carried)
            carried[0] = 0.0 if total_sq is None else total_sq
            self.total_sq[block] = np.einsum("ij,ij->j", ones, carried)

    def _add_column(self, block: int, obs: np.ndarray) -> None:
        sq = obs * obs
        if self.total[block] is not None:
            obs = np.concatenate([self.total[block][None], obs])
            sq = np.concatenate([self.total_sq[block][None], sq])
        self.total[block] = np.cumsum(obs, axis=0)[-1]
        self.total_sq[block] = np.cumsum(sq, axis=0)[-1]

    def sums(self, q: int):
        """Every block's sums and sums of squares, q columns each; zeros for
        a block that saw no rows."""
        zeros = np.zeros(q)
        return (np.concatenate([zeros if s is None else s for s in self.total]),
                np.concatenate([zeros if s is None else s for s in self.total_sq]))


class _ChunkSums:
    """Sums and sums of squares of one chunk's observations, q columns, fed
    one tile of integrand values at a time."""

    def __init__(self, cfg: IntegrationConfig):
        self.antithetic = cfg.antithetic
        self.observations = cfg.chunk_size // 2 if cfg.antithetic else cfg.chunk_size
        self.running = _RunningSums(1)
        self.column = None
        self.filled = 0
        self.q = 0

    def add(self, values) -> None:
        v = _as_columns(values)
        self.q = v.shape[1]
        if self.q > 1:
            self.running.add(0, v, fold=self.antithetic)
            return
        if self.column is None:
            self.column = np.empty((self.observations, 1))
        n = v.shape[0] // 2 if self.antithetic else v.shape[0]
        rows = self.column[self.filled:self.filled + n]
        if self.antithetic:
            _fold(v, out=rows)
        else:
            rows[...] = v
        self.filled += n

    def result(self):
        if self.column is None:
            return self.running.sums(self.q)
        # numpy sums a lone contiguous column pairwise, over the whole chunk.
        return self.column.sum(axis=0), np.einsum("ij,ij->j", self.column, self.column)


class _GroupedSums:
    """Per-group sums and sums of squares of one chunk, (k + 1) * q columns,
    fed one tile of ``(labels, values)`` at a time."""

    def __init__(self, k: int, antithetic: bool):
        self.k = k
        self.antithetic = antithetic
        self.running = _RunningSums(k + 1)
        self.hits = [0] * (k + 1)
        self.both = [0] * (k + 1)
        self.q = None

    def add(self, out) -> None:
        labels = np.asarray(out[0], dtype=np.intp)
        if np.any((labels < 0) | (labels > self.k)):
            raise ContractViolationError(f"group labels must lie in [0, {self.k}]")
        members = [labels == g for g in range(self.k)]
        members.append(labels < self.k)
        if out[1] is None:
            self._count(members)
            return
        v = _as_columns(out[1])
        self.q = v.shape[1]
        for g, member in enumerate(members):
            self.running.add(g, _member_observations(member, v, self.antithetic))

    def _count(self, members) -> None:
        for g, member in enumerate(members):
            if self.antithetic:
                h = member.size // 2
                first, second = member[:h], member[h:]
                self.hits[g] += np.count_nonzero(first) + np.count_nonzero(second)
                self.both[g] += np.count_nonzero(first & second)
            else:
                self.hits[g] += np.count_nonzero(member)

    def result(self):
        if self.q is not None:
            return self.running.sums(self.q)
        # Folded indicators are 0.5 or 1; these sums are exact in floats.
        hits = np.array(self.hits, dtype=float)
        if not self.antithetic:
            return hits, hits.copy()
        return 0.5 * hits, 0.25 * hits + 0.5 * np.array(self.both, dtype=float)


def _member_observations(member: np.ndarray, v: np.ndarray, antithetic: bool) -> np.ndarray:
    """The observations of ``v * member`` in one tile that can be nonzero.

    Only member rows are kept. Rows outside the mask contribute exact zeros
    to the per-row path's sequential sums, so skipping them changes no bit.
    With antithetic pairs a pair is kept when either half is a member, and
    it is folded as 0.5 * (v(x) + v(-x)) with the non-member half read as 0,
    exactly as the per-row path does.
    """
    if not antithetic:
        return v if member.all() else np.compress(member, v, axis=0)
    h = member.size // 2
    first, second = member[:h], member[h:]
    if first.all() and second.all():
        return _fold(v)
    rows = np.flatnonzero(first | second)
    obs = v.take(rows, axis=0)
    in_first, in_second = first[rows], second[rows]
    only_second = ~in_first
    obs[only_second] = v.take(h + rows[only_second], axis=0)
    both = in_first & in_second
    obs[both] += v.take(h + rows[both], axis=0)
    obs *= 0.5
    return obs


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
        yield _normal_chunk(cfg, MAIN_SUBSTREAM, chunk)


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


def _shift_vector(w, d: int) -> np.ndarray:
    """The moment shift ``w`` as a finite vector of length d; zeros for None."""
    w = np.zeros(d) if w is None else np.asarray(w, dtype=float).reshape(-1)
    if w.size != d:
        raise ContractViolationError(f"shift w has size {w.size}, expected {d}")
    if not np.all(np.isfinite(w)):
        raise DomainError(f"shift w must be finite, got {w.tolist()}")
    return w


def mc_moments(partition, w, cfg: IntegrationConfig) -> MomentReport:
    """Estimate volumes and moment vectors from one shared sample stream.

    Sharing the stream between the volume and moment columns keeps the
    report internally consistent: the scaled shifts w/a_i use the estimated
    volumes, so each cell's deviation integral is exactly ``moments[i] - w``.
    """
    _check_partition(partition, cfg)
    m, d = partition.m, cfg.dimension
    w = _shift_vector(w, d)

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
