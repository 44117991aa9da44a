"""Functions on the product alphabet {0, ..., m-1}^n with values in the
probability simplex: expectations, influences, the m-ary resampling noise
operator, noise stability, the plurality rule, and the exact two-candidate
majority check against its Gaussian limit.

Tables are stored dense with shape (m,) * n (+ a trailing value axis for
simplex-valued functions), in lexicographic order of the coordinates when
flattened. The noise operator resamples each coordinate independently: a
coordinate keeps its symbol with probability (1 + (m-1)*rho)/m and moves to
each of the other m-1 symbols with probability (1-rho)/m, which is the
unique stochastic completion of the move probability and reduces to the
usual (1+rho)/2 stay probability at m=2.

Plurality's noise stability has a second, table-free path
(``plurality_noise_stability``): for 0 <= rho <= 1 the kernel keeps each
symbol with probability rho and otherwise redraws it uniformly, and
plurality depends only on the vote counts, so the stability is summed over
the C(n+m-1, m-1) count types instead of the m^n words. For rho < 0 that
function contracts the dense table.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, ContractViolationError, DomainError

#: Capacity of the exact evaluators, in array values. Each guard counts,
#: before any array is made, what its evaluator allocates: the m^(n+1)
#: values of a dense table, the 2 m^n values of a contraction's work arrays,
#: the count types times max(n, m) of the plurality count sum, or the
#: h + 1 terms of each array of the majority sum.
DEFAULT_CAPACITY = 10**7

_SIMPLEX_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class NoiseKernel:
    """Single-coordinate resampling kernel on m symbols at correlation rho.

    ``stay`` + (m-1) * ``move`` == 1 holds identically; nonnegativity of the
    probabilities restricts rho to [-1/(m-1), 1].
    """

    m: int
    rho: float

    def __post_init__(self):
        if self.m < 2:
            raise DomainError(f"alphabet size must be at least 2, got {self.m}")
        lo = -1.0 / (self.m - 1)
        if not lo <= self.rho <= 1.0:
            raise DomainError(
                f"rho={self.rho} outside the admissible range [{lo}, 1] for m={self.m}"
            )

    @property
    def stay(self) -> float:
        return (1.0 + (self.m - 1) * self.rho) / self.m

    @property
    def move(self) -> float:
        return (1.0 - self.rho) / self.m

    @property
    def matrix(self) -> np.ndarray:
        k = np.full((self.m, self.m), self.move)
        np.fill_diagonal(k, self.stay)
        return k


@dataclass(frozen=True, eq=False)
class DiscreteFunction:
    """Table of simplex-valued outputs over the n-fold product alphabet.

    ``values`` has shape (m,)*n + (m,): the first n axes index the input
    word, the last axis holds the simplex vector. Every entry must be
    nonnegative and sum to 1 within 1e-12.
    """

    m: int
    n: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        expected = (self.m,) * self.n + (self.m,)
        if values.shape != expected:
            raise ContractViolationError(
                f"table shape {values.shape} does not match {expected}"
            )
        sums = values.sum(axis=-1)
        if np.max(np.abs(sums - 1.0)) > _SIMPLEX_TOL:
            raise ContractViolationError("every table entry must sum to 1")
        if values.min() < -_SIMPLEX_TOL:
            raise ContractViolationError("table entries must be nonnegative")
        object.__setattr__(self, "values", values)
        values.setflags(write=False)

    def coordinate(self, j: int) -> np.ndarray:
        """The real-valued coordinate function f_j."""
        if not 0 <= j < self.m:
            raise DomainError(f"coordinate {j} out of range")
        return self.values[..., j]

    @property
    def n_entries(self) -> int:
        return self.m**self.n

    def as_matrix(self) -> np.ndarray:
        """(m^n, m) array in lexicographic row order."""
        return self.values.reshape(self.n_entries, self.m)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([f"f{j}" for j in range(self.m)])
        for row in self.as_matrix():
            writer.writerow([repr(float(v)) for v in row])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, m: int, n: int) -> "DiscreteFunction":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if len(header) != m:
            raise ContractViolationError(f"CSV has {len(header)} value columns, expected {m}")
        rows = [[float(v) for v in row] for row in reader if row]
        values = np.array(rows).reshape((m,) * n + (m,))
        return cls(m=m, n=n, values=values)


def influences(g: np.ndarray, i: int):
    """Mean, conditional-mean table, and influence of coordinate i (1-based).

    The conditional mean averages coordinate i out; the influence is the
    mean squared deviation E[(g - E_i g)^2].
    """
    table = np.asarray(g, dtype=float)
    n = table.ndim
    if not 1 <= i <= n:
        raise DomainError(f"coordinate index {i} out of range 1..{n}")
    axis = i - 1
    mean = float(table.mean())
    conditional = table.mean(axis=axis)
    centered = table - np.expand_dims(conditional, axis)
    influence = float((centered**2).mean())
    return mean, conditional, influence


def apply_noise_kernel(g: np.ndarray, rho: float, kernel: NoiseKernel | None = None) -> np.ndarray:
    """Apply the product resampling kernel to a real table, axis by axis.

    Along one axis the kernel is move * J + (stay - move) * I (J the all-ones
    matrix), so each pass sums the table over that axis and adds the scaled
    sum to the scaled table, in place on one work copy; cost is O(n * m^n)
    and ``g`` is never written. At rho = 1 this is the identity; at rho = 0
    every entry becomes the global mean. An explicit ``kernel`` overrides
    ``rho`` and must be on the table's alphabet.
    """
    table = np.asarray(g, dtype=float)
    m = table.shape[0]
    if any(s != m for s in table.shape):
        raise ContractViolationError("table must be m ** n shaped")
    if kernel is None:
        kernel = NoiseKernel(m=m, rho=rho)
    elif kernel.m != m:
        raise ContractViolationError(f"kernel on {kernel.m} symbols, table on {m}")
    out = np.array(table)
    for axis in range(out.ndim):
        # summing the m slices beats out.sum(axis) on the trailing axes
        parts = np.moveaxis(out, axis, 0)
        total = parts[0] + parts[1]
        for part in parts[2:]:
            total += part
        total *= kernel.move
        out *= kernel.stay - kernel.move
        out += np.expand_dims(total, axis)
    return out


@dataclass(frozen=True)
class DiscreteStabilityResult:
    rho: float
    per_coordinate: np.ndarray  # S_rho f_j per simplex coordinate
    total: float
    exact: bool
    stderr: float = 0.0


def _stability_exact(f: DiscreteFunction, rho: float) -> DiscreteStabilityResult:
    per = np.empty(f.m)
    norm = f.n_entries
    for j in range(f.m):
        fj = f.coordinate(j)
        per[j] = float((fj * apply_noise_kernel(fj, rho)).sum() / norm)
    return DiscreteStabilityResult(rho=rho, per_coordinate=per, total=float(per.sum()), exact=True)


def _stability_sampled(f: DiscreteFunction, rho: float, sample_count: int, seed: int):
    """Pair sampler: word uniform, each partner coordinate from the kernel row."""
    from numpy.random import Generator, Philox

    kernel = NoiseKernel(m=f.m, rho=rho)
    rng = Generator(Philox(key=seed))
    matrix = f.as_matrix()
    weights = np.array([f.m**t for t in range(f.n - 1, -1, -1)])
    totals = np.zeros(f.m)
    totals_sq = np.zeros(f.m)
    remaining = sample_count
    block_size = 65536
    while remaining > 0:
        block = min(block_size, remaining)
        remaining -= block
        omega = rng.integers(0, f.m, size=(block, f.n))
        stays = rng.random((block, f.n)) < kernel.stay
        jumps = rng.integers(1, f.m, size=(block, f.n))
        delta = np.where(stays, omega, (omega + jumps) % f.m)
        vals = matrix[omega @ weights] * matrix[delta @ weights]
        totals += vals.sum(axis=0)
        totals_sq += (vals * vals).sum(axis=0)
    mean = totals / sample_count
    var = np.maximum(totals_sq / sample_count - mean**2, 0.0)
    stderr = float(np.sqrt(var.sum() / sample_count))
    return DiscreteStabilityResult(
        rho=rho, per_coordinate=mean, total=float(mean.sum()), exact=False, stderr=stderr
    )


def discrete_noise_stability(
    f: DiscreteFunction,
    rho: float,
    sample_count: int | None = None,
    seed: int = 0,
    capacity: int = DEFAULT_CAPACITY,
) -> DiscreteStabilityResult:
    """S_rho f = sum_j E[f_j * (noise kernel applied to f_j)].

    Exact (tensor contraction) when its work arrays, the kernel's copy of
    f_j and that copy's product with f_j (2 m^n values), fit in
    ``capacity``; beyond that a Monte Carlo pair sampler is used when
    ``sample_count`` is given, otherwise the call fails with a capacity
    error before any array is made.
    """
    NoiseKernel(m=f.m, rho=rho)  # validates rho for this alphabet
    work = 2 * f.n_entries
    if work <= capacity:
        return _stability_exact(f, rho)
    if sample_count is None:
        raise CapacityError(
            f"contraction over {work} values exceeds capacity {capacity} "
            "and no sample_count was given for the Monte Carlo path"
        )
    return _stability_sampled(f, rho, sample_count, seed)


def check_table_capacity(name: str, m: int, n: int, capacity: int) -> None:
    """Raise a capacity error when a dense table over {0..m-1}^n, with its
    m^(n+1) values, would exceed ``capacity``."""
    # m^(n+1) >= 2^(n+1) exceeds any capacity of fewer bits, so a long word
    # never computes the power (or prints its digits)
    if n + 1 > capacity.bit_length() or m ** (n + 1) > capacity:
        raise CapacityError(f"{name} table of {m}^{n + 1} values exceeds capacity {capacity}")


def plurality_function(m: int, n: int, capacity: int = DEFAULT_CAPACITY) -> DiscreteFunction:
    """The plurality rule as a simplex-valued table.

    A strict winner j maps to the basis vector e_j; any tie for the top
    count maps to the barycenter (1/m, ..., 1/m). The table and the vote
    counts behind it hold m^(n+1) values each; that number must not exceed
    ``capacity``, checked before any array is made.
    """
    if m < 2:
        raise DomainError(f"need at least 2 symbols, got m={m}")
    if n < 1:
        raise DomainError(f"need at least 1 coordinate, got n={n}")
    check_table_capacity("plurality", m, n, capacity)
    # counts[j, w_1, ..., w_k] = #{i : w_i = j}, grown one coordinate at a time;
    # the candidate axis comes first so its m slices are contiguous
    eye = np.eye(m, dtype=np.min_scalar_type(n))
    counts = eye
    for k in range(1, n):
        counts = counts[..., None] + eye.reshape((m,) + (1,) * k + (m,))
    winners = counts == counts.max(axis=0)
    strict = winners.sum(axis=0) == 1
    values = np.where(strict, winners, 1.0 / m)
    return DiscreteFunction(m=m, n=n, values=np.moveaxis(values, 0, -1))


def plurality_noise_stability(
    m: int, n: int, rho: float, capacity: int = DEFAULT_CAPACITY
) -> DiscreteStabilityResult:
    """Noise stability of the plurality rule, summed over vote counts.

    Plurality depends on its word only through the count type b (b_a votes
    for candidate a), and there are C(n+m-1, m-1) types against m^n words.
    For 0 <= rho <= 1 the kernel keeps each vote with probability rho and
    otherwise redraws it uniformly. Given k redrawn votes and the type b of
    the n - k kept ones, the two plurality vectors are independent with
    mean g_k(b), the average of plurality over the types b + c of k uniform
    extra votes. So, per coordinate j,

        S_rho f_j = sum_k Bin(n, 1-rho)(k) sum_b Mult_{n-k}(b) g_{k,j}(b)^2,

    with g_0 = plurality and Pascal's rule g_{k+1}(b) = (1/m) sum_a
    g_k(b + e_a); the multinomial pmf of the kept types obeys the transposed
    rule. The cost is O(m * C(n+m, m)). The types are stored compactly, and
    each array holds at most max(n, m) entries per type; their product with
    C(n+m-1, m-1) must not exceed ``capacity``, checked before any array is
    made.

    For rho < 0 the kernel is not such a mixture when m >= 3, so that range
    contracts the dense table (``discrete_noise_stability``).
    """
    NoiseKernel(m=m, rho=rho)  # validates m and rho
    if n < 1:
        raise DomainError(f"need at least 1 coordinate, got n={n}")
    if rho < 0.0:
        return discrete_noise_stability(plurality_function(m, n, capacity), rho,
                                        capacity=capacity)
    # types = C(n+m-1, i) at i = min(n, m-1), factor by factor; each step at
    # least doubles it, so an oversized request stops within ~log2(capacity)
    types, top, width = 1, max(n, m - 1), max(n, m)
    for i in range(1, min(n, m - 1) + 1):
        types = types * (top + i) // i
        if types * width > capacity:
            raise CapacityError(
                f"plurality over at least {types} count types of {n} votes "
                f"exceeds capacity {capacity}"
            )
    # stars[e, i] = C(e + i, i): the number of types of e votes over i + 1
    # candidates, for e <= n and i < m.
    stars = np.ones((n + 1, m), dtype=np.int64)
    for i in range(1, m):
        np.cumsum(stars[:, i - 1], out=stars[:, i])
    sizes = stars[:, -1]  # sizes[N]: the number of types of N votes
    partial, up = _count_types(stars)
    b = np.diff(partial, prepend=0, append=n)
    winners = b == b.max(axis=1, keepdims=True)
    strict = winners.sum(axis=1) == 1
    g = np.where(strict[:, None], winners, 1.0 / m)

    # mult[N]: the multinomial pmf of the types of N uniform votes.
    mult = [np.ones(1)]
    for size in sizes[:-1]:
        spread = np.broadcast_to(mult[-1] / m, (m, size))
        mult.append(np.bincount(up[:, :size].ravel(), weights=spread.ravel(),
                                minlength=sizes[len(mult)]))
    redrawn = _redrawn_pmf(n, rho)
    per = np.zeros(m)
    for k in range(n + 1):
        if redrawn[k] > 0.0:
            per += redrawn[k] * np.einsum("r,rj,rj->j", mult[n - k], g, g)
        if k < n:
            size = sizes[n - k - 1]
            nxt = g[up[0, :size]]
            for a in range(1, m):
                nxt += g[up[a, :size]]
            g = nxt / m
    return DiscreteStabilityResult(rho=rho, per_coordinate=per, total=float(per.sum()), exact=True)


def _count_types(stars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every count type of n votes over m candidates, and the rank maps.

    A type b is stored as its partial sums s_i = b_0 + ... + b_i for
    i < m - 1, a nondecreasing sequence in [0, n]. Rows are in colex order
    (by the last partial sum, then the one before, ...), in which the types
    of N <= n votes (s_{m-2} <= N, the last count then N - s_{m-2}) are the
    first C(N+m-1, m-1) rows, at the rank sum_i C(s_i + i, i + 1) in every
    level. Adding a vote for candidate a raises s_i for i >= a, so the type
    b + e_a of N + 1 votes has rank r + sum_{i >= a} C(s_i + i, i):
    ``up[a, r]``, for the rows r of fewer than n votes.
    """
    n, m = stars.shape[0] - 1, stars.shape[1]
    partial = np.zeros((1, 0), dtype=np.intp)
    for size in range(1, m):
        # the sequences whose last entry is e extend the first
        # stars[e, size - 1] sequences one shorter
        c = stars[:, size - 1]
        prefix = np.arange(c.sum()) - np.repeat(np.cumsum(c) - c, c)
        partial = np.column_stack([partial[prefix], np.repeat(np.arange(n + 1), c)])
    rows = partial[: stars[n - 1, -1]]
    up = np.empty((m, rows.shape[0]), dtype=np.intp)
    up[m - 1] = np.arange(rows.shape[0])
    for a in range(m - 2, -1, -1):
        up[a] = up[a + 1] + stars[rows[:, a], a]
    return partial, up


def _redrawn_pmf(n: int, keep: float) -> np.ndarray:
    """pmf of the number of redrawn votes, Binomial(n, 1 - keep), by
    Pascal's recurrence one vote at a time."""
    pmf = np.zeros(n + 1)
    pmf[0] = 1.0
    for t in range(1, n + 1):
        pmf[1:t + 1] = keep * pmf[1:t + 1] + (1.0 - keep) * pmf[:t]
        pmf[0] *= keep
    return pmf


@dataclass(frozen=True)
class CltCrosscheckResult:
    rho: float
    n: int
    discrete: float
    discrete_stderr: float
    gaussian: float
    gap: float


def clt_crosscheck(rho: float, n: int, cfg) -> CltCrosscheckResult:
    """Noise stability of the two-candidate majority versus its Gaussian limit.

    The partner word keeps each coordinate with probability (1+rho)/2 and
    flips it otherwise. In the +-1 Fourier expansion of Maj_n (O'Donnell,
    *Analysis of Boolean Functions*, 2014, section 5.3) only the odd levels
    k = 2j + 1 carry weight, and the agreement probability is

        P(Maj_n(x) = Maj_n(y)) = (1 + sum_k W_k rho^k) / 2.

    With h = n // 2, the level weights are proportional to w_0 = 1 and

        w_{j+1} / w_j = (h - j) (2j + 1)^2 / ((j + 1) (2j + 3) (2(h - j) - 1)),

    taken as one cumulative product; dividing by sum_j w_j (Parseval: the
    W_k sum to 1) removes the C(2h, h) / 4^h constant. So the sum has h + 1
    positive terms, and for rho < 0 the odd powers flip its sign. Both sums
    use the same reduction, so the value is exactly 1 at rho = 1, 0 at
    rho = -1 and 1/2 at rho = 0. The Gaussian benchmark is the same-side
    probability of a correlated pair for a half-space of measure 1/2, namely
    1/2 + arcsin(rho)/pi.

    The sum fails with a capacity error when its h + 1 terms exceed
    ``DEFAULT_CAPACITY``, before any array is made. ``cfg`` is accepted for
    its validated Monte Carlo settings, which do not change the result;
    ``discrete_stderr`` is 0. Antithetic sampling is still rejected.
    """
    if n < 1 or n % 2 == 0:
        raise DomainError("the voter count n must be odd (majority ties are out of scope)")
    if getattr(cfg, "antithetic", False):
        raise ConfigError("antithetic sampling does not apply to the majority cross-check")
    NoiseKernel(m=2, rho=rho)  # validates rho in [-1, 1]
    h = n // 2
    if h + 1 > DEFAULT_CAPACITY:
        raise CapacityError(
            f"majority sum over {h + 1} Fourier levels exceeds capacity {DEFAULT_CAPACITY}"
        )

    j = np.arange(h, dtype=float)
    ratio = (h - j) * (2.0 * j + 1.0) ** 2
    ratio /= (j + 1.0) * (2.0 * j + 3.0) * (2.0 * (h - j) - 1.0)
    w = np.empty(h + 1)
    w[0] = 1.0
    np.cumprod(ratio, out=w[1:])
    powers = abs(rho) ** np.arange(1, n + 1, 2, dtype=float)
    # the same pairwise reduction for both sums keeps stab == 1 at |rho| = 1
    stab = float((w * powers).sum() / w.sum())
    discrete = (1.0 + stab) / 2.0 if rho >= 0 else (1.0 - stab) / 2.0
    gaussian = 0.5 + math.asin(rho) / math.pi
    return CltCrosscheckResult(
        rho=rho,
        n=n,
        discrete=discrete,
        discrete_stderr=0.0,
        gaussian=gaussian,
        gap=discrete - gaussian,
    )
