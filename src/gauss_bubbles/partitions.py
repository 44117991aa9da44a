"""Partition families of R^d: regular-simplex cones, affine argmax cells,
round cylinders, volume calibration, perturbation, and rotation alignment.

An affine partition assigns a point x to the cell whose affine functional
<x, z_i> + c_i is largest, ties broken to the lowest index. Simplicial-cone
partitions use the vertices of a regular simplex as directions; the shift w
enters through the offsets c_i = -<w, z_i>, which re-apexes the cones at w.
Points are labelled from cell-major scores, one contiguous row of n scores
per cell, by a pairwise tournament over those m rows; it gives
``np.argmax(scores(points), axis=1)`` to the bit on finite points.

Volume calibration solves for the offsets that give prescribed cell
volumes: by Newton steps on exact volumes (``exact``) when m <= 4, and on
Monte Carlo volumes of one fixed sample stream when m >= 5. ``cell_moments``
picks the moment evaluator by the same rule.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CalibrationError,
    CapacityError,
    ContractViolationError,
    DomainError,
)
from . import exact
from .montecarlo import (
    ALIGN_SUBSTREAM,
    IntegrationConfig,
    MomentReport,
    mc_mean,
    mc_moments,
    mc_volumes,
)

# Most active-set projectors one PartitionCell may enumerate. 1023 admits
# simplicial cones up to m=11; each further cell doubles the count, the
# build and the collar's projection work.
_MAX_PROJECTORS = 1023
# PartitionCell.distance accepts projections that break a constraint by up
# to this much, so its distances are taken to that slightly larger cell.
_FEASIBLE_TOL = 1e-9
# An active set gets a projector when the Gram matrix of its unit-length
# constraint rows has numerical rank equal to its size at this tolerance.
_RANK_TOL = 1e-12
# PartitionCell.distance projects a row by every active set at once, in
# batches of at most this many projected coordinates (projectors x rows x d),
# which bounds its temporaries when m is large.
_PROJECTED_COORDINATES = 2**18
# numpy adds the squares of fewer than 8 coordinates in order, so a fold over
# the coordinates gives np.linalg.norm's bits; from 8 on it sums pairwise.
_FOLDED_NORM_MAX_D = 7

# Exact calibration always iterates to at least this residual: at equal
# volumes a volume error moves the perimeter only at second order, but a
# certificate's margin is that small too, so a loose stop biases it.
_EXACT_RESIDUAL = 1e-12
# Exact calibration: cells below this volume take the log step, since their
# facet masses give no usable Newton slope; a step is halved at most this
# many times while it fails to reduce the residual.
_NEWTON_FLOOR = 1e-6
_MAX_HALVINGS = 30


@dataclass(frozen=True, eq=False)
class RegularSimplexVertices:
    """Unit vectors z_1..z_m in R^{m-1} with pairwise inner product -1/(m-1)."""

    m: int
    vertices: np.ndarray

    def __post_init__(self):
        self.vertices.setflags(write=False)


def regular_simplex(m: int) -> RegularSimplexVertices:
    """Vertices of the regular simplex centered at the origin in R^{m-1}.

    Built recursively in a canonical orientation: z_1 = e_1, and each later
    block reuses the (m-1)-vertex construction scaled into the remaining
    coordinates. Deterministic, and exact up to float rounding.
    """
    if m < 2:
        raise DomainError(f"regular simplex needs m >= 2, got {m}")
    vertices = np.array([[1.0], [-1.0]])
    for k in range(3, m + 1):
        prev = vertices  # (k-1, k-2)
        out = np.zeros((k, k - 1))
        out[0, 0] = 1.0
        out[1:, 0] = -1.0 / (k - 1)
        out[1:, 1:] = math.sqrt(1.0 - 1.0 / (k - 1) ** 2) * prev
        vertices = out
    return RegularSimplexVertices(m=m, vertices=vertices)


@dataclass(frozen=True, eq=False)
class AffinePartition:
    """Partition of R^d into m cells by argmax of affine functionals.

    ``directions`` has one row z_i per cell and ``offsets`` holds the c_i.
    ``shift`` is metadata recording the cone apex w when the partition was
    built as simplicial cones (offsets then satisfy c_i = -<w, z_i>).
    """

    directions: np.ndarray
    offsets: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        directions = np.atleast_2d(np.asarray(self.directions, dtype=float))
        offsets = np.asarray(self.offsets, dtype=float).reshape(-1)
        shift = np.asarray(self.shift, dtype=float).reshape(-1)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "shift", shift)
        m, d = directions.shape
        if m < 2:
            raise ContractViolationError("an affine partition needs at least 2 cells")
        if offsets.size != m:
            raise ContractViolationError("offsets length must match directions rows")
        if shift.size != d:
            raise ContractViolationError("shift length must match the ambient dimension")
        if not np.all(np.isfinite(directions)) or not np.all(np.isfinite(offsets)):
            raise ContractViolationError("directions and offsets must be finite")
        same = np.all(directions == directions[0], axis=1) & (offsets == offsets[0])
        if same.all():
            raise ContractViolationError("all affine functionals are identical")
        directions.setflags(write=False)
        offsets.setflags(write=False)
        shift.setflags(write=False)

    @property
    def m(self) -> int:
        return self.directions.shape[0]

    @property
    def d(self) -> int:
        return self.directions.shape[1]

    def scores(self, points: np.ndarray) -> np.ndarray:
        """Affine scores <x, z_i> + c_i, one column per cell."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.directions.T + self.offsets[None, :]

    def _cell_scores(self, points: np.ndarray) -> np.ndarray:
        """``scores(points).T`` to the bit, as an (m, n) array: one
        contiguous row of scores per cell."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = self.directions @ pts.T
        out += self.offsets[:, None]
        return out

    def classify_points(self, points: np.ndarray) -> np.ndarray:
        """Cell index per row; exact ties go to the lowest index.

        Rows must be finite. The labels are ``np.argmax(scores(points),
        axis=1)`` to the bit on finite rows, but a NaN score never wins
        here, where argmax would return the first NaN.
        """
        return _tournament(self._cell_scores(points))[1]

    def classify(self, point) -> int:
        """Cell index of one point; a non-finite point raises DomainError."""
        point = np.asarray(point, dtype=float)
        if not np.all(np.isfinite(point)):
            raise DomainError("cannot classify a point with a non-finite coordinate")
        return int(self.classify_points(point[None, :])[0])

    def with_offsets(self, offsets) -> "AffinePartition":
        return AffinePartition(self.directions.copy(), np.asarray(offsets, float), self.shift.copy())

    def rotated(self, rotation: np.ndarray) -> "AffinePartition":
        """The image partition under x -> R x (directions become R z_i)."""
        rot = np.asarray(rotation, dtype=float)
        return AffinePartition(self.directions @ rot.T, self.offsets.copy(), rot @ self.shift)

    def relabeled(self, order) -> "AffinePartition":
        """Reorder cells so new cell i is old cell order[i]."""
        idx = np.asarray(order, dtype=int)
        return AffinePartition(self.directions[idx], self.offsets[idx], self.shift.copy())

    def cell_constraints(self, cell: int):
        """Half-space description A x >= b of one (convex) cell.

        Rows with z_i == z_j are dropped when always satisfied; an
        unsatisfiable parallel row makes the cell empty, reported via an
        infeasible marker row of zeros with b = +inf. An identical functional
        (c_i == c_j) is unsatisfiable for the higher index, which loses every
        argmax tie.
        """
        z = self.directions
        c = self.offsets
        rows, rhs = [], []
        for j in range(self.m):
            if j == cell:
                continue
            a = z[cell] - z[j]
            b = c[j] - c[cell]
            if np.all(a == 0.0):
                if b > 0.0 or (b == 0.0 and j < cell):
                    return np.zeros((1, self.d)), np.array([np.inf])
                continue
            rows.append(a)
            rhs.append(b)
        if not rows:
            return np.zeros((0, self.d)), np.zeros(0)
        return np.array(rows), np.array(rhs)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "d": self.d,
            "directions": [float(v) for v in self.directions.reshape(-1)],
            "offsets": [float(v) for v in self.offsets],
            "w": [float(v) for v in self.shift],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "AffinePartition":
        m, d = int(data["m"]), int(data["d"])
        directions = np.asarray(data["directions"], dtype=float).reshape(m, d)
        return cls(directions, np.asarray(data["offsets"], float), np.asarray(data["w"], float))

    @classmethod
    def from_json(cls, text: str) -> "AffinePartition":
        return cls.from_json_dict(json.loads(text))


def _tournament(scores: np.ndarray):
    """Largest entry of every column of an (m, n) array and its row index.

    The m rows meet in adjacent pairs, round by round, so every comparison
    reads whole contiguous rows. A strict ``>`` keeps the left entry on an
    exact tie, and the left entry of a pair always holds the lower indices,
    so ties go to the lowest index, as ``np.argmax(scores, axis=0)`` breaks
    them. The largest entries are selected, not recomputed, so they equal the
    winning entries up to the sign of a zero. Entries must be finite: a NaN
    never wins a comparison.
    """
    entries = [(row, index) for index, row in enumerate(scores)]
    while len(entries) > 1:
        paired = []
        for (left, left_label), (right, right_label) in zip(entries[0::2], entries[1::2]):
            take = right > left
            # left_label where not take, right_label where take: arithmetic
            # runs several times faster than np.where on a random mask.
            label = take * (right_label - left_label)
            label += left_label
            paired.append((np.maximum(left, right), label))
        entries = paired + entries[len(paired) * 2:]
    best, label = entries[0]
    return best, np.asarray(label, dtype=np.intp)


def simplicial_cone_partition(m: int, w=None) -> AffinePartition:
    """Cones over the regular simplex, re-apexed at w (in R^{m-1})."""
    simplex = regular_simplex(m)
    d = m - 1
    w = np.zeros(d) if w is None else np.asarray(w, dtype=float).reshape(-1)
    if w.size != d:
        raise ContractViolationError(f"w has size {w.size}, expected {d}")
    if not np.all(np.isfinite(w)):
        raise ContractViolationError("w must be finite")
    offsets = -simplex.vertices @ w
    return AffinePartition(simplex.vertices.copy(), offsets, w)


def propeller_partition() -> AffinePartition:
    """Three 120-degree sectors of the plane meeting at the origin."""
    return simplicial_cone_partition(3)


def half_space_pair(d: int = 1, threshold: float = 0.0) -> AffinePartition:
    """Two half-spaces split by the hyperplane x_1 = threshold.

    Cell 0 is the side where x_1 >= threshold. This is the m=2 cone family
    with apex w = threshold * e_1 embedded in R^d.
    """
    if d < 1:
        raise DomainError("ambient dimension must be at least 1")
    directions = np.zeros((2, d))
    directions[0, 0] = 1.0
    directions[1, 0] = -1.0
    w = np.zeros(d)
    w[0] = threshold
    return AffinePartition(directions, np.array([-threshold, threshold]), w)


def perturb(partition: AffinePartition, magnitude: float, seed: int) -> AffinePartition:
    """Add Gaussian noise of the given size to directions and offsets.

    Directions are renormalized to unit length afterwards. Magnitude 0
    returns an identical partition; the result is deterministic in seed.
    """
    if magnitude < 0:
        raise DomainError("perturbation magnitude must be nonnegative")
    if magnitude == 0:
        return AffinePartition(
            partition.directions.copy(), partition.offsets.copy(), partition.shift.copy()
        )
    rng = np.random.default_rng(seed)
    directions = partition.directions + magnitude * rng.standard_normal(partition.directions.shape)
    norms = np.linalg.norm(directions, axis=1)
    if np.any(norms < 1e-12):
        raise DomainError("perturbation collapsed a direction to zero")
    directions /= norms[:, None]
    offsets = partition.offsets + magnitude * rng.standard_normal(partition.m)
    return AffinePartition(directions, offsets, partition.shift.copy())


def _volume_slopes(partition: AffinePartition, cfg: IntegrationConfig) -> np.ndarray:
    """d(volume_i)/d(offset_i): each facet sweeps mass/|z_i - z_j| per unit c_i."""
    from . import perimeter  # local import; perimeter builds on montecarlo

    report = perimeter.facet_perimeter(partition, cfg)
    slopes = np.zeros(partition.m)
    for (i, j), (mass, _) in report.masses.items():
        gap = np.linalg.norm(partition.directions[i] - partition.directions[j])
        if gap > 0:
            slopes[i] += mass / gap
            slopes[j] += mass / gap
    return slopes


def calibrate_offsets_to_volumes(
    partition: AffinePartition,
    targets,
    cfg: IntegrationConfig,
    tol: float = 1e-3,
    max_iters: int = 40,
    damping: float = 0.5,
) -> AffinePartition:
    """Adjust offsets until the cell volumes match the targets within tol.

    For m <= 4 the volumes are exact (``exact.cell_volumes``) and the offsets
    take Newton steps with the facet-mass Jacobian until the residual is at
    most min(tol, 1e-12); ``cfg`` is not sampled. For m >= 5 the volumes are
    Monte Carlo estimates on ``cfg``'s stream: a damped multiplicative fixed
    point c_i += damping * log(a_i/a_hat_i) switches to coordinate Newton
    steps (slopes from the facet masses) once the residual is small, and
    stops at tol. The same config (hence the same sample stream) is used for
    every iterate, so the iteration is deterministic. ``damping`` scales the
    log steps. Offsets are normalized to sum to zero. A failure raises
    ``CalibrationError`` with the last iterate and its residual.
    """
    if exact.supports(partition):
        return _calibrate_exact(partition, targets, tol, max_iters, damping)
    a = _check_targets(partition, targets)
    return _calibrate_mc(partition, a, cfg, tol, max_iters, damping)


def cell_moments(partition, w, cfg: IntegrationConfig, report=None) -> MomentReport:
    """Volumes, moment vectors and the moment functional of a partition.

    Exact for m <= 4 (``exact.moments``, reusing the facet masses of
    ``report``, the partition's ``facet_perimeter`` report, when given);
    ``cfg`` is not sampled there. For m >= 5 a Monte Carlo estimate on
    ``cfg``'s stream (``mc_moments``), and ``report`` is unused.
    """
    if exact.supports(partition):
        return exact.moments(partition, w, report)
    return mc_moments(partition, w, cfg)


def _check_targets(partition: AffinePartition, targets) -> np.ndarray:
    a = np.asarray(targets, dtype=float).reshape(-1)
    if a.size != partition.m:
        raise ContractViolationError("target volume count must match the cell count")
    if np.any(a <= 0.0) or abs(a.sum() - 1.0) > 1e-9:
        raise DomainError("target volumes must be positive and sum to 1")
    return a


def _calibrate_exact(
    partition: AffinePartition,
    targets,
    tol: float,
    max_iters: int,
    damping: float,
) -> AffinePartition:
    """Calibrate by damped Newton steps on exact volumes, m <= 4, to a
    residual max |volume - target| of at most min(tol, 1e-12).

    The volume map is the gradient of the convex function
    E[max_i <X, z_i> + c_i], so its Jacobian is symmetric with the constant
    vector in its null space: dV_i/dc_i = sum_j s_ij and dV_i/dc_j = -s_ij,
    s_ij = mass_ij / |z_i - z_j|. The step is its least-squares solution; a
    cell below ``_NEWTON_FLOOR`` has next to no facet mass and takes the log
    step instead. Steps are capped per offset and halved until the residual
    norm falls. Exact volumes sum to 1, so the targets are rescaled to sum
    to 1 as well. A failure raises ``CalibrationError`` with the last
    iterate and its residual.
    """
    tol = min(tol, _EXACT_RESIDUAL)
    a = _check_targets(partition, targets)
    a = a / a.sum()
    # The directions never change: their geometry is built once and the
    # iteration runs on offset arrays.
    geometry = exact._geometry(partition.directions)
    offsets = partition.offsets - partition.offsets.mean()
    est, _, masses = geometry.evaluate(offsets)
    residual = float(np.max(np.abs(est - a)))
    for _ in range(max_iters):
        if residual <= tol:
            break
        slopes = np.zeros((partition.m, partition.m))
        for facet in geometry.facets:
            s = masses[(facet.i, facet.j)] / facet.norm
            slopes[facet.i, facet.j] = slopes[facet.j, facet.i] = -s
        slopes[np.diag_indices(partition.m)] = -slopes.sum(axis=1)
        newton = np.linalg.lstsq(slopes, a - est, rcond=None)[0]
        log_step = damping * np.log(a / np.maximum(est, np.finfo(float).tiny))
        step = np.clip(np.where(est < _NEWTON_FLOOR, log_step, newton), -1.0, 1.0)
        norm = np.linalg.norm(est - a)
        for _ in range(_MAX_HALVINGS):
            trial = offsets + step
            trial -= trial.mean()
            trial_est, _, trial_masses = geometry.evaluate(trial)
            if np.linalg.norm(trial_est - a) < norm:
                break
            step = 0.5 * step
        offsets, est, masses = trial, trial_est, trial_masses
        residual = float(np.max(np.abs(est - a)))
    current = partition.with_offsets(offsets)
    if residual > tol:
        raise CalibrationError(
            f"volume calibration did not reach tol={tol} in {max_iters} iterations "
            f"(residual {residual:.3e})",
            partition=current,
            residual=residual,
        )
    return current


def _calibrate_mc(
    partition: AffinePartition,
    a: np.ndarray,
    cfg: IntegrationConfig,
    tol: float,
    max_iters: int,
    damping: float,
) -> AffinePartition:
    """Damped log fixed point, then diagonal Newton, on Monte Carlo volumes."""
    floor = 1.0 / (2.0 * cfg.sample_count)
    current = partition
    residual = np.inf
    best_residual = np.inf
    last_improvement = 0
    slopes = None
    slopes_age = 0
    # Per-cell trust radius: stiff wedge cells flip their volume across the
    # target on steps that are harmless for round cells, so the step cap
    # shrinks on every sign flip of a cell's residual and relaxes slowly.
    cap = np.full(partition.m, 1.0)
    prev_sign = np.zeros(partition.m)
    for it in range(max_iters):
        est = mc_volumes(current, cfg).volumes
        residual = float(np.max(np.abs(est - a)))
        if residual <= tol:
            offsets = current.offsets - current.offsets.mean()
            return current.with_offsets(offsets)
        if residual < 0.9 * best_residual:
            best_residual = residual
            last_improvement = it
        elif it - last_improvement >= 10:
            # The fixed stream's volume map is a step function of the
            # offsets; once steps stop improving, the target is unreachable
            # at this sampling resolution.
            break
        sign = np.sign(a - est)
        cap = np.where(sign * prev_sign < 0, 0.4 * cap, np.minimum(1.3 * cap, 1.0))
        prev_sign = sign
        # Clipped so an empty cell does not take a log(1/floor)-sized jump
        # straight to dominance.
        log_step = damping * np.log(a / np.maximum(est, floor))
        if it < 2:
            step = log_step
        else:
            # Damped diagonal Newton with facet-mass slopes where the cell
            # has measurable volume; empty cells have no usable slope and
            # keep the log step. Slopes drift slowly, refresh sparingly.
            if slopes is None or slopes_age >= 3:
                slopes = np.maximum(_volume_slopes(current, cfg), 1e-6)
                slopes_age = 0
            slopes_age += 1
            newton = damping * (a - est) / slopes
            step = np.where(est > 1e-4, newton, log_step)
        step = np.clip(step, -cap, cap)
        offsets = current.offsets + step
        current = current.with_offsets(offsets - offsets.mean())
    raise CalibrationError(
        f"volume calibration did not reach tol={tol} in {max_iters} iterations "
        f"(residual {residual:.3e})",
        partition=current,
        residual=residual,
    )


def _skew_matrix(theta: np.ndarray, d: int) -> np.ndarray:
    s = np.zeros((d, d))
    k = 0
    for i in range(d):
        for j in range(i + 1, d):
            s[i, j] = theta[k]
            s[j, i] = -theta[k]
            k += 1
    return s


def _greedy_direction_match(reference: AffinePartition, candidate: AffinePartition) -> np.ndarray:
    """Greedy assignment on direction inner products; perm[i] = candidate cell
    matched to reference cell i."""
    sims = reference.directions @ candidate.directions.T
    perm = np.full(reference.m, -1, dtype=int)
    open_ref = set(range(reference.m))
    open_cand = set(range(candidate.m))
    order = np.argsort(sims, axis=None)[::-1]
    for flat in order:
        i, j = divmod(int(flat), candidate.m)
        if i in open_ref and j in open_cand:
            perm[i] = j
            open_ref.discard(i)
            open_cand.discard(j)
            if not open_ref:
                break
    return perm


def _procrustes_rotation(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Rotation R in SO(d) minimizing sum |R s_i - t_i|^2 (Kabsch)."""
    h = source.T @ target
    u, _, vt = np.linalg.svd(h)
    sign = np.sign(np.linalg.det(vt.T @ u.T))
    d = source.shape[1]
    fix = np.eye(d)
    fix[-1, -1] = sign if sign != 0 else 1.0
    return vt.T @ fix @ u.T


@dataclass(frozen=True)
class AlignmentResult:
    rotation: np.ndarray
    misalignment: float
    stderr: float
    permutation: np.ndarray


def align_rotation(
    reference: AffinePartition,
    candidate: AffinePartition,
    cfg: IntegrationConfig,
    refine_iters: int = 80,
) -> AlignmentResult:
    """Rotation approximately minimizing the symmetric-difference measure.

    Cells are first matched by greedy assignment on direction inner
    products (labels are not canonical), then orthogonal Procrustes fits a
    rotation of the candidate onto the reference directions, followed by a
    small-angle simplex refinement of the Monte Carlo misalignment
    sum_i gamma(R C_i \\ R_i) + gamma(R_i \\ R C_i).
    """
    if reference.m != candidate.m or reference.d != candidate.d:
        raise ContractViolationError("partitions must share m and d for alignment")
    d = reference.d
    perm = _greedy_direction_match(reference, candidate)
    matched = candidate.relabeled(perm)
    base_rot = _procrustes_rotation(matched.directions, reference.directions)

    def misalignment_of(rot: np.ndarray):
        rotated = matched.rotated(rot)

        def values(x):
            return (reference.classify_points(x) != rotated.classify_points(x)).astype(float)

        res = mc_mean(cfg, values, substream=ALIGN_SUBSTREAM)
        return 2.0 * float(res.mean[0]), 2.0 * float(res.stderr[0])

    best_rot = base_rot
    best_val, best_err = misalignment_of(base_rot)
    n_params = d * (d - 1) // 2
    # Procrustes is already optimal when the direction sets match exactly;
    # only burn refinement evaluations on a significantly nonzero residual.
    if n_params > 0 and refine_iters > 0 and best_val > 3.0 * best_err:
        from scipy.linalg import expm
        from scipy.optimize import minimize

        def objective(theta):
            return misalignment_of(expm(_skew_matrix(theta, d)) @ base_rot)[0]

        res = minimize(
            objective,
            np.zeros(n_params),
            method="Nelder-Mead",
            options={"maxfev": refine_iters, "xatol": 1e-4, "fatol": 0.0},
        )
        refined = expm(_skew_matrix(res.x, d)) @ base_rot
        val, err = misalignment_of(refined)
        if val < best_val:
            best_rot, best_val, best_err = refined, val, err
    return AlignmentResult(
        rotation=best_rot, misalignment=best_val, stderr=best_err, permutation=perm
    )


class PartitionCell:
    """One cell of an affine partition viewed as a region of R^d.

    Provides the membership test and the exact Euclidean distance to the
    (convex) cell, computed by projecting onto every active-set candidate of
    the cell's half-space description.
    """

    def __init__(self, partition: AffinePartition, cell: int):
        if not 0 <= cell < partition.m:
            raise ContractViolationError(f"cell index {cell} out of range")
        self.partition = partition
        self.cell = cell
        self._a, self._b = partition.cell_constraints(cell)
        self._a_norm = np.linalg.norm(self._a, axis=1)
        self._projectors = self._build_projectors()
        self._projector_count = sum(subs.shape[0] for _, subs, _, _ in self._projectors)

    @property
    def d(self) -> int:
        return self.partition.d

    def _build_projectors(self):
        """Active-set projectors stacked by active-set size s, in subset
        order: one (start, subs, rhs, gram_inv) per size, holding the rows,
        right-hand sides and inverse Gram matrices of p subsets as arrays of
        shape (p, s, d), (p, 1, s) and (p, s, s); ``start`` is the index of
        the stack's first projector among all of them."""
        a, b = self._a, self._b
        rows = a.shape[0]
        max_size = min(rows, self.d)
        # Every subset of at most d rows is a candidate active set, each with
        # a rank test and an inverse: 2^(m-1)-1 of them for m simplicial cones.
        count = sum(math.comb(rows, size) for size in range(1, max_size + 1))
        if count > _MAX_PROJECTORS:
            raise CapacityError(
                f"cell {self.cell} of an m={self.partition.m}, d={self.d} partition needs "
                f"{count} active-set projectors, above the cap of {_MAX_PROJECTORS}"
            )
        stacks, start = [], 0
        for size in range(1, max_size + 1):
            subsets, subs, inverses = [], [], []
            for subset in itertools.combinations(range(rows), size):
                sub = a[list(subset)]
                gram = sub @ sub.T
                # Skip rank-deficient subsets; their projections are covered
                # by smaller subsets. The rank is read from the Gram matrix
                # of the unit rows: a row's length |z_i - z_j| can be tiny
                # without the constraint being degenerate.
                norms = self._a_norm[list(subset)]
                if not np.all(norms > 0.0):
                    continue
                unit_gram = gram / np.outer(norms, norms)
                if np.linalg.matrix_rank(unit_gram, tol=_RANK_TOL) < size:
                    continue
                subsets.append(subset)
                subs.append(sub)
                inverses.append(np.linalg.inv(gram))
            if subsets:
                rhs = b[np.array(subsets)][:, None, :]
                stacks.append((start, np.stack(subs), rhs, np.stack(inverses)))
                start += len(subsets)
        return stacks

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.partition.classify_points(pts) == self.cell

    def distance(self, points: np.ndarray, limit: float = math.inf) -> np.ndarray:
        """Distance from each point to the cell (0 inside).

        The result is exact wherever the distance is below ``limit``; every
        other row gets some value >= ``limit``. With the default ``limit``
        every row is exact. A row's largest normalised constraint violation
        is a lower bound on its distance; rows where that bound already
        reaches ``limit`` skip the projections and read inf.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n = pts.shape[0]
        if self._a.shape[0] == 0:
            return np.zeros(n)
        if np.any(np.isinf(self._b)):  # empty cell
            return np.full(n, np.inf)
        # Per-row reductions over the m - 1 constraint columns run as folds
        # column by column: on so few columns numpy's axis=1 reductions cost
        # several times more, and both give the same bits.
        slack = pts @ self._a.T - self._b[None, :]
        best = np.where(_all_columns(slack >= -1e-12), 0.0, np.inf)
        # The projections accept points that violate a constraint by up to
        # _FEASIBLE_TOL, so the bound is taken against that relaxed cell.
        lower = (-_FEASIBLE_TOL - slack[:, 0]) / self._a_norm[0]
        for k in range(1, slack.shape[1]):
            np.maximum(lower, (-_FEASIBLE_TOL - slack[:, k]) / self._a_norm[k], out=lower)
        todo = np.flatnonzero((best > 0.0) & (lower < _relaxed_limit(limit)))
        near = pts[todo]
        near_best = np.full(todo.size, np.inf)
        step = max(1, _PROJECTED_COORDINATES // max(near.size, 1))
        for lo in range(0, self._projector_count, step):
            proj = self._project(near, lo, min(lo + step, self._projector_count))
            feasible = self._feasible(proj)
            dist = _row_norms(np.subtract(near, proj, out=proj))
            np.minimum(near_best, np.where(feasible, dist, np.inf).min(axis=0), out=near_best)
        best[todo] = near_best
        return best

    def _feasible(self, points: np.ndarray) -> np.ndarray:
        """``np.all(points @ A.T - b >= -_FEASIBLE_TOL, axis=-1)``, one
        constraint at a time: numpy would subtract b with an inner loop only
        m - 1 long."""
        products = points @ self._a.T
        out = products[..., 0] - self._b[0] >= -_FEASIBLE_TOL
        for k in range(1, products.shape[-1]):
            out &= products[..., k] - self._b[k] >= -_FEASIBLE_TOL
        return out

    def _project(self, near: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Rows of ``near`` projected by projectors lo..hi-1, (hi - lo, n, d).

        Each projector's matrix products run on their own (n, d), (n, s) and
        (s, s) operands as stacked matmuls, so every row keeps the bits of
        the products made one projector at a time. Folding the projectors
        into one wider product would not: numpy uses a matrix-vector kernel
        for s = 1, and zero padding changes the fused multiply-adds.
        """
        proj = np.empty((hi - lo, near.shape[0], self.d))
        for start, subs, rhs, gram_inv in self._projectors:
            first, last = max(lo, start), min(hi, start + subs.shape[0])
            if first >= last:
                continue
            part = slice(first - start, last - start)
            sub = subs[part]
            viol = near @ sub.transpose(0, 2, 1) - rhs[part]
            np.subtract(near, (viol @ gram_inv[part]) @ sub, out=proj[first - lo:last - lo])
        return proj


def _relaxed_limit(limit: float) -> float:
    """The bound below which ``PartitionCell.distance`` projects a row: a
    margin on ``limit`` keeps rounding from dropping a row whose computed
    distance reads below ``limit``."""
    return limit * (1.0 + 1e-9) + 1e-12


def _all_columns(flags: np.ndarray) -> np.ndarray:
    """``np.all(flags, axis=1)`` as a logical-and fold over the columns."""
    out = flags[:, 0].copy()
    for k in range(1, flags.shape[1]):
        np.logical_and(out, flags[:, k], out=out)
    return out


def _row_norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(v, axis=-1)``, to the bit; a fold over the last axis
    when it is short enough that numpy adds its squares in order. The fold
    overwrites ``v`` with its squares."""
    if v.shape[-1] > _FOLDED_NORM_MAX_D:
        return np.linalg.norm(v, axis=-1)
    squares = np.multiply(v, v, out=v)
    out = squares[..., 0].copy()
    for k in range(1, v.shape[-1]):
        out += squares[..., k]
    return np.sqrt(out, out=out)


@dataclass(frozen=True)
class RoundCylinder:
    """Region bounded by r S^k x R^{n-k} inside R^{n+1} (ambient = n+1).

    ``orientation`` picks which side is the region: "inside" is the solid
    tube {|x_{1..k+1}| <= r}, "outside" its complement. Both are centrally
    symmetric.
    """

    k: int
    r: float
    ambient: int
    orientation: str = "inside"

    def __post_init__(self):
        if self.ambient < 1:
            raise DomainError("ambient dimension must be at least 1")
        if not 0 <= self.k <= self.ambient - 1:
            raise DomainError(f"k must lie in [0, {self.ambient - 1}], got {self.k}")
        if not self.r > 0:
            raise DomainError("radius must be positive")
        if self.orientation not in ("inside", "outside"):
            raise DomainError("orientation must be 'inside' or 'outside'")

    @property
    def d(self) -> int:
        return self.ambient

    def _core_norm(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.norm(pts[:, : self.k + 1], axis=1)

    def contains(self, points: np.ndarray) -> np.ndarray:
        s = self._core_norm(points)
        return s <= self.r if self.orientation == "inside" else s >= self.r

    def distance(self, points: np.ndarray, limit: float = math.inf) -> np.ndarray:
        """Exact distance to the region (0 inside); ``limit`` is accepted
        for the PartitionCell.distance contract and ignored, since exact
        everywhere meets it."""
        s = self._core_norm(points)
        gap = s - self.r if self.orientation == "inside" else self.r - s
        return np.maximum(gap, 0.0)

    def complement(self) -> "RoundCylinder":
        flip = "outside" if self.orientation == "inside" else "inside"
        return replace(self, orientation=flip)
