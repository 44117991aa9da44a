"""Derivative-free optimization over affine partition families.

Two objectives on the family of volume-constrained affine partitions:
maximize the moment functional M = sum_i |integral of (x - w/a_i) over cell
i|^2, or minimize the penalized perimeter P + eps * sqrt(pi/2) * M. The
search runs Nelder-Mead over the direction vectors (renormalized at every
evaluation); volume constraints are enforced by calibrating the offsets
inside each objective evaluation, so every evaluated point is feasible and
objectives are comparable. Volumes, moments and perimeters come from
``partitions.cell_moments`` and ``facet_perimeter``: exact for m <= 4, so
the objective and the stability certificate are deterministic there. For
m >= 5 all Monte Carlo evaluations inside one search reuse a single seed
(common random numbers): re-evaluating an iterate is bit-identical, and the
search signal is not Monte Carlo noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CalibrationError,
    ContractViolationError,
    DomainError,
    PreconditionError,
)
from .montecarlo import IntegrationConfig, map_chunks
from .partitions import (
    AffinePartition,
    align_rotation,
    calibrate_offsets_to_volumes,
    cell_moments,
    simplicial_cone_partition,
)
from .perimeter import facet_perimeter

_PENALTY_FACTOR = math.sqrt(math.pi / 2.0)

# Finite sentinel for infeasible iterates: keeps the simplex arithmetic
# warning-free and lets a fully infeasible restart terminate quickly.
_INFEASIBLE = 1e30


@dataclass(frozen=True)
class OptimizeConfig:
    """Search-space description and budgets for the partition optimizers.

    ``d >= m - 1`` is required (the cone family needs that many independent
    directions). ``search_samples`` drives the inner objective evaluations;
    the best iterate is re-evaluated and polished at ``final_samples``. For
    m <= 4 the objective is exact and ``final_samples`` only sets the
    stream of the misalignment measurement.
    """

    m: int
    d: int
    target_volumes: tuple
    seed: int = 0
    restarts: int = 3
    max_iters: int = 200
    objective_tol: float = 1e-5
    search_samples: int = 100_000
    final_samples: int = 1_000_000
    chunk_size: int = 25_000
    calibration_tol: float = 1e-3

    def __post_init__(self):
        a = np.asarray(self.target_volumes, dtype=float)
        if a.size != self.m:
            raise ContractViolationError("target_volumes length must equal m")
        if np.any(a <= 0) or abs(a.sum() - 1.0) > 1e-9:
            raise DomainError("target volumes must be positive and sum to 1")
        if self.d < self.m - 1:
            raise DomainError(f"need d >= m - 1 (got d={self.d}, m={self.m})")
        if self.restarts < 1 or self.max_iters < 1:
            raise DomainError("restarts and max_iters must be positive")

    @property
    def targets(self) -> np.ndarray:
        return np.asarray(self.target_volumes, dtype=float)

    def integration(self, samples: int) -> IntegrationConfig:
        chunk = self.chunk_size if samples % self.chunk_size == 0 else samples
        return IntegrationConfig(
            sample_count=samples, seed=self.seed, dimension=self.d, chunk_size=chunk
        )


def moment_objective(partition, w, cfg: IntegrationConfig) -> tuple[float, float]:
    """The moment functional M of a partition (with its standard error, or
    error bound 0 when exact)."""
    report = cell_moments(partition, w, cfg)
    return report.moment_functional, report.moment_functional_stderr


@dataclass
class OptimizeResult:
    partition: AffinePartition
    objective: float
    objective_stderr: float
    # (evaluation, objective, calibration residual); NaN residual when infeasible
    trace: list = field(default_factory=list)
    restart_values: list = field(default_factory=list)
    alignment_misalignment: float = math.nan
    alignment_rotation: np.ndarray | None = None
    evaluations: int = 0


def _evaluate(partition, kind: str, eps: float, w, mc: IntegrationConfig):
    """(M or P + eps * sqrt(pi/2) * M, its standard error, the moment report)."""
    perim = None if kind == "moment" else facet_perimeter(partition, mc)
    report = cell_moments(partition, w, mc, perim)
    value, err = report.moment_functional, report.moment_functional_stderr
    if perim is not None:
        value = perim.total + eps * _PENALTY_FACTOR * value
        err = math.sqrt(perim.total_stderr**2 + (eps * _PENALTY_FACTOR * err) ** 2)
    return value, err, report


class _Objective:
    """Calibrated objective over flattened direction vectors.

    sign = -1 turns maximization of M into minimization. Failed calibrations
    (or collapsed directions) evaluate to +inf so the simplex retreats.
    """

    def __init__(self, cfg: OptimizeConfig, mc: IntegrationConfig, kind: str, eps: float, w):
        self.cfg = cfg
        self.mc = mc
        self.kind = kind
        self.eps = eps
        self.w = w
        self.trace = []
        self.warm_offsets = np.zeros(cfg.m)
        self.evaluations = 0
        # Monte Carlo volumes (m >= 5) cannot be matched below their own
        # noise floor; exact calibration (m <= 4) goes to 1e-12 regardless.
        self.tol = max(cfg.calibration_tol, 1.0 / math.sqrt(mc.sample_count))

    def partition_for(self, params: np.ndarray) -> AffinePartition | None:
        """The calibrated partition, or None when infeasible."""
        directions = params.reshape(self.cfg.m, self.cfg.d).copy()
        norms = np.linalg.norm(directions, axis=1)
        if np.any(norms < 1e-8):
            return None
        directions /= norms[:, None]
        # Near-identical directions make a cell empty and calibration hopeless.
        gram = directions @ directions.T
        np.fill_diagonal(gram, -np.inf)
        if gram.max() > 1.0 - 1e-10:
            return None
        try:
            raw = AffinePartition(directions, self.warm_offsets, np.zeros(self.cfg.d))
            calibrated = calibrate_offsets_to_volumes(
                raw, self.cfg.targets, self.mc, tol=self.tol, max_iters=25
            )
        except (CalibrationError, ContractViolationError):
            return None
        self.warm_offsets = calibrated.offsets.copy()
        return calibrated

    def value(self, partition: AffinePartition) -> tuple[float, float]:
        """(objective, calibration residual max |volume - target|), both
        read from one moment report on the search stream."""
        value, _, report = _evaluate(partition, self.kind, self.eps, self.w, self.mc)
        residual = float(np.max(np.abs(report.volumes - self.cfg.targets)))
        return (-value if self.kind == "moment" else value), residual

    def __call__(self, params: np.ndarray) -> float:
        self.evaluations += 1
        calibrated = self.partition_for(params)
        if calibrated is None:
            self.trace.append((self.evaluations, _INFEASIBLE, math.nan))
            return _INFEASIBLE
        val, residual = self.value(calibrated)
        self.trace.append((self.evaluations, val, residual))
        return val


def _search(cfg: OptimizeConfig, kind: str, eps: float, w) -> OptimizeResult:
    from scipy.optimize import minimize

    search_mc = cfg.integration(cfg.search_samples)
    final_mc = cfg.integration(cfg.final_samples)
    w_vec = np.zeros(cfg.d) if w is None else np.asarray(w, dtype=float).reshape(-1)
    if w_vec.size != cfg.d:
        raise ContractViolationError(f"w has size {w_vec.size}, expected {cfg.d}")

    def run_restart(restart: int):
        rng = np.random.default_rng((cfg.seed, restart))
        if restart == 0:
            # One restart warm-starts near the cone family; the rest are
            # fully random so the search is not anchored to the reference.
            base = np.zeros((cfg.m, cfg.d))
            base[:, : cfg.m - 1] = simplicial_cone_partition(cfg.m).directions
            start = (base + 0.3 * rng.standard_normal(base.shape)).ravel()
        else:
            start = rng.standard_normal(cfg.m * cfg.d)
        objective = _Objective(cfg, search_mc, kind, eps, w_vec)
        res = minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={
                "maxiter": cfg.max_iters,
                "maxfev": 2 * cfg.max_iters,
                "xatol": 1e-4,
                "fatol": cfg.objective_tol,
                "adaptive": True,
            },
        )
        return res.fun, res.x, objective.trace, objective.evaluations

    # Restarts share the chunk pool; their mc_mean calls then run serially
    # on the restart's own thread.
    outcomes = map_chunks(run_restart, cfg.restarts)

    restart_values = [out[0] for out in outcomes]
    best_index = int(np.argmin(restart_values))
    if restart_values[best_index] >= _INFEASIBLE:
        raise CalibrationError(
            "every restart failed calibration", partition=None, residual=None
        )
    best_fun, best_x, trace, evals = outcomes[best_index]

    # Polish the winner at the full sample count with a tight simplex.
    polish = _Objective(cfg, final_mc, kind, eps, w_vec)
    simplex = np.vstack([best_x] + [best_x + 0.01 * e for e in np.eye(best_x.size)])
    res = minimize(
        polish,
        best_x,
        method="Nelder-Mead",
        options={
            "maxiter": max(40, 7 * best_x.size),
            "maxfev": max(80, 12 * best_x.size),
            "xatol": 1e-5,
            "fatol": cfg.objective_tol / 10.0,
            "initial_simplex": simplex,
        },
    )
    final_params = res.x if res.fun <= min(best_fun + 1e-3, _INFEASIBLE) else best_x
    partition = polish.partition_for(final_params)
    if partition is None:
        raise CalibrationError("final iterate failed calibration", partition=None)

    value, err, _ = _evaluate(partition, kind, eps, w_vec, final_mc)

    result = OptimizeResult(
        partition=partition,
        objective=value,
        objective_stderr=err,
        trace=trace + polish.trace,
        restart_values=restart_values,
        evaluations=evals + polish.evaluations,
    )
    # Report how far the winner sits from the simplicial-cone family, modulo
    # rotation and relabeling. Only meaningful when ambient dims match.
    if cfg.d == cfg.m - 1:
        reference = simplicial_cone_partition(cfg.m)
        aligned = align_rotation(reference, partition, final_mc)
        result.alignment_misalignment = aligned.misalignment
        result.alignment_rotation = aligned.rotation
    return result


def optimize_propeller(cfg: OptimizeConfig, w=None) -> OptimizeResult:
    """Maximize the moment functional over volume-constrained affine partitions.

    Returns the best partition, the objective value M* (with stderr), the
    evaluation trace, and the rotation-aligned distance to the
    simplicial-cone reference.
    """
    return _search(cfg, kind="moment", eps=0.0, w=w)


def minimize_penalized_perimeter(cfg: OptimizeConfig, eps: float, w=None) -> OptimizeResult:
    """Minimize P + eps * sqrt(pi/2) * M over the same family.

    eps = 0 is the pure multi-bubble perimeter objective.
    """
    if eps < 0:
        raise DomainError("eps must be nonnegative")
    return _search(cfg, kind="penalized", eps=eps, w=w)


@dataclass(frozen=True)
class StabilityCertificate:
    """Penalized-perimeter comparison between a reference partition and a
    volume-matched candidate.

    margin = (P_cand + eps*sqrt(pi/2)*M_cand) - (P_ref + eps*sqrt(pi/2)*M_ref);
    a nonnegative margin is consistent with the reference minimizing the
    penalized perimeter. The verdict is three-valued at 3 sigma.
    """

    p_reference: float
    p_reference_stderr: float
    p_candidate: float
    p_candidate_stderr: float
    m_reference: float
    m_reference_stderr: float
    m_candidate: float
    m_candidate_stderr: float
    epsilon: float
    margin: float
    margin_stderr: float
    verdict: str

    @property
    def penalized_reference(self) -> float:
        return self.p_reference + self.epsilon * _PENALTY_FACTOR * self.m_reference

    @property
    def penalized_candidate(self) -> float:
        return self.p_candidate + self.epsilon * _PENALTY_FACTOR * self.m_candidate


def stability_margin(
    reference: AffinePartition,
    candidate: AffinePartition,
    eps: float,
    w,
    cfg: IntegrationConfig,
    vol_tol: float = 3e-3,
) -> StabilityCertificate:
    """Fill a stability certificate for candidate against reference.

    Preconditions: matching m and d, and cell volumes equal within
    ``vol_tol`` (calibrate the candidate first). For m <= 4 the volumes, the
    moment functionals and the perimeters are exact, so the certificate is
    deterministic: ``cfg`` is not sampled, the margin's error is the
    quadrature of the evaluators' error bounds (0 for these), and the
    verdict is the sign of the margin. For m >= 5 volumes and moments are
    Monte Carlo estimates on ``cfg``'s stream.
    """
    if reference.m != candidate.m or reference.d != candidate.d:
        raise PreconditionError("reference and candidate must share m and d")
    if eps < 0:
        raise DomainError("eps must be nonnegative")

    # For m <= 4 the facet masses behind P also give the moment vectors.
    per_ref = facet_perimeter(reference, cfg)
    per_cand = facet_perimeter(candidate, cfg)
    mom_ref = cell_moments(reference, w, cfg, per_ref)
    mom_cand = cell_moments(candidate, w, cfg, per_cand)
    gap = float(np.max(np.abs(mom_ref.volumes - mom_cand.volumes)))
    if gap > vol_tol:
        raise PreconditionError(
            f"cell volumes differ by {gap:.4f} > vol_tol={vol_tol}; calibrate first"
        )

    factor = eps * _PENALTY_FACTOR
    margin = (per_cand.total + factor * mom_cand.moment_functional) - (
        per_ref.total + factor * mom_ref.moment_functional
    )
    margin_err = math.sqrt(
        per_cand.total_stderr**2
        + per_ref.total_stderr**2
        + (factor * mom_cand.moment_functional_stderr) ** 2
        + (factor * mom_ref.moment_functional_stderr) ** 2
    )
    if abs(margin) <= 3.0 * margin_err:
        verdict = "inconclusive"
    else:
        verdict = "pass" if margin > 0 else "fail"
    return StabilityCertificate(
        p_reference=per_ref.total,
        p_reference_stderr=per_ref.total_stderr,
        p_candidate=per_cand.total,
        p_candidate_stderr=per_cand.total_stderr,
        m_reference=mom_ref.moment_functional,
        m_reference_stderr=mom_ref.moment_functional_stderr,
        m_candidate=mom_cand.moment_functional,
        m_candidate_stderr=mom_cand.moment_functional_stderr,
        epsilon=eps,
        margin=margin,
        margin_stderr=margin_err,
        verdict=verdict,
    )
