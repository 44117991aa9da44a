import math

import numpy as np
import pytest
from scipy.special import ndtr

from gauss_bubbles import (
    ContractViolationError,
    DomainError,
    IntegrationConfig,
    OptimizeConfig,
    PreconditionError,
    calibrate_offsets_to_volumes,
    half_space_pair,
    mc_moments,
    minimize_penalized_perimeter,
    moment_objective,
    optimize_propeller,
    perturb,
    propeller_partition,
    simplicial_cone_partition,
    stability_margin,
)
from gauss_bubbles import exact, optimize

import oracles

PENALTY_FACTOR = math.sqrt(math.pi / 2.0)


def cfg(d, samples=400_000, seed=31, chunk=50_000):
    return IntegrationConfig(sample_count=samples, seed=seed, dimension=d, chunk_size=chunk)


class TestMomentObjective:
    def test_delegates_to_moment_report(self):
        # Exact moments for m <= 4, Monte Carlo on the config's stream beyond.
        config = cfg(2)
        value, err = moment_objective(propeller_partition(), None, config)
        report = exact.moments(propeller_partition())
        assert (value, err) == (report.moment_functional, 0.0)
        assert report.moment_functional_stderr == 0.0
        cones5 = simplicial_cone_partition(5)
        config = cfg(4, samples=100_000)
        value, err = moment_objective(cones5, None, config)
        report = mc_moments(cones5, None, config)
        assert value == report.moment_functional
        assert err == report.moment_functional_stderr > 0.0

    def test_propeller_value(self):
        value, _ = moment_objective(propeller_partition(), None, cfg(2, samples=1_000_000,
                                                                     chunk=125_000))
        assert value == pytest.approx(9.0 / (8.0 * math.pi), rel=0.01)

    def test_halfspace_value(self):
        value, _ = moment_objective(half_space_pair(1, 0.0), None, cfg(1))
        assert value == pytest.approx(1.0 / math.pi, rel=0.01)

    def test_threshold_scan_matches_quadrature(self):
        # dense 1-D scan oracle: M(t) for the two-cell split at threshold t
        config = cfg(1, samples=500_000, seed=3)
        for t in np.linspace(-1.2, 1.2, 10):
            report = mc_moments(half_space_pair(1, float(t)), None, config)
            want = oracles.threshold_split_moment(float(t))
            assert report.moment_functional == pytest.approx(
                want, abs=3.0 * report.moment_functional_stderr + 1e-4)


class TestOptimizeConfig:
    def test_rejects_low_dimension(self):
        with pytest.raises(DomainError):
            OptimizeConfig(m=4, d=2, target_volumes=(0.25,) * 4)

    def test_rejects_bad_volumes(self):
        with pytest.raises(DomainError):
            OptimizeConfig(m=2, d=1, target_volumes=(0.7, 0.7))
        with pytest.raises(ContractViolationError):
            OptimizeConfig(m=3, d=2, target_volumes=(0.5, 0.5))


def quick_config(**kwargs):
    defaults = dict(m=2, d=1, target_volumes=(0.5, 0.5), seed=5, restarts=2,
                    max_iters=50, search_samples=50_000, final_samples=200_000)
    defaults.update(kwargs)
    return OptimizeConfig(**defaults)


class TestOptimizePropeller:
    def test_line_split_maximizes_moment(self):
        result = optimize_propeller(quick_config())
        assert result.objective == pytest.approx(1.0 / math.pi, rel=0.02)
        # optimum is the balanced split through the origin
        boundary = (result.partition.offsets[1] - result.partition.offsets[0]) / 2.0
        assert abs(boundary) <= 0.02

    def test_deterministic_given_config(self):
        a = optimize_propeller(quick_config())
        b = optimize_propeller(quick_config())
        assert a.objective == b.objective
        assert np.array_equal(a.partition.offsets, b.partition.offsets)

    def test_seeds_agree_within_noise(self):
        a = optimize_propeller(quick_config(seed=5))
        b = optimize_propeller(quick_config(seed=6))
        tol = 3.0 * math.hypot(a.objective_stderr, b.objective_stderr)
        assert abs(a.objective - b.objective) <= tol

    def test_feasible_iterates_only(self):
        result = optimize_propeller(quick_config())
        report_cfg = cfg(1, samples=200_000, seed=5, chunk=25_000)
        from gauss_bubbles import mc_volumes
        vols = mc_volumes(result.partition, report_cfg).volumes
        assert np.max(np.abs(vols - 0.5)) <= 5e-3

    def test_trace_records_the_calibration_residual(self):
        config = quick_config(m=3, d=2, target_volumes=(0.4, 0.35, 0.25), restarts=1,
                              max_iters=30)
        result = optimize_propeller(config)
        residuals = np.array([row[2] for row in result.trace])
        feasible = np.array([row[1] < 1e29 for row in result.trace])
        assert feasible.any()
        assert np.all(np.isnan(residuals[~feasible]))
        # Calibration stops within tol on the search stream; re-centring the
        # offsets may move a boundary sample or so.
        tol = max(optimize._CALIBRATION_TOL, 1.0 / math.sqrt(config.search_samples))
        assert np.all(np.isfinite(residuals[feasible]))
        assert np.all(residuals[feasible] <= tol + 1.0 / config.search_samples)
        assert np.any(residuals[feasible] > 0.0)


    @pytest.mark.parametrize("seed", [1324903278, 366600271])
    def test_benchmark_budget_reaches_the_propeller(self, seed):
        # At this budget a Monte Carlo objective left these seeds' winners
        # off the propeller (misalignment 0.028 and 0.023); the exact
        # objective for m <= 4 has no noise floor to stall on.
        config = OptimizeConfig(m=3, d=2, target_volumes=(1 / 3, 1 / 3, 1 / 3), seed=seed,
                                restarts=2, max_iters=40, search_samples=50_000,
                                final_samples=200_000)
        result = optimize_propeller(config)
        assert result.alignment_misalignment <= 0.02
        assert result.objective == pytest.approx(9.0 / (8.0 * math.pi), rel=1e-6)
        assert result.objective_stderr == 0.0


class TestMinimizePenalized:
    def test_recovers_threshold_split(self):
        targets = (float(ndtr(1.0)), float(1.0 - ndtr(1.0)))
        result = minimize_penalized_perimeter(quick_config(target_volumes=targets), 0.0)
        gamma1_1 = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
        assert result.objective == pytest.approx(gamma1_1, rel=0.02)
        boundary = (result.partition.offsets[1] - result.partition.offsets[0]) / 2.0
        assert abs(abs(boundary) - 1.0) <= 0.02

    def test_three_cells_reach_propeller_with_and_without_penalty(self):
        cfg3 = OptimizeConfig(m=3, d=2, target_volumes=(1 / 3, 1 / 3, 1 / 3), seed=3,
                              restarts=2, max_iters=100, search_samples=50_000,
                              final_samples=200_000)
        plain = minimize_penalized_perimeter(cfg3, 0.0)
        target = 3.0 / (2.0 * math.sqrt(2.0 * math.pi))
        assert plain.objective == pytest.approx(target, rel=0.01)
        assert plain.alignment_misalignment <= 0.03

        # a small moment penalty must not move the minimizer
        penalized = minimize_penalized_perimeter(cfg3, 1e-3)
        assert penalized.alignment_misalignment <= 0.03
        assert penalized.objective == pytest.approx(
            target + 1e-3 * PENALTY_FACTOR * 9.0 / (8.0 * math.pi), rel=0.01)

    def test_negative_eps_rejected(self):
        with pytest.raises(DomainError):
            minimize_penalized_perimeter(quick_config(), -0.1)


class TestStabilityMargin:
    def test_identical_candidate(self):
        part = propeller_partition()
        cert = stability_margin(part, part, 1e-3, None, cfg(2))
        assert cert.margin == 0.0  # shared streams cancel exactly
        assert cert.verdict == "inconclusive"

    def test_margin_recomputable_from_fields(self):
        config = cfg(2, samples=500_000, seed=41, chunk=125_000)
        candidate = calibrate_offsets_to_volumes(
            perturb(propeller_partition(), 0.1, 11), (1 / 3, 1 / 3, 1 / 3), config)
        cert = stability_margin(propeller_partition(), candidate, 1e-3, None, config)
        rebuilt = (cert.p_candidate + cert.epsilon * PENALTY_FACTOR * cert.m_candidate) - (
            cert.p_reference + cert.epsilon * PENALTY_FACTOR * cert.m_reference)
        assert cert.margin == pytest.approx(rebuilt, abs=1e-15)
        assert cert.penalized_candidate - cert.penalized_reference == pytest.approx(
            cert.margin, abs=1e-15)

    def test_perturbed_candidate_not_below_reference(self):
        config = cfg(2, samples=500_000, seed=41, chunk=125_000)
        candidate = calibrate_offsets_to_volumes(
            perturb(propeller_partition(), 0.1, 11), (1 / 3, 1 / 3, 1 / 3), config)
        cert = stability_margin(propeller_partition(), candidate, 1e-3, None, config)
        assert cert.margin >= -3.0 * cert.margin_stderr
        assert cert.verdict in ("pass", "inconclusive")

    def test_mismatched_partitions_rejected(self):
        with pytest.raises(PreconditionError):
            stability_margin(propeller_partition(), half_space_pair(2, 0.0), 1e-3,
                             None, cfg(2, samples=100_000))

    def test_volume_mismatch_rejected(self):
        part = propeller_partition()
        skewed = part.with_offsets(np.array([0.5, -0.25, -0.25]))
        with pytest.raises(PreconditionError):
            stability_margin(part, skewed, 1e-3, None, cfg(2, samples=100_000))

    def test_rotation_invariance_of_objective(self):
        theta = 0.9
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        part = propeller_partition()
        w = np.array([0.2, -0.3])
        base = mc_moments(part, w, cfg(2))
        rotated = mc_moments(part.rotated(rot), rot @ w, cfg(2, seed=77))
        tol = 3.0 * math.hypot(base.moment_functional_stderr,
                               rotated.moment_functional_stderr)
        assert abs(base.moment_functional - rotated.moment_functional) <= tol
