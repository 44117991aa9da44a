import math

import numpy as np
import pytest

from gauss_bubbles import (
    AffinePartition,
    ConfigError,
    DomainError,
    IntegrationConfig,
    PartitionCell,
    PrecisionError,
    PreconditionError,
    calibrate_offsets_to_volumes,
    half_space_pair,
    mc_moments,
    mc_volumes,
    noise_stability_certificate,
    noise_stability_partition,
    noise_stability_set,
    perimeter_from_noise_limit,
    perturb,
    propeller_partition,
    simplicial_cone_partition,
)
from gauss_bubbles import exact
from gauss_bubbles.montecarlo import PAIR_SUBSTREAM, mc_mean

import oracles

GAMMA1_0 = 1.0 / math.sqrt(2.0 * math.pi)


def cfg(d, samples=400_000, seed=19, chunk=50_000):
    return IntegrationConfig(sample_count=samples, seed=seed, dimension=d, chunk_size=chunk)


class _FullSpace:
    def contains(self, points):
        return np.ones(np.atleast_2d(points).shape[0], dtype=bool)


def sheppard(rho: float) -> float:
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


class TestQuadrantOracle:
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.5, 0.9])
    def test_quadrature_matches_arcsine_form(self, rho):
        # the closed form asserted everywhere below is itself checked by
        # direct 2-D quadrature of the correlated density
        assert oracles.bivariate_quadrant_probability(rho) == pytest.approx(
            sheppard(rho), abs=1e-8)


class TestNoiseStability:
    def test_halfspaces_independent(self):
        report = noise_stability_partition(half_space_pair(2, 0.0), 0.0, cfg(2))
        assert np.all(np.abs(report.per_cell - 0.25) <= 3.0 * report.per_cell_stderr)
        assert report.total == pytest.approx(0.5, abs=3.0 * report.total_stderr)

    def test_halfspaces_rho_half(self):
        report = noise_stability_partition(half_space_pair(2, 0.0), 0.5,
                                           cfg(2, samples=1_000_000, chunk=125_000))
        for cell in range(2):
            assert report.per_cell[cell] == pytest.approx(
                1.0 / 3.0, abs=3.0 * report.per_cell_stderr[cell])
        assert report.total == pytest.approx(2.0 / 3.0, abs=3.0 * report.total_stderr)

    def test_propeller_independent(self):
        report = noise_stability_partition(propeller_partition(), 0.0, cfg(2))
        assert report.total == pytest.approx(1.0 / 3.0, abs=3.0 * report.total_stderr)

    def test_rho_domain(self):
        with pytest.raises(DomainError):
            noise_stability_partition(propeller_partition(), 1.0, cfg(2))

    def test_stability_below_volume(self):
        config = cfg(2, samples=200_000)
        vols = mc_volumes(propeller_partition(), config)
        for rho in (0.2, 0.5, 0.8):
            report = noise_stability_partition(propeller_partition(), rho, config)
            assert np.all(report.per_cell <= vols.volumes
                          + 3.0 * (report.per_cell_stderr + vols.stderr))

    def test_rho_zero_factorizes(self):
        config = cfg(2, samples=400_000)
        vols = mc_volumes(propeller_partition(), config)
        report = noise_stability_partition(propeller_partition(), 0.0, config)
        gap = np.abs(report.per_cell - vols.volumes**2)
        assert np.all(gap <= 3.0 * (report.per_cell_stderr + 2.0 * vols.stderr))

    def test_exchangeability(self):
        part = propeller_partition()
        config = cfg(2, samples=400_000)

        def swapped(x, y):
            cx = part.classify_points(y)
            cy = part.classify_points(x)
            return (cx == cy).astype(float)

        res = mc_mean(config, swapped, substream=PAIR_SUBSTREAM, pair_rho=0.6)
        report = noise_stability_partition(part, 0.6, config)
        tol = 3.0 * math.hypot(float(res.stderr[0]), report.total_stderr)
        assert abs(float(res.mean[0]) - report.total) <= tol

    def test_monotone_in_rho(self):
        config = cfg(2, samples=400_000)
        totals = [noise_stability_partition(propeller_partition(), rho, config).total
                  for rho in (0.0, 0.25, 0.5, 0.75, 0.9)]
        assert all(b >= a - 1e-3 for a, b in zip(totals, totals[1:]))

    def test_set_stability_deficit_positive(self):
        cell = PartitionCell(propeller_partition(), 0)
        config = cfg(2, samples=200_000)
        vol = float(mc_volumes(propeller_partition(), config).volumes[0])
        for rho in (0.1, 0.5, 0.9):
            stab, err = noise_stability_set(cell, rho, config)
            assert vol - stab >= -3.0 * err


class TestPerimeterFromNoiseLimit:
    SCHEDULE = [0.95, 0.99, 0.995, 0.999]

    def test_halfspace_recovers_perimeter(self):
        cell = PartitionCell(half_space_pair(2, 0.0), 0)
        report = perimeter_from_noise_limit(cell, self.SCHEDULE,
                                            cfg(2, samples=1_000_000, chunk=125_000))
        assert report.estimate == pytest.approx(GAMMA1_0, rel=0.05)

    def test_propeller_recovers_perimeter(self):
        report = perimeter_from_noise_limit(propeller_partition(), self.SCHEDULE,
                                            cfg(2, samples=1_000_000, chunk=125_000))
        assert report.estimate == pytest.approx(3.0 / (2.0 * math.sqrt(2.0 * math.pi)), rel=0.07)

    def test_full_space_deficit_zero(self):
        report = perimeter_from_noise_limit(_FullSpace(), self.SCHEDULE,
                                            cfg(2, samples=50_000, chunk=25_000))
        assert report.estimate == 0.0
        assert all(row[2] == 0.0 for row in report.table)

    def test_schedule_validation(self):
        cell = PartitionCell(half_space_pair(2, 0.0), 0)
        config = cfg(2, samples=50_000, chunk=25_000)
        with pytest.raises(ConfigError):
            perimeter_from_noise_limit(cell, [0.9, 0.99], config)
        with pytest.raises(ConfigError):
            perimeter_from_noise_limit(cell, [0.99, 0.95, 0.9], config)
        with pytest.raises(ConfigError):
            perimeter_from_noise_limit(cell, [0.5, 0.7, 0.9], config)

    def test_precision_gate(self):
        cell = PartitionCell(half_space_pair(2, 0.0), 0)
        with pytest.raises(PrecisionError):
            perimeter_from_noise_limit(cell, self.SCHEDULE,
                                       cfg(2, samples=1_000, chunk=500))


class TestNoiseCertificate:
    def test_identical_candidate_has_zero_margin(self):
        part = propeller_partition()
        cert = noise_stability_certificate(part, part, 0.9, 1e-3, None, cfg(2))
        # identical inputs share every sample stream, so the margin is exact
        assert cert.margin == 0.0

    def test_rotated_candidate_within_noise(self):
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        part = propeller_partition()
        cert = noise_stability_certificate(part, part.rotated(rot), 0.9, 1e-3, None,
                                           cfg(2, samples=1_000_000, chunk=125_000))
        assert abs(cert.margin) <= 3.0 * cert.margin_stderr

    def test_perturbed_candidate_margin(self):
        config = cfg(2, samples=500_000, seed=23)
        candidate = calibrate_offsets_to_volumes(
            perturb(propeller_partition(), 0.05, 2), (1 / 3, 1 / 3, 1 / 3), config)
        cert = noise_stability_certificate(propeller_partition(), candidate, 0.95, 1e-3,
                                           None, config)
        assert cert.margin >= -3.0 * cert.margin_stderr

    def test_rho_range_enforced_with_override(self):
        part = propeller_partition()
        with pytest.raises(PreconditionError):
            noise_stability_certificate(part, part, 0.3, 1e-3, None, cfg(2, samples=50_000))
        cert = noise_stability_certificate(part, part, 0.3, 1e-3, None,
                                           cfg(2, samples=50_000),
                                           enforce_rho_range=False)
        assert cert.margin == 0.0

    def test_volume_mismatch_rejected(self):
        part = propeller_partition()
        skewed = part.with_offsets(np.array([0.4, -0.2, -0.2]))
        with pytest.raises(PreconditionError):
            noise_stability_certificate(part, skewed, 0.9, 1e-3, None,
                                        cfg(2, samples=100_000))


EMPTY_CELL = AffinePartition(np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]),
                             np.array([0.0, 0.0, -1.0]), np.zeros(2))
PARTITIONS = {
    "propeller3": propeller_partition(),
    "perturbed-cones4": perturb(simplicial_cone_partition(4), 0.1, 11),
    "empty-cell": EMPTY_CELL,
}


class TestGroupedStability:
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("name", sorted(PARTITIONS))
    def test_matches_dense_one_hot(self, name, antithetic):
        # Reference: the per-cell joint membership and agreement columns the
        # grouped reduction replaced, through the per-row path.
        part = PARTITIONS[name]
        m = part.m
        config = IntegrationConfig(sample_count=60_000, seed=29, dimension=part.d,
                                   chunk_size=20_000, antithetic=antithetic)

        def dense(x, y):
            cx, cy = part.classify_points(x), part.classify_points(y)
            cells = np.arange(m)[None, :]
            both = (cx[:, None] == cells) & (cy[:, None] == cells)
            return np.concatenate([both.astype(float), (cx == cy).astype(float)[:, None]],
                                  axis=1)

        for rho in (0.9, -0.4):
            got = noise_stability_partition(part, rho, config)
            want = mc_mean(config, dense, substream=PAIR_SUBSTREAM, pair_rho=rho)
            assert np.array_equal(got.per_cell, want.mean[:m])
            assert np.array_equal(got.per_cell_stderr, want.stderr[:m])
            assert got.total == want.mean[m]
            assert got.total_stderr == want.stderr[m]


def _count_mc_mean(monkeypatch):
    """Count mc_mean calls at every module that binds it."""
    from gauss_bubbles import montecarlo, noise

    calls = []
    original = montecarlo.mc_mean

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "mc_mean", counted)
    monkeypatch.setattr(noise, "mc_mean", counted)
    return calls


class TestCertificatePasses:
    def test_volumes_come_from_the_moment_reports(self, monkeypatch):
        # cones5 keeps the certificate's moments on Monte Carlo.
        config = cfg(4, samples=500_000, seed=23)
        reference = simplicial_cone_partition(5)
        candidate = calibrate_offsets_to_volumes(
            perturb(reference, 0.05, 2), np.full(5, 0.2), config)
        w = np.array([0.05, -0.02, 0.03, 0.01])
        rho, epsilon = 0.9, 1e-3
        # The certificate as it was formed with separate mc_volumes passes.
        mom_ref = mc_moments(reference, w, config)
        mom_cand = mc_moments(candidate, w, config)
        vol_gap = np.abs(mc_volumes(reference, config).volumes
                         - mc_volumes(candidate, config).volumes)
        assert np.array_equal(vol_gap, np.abs(mom_ref.volumes - mom_cand.volumes))
        stab_ref = noise_stability_partition(reference, rho, config)
        stab_cand = noise_stability_partition(candidate, rho, config)
        rate = epsilon * math.sqrt(1.0 - rho * rho) * math.sqrt(math.pi / 2.0)
        rhs_core = stab_ref.total - rate * (mom_ref.moment_functional
                                            - mom_cand.moment_functional)
        rhs_err = math.sqrt(stab_ref.total_stderr**2
                            + (rate * mom_ref.moment_functional_stderr) ** 2
                            + (rate * mom_cand.moment_functional_stderr) ** 2)

        calls = _count_mc_mean(monkeypatch)
        cert = noise_stability_certificate(reference, candidate, rho, epsilon, w, config)
        assert len(calls) == 4
        assert cert.lhs == stab_cand.total
        assert cert.lhs_stderr == stab_cand.total_stderr
        assert cert.rhs_core == rhs_core
        assert cert.rhs_stderr == rhs_err
        assert cert.margin == rhs_core - stab_cand.total
        assert cert.margin_stderr == math.sqrt(rhs_err**2 + stab_cand.total_stderr**2)
        assert cert.moment_reference == mom_ref.moment_functional
        assert cert.moment_candidate == mom_cand.moment_functional

    def test_exact_moments_for_three_cells(self, monkeypatch):
        config = cfg(2, samples=500_000, seed=23)
        reference = propeller_partition()
        candidate = calibrate_offsets_to_volumes(
            perturb(reference, 0.05, 2), (1 / 3, 1 / 3, 1 / 3), config)
        w = np.array([0.05, -0.02])
        rho, epsilon = 0.9, 1e-3
        mom_ref = exact.moments(reference, w)
        mom_cand = exact.moments(candidate, w)
        assert mom_ref.moment_functional_stderr == mom_cand.moment_functional_stderr == 0.0
        stab_ref = noise_stability_partition(reference, rho, config)
        stab_cand = noise_stability_partition(candidate, rho, config)
        rate = epsilon * math.sqrt(1.0 - rho * rho) * math.sqrt(math.pi / 2.0)

        calls = _count_mc_mean(monkeypatch)
        cert = noise_stability_certificate(reference, candidate, rho, epsilon, w, config)
        # Only the two noise-stability passes sample.
        assert len(calls) == 2
        assert cert.moment_reference == mom_ref.moment_functional
        assert cert.moment_candidate == mom_cand.moment_functional
        assert cert.rhs_core == stab_ref.total - rate * (mom_ref.moment_functional
                                                         - mom_cand.moment_functional)
        assert cert.rhs_stderr == stab_ref.total_stderr
        assert cert.lhs == stab_cand.total
