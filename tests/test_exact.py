import dataclasses
import json
import math
import random

import numpy as np
import pytest

from gauss_bubbles import (
    AffinePartition,
    ContractViolationError,
    DegenerateCellError,
    IntegrationConfig,
    DegeneratePairError,
    UnsupportedGeometryError,
    calibrate_offsets_to_volumes,
    half_space_pair,
    facet_perimeter,
    mc_moments,
    perturb,
    propeller_partition,
    simplicial_cone_partition,
    stability_margin,
)
from gauss_bubbles import exact, optimize
from gauss_bubbles.cli import main
from gauss_bubbles.exact import (
    bivariate_normal_cdf,
    cell_volumes,
    moments,
    trivariate_normal_cdf,
)

import oracles

PROPELLER_MOMENT = 9.0 / (8.0 * math.pi)
CONES4_MOMENT = (12.0 / math.pi) * (0.25 + math.asin(1.0 / 3.0) / (2.0 * math.pi)) ** 2


def mc(d, seed=3):
    return IntegrationConfig(sample_count=2_000_000, seed=seed, dimension=d, chunk_size=250_000)


def random_correlation(rng):
    u = rng.standard_normal((3, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return u @ u.T


def shifted_cones(m, seed, magnitude=0.15):
    rng = np.random.default_rng(seed)
    apex = rng.normal(0.0, 0.3, size=m - 1)
    return perturb(simplicial_cone_partition(m, apex), magnitude, seed)


def assert_matches_mc(part, seed=3):
    """Exact volumes and moment vectors within 4 sigma of Monte Carlo."""
    got = moments(part)
    want = mc_moments(part, None, mc(part.d, seed))
    assert np.all(np.abs(got.volumes - want.volumes) <= 4.0 * want.volumes_stderr + 1e-15)
    assert np.all(np.abs(got.moments - want.moments) <= 4.0 * want.moments_stderr + 1e-15)
    return got


def check_coplanar(seed, cases, mix, spread):
    """Phi_3 for u_2 = a u_0 + b u_1 (unit-normalised), (a, b) = mix(i),
    against the measure of the polygon the three constraints cut out of
    their plane."""
    rng = np.random.default_rng(seed)
    for i in range(cases):
        u = rng.standard_normal((3, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        a, b = mix(i)
        u[2] = a * u[0] + b * u[1]
        u[2] /= np.linalg.norm(u[2])
        basis, _ = np.linalg.qr(u[:2].T)
        h = rng.normal(0.0, spread, 3)
        want = oracles.planar_polygon_probability(h, u @ basis)
        assert oracles.orthant_probability(h, u)[0] == pytest.approx(want, rel=0.0, abs=1e-14)


class TestClosedForms:
    def test_propeller(self):
        volumes, errors = cell_volumes(propeller_partition())
        assert volumes == pytest.approx([1 / 3] * 3, rel=1e-12)
        assert np.all(errors == 0.0)
        report = moments(propeller_partition())
        assert report.moment_functional == pytest.approx(PROPELLER_MOMENT, rel=1e-12)
        assert report.moment_functional_stderr == 0.0

    def test_cones4(self):
        volumes, errors = cell_volumes(simplicial_cone_partition(4))
        assert volumes == pytest.approx([0.25] * 4, rel=1e-12)
        assert np.all(errors < 1e-13)
        report = moments(simplicial_cone_partition(4))
        assert report.moment_functional == pytest.approx(CONES4_MOMENT, rel=1e-12)
        assert CONES4_MOMENT == pytest.approx(0.3532045528490168, rel=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_trivariate_at_the_origin(self, seed):
        corr = random_correlation(np.random.default_rng(seed))
        want = 0.125 + (math.asin(corr[0, 1]) + math.asin(corr[0, 2])
                        + math.asin(corr[1, 2])) / (4.0 * math.pi)
        value, err = trivariate_normal_cdf([0.0, 0.0, 0.0], corr)
        assert value == pytest.approx(want, rel=1e-12)
        assert err < 1e-13

    @pytest.mark.parametrize("seed", range(10))
    def test_trivariate_agrees_across_conditioning(self, seed):
        rng = np.random.default_rng(100 + seed)
        corr = random_correlation(rng)
        h = rng.normal(0.0, 1.2, size=3)
        values = [trivariate_normal_cdf(h, corr, first=a)[0] for a in range(3)]
        assert max(values) - min(values) <= 1e-14

    @pytest.mark.parametrize("seed", range(300, 306))
    def test_trivariate_on_coplanar_constraints(self, seed):
        # u_2 in the plane of u_0 and u_1 makes the correlation singular:
        # the partial correlation is +-1 and the integrand has a kink.
        check_coplanar(seed, cases=30, mix=lambda i: (1.0, 1.0), spread=1.0)

    @pytest.mark.parametrize("seed", range(200, 203))
    def test_trivariate_on_nearly_parallel_constraints(self, seed):
        # u_2 within 1e-3 of u_0 or 1e-4 of -u_0: |r| near 1, and the
        # quadrature must condition on another variable
        mixes = [(1.0, 1.0), (1.0, 1e-3), (-1.0, 1e-4)]
        check_coplanar(seed, cases=30, mix=lambda i: mixes[i % 3], spread=1.5)

    def test_trivariate_refuses_a_perfectly_correlated_conditioning_row(self):
        corr = np.array([[1.0, -1.0, 0.3], [-1.0, 1.0, -0.3], [0.3, -0.3, 1.0]])
        with pytest.raises(ContractViolationError):
            trivariate_normal_cdf([0.1, 0.2, 0.3], corr, first=0)
        # X_2 = -X_1: P(-0.2 <= X_1 <= 0.1, X_3 <= 0.3), conditioned on X_3
        value, _ = trivariate_normal_cdf([0.1, 0.2, 0.3], corr)
        want = bivariate_normal_cdf(0.1, 0.3, 0.3) - bivariate_normal_cdf(-0.2, 0.3, 0.3)
        assert value == pytest.approx(want, rel=1e-12)


class TestAgainstMonteCarlo:
    @pytest.mark.parametrize("m,seed", [(3, 0), (3, 1), (4, 0), (4, 1)])
    def test_perturbed_partitions(self, m, seed):
        report = assert_matches_mc(shifted_cones(m, seed), seed)
        assert abs(report.volumes.sum() - 1.0) <= 1e-13

    def test_three_cells_in_three_dimensions(self):
        directions = np.random.default_rng(4).standard_normal((3, 3))
        part = AffinePartition(directions, np.array([0.3, -0.2, 0.1]), np.zeros(3))
        assert_matches_mc(part)

    @pytest.mark.parametrize("m,d", [(2, 1), (3, 2), (3, 4), (4, 3), (4, 5)])
    def test_volumes_sum_to_one(self, m, d):
        rng = np.random.default_rng(10 * m + d)
        for _ in range(5):
            part = AffinePartition(rng.standard_normal((m, d)), rng.normal(0.0, 0.7, m),
                                   np.zeros(d))
            assert abs(cell_volumes(part)[0].sum() - 1.0) <= 1e-13

    @pytest.mark.parametrize("m", [3, 4])
    def test_moments_reuse_a_facet_report(self, m):
        part = shifted_cones(m, 11)
        w = np.full(part.d, 0.05)
        unused = IntegrationConfig(sample_count=1, seed=0, dimension=part.d, chunk_size=1)
        shared = moments(part, w, facet_perimeter(part, unused))
        fresh = moments(part, w)
        assert np.array_equal(shared.moments, fresh.moments)
        assert shared.moment_functional == fresh.moment_functional

    def test_rotation_invariance(self):
        part = shifted_cones(4, 7)
        rot, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((3, 3)))
        base = moments(part)
        turned = moments(part.rotated(rot))
        assert turned.volumes == pytest.approx(base.volumes, rel=1e-12, abs=1e-15)
        assert turned.moments == pytest.approx(base.moments @ rot.T, rel=1e-10, abs=1e-14)
        assert turned.moment_functional == pytest.approx(base.moment_functional, rel=1e-12)


class TestDegenerateInputs:
    def test_parallel_directions(self):
        # z_0 = z_3: the constant row empties cell 3 (c_3 < c_0) and holds for cell 0
        directions = np.array([[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8], [1.0, 0.0]])
        part = AffinePartition(directions, np.array([0.1, 0.0, -0.1, -0.2]), np.zeros(2))
        volumes = assert_matches_mc(part).volumes
        assert volumes[3] == 0.0
        assert abs(volumes.sum() - 1.0) <= 1e-13

    def test_identical_functionals_go_to_the_lower_index(self):
        directions = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        part = AffinePartition(directions, np.array([0.2, 0.0, 0.2]), np.zeros(2))
        volumes = cell_volumes(part)[0]
        assert volumes[2] == 0.0
        assert volumes[0] == pytest.approx(1.0 - volumes[1], rel=1e-15)

    def test_coincident_and_antipodal_constraints(self):
        # every direction lies on the x_1 axis: cell 0 sees u_1 = u_2 = e_1,
        # with the looser limit first, and u_3 = -e_1
        directions = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]])
        part = AffinePartition(directions, np.array([0.0, -0.9, -0.4, -1.2]), np.zeros(2))
        volumes = assert_matches_mc(part).volumes
        # cell 0 is the interval -1.2 <= x_1 <= min(0.9, 0.2)
        phi = lambda t: 0.5 * math.erfc(-t / math.sqrt(2.0))  # noqa: E731
        assert volumes[0] == pytest.approx(phi(0.2) - phi(-1.2), rel=1e-13)
        assert abs(volumes.sum() - 1.0) <= 1e-13

    def test_merge_keeps_the_smallest_limit(self):
        # Cell 0 (z_0 = 0) sees u = (0.6, 0.8) from cells 1 and 2, with the
        # looser limit 1.0 first, and (-0.8, 0.6) from cell 3: its volume
        # is that of the cell without the looser row.
        u = np.array([[0.6, 0.8], [0.6, 0.8], [-0.8, 0.6]])
        both = AffinePartition(np.vstack([[0.0, 0.0], u * [[1.0], [2.0], [1.0]]]),
                               np.array([0.0, -1.0, 0.6, -0.5]), np.zeros(2))
        tighter = AffinePartition(np.vstack([[0.0, 0.0], u[1:] * [[2.0], [1.0]]]),
                                  np.array([0.0, 0.6, -0.5]), np.zeros(2))
        assert cell_volumes(both)[0][0] == cell_volumes(tighter)[0][0]
        assert cell_volumes(both)[0][0] == oracles.orthant_probability([-0.3, 0.5], u[1:])[0]

    def test_four_cells_in_the_plane(self):
        angles = np.array([0.1, 1.9, 3.3, 4.6])
        directions = np.column_stack([np.cos(angles), np.sin(angles)])
        part = AffinePartition(directions, np.array([0.2, -0.1, 0.3, -0.4]), np.zeros(2))
        volumes = assert_matches_mc(part).volumes
        assert abs(volumes.sum() - 1.0) <= 1e-13

    def test_empty_cell(self):
        # cell 2 needs -1 >= |x_1|: two antipodal constraints that cannot both hold
        directions = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
        part = AffinePartition(directions, np.array([0.0, 0.0, -1.0]), np.zeros(2))
        report = assert_matches_mc(part)
        assert report.volumes[2] == 0.0
        assert np.all(report.moments[2] == 0.0)
        with pytest.raises(DegenerateCellError):
            moments(part, np.array([0.1, 0.0]))

    def test_five_cells_are_refused(self):
        with pytest.raises(UnsupportedGeometryError):
            cell_volumes(simplicial_cone_partition(5))


def benchmark_candidates(m, count, seed):
    """Perturbed cones as the certify benchmark draws them."""
    rng = random.Random(seed)
    for _ in range(count):
        magnitude = rng.uniform(0.02, 0.2)
        yield perturb(simplicial_cone_partition(m), magnitude, rng.randrange(1, 2**31))


class TestExactCalibration:
    @pytest.mark.parametrize("m", [3, 4])
    def test_benchmark_candidates_reach_1e_12(self, m):
        config = IntegrationConfig(sample_count=1, seed=0, dimension=m - 1, chunk_size=1)
        targets = np.full(m, 1.0 / m)
        for candidate in benchmark_candidates(m, 50, seed=m):
            calibrated = calibrate_offsets_to_volumes(candidate, targets, config)
            assert np.max(np.abs(cell_volumes(calibrated)[0] - targets)) <= 1e-12
            assert abs(calibrated.offsets.sum()) <= 1e-12
            assert np.array_equal(calibrated.directions, candidate.directions)

    def test_loose_tol_still_stops_at_1e_12(self):
        config = IntegrationConfig(sample_count=1, seed=0, dimension=2, chunk_size=1)
        candidate = perturb(propeller_partition(), 0.094535, 326561175)
        calibrated = calibrate_offsets_to_volumes(candidate, (1 / 3,) * 3, config, tol=0.1)
        assert np.max(np.abs(cell_volumes(calibrated)[0] - 1 / 3)) <= 1e-12

    def test_skewed_targets_from_a_vanishing_cell(self):
        # cell 2 starts below the Newton floor and must take log steps
        directions = np.array([[1.0, 0.0], [-0.5, 0.8], [0.9, -0.4]])
        start = AffinePartition(directions, np.array([0.0, 0.0, -4.0]), np.zeros(2))
        assert cell_volumes(start)[0][2] < 1e-6
        targets = np.array([0.5, 0.3, 0.2])
        config = IntegrationConfig(sample_count=1, seed=0, dimension=2, chunk_size=1)
        calibrated = calibrate_offsets_to_volumes(start, targets, config)
        assert np.max(np.abs(cell_volumes(calibrated)[0] - targets)) <= 1e-12

    @pytest.mark.parametrize("m", [3, 4])
    def test_loose_tol_still_reaches_1e_12(self, m):
        targets = np.full(m, 1.0 / m)
        candidate = next(benchmark_candidates(m, 1, seed=20 + m))
        config = IntegrationConfig(sample_count=1, seed=0, dimension=m - 1, chunk_size=1)
        calibrated = calibrate_offsets_to_volumes(candidate, targets, config, tol=0.1)
        assert np.max(np.abs(cell_volumes(calibrated)[0] - targets)) <= 1e-12
        assert abs(calibrated.offsets.sum()) <= 1e-12


class TestExactCertificate:
    @pytest.mark.parametrize("m", [3, 4])
    def test_one_facet_report_per_partition(self, m, monkeypatch):
        calls = []

        def counting(partition, cfg):
            calls.append(partition)
            return facet_perimeter(partition, cfg)

        monkeypatch.setattr(optimize, "facet_perimeter", counting)
        config = IntegrationConfig(sample_count=1, seed=0, dimension=m - 1, chunk_size=1)
        reference = simplicial_cone_partition(m)
        candidate = calibrate_offsets_to_volumes(
            next(benchmark_candidates(m, 1, seed=30 + m)), np.full(m, 1.0 / m), config)
        cert = stability_margin(reference, candidate, 1e-3, None, config)
        assert calls == [reference, candidate]
        assert cert.m_candidate == moments(candidate).moment_functional
        assert cert.margin_stderr == 0.0


def exact_results(part, w=None):
    """Volumes, error bounds, facet masses and the moment report of a
    partition, or the exception type where the facets raise."""
    volumes, errors = cell_volumes(part)
    try:
        masses = exact.facet_masses(part)
        report = moments(part, w)
    except DegeneratePairError as err:
        return volumes, errors, type(err)
    return volumes, errors, masses, dataclasses.asdict(report)


def assert_bit_identical(got, want):
    if isinstance(got, dict):
        assert got.keys() == want.keys()
        for key in got:
            assert_bit_identical(got[key], want[key])
    elif isinstance(got, (tuple, list)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_bit_identical(a, b)
    elif isinstance(got, np.ndarray):
        assert got.tobytes() == np.asarray(want).tobytes()
    else:
        assert type(got) is type(want) and (got == want or repr(got) == repr(want))


def assert_matches_per_cell_reference(monkeypatch, parts, w=None):
    got = [exact_results(part, w) for part in parts]
    with monkeypatch.context() as patch:
        oracles.use_reference_exact(patch)
        assert isinstance(exact._geometry(parts[0].directions), oracles.PerCellGeometry)
        want = [exact_results(part, w) for part in parts]
    assert_bit_identical(got, want)


def degenerate_partitions():
    """Parallel, coincident, nearly coincident and antipodal rows, an empty
    cell, identical functionals, d = 1 and four cells in the plane."""
    angles = np.array([0.1, 1.9, 3.3, 4.6])
    tilted = np.array([[0.0, 0.0], [0.6, 0.8], [1.2, 1.6 + 1e-14], [-0.8, 0.6]])
    return {
        "parallel": ([[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8], [1.0, 0.0]], [0.1, 0.0, -0.1, -0.2]),
        "coincident-antipodal": ([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]],
                                 [0.0, -0.9, -0.4, -1.2]),
        "nearly-coincident": (tilted, [0.0, -1.0, 0.6, -0.5]),
        "empty-cell": ([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]], [0.0, 0.0, -1.0]),
        "identical": ([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]], [0.2, 0.0, 0.2]),
        "line-3": ([[1.0], [0.0], [-1.0]], [0.0, 0.4, 0.1]),
        "line-4": ([[2.0], [1.0], [-0.5], [-1.0]], [-0.3, 0.2, 0.0, 0.1]),
        "plane-4": (np.column_stack([np.cos(angles), np.sin(angles)]), [0.2, -0.1, 0.3, -0.4]),
        "zero-limits-3d": ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0.0, 0.0, 0.0]),
    }


class TestAgainstPerCellReference:
    """The geometry/evaluation split gives the per-cell evaluation's bits."""

    @pytest.mark.parametrize("m", [3, 4])
    def test_benchmark_candidates(self, m, monkeypatch):
        parts = list(benchmark_candidates(m, 300, seed=40 + m))
        assert_matches_per_cell_reference(monkeypatch, parts)

    @pytest.mark.parametrize("m", [3, 4])
    def test_calibrated_benchmark_candidates(self, m, monkeypatch):
        config = IntegrationConfig(sample_count=1, seed=0, dimension=m - 1, chunk_size=1)
        targets = np.full(m, 1.0 / m)
        starts = list(benchmark_candidates(m, 40, seed=50 + m))
        got = [calibrate_offsets_to_volumes(p, targets, config).offsets for p in starts]
        with monkeypatch.context() as patch:
            oracles.use_reference_exact(patch)
            want = [calibrate_offsets_to_volumes(p, targets, config).offsets for p in starts]
        assert_bit_identical(got, want)

    @pytest.mark.parametrize("d", [1, 5, 13, 21])
    def test_random_partitions_in_many_dimensions(self, d, monkeypatch):
        rng = np.random.default_rng(90 + d)
        parts = [AffinePartition(rng.standard_normal((m, d)), rng.normal(0.0, 0.6, m), np.zeros(d))
                 for m in (2, 3, 4) for _ in range(10)]
        assert_matches_per_cell_reference(monkeypatch, parts)

    def test_zero_limits_of_plain_cones(self, monkeypatch):
        parts = [propeller_partition(), simplicial_cone_partition(3),
                 simplicial_cone_partition(4), half_space_pair(1), half_space_pair(3)]
        assert_matches_per_cell_reference(monkeypatch, parts)
        assert_matches_per_cell_reference(monkeypatch, parts[2:3], w=np.full(3, 0.05))

    @pytest.mark.parametrize("name", sorted(degenerate_partitions()))
    def test_degenerate_geometry(self, name, monkeypatch):
        directions, offsets = degenerate_partitions()[name]
        directions = np.array(directions, dtype=float)
        part = AffinePartition(directions, np.array(offsets), np.zeros(directions.shape[1]))
        assert_matches_per_cell_reference(monkeypatch, [part])

    def test_closed_form_facets_of_many_cells(self, monkeypatch):
        # d = 2 facets are closed-form for any m; m = 5, 6 in d = 3 mix
        # closed-form and sampled facets.
        rng = np.random.default_rng(77)
        parts = [AffinePartition(rng.standard_normal((m, d)), rng.normal(0.0, 0.6, m), np.zeros(d))
                 for m, d in [(5, 2), (6, 2), (8, 2), (5, 3), (6, 3)] for _ in range(6)]
        config = IntegrationConfig(sample_count=2_000, seed=1, dimension=2, chunk_size=1_000)
        got = [facet_perimeter(p, dataclasses.replace(config, dimension=p.d)) for p in parts]
        with monkeypatch.context() as patch:
            oracles.use_reference_exact(patch)
            want = [facet_perimeter(p, dataclasses.replace(config, dimension=p.d)) for p in parts]
        assert got == want
        assert any(r.total_stderr > 0.0 for r in got) and any(r.total_stderr == 0.0 for r in got)


REFERENCE_REPORTS = [
    "stability-check --m 3 --perturb 0.1 --perturb-seed 5 --epsilon 1e-3 --samples 5e4 --seed 3",
    "stability-check --m 4 --perturb 0.12 --perturb-seed 9 --epsilon 1e-3 --samples 5e4 --seed 3",
    "penalty --partition cones4 --samples 1e4 --seed 7",
    "perimeter --partition propeller3 --method facet --samples 1e4 --seed 7",
    "perimeter --partition cones5 --method facet --samples 2e4 --seed 7",
    "optimize-propeller --m 3 --d 2 --restarts 1 --max-iters 12 --search-samples 1e4 "
    "--samples 2e4 --seed 2",
]


@pytest.mark.parametrize("command", REFERENCE_REPORTS, ids=lambda c: c.split()[0])
def test_reports_match_the_per_cell_reference(command, tmp_path, monkeypatch):
    def report(out):
        assert main(command.split() + ["--out-dir", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    got = report(tmp_path / "split")
    with monkeypatch.context() as patch:
        oracles.use_reference_exact(patch)
        want = report(tmp_path / "per-cell")
    assert got == want
    assert json.loads(next(v for k, v in got.items() if k.endswith("summary.json")))["results"]
