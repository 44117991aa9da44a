import math

import numpy as np
import pytest
from scipy.special import erf, gammainc, log_ndtr, ndtr
from scipy.stats import multivariate_normal

from gauss_bubbles import (
    AffinePartition,
    ConfigError,
    DegeneratePairError,
    DomainError,
    IntegrationConfig,
    PartitionCell,
    PreconditionError,
    RoundCylinder,
    cylinder_closed_forms,
    facet_perimeter,
    half_space_pair,
    interface_facets,
    minkowski_partition_perimeter,
    minkowski_perimeter,
    perturb,
    propeller_partition,
    simplicial_cone_partition,
    symmetric_scan,
    tail_perimeter_check,
)
from gauss_bubbles import exact, perimeter
from gauss_bubbles.montecarlo import COLLAR_SUBSTREAM, mc_mean
from gauss_bubbles.exact import bivariate_normal_cdf
from gauss_bubbles.perimeter import facet_mass
from gauss_bubbles.special import chi_square_cdf, sphere_surface_measure

import oracles

GAMMA1_0 = 1.0 / math.sqrt(2.0 * math.pi)
GAMMA1_1 = GAMMA1_0 * math.exp(-0.5)
PROPELLER_PERIMETER = 3.0 / (2.0 * math.sqrt(2.0 * math.pi))


def all_true(points):
    """Extra mask that keeps every point; it forces the in-plane sampler."""
    return np.ones(points.shape[0], dtype=bool)


def fractions(part):
    """{(i, j): closed-form in-plane fraction} of every facet of a partition."""
    return exact._geometry(part.directions).facet_fractions(part.offsets)


def cfg(d, samples=400_000, seed=7, antithetic=False):
    return IntegrationConfig(sample_count=samples, seed=seed, dimension=d,
                             chunk_size=50_000, antithetic=antithetic)


class TestFacetPerimeter:
    def test_halfspaces_through_origin(self):
        # m=2: the whole hyperplane is the interface, so the in-plane
        # fraction is exactly 1 and the mass is exactly gamma_1(0)
        report = facet_perimeter(half_space_pair(2, 0.0), cfg(2))
        assert report.total == pytest.approx(GAMMA1_0, rel=1e-12)
        assert report.total_stderr == 0.0

    def test_split_at_one(self):
        report = facet_perimeter(half_space_pair(3, 1.0), cfg(3))
        assert report.total == pytest.approx(GAMMA1_1, rel=1e-12)
        assert report.total == pytest.approx(0.24197072451914337, rel=1e-9)

    def test_propeller_total_and_pairs(self):
        # d=2 facets evaluate their interval measure in closed form
        report = facet_perimeter(propeller_partition(), cfg(2, samples=1_000_000))
        assert report.total == pytest.approx(PROPELLER_PERIMETER, rel=1e-12)
        each = 1.0 / (2.0 * math.sqrt(2.0 * math.pi))
        for (i, j), (mass, err) in report.masses.items():
            assert mass == pytest.approx(each, abs=3.0 * err + 1e-12)

    def test_in_plane_sampler_agrees_with_closed_form_in_3d(self):
        # embed the propeller in R^3: facets are 2-D with one other cell, so
        # the in-plane fraction is closed-form and equals the d=2 value; an
        # all-true extra mask forces the sampler, which must agree within 3σ
        prop = propeller_partition()
        directions = np.zeros((3, 3))
        directions[:, :2] = prop.directions
        embedded = AffinePartition(directions, prop.offsets.copy(), np.zeros(3))
        report = facet_perimeter(embedded, cfg(3, samples=400_000))
        assert report.total_stderr == 0.0
        assert report.total == pytest.approx(PROPELLER_PERIMETER, rel=1e-12)
        sampled = [facet_mass(embedded, facet, cfg(3, samples=400_000), extra_mask=all_true)
                   for facet in interface_facets(embedded)]
        total = sum(mass for mass, _ in sampled)
        total_stderr = math.sqrt(sum(err * err for _, err in sampled))
        assert total_stderr > 0.0
        assert total == pytest.approx(PROPELLER_PERIMETER, abs=3.0 * total_stderr)

    def test_rotation_invariance_with_sampled_facets(self):
        # m=5, d=4: three other cells cut each facet, so the in-plane Monte
        # Carlo path runs on both sides
        part = simplicial_cone_partition(5)
        rng = np.random.default_rng(5)
        rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        if np.linalg.det(rot) < 0:
            rot[:, 0] = -rot[:, 0]
        base = facet_perimeter(part, cfg(4, samples=200_000))
        rotated = facet_perimeter(part.rotated(rot), cfg(4, samples=200_000, seed=8))
        assert base.total_stderr > 0.0 and rotated.total_stderr > 0.0
        tol = 3.0 * math.hypot(base.total_stderr, rotated.total_stderr)
        assert abs(base.total - rotated.total) <= tol

    def test_sampled_facet_points_lie_on_their_hyperplane(self):
        part = simplicial_cone_partition(4, [0.2, -0.1, 0.3])
        rng = np.random.default_rng(6)
        for facet in interface_facets(part):
            from gauss_bubbles.perimeter import _hyperplane_basis
            basis = _hyperplane_basis(facet.normal)
            xi = rng.standard_normal((100, basis.shape[1]))
            points = facet.offset * facet.normal[None, :] + xi @ basis.T
            assert np.all(facet.on_hyperplane(points, tol=1e-9))

    def test_parallel_pair_reports_zero(self):
        part = AffinePartition(np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]),
                               np.array([0.0, -1.0, 0.0]), np.zeros(2))
        report = facet_perimeter(part, cfg(2, samples=100_000))
        assert (0, 1) not in report.masses  # parallel, empty interface
        assert report.masses[(0, 2)][0] > 0.0

    def test_identical_pair_raises(self):
        part = AffinePartition(np.array([[1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]]),
                               np.array([0.0, 0.0, 0.0]), np.zeros(2))
        with pytest.raises(DegeneratePairError):
            interface_facets(part)

    def test_rotation_invariance(self):
        theta = 1.234
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        base = facet_perimeter(propeller_partition(), cfg(2))
        rotated = facet_perimeter(propeller_partition().rotated(rot), cfg(2))
        tol = 3.0 * math.hypot(base.total_stderr, rotated.total_stderr)
        assert abs(base.total - rotated.total) <= tol

    def test_facet_normals_point_between_cells(self):
        part = propeller_partition()
        for facet in interface_facets(part):
            z = part.directions
            expected = (z[facet.j] - z[facet.i])
            expected /= np.linalg.norm(expected)
            assert np.allclose(facet.normal, expected, atol=1e-12)
            # stepping along the normal from the hyperplane enters cell j
            anchor = facet.offset * facet.normal
            assert part.classify(anchor + 1e-6 * facet.normal) == facet.j
            assert part.classify(anchor - 1e-6 * facet.normal) == facet.i


def _bvn_cases():
    fixed = [
        (0.0, 0.0, 0.3), (0.0, 0.0, -0.7),  # h = k = 0
        (0.0, 1.2, 0.5), (0.0, -1.2, 0.5),  # one zero, either sign
        (1.1, 0.0, -0.4), (-1.1, 0.0, -0.4),
        (1.0, -2.0, 0.3), (-0.4, 1.7, -0.6),  # hk < 0
        (0.5, 0.7, 1.0), (0.5, -0.7, 1.0),  # r = 1
        (0.5, 0.7, -1.0), (0.5, -0.7, -1.0),  # r = -1, nonempty and empty
        (0.3, 0.2, 0.999), (0.3, -0.2, -0.999), (-1.3, 0.4, 0.999),
    ]
    rng = np.random.default_rng(42)
    hk = rng.normal(0.0, 1.5, size=(40, 2))
    r = rng.uniform(-1.0, 1.0, size=40)
    return fixed + [(float(h), float(k), float(c)) for (h, k), c in zip(hk, r)]


def _perturbed_cones4(seed):
    rng = np.random.default_rng(seed)
    apex = rng.normal(0.0, 0.3, size=3)
    return perturb(simplicial_cone_partition(4, apex), 0.15, seed)


class TestClosedFormFacetFraction:
    """The in-plane fraction is exact when at most two other cells cut a facet."""

    @pytest.mark.parametrize("h,k,r", _bvn_cases())
    def test_bivariate_normal_cdf_matches_scipy(self, h, k, r):
        expected = multivariate_normal.cdf(
            [h, k], mean=[0.0, 0.0], cov=[[1.0, r], [r, 1.0]], allow_singular=True,
            abseps=1e-12, maxpts=10**7, rng=np.random.default_rng(1))
        assert bivariate_normal_cdf(h, k, r) == pytest.approx(expected, abs=1e-12)

    def test_unperturbed_cones4_total(self):
        # each of the 6 facets: gamma_1(0) times an orthant probability with
        # correlation 1/3 between its two in-plane constraints
        expected = 6.0 * GAMMA1_0 * (0.25 + math.asin(1.0 / 3.0) / (2.0 * math.pi))
        assert expected == pytest.approx(0.72787830663753, rel=1e-12)
        report = facet_perimeter(simplicial_cone_partition(4), cfg(3))
        assert report.total == pytest.approx(expected, rel=1e-12)
        assert report.total_stderr == 0.0

    def test_rotation_invariance(self):
        part = _perturbed_cones4(3)
        rng = np.random.default_rng(5)
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        base = facet_perimeter(part, cfg(3))
        rotated = facet_perimeter(part.rotated(rot), cfg(3, seed=8))
        assert rotated.total == pytest.approx(base.total, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_perturbed_cones4_facets_match_sampler(self, seed):
        part = _perturbed_cones4(seed)
        config = IntegrationConfig(sample_count=2_000_000, seed=seed, dimension=3,
                                   chunk_size=250_000)
        for facet in interface_facets(part):
            exact, exact_err = facet_mass(part, facet, config)
            sampled, err = facet_mass(part, facet, config, extra_mask=all_true)
            assert exact_err == 0.0
            assert err > 0.0
            assert abs(exact - sampled) <= 4.0 * err, (facet.i, facet.j)

    @pytest.mark.parametrize("c0,expected", [(1.0, GAMMA1_1), (-1.0, 0.0)])
    def test_constraint_parallel_to_the_facet(self, c0, expected):
        # z_0 - z_2 is parallel to the normal of facet (0, 1): cell 2 cuts
        # that plane nowhere or everywhere. With c0 = 1, cell 0 is the slab
        # |x_1| <= 1 and the facet is all of x_1 = 1; with c0 = -1 it is empty
        part = AffinePartition(np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [-1.0, 1.0, 0.0]]),
                               np.array([c0, 0.0, 0.0]), np.zeros(3))
        facet = next(f for f in interface_facets(part) if (f.i, f.j) == (0, 1))
        config = cfg(3, samples=100_000)
        mass, err = facet_mass(part, facet, config)
        assert mass == pytest.approx(expected, rel=1e-12)
        assert err == 0.0
        sampled, _ = facet_mass(part, facet, config, extra_mask=all_true)
        assert sampled == pytest.approx(expected, rel=1e-12)

    def test_sampled_paths_are_unchanged(self, monkeypatch):
        # three other cells per facet (cones5) and a radial mask (tail check)
        # must still run the in-plane sampler, bit for bit
        cones5 = perturb(simplicial_cone_partition(5), 0.1, 4)
        cones4 = simplicial_cone_partition(4)
        facets = facet_perimeter(cones5, cfg(4, samples=100_000))
        tail = tail_perimeter_check(cones4, 2.0, None, cfg(3, samples=100_000))
        monkeypatch.setattr(exact._Geometry, "facet_fractions",
                            lambda self, offsets: {(f.i, f.j): None for f in self.facets})
        assert facet_perimeter(cones5, cfg(4, samples=100_000)) == facets
        assert tail_perimeter_check(cones4, 2.0, None, cfg(3, samples=100_000)) == tail
        assert facets.total_stderr > 0.0 and tail.stderr > 0.0


class TestJointArgmaxMask:
    """The sampled facets' membership mask reads the cell-major scores."""

    @staticmethod
    def _near_junction_points(part, facet, k, rng, count=400):
        """Points of facet (i, j)'s plane where cell k ties with i and j,
        moved along the plane by up to 3e-12 so that k's score lies within
        the tie band or just outside it."""
        z, c = part.directions, part.offsets
        rows = np.array([z[facet.i] - z[facet.j], z[facet.i] - z[k]])
        rhs = np.array([c[facet.j] - c[facet.i], c[k] - c[facet.i]])
        base = np.linalg.lstsq(rows, rhs, rcond=None)[0]
        free = perimeter._hyperplane_basis(facet.normal)
        along = free @ (free.T @ (z[facet.i] - z[k]))  # in-plane, moves s_i - s_k
        along /= np.linalg.norm(along)
        null = np.linalg.svd(rows)[2][2:]
        spread = rng.standard_normal((count, null.shape[0])) @ null
        step = rng.uniform(-3e-12, 3e-12, size=count)
        return base + spread + step[:, None] * along

    @pytest.mark.parametrize("m", [5, 6])
    def test_matches_the_row_major_mask(self, m):
        part = perturb(simplicial_cone_partition(m), 0.1, m)
        rng = np.random.default_rng(31 + m)
        inside = outside = 0
        for facet in interface_facets(part):
            basis = perimeter._hyperplane_basis(facet.normal)
            plane = facet.offset * facet.normal + rng.standard_normal((500, m - 2)) @ basis.T
            k = next(l for l in range(m) if l not in (facet.i, facet.j))
            points = np.vstack([plane, self._near_junction_points(part, facet, k, rng)])
            got = perimeter._joint_argmax_mask(part, facet, points)
            want = oracles.row_major_joint_argmax_mask(part, facet, points)
            assert np.array_equal(got, want), (facet.i, facet.j)
            scores = part.scores(points[500:])
            gap = np.minimum(scores[:, facet.i], scores[:, facet.j]) - scores[:, k]
            band = np.abs(gap) <= 2.0 * perimeter._JOINT_ARGMAX_TOL
            inside += int(np.count_nonzero(band & got[500:]))
            outside += int(np.count_nonzero(band & ~got[500:]))
        # Rows within the tolerance band, on both sides of its edge.
        assert inside > 0 and outside > 0


class TestPlanarFacets:
    """d = 2 facets take the same closed form as any other exact facet."""

    @staticmethod
    def _random_planar_partitions():
        rng = np.random.default_rng(2024)
        for m in range(3, 9):
            for _ in range(15):
                yield AffinePartition(rng.standard_normal((m, 2)), rng.normal(0.0, 0.6, m),
                                      np.zeros(2))

    def test_matches_the_line_interval_oracle(self):
        count = nonzero = 0
        for part in self._random_planar_partitions():
            for facet in interface_facets(part):
                got = fractions(part)[(facet.i, facet.j)]
                want = oracles.line_facet_fraction(part.directions, part.offsets,
                                                   facet.i, facet.j)
                assert got is not None
                assert abs(got - want) <= 1e-15, (part.m, facet.i, facet.j)
                count += 1
                nonzero += want > 0.0
        assert count >= 1000 and nonzero >= 300

    def test_merged_limits_and_opposite_directions(self):
        # Facet (0, 1) lies on x_1 = 0. Cells 2 and 3 bound x_2 above, at
        # 0.5 and 1.5, and cell 4 below, at -0.25: the facet is
        # -0.25 <= x_2 <= 0.5.
        part = AffinePartition(
            np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 2.0], [0.0, 1.0], [0.0, -4.0]]),
            np.array([0.0, 0.0, -1.0, -1.5, -1.0]), np.zeros(2))
        facet = next(f for f in interface_facets(part) if (f.i, f.j) == (0, 1))
        got = fractions(part)[(facet.i, facet.j)]
        assert got == pytest.approx(ndtr(0.5) - ndtr(-0.25), rel=1e-15)

    def test_planar_facets_take_no_hyperplane_basis(self, monkeypatch):
        part = next(p for p in self._random_planar_partitions() if p.m == 8)
        want = facet_perimeter(part, cfg(2))

        def refuse(normal):
            raise AssertionError("a d = 2 facet asked for a hyperplane basis")

        monkeypatch.setattr(perimeter, "_hyperplane_basis", refuse)
        assert facet_perimeter(part, cfg(2)) == want
        assert want.total_stderr == 0.0


def planar_six_cells():
    """m = 6 > d + 1 cells in the plane, slightly irregular."""
    angles = np.arange(6) * np.pi / 3 + np.array([0.0, 0.05, -0.03, 0.02, 0.04, -0.01])
    return AffinePartition(np.c_[np.cos(angles), np.sin(angles)],
                           np.array([0.0, 0.1, -0.05, 0.02, 0.0, 0.03]), np.zeros(2))


def nearly_parallel_cells():
    """Cells 0 and 1 with |z_0 - z_1| = 5e-7, and an empty cell 2 whose
    direction lies halfway between theirs.

    Cell 0's constraint against cell 2 is parallel to the one against cell
    1 and lies 2.5e-4 outside it, inside the band of width 1e-9 / 5e-7 that
    the distance's feasibility tolerance admits. So rows of cell 1 read a
    distance to cell 0 2.5e-4 below their true one, and the row filter must
    keep them.
    """
    t2 = -2.5e-4
    z = np.array([[1.0, 0.0], [1.0 - 5e-7, 0.0], [1.0 - 2.5e-7, 0.0], [0.0, 1.0]])
    c = np.array([0.0, 0.0, 2.5e-7 * t2, -1.0])
    return AffinePartition(z, c, np.zeros(2))


# Cell 2 is empty: functional 2 never beats functional 0, whose direction it
# shares at a lower offset.
EMPTY_CELL = AffinePartition(np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]),
                             np.array([0.0, 0.0, -1.0]), np.zeros(2))
FILTERED_COLLAR_PARTITIONS = {
    "perturbed-cones4": perturb(simplicial_cone_partition(4), 0.1, 3),
    "perturbed-cones5": perturb(simplicial_cone_partition(5), 0.1, 4),
    "planar-six": planar_six_cells(),
    "empty-cell": EMPTY_CELL,
    "nearly-parallel": nearly_parallel_cells(),
}


class TestMinkowski:
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("name", sorted(FILTERED_COLLAR_PARTITIONS))
    def test_row_filter_matches_unfiltered_collar_bit_for_bit(self, name, antithetic,
                                                               monkeypatch):
        part = FILTERED_COLLAR_PARTITIONS[name]
        schedule = np.array([0.1, 0.05, 0.025])
        config = IntegrationConfig(sample_count=200_000, seed=29, dimension=part.d,
                                   chunk_size=100_000, antithetic=antithetic)
        got = mc_mean(config, perimeter._partition_collar_integrand(part, schedule),
                      substream=COLLAR_SUBSTREAM)
        # The reference runs on the reference sample stream as well.
        drawn = oracles.use_reference_kernels(monkeypatch)
        want = mc_mean(config, oracles.unfiltered_collar_integrand(part, schedule),
                       substream=COLLAR_SUBSTREAM)
        assert len(drawn) == config.n_chunks
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.stderr, want.stderr)
        assert np.any(got.mean > 0.0)

    @pytest.mark.parametrize("name", sorted(FILTERED_COLLAR_PARTITIONS))
    def test_cell_distances_match_the_projector_loop_bit_for_bit(self, name):
        part = FILTERED_COLLAR_PARTITIONS[name]
        rng = np.random.default_rng(53)
        x = 1.5 * rng.standard_normal((30_000, part.d))
        for i in range(part.m):
            cell = PartitionCell(part, i)
            # One and two rows take numpy's matrix-vector and matrix-matrix
            # products; 30 000 rows split the projectors into batches.
            for points in (x[:1], x[:2], x[:500], x):
                for limit in (math.inf, 0.1):
                    got = cell.distance(points, limit=limit)
                    assert np.array_equal(got, oracles.projector_loop_distance(cell, points, limit))

    @pytest.mark.parametrize("part", [propeller_partition(), simplicial_cone_partition(4)],
                             ids=["propeller3", "cones4"])
    def test_rows_at_the_collar_edge_match_the_unfiltered_integrand(self, part):
        # Points of cell j at distance eps[0] -/+ 1e-12 from the middle of
        # facet (i, j): p = (z_i + z_j) / |z_i + z_j| lies on the facet of a
        # regular simplex's cones, and the facet normal points into cell j.
        schedule = np.array([0.1, 0.05, 0.025])
        points, expected = [], []
        for facet in interface_facets(part):
            z = part.directions
            p = (z[facet.i] + z[facet.j]) / np.linalg.norm(z[facet.i] + z[facet.j])
            for step, near in ((0.1 - 1e-12, True), (0.1 + 1e-12, False)):
                points.append(p + step * facet.normal)
                expected.append((facet.i, near))
        x = np.array(points)
        got = perimeter._partition_collar_integrand(part, schedule)(x)
        want = oracles.unfiltered_collar_integrand(part, schedule)(x)
        assert np.array_equal(got, want)
        widest = got[:, :-1].reshape(x.shape[0], part.m, 3)[:, :, 0]
        for row, (cell, near) in enumerate(expected):
            assert widest[row, cell] == (10.0 if near else 0.0)

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_pruned_collar_is_bit_identical_to_exact_distances(self, antithetic, monkeypatch):
        part = perturb(simplicial_cone_partition(4), 0.1, 3)
        config = cfg(3, samples=200_000, antithetic=antithetic)
        schedule = [0.1, 0.05, 0.025]
        got = minkowski_partition_perimeter(part, schedule, config)
        pruned = PartitionCell.distance
        # Every cell distance exact on every row, whatever limit is passed.
        monkeypatch.setattr(PartitionCell, "distance",
                            lambda self, points, limit=math.inf: pruned(self, points))
        want = minkowski_partition_perimeter(part, schedule, config)
        assert got.estimate == want.estimate
        assert got.stderr == want.stderr
        assert got.slope == want.slope
        assert got.table == want.table

    def test_partition_collar_is_one_pass_over_one_stream(self, monkeypatch):
        from gauss_bubbles import perimeter

        calls = []
        original = perimeter.mc_mean

        def counted(*args, **kwargs):
            calls.append(args[0].sample_count)
            return original(*args, **kwargs)

        monkeypatch.setattr(perimeter, "mc_mean", counted)
        report = minkowski_partition_perimeter(
            simplicial_cone_partition(4), [0.1, 0.05, 0.025], cfg(3, samples=100_000))
        assert calls == [100_000]
        assert [row[:2] for row in report.table] == [
            (i, e) for i in range(4) for e in (0.1, 0.05, 0.025)]

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_partition_stderr_matches_seed_to_seed_spread(self, antithetic):
        # The total is fitted from the per-row sum of the cell collars, so its
        # stderr must carry the correlation between cells on the shared
        # stream: the spread over seeds has to fit the reported error.
        from scipy.stats import chi2

        seeds = range(1, 41)
        estimates, stderrs = [], []
        for seed in seeds:
            config = IntegrationConfig(sample_count=20_000, seed=seed, dimension=2,
                                       chunk_size=10_000, antithetic=antithetic)
            report = minkowski_partition_perimeter(
                propeller_partition(), [0.08, 0.04, 0.02], config)
            estimates.append(report.estimate)
            stderrs.append(report.stderr)
        dof = len(seeds) - 1
        ratio = np.std(estimates, ddof=1) / np.median(stderrs)
        low = math.sqrt(chi2.ppf(0.005, dof) / dof)
        high = math.sqrt(chi2.ppf(0.995, dof) / dof)
        assert low <= ratio <= high, (ratio, low, high)

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_stderr_is_the_stderr_of_the_per_row_intercept(self, antithetic, monkeypatch):
        # The reported total and stderr are those of one column: the fitted
        # intercept of each row's summed collars, so the stderr carries the
        # covariance between the epsilons that read the same samples.
        part = perturb(simplicial_cone_partition(4), 0.1, 3)
        config = cfg(3, samples=100_000, antithetic=antithetic)
        schedule = [0.1, 0.05, 0.025]
        report = minkowski_partition_perimeter(part, schedule, config)
        drawn = oracles.use_reference_kernels(monkeypatch)
        column = mc_mean(config, oracles.unfiltered_collar_integrand(part, schedule),
                         substream=COLLAR_SUBSTREAM)
        assert len(drawn) == config.n_chunks
        assert report.estimate == 0.5 * column.mean[-1]
        assert report.stderr == 0.5 * column.stderr[-1]
        # Fitting the three epsilon columns of the summed collars as if
        # independent reads a smaller stderr.
        integrand = oracles.unfiltered_collar_integrand(part, schedule)
        totals = mc_mean(config, lambda x: integrand(x)[:, :-1].reshape(-1, 4, 3).sum(axis=1),
                         substream=COLLAR_SUBSTREAM)
        naive = oracles.collar_fit(np.array(schedule), totals.mean, totals.stderr)
        assert naive[0] == pytest.approx(2.0 * report.estimate, rel=0.05)
        assert naive[1] < 2.0 * report.stderr

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_region_stderr_is_the_stderr_of_the_per_row_intercept(self, antithetic):
        # The single-region collar forms its intercept per row as the
        # partition collar does; its stderr then carries the covariance
        # between the epsilons, which a fit of independent columns misses.
        cyl = RoundCylinder(k=1, r=1.0, ambient=3)
        config = cfg(3, samples=200_000, antithetic=antithetic)
        schedule = np.array([0.08, 0.04, 0.02])
        report = minkowski_perimeter(cyl, schedule, config)
        intercept, slope = perimeter._collar_coefficients(schedule)

        def columns(x):
            collar = ((~cyl.contains(x))[:, None]
                      & (cyl.distance(x)[:, None] < schedule[None, :])) / schedule[None, :]
            return np.column_stack([collar, collar @ intercept])

        want = mc_mean(config, columns, substream=COLLAR_SUBSTREAM)
        assert [row[1:] for row in report.table] == [
            (float(want.mean[j]), float(want.stderr[j])) for j in range(3)]
        assert report.estimate == pytest.approx(want.mean[3], rel=1e-12)
        assert report.stderr == pytest.approx(want.stderr[3], rel=1e-9)
        assert report.slope == pytest.approx(slope @ want.mean[:3], rel=1e-12)
        naive = oracles.collar_fit(schedule, want.mean[:3], want.stderr[:3])
        assert naive[0] == pytest.approx(report.estimate, rel=0.02)
        assert naive[1] < report.stderr

    def test_collar_coefficients_fit_a_weighted_line(self):
        eps = np.array([0.1, 0.05, 0.025, 0.0125])
        y = np.array([0.81, 0.77, 0.745, 0.74])
        intercept, slope = perimeter._collar_coefficients(eps)
        # np.polyfit weighs residuals by w, i.e. squared residuals by w**2.
        want_slope, want_intercept = np.polyfit(eps, y, 1, w=np.sqrt(eps))
        assert intercept @ y == pytest.approx(want_intercept, rel=1e-12)
        assert slope @ y == pytest.approx(want_slope, rel=1e-12)
        line = 0.7 + 1.3 * eps
        assert intercept @ line == pytest.approx(0.7, rel=1e-12)
        assert slope @ line == pytest.approx(1.3, rel=1e-12)

    def test_halfspace_collar_matches_facet(self):
        cell = PartitionCell(half_space_pair(2, 0.0), 0)
        report = minkowski_perimeter(cell, [0.1, 0.05, 0.025], cfg(2, samples=1_000_000))
        assert report.estimate == pytest.approx(GAMMA1_0, rel=0.02)

    def test_propeller_cell_collar(self):
        cell = PartitionCell(propeller_partition(), 0)
        report = minkowski_perimeter(
            cell, [0.08, 0.04, 0.02],
            cfg(2, samples=1_000_000, antithetic=True))
        assert report.estimate == pytest.approx(2.0 / (2.0 * math.sqrt(2.0 * math.pi)), rel=0.02)

    def test_full_space_has_no_collar(self):
        part = AffinePartition(np.array([[1.0, 0.0], [1.0, 0.0]]),
                               np.array([0.0, -1.0]), np.zeros(2))
        report = minkowski_perimeter(PartitionCell(part, 0), [0.2, 0.1, 0.05],
                                     cfg(2, samples=50_000))
        assert report.estimate == 0.0
        assert all(row[1] == 0.0 for row in report.table)

    def test_partition_total_collar(self):
        report = minkowski_partition_perimeter(
            propeller_partition(), [0.08, 0.04, 0.02], cfg(2, samples=500_000))
        assert report.estimate == pytest.approx(PROPELLER_PERIMETER, rel=0.02)

    def test_schedule_validation(self):
        cell = PartitionCell(half_space_pair(2, 0.0), 0)
        with pytest.raises(ConfigError):
            minkowski_perimeter(cell, [0.1, 0.05], cfg(2, samples=50_000))
        with pytest.raises(ConfigError):
            minkowski_perimeter(cell, [0.05, 0.1, 0.2], cfg(2, samples=50_000))


class TestCylinderClosedForms:
    def test_two_hyperplanes(self):
        perim, vol = cylinder_closed_forms(RoundCylinder(k=0, r=1.0, ambient=4))
        assert perim == pytest.approx(2.0 * GAMMA1_1, rel=1e-12)
        assert vol == pytest.approx(2.0 * ndtr(1.0) - 1.0, rel=1e-10)

    def test_circle_in_plane(self):
        perim, vol = cylinder_closed_forms(RoundCylinder(k=1, r=1.0, ambient=2))
        assert perim == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert vol == pytest.approx(1.0 - math.exp(-0.5), rel=1e-12)

    def test_sphere_in_three_space(self):
        perim, vol = cylinder_closed_forms(RoundCylinder(k=2, r=1.0, ambient=3))
        expected = 4.0 * math.pi * (2.0 * math.pi) ** -1.5 * math.exp(-0.5)
        assert perim == pytest.approx(expected, rel=1e-12)
        assert vol == pytest.approx(float(gammainc(1.5, 0.5)), rel=1e-10)

    def test_outside_orientation_complements_volume(self):
        inside = cylinder_closed_forms(RoundCylinder(k=1, r=0.8, ambient=5))
        outside = cylinder_closed_forms(RoundCylinder(k=1, r=0.8, ambient=5,
                                                      orientation="outside"))
        assert inside[0] == outside[0]
        assert inside[1] + outside[1] == pytest.approx(1.0, rel=1e-12)

    def test_closed_forms_match_monte_carlo(self):
        cyl = RoundCylinder(k=1, r=1.0, ambient=3)
        perim, vol = cylinder_closed_forms(cyl)
        config = cfg(3, samples=1_000_000)
        vol_mc = np.mean([
            float(cyl.contains(x).mean())
            for x in __import__("gauss_bubbles").montecarlo.sample_standard_normal(config)
        ])
        assert vol_mc == pytest.approx(vol, rel=0.01)
        collar = minkowski_perimeter(cyl, [0.08, 0.04, 0.02], config)
        assert collar.estimate == pytest.approx(perim, rel=0.02)

    def test_perimeter_peaks_at_sqrt_k(self):
        for k in (1, 2, 3):
            radii = np.linspace(0.2, 3.0, 141)
            values = [cylinder_closed_forms(RoundCylinder(k=k, r=float(r), ambient=k + 1))[0]
                      for r in radii]
            diffs = np.sign(np.diff(values))
            flips = np.flatnonzero(np.diff(diffs) != 0)
            assert len(flips) == 1  # unique interior max
            peak = radii[flips[0] + 1]
            assert peak == pytest.approx(math.sqrt(k), abs=0.05)


class TestSpecialFunctions:
    @pytest.mark.parametrize("df", [1, 2, 3, 4, 15, 60])
    @pytest.mark.parametrize("x", [2e-6, 0.6, 2.0, 8.0, 50.0, 160.0])
    def test_chi_square_cdf_against_closed_form(self, df, x):
        # P(chi^2_df <= x) is the Gaussian mass of the ball of radius sqrt(x)
        # in R^df: one minus the finite-sum upper tail of log_upper_tail.
        closed = -math.expm1(log_upper_tail(df - 1, math.sqrt(x)))
        assert chi_square_cdf(df, x) == pytest.approx(closed, rel=1e-12, abs=1e-15)

    def test_chi_square_edge_cases(self):
        assert chi_square_cdf(3, 0.0) == 0.0
        assert chi_square_cdf(1, 1.0) == pytest.approx(2.0 * ndtr(1.0) - 1.0, abs=1e-10)
        with pytest.raises(DomainError):
            chi_square_cdf(0, 1.0)

    def test_sphere_surface_measures(self):
        assert sphere_surface_measure(0) == pytest.approx(2.0)
        assert sphere_surface_measure(1) == pytest.approx(2.0 * math.pi)
        assert sphere_surface_measure(2) == pytest.approx(4.0 * math.pi)
        assert sphere_surface_measure(3) == pytest.approx(2.0 * math.pi**2)


class TestSymmetricScan:
    def test_recovers_unit_circle(self):
        result = symmetric_scan(1.0 - math.exp(-0.5), 1, "inside")
        row = [r for r in result.rows if r.k == 1][0]
        assert row.r == pytest.approx(1.0, abs=1e-6)
        assert row.perimeter == pytest.approx(math.exp(-0.5), rel=1e-6)

    def test_recovers_unit_slab(self):
        result = symmetric_scan(2.0 * ndtr(1.0) - 1.0, 0, "inside")
        row = result.rows[0]
        assert row.r == pytest.approx(1.0, abs=1e-6)
        assert row.perimeter == pytest.approx(2.0 * GAMMA1_1, rel=1e-6)

    def test_volume_near_one_kills_perimeter(self):
        result = symmetric_scan(0.9999, 3, "inside")
        assert all(row.perimeter < 0.005 for row in result.rows)
        assert all(row.r > 3.0 for row in result.rows)

    def test_both_orientations(self):
        result = symmetric_scan(0.3, 2, "both")
        assert len(result.rows) == 6
        assert {row.orientation for row in result.rows} == {"inside", "outside"}

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            symmetric_scan(0.0, 2)
        with pytest.raises(DomainError):
            symmetric_scan(0.5, -1)

    @pytest.mark.parametrize("a", [1e-12, 1e-6, 0.39347, 1.0 - 1e-6])
    def test_radius_holds_the_volume(self, a):
        # The Gaussian mass at each returned radius, against a: the upper
        # tail from its closed form for every k, the inside from erf (k = 0),
        # expm1 (k = 1) or scipy's forward gamma function.
        rows = symmetric_scan(a, 7, "both").rows
        assert len(rows) == 16 and all(row.feasible for row in rows)
        for row in rows:
            if row.orientation == "outside":
                mass = math.exp(log_upper_tail(row.k, row.r))
            elif row.k == 0:
                mass = float(erf(row.r / math.sqrt(2.0)))
            elif row.k == 1:
                mass = -math.expm1(-0.5 * row.r * row.r)
            else:
                mass = float(gammainc(0.5 * (row.k + 1), 0.5 * row.r * row.r))
            assert mass == pytest.approx(a, rel=1e-12, abs=0.0), (row.k, row.orientation)

    def test_smallest_subnormal_volume(self):
        # 5e-324 carries no relative precision: it stands for every mass
        # within half its spacing, so the tail is checked to that interval.
        a = 5e-324
        rows = symmetric_scan(a, 7, "both").rows
        for row in rows:
            if row.orientation == "outside":
                assert row.feasible
                assert abs(log_upper_tail(row.k, row.r) - math.log(a)) <= math.log(1.5), row.k
        # The k = 0 inside radius squared underflows: infeasible, not an error.
        inside = [row for row in rows if row.orientation == "inside"]
        assert not inside[0].feasible and math.isnan(inside[0].r)
        assert all(row.feasible and row.r > 0.0 for row in inside[1:])


def log_upper_tail(k: int, r: float) -> float:
    """log P(|X| >= r), X standard Gaussian in R^(k+1), in closed form.

    With s = (k+1)/2 and x = r^2/2 this is the regularized upper incomplete
    gamma function Q(s, x), a finite sum at integer and half-integer s:
    Q(s, x) = Q(b, x) + sum over b <= t < s of x^t e^(-x) / Gamma(t + 1),
    from Q(1, x) = e^(-x) or Q(1/2, x) = erfc(sqrt(x)) = 2 Phi(-r).
    """
    x = 0.5 * r * r
    base, first = (0.5, math.log(2.0) + float(log_ndtr(-r))) if k % 2 == 0 else (1.0, -x)
    terms = [first] + [t * math.log(x) - x - math.lgamma(t + 1.0)
                       for t in base + np.arange(k // 2)]
    return float(np.logaddexp.reduce(terms))


class TestTailDecay:
    def test_propeller_tail_beyond_two(self):
        # oracle: radial quadrature along the three boundary rays
        expected = oracles.propeller_tail_mass(2.0)
        assert expected == pytest.approx(0.02722797, abs=1e-7)
        report = tail_perimeter_check(propeller_partition(), 2.0, None,
                                      cfg(2, samples=1_000_000))
        assert report.tail_mass == pytest.approx(expected, abs=3.0 * report.stderr)
        assert report.passed
        assert report.bound == pytest.approx(18.0 * math.exp(-2.0), rel=1e-12)
        assert report.bound_alt == pytest.approx(12.0 * math.exp(-2.0), rel=1e-12)

    def test_halfspace_tail_matches_line_oracle(self):
        expected = oracles.radial_line_tail(0.0, 3.0)
        report = tail_perimeter_check(half_space_pair(2, 0.0), 3.0, None,
                                      cfg(2, samples=1_000_000))
        assert report.tail_mass == pytest.approx(expected, abs=3.0 * report.stderr + 1e-5)
        assert report.passed

    def test_one_dimensional_facet_is_a_point(self):
        # d=1: the facet is the point x = t, inside the tail exactly when |t| > r
        config = cfg(1, samples=50_000)
        outside = tail_perimeter_check(half_space_pair(1, 2.5), 2.0, None, config)
        assert outside.tail_mass == pytest.approx(GAMMA1_0 * math.exp(-3.125), rel=1e-12)
        assert outside.stderr == 0.0
        inside = tail_perimeter_check(half_space_pair(1, 1.5), 2.0, None, config)
        assert inside.tail_mass == 0.0

    def test_large_radius_vanishes(self):
        report = tail_perimeter_check(propeller_partition(), 6.0, None,
                                      cfg(2, samples=200_000))
        assert report.tail_mass <= 1e-4
        assert report.passed

    def test_hypothesis_threshold(self):
        with pytest.raises(PreconditionError):
            tail_perimeter_check(propeller_partition(), 1.2, None, cfg(2, samples=50_000))
        with pytest.raises(PreconditionError):
            tail_perimeter_check(propeller_partition(), 2.0, [1.0, 0.0],
                                 cfg(2, samples=50_000))


class TestEstimatorAgreement:
    def test_facet_vs_collar_on_calibrated_random_partition(self):
        from gauss_bubbles import calibrate_offsets_to_volumes
        config = cfg(2, samples=500_000, seed=12)
        part = calibrate_offsets_to_volumes(
            perturb(propeller_partition(), 0.2, 9), (0.4, 0.35, 0.25), config)
        facet = facet_perimeter(part, config)
        collar = minkowski_partition_perimeter(part, [0.08, 0.04, 0.02], config)
        tol = max(0.02 * facet.total, 3.0 * math.hypot(facet.total_stderr, collar.stderr))
        assert abs(facet.total - collar.estimate) <= tol

    def test_perturbation_moves_perimeter_linearly(self):
        config = cfg(2, samples=400_000, seed=4)
        base = facet_perimeter(propeller_partition(), config).total
        for magnitude in (0.01, 0.02, 0.05):
            moved = facet_perimeter(perturb(propeller_partition(), magnitude, 3),
                                    config).total
            assert abs(moved - base) <= 10.0 * magnitude * base
