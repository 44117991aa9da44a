import itertools
import json
import math

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.special import ndtr

from gauss_bubbles import (
    AffinePartition,
    CalibrationError,
    CapacityError,
    ContractViolationError,
    DomainError,
    IntegrationConfig,
    PartitionCell,
    RoundCylinder,
    align_rotation,
    calibrate_offsets_to_volumes,
    half_space_pair,
    mc_volumes,
    perturb,
    propeller_partition,
    regular_simplex,
    simplicial_cone_partition,
)
from gauss_bubbles import exact

import oracles


def cfg(d, samples=400_000, seed=9, chunk=50_000):
    return IntegrationConfig(sample_count=samples, seed=seed, dimension=d, chunk_size=chunk)


class TestRegularSimplex:
    def test_m2_is_plus_minus_one(self):
        simplex = regular_simplex(2)
        assert np.allclose(simplex.vertices, [[1.0], [-1.0]], atol=1e-15)

    def test_m3_explicit_vertices(self):
        simplex = regular_simplex(3)
        expected = np.array([[1.0, 0.0],
                             [-0.5, math.sqrt(3.0) / 2.0],
                             [-0.5, -math.sqrt(3.0) / 2.0]])
        assert np.allclose(simplex.vertices, expected, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 7])
    def test_gram_structure(self, m):
        # oracle: Gram matrix must be ((m I - J)/(m-1))
        v = regular_simplex(m).vertices
        gram = v @ v.T
        expected = (m * np.eye(m) - np.ones((m, m))) / (m - 1)
        assert np.allclose(gram, expected, atol=1e-12)
        assert np.allclose(v.sum(axis=0), 0.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)

    def test_rejects_m1(self):
        with pytest.raises(DomainError):
            regular_simplex(1)


class TestSimplicialCones:
    def test_propeller_vertex_direction(self):
        part = propeller_partition()
        assert part.classify([2.0, 0.0]) == 0

    def test_tie_goes_to_lowest_index(self):
        part = propeller_partition()
        assert part.classify([0.0, 0.0]) == 0

    def test_halfspaces_m2(self):
        part = simplicial_cone_partition(2)
        assert part.classify([0.5]) == 0
        assert part.classify([-0.5]) == 1

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_cells_contain_their_cone_rays(self, m):
        w = np.linspace(-0.4, 0.4, m - 1)
        part = simplicial_cone_partition(m, w)
        for i in range(m):
            for t in (0.1, 1.0, 7.0):
                point = w + t * part.directions[i]
                assert part.classify(point) == i

    def test_split_at_one_classify(self):
        part = half_space_pair(3, 1.0)
        assert part.classify([2.0, 0.0, 0.0]) == 0
        assert part.classify([0.0, 5.0, -1.0]) == 1

    def test_shifted_propeller_volumes_match_quadrature(self):
        # oracle: 2-D polar quadrature of the sector apexed at (1, 0); the
        # shifted cone keeps a mirror-equal pair of off-axis cells
        expected = oracles.shifted_sector_volume(1.0, math.pi / 3.0)
        assert expected == pytest.approx(0.0829442385, abs=1e-9)
        part = simplicial_cone_partition(3, [1.0, 0.0])
        report = mc_volumes(part, cfg(2))
        assert report.volumes[0] == pytest.approx(expected, abs=3.0 * report.stderr[0])
        pair = 0.5 * (1.0 - expected)
        assert report.volumes[1] == pytest.approx(pair, abs=3.0 * report.stderr[1])
        assert report.volumes[2] == pytest.approx(pair, abs=3.0 * report.stderr[2])

    def test_cone_offsets_encode_apex(self):
        w = np.array([0.3, -0.7])
        part = simplicial_cone_partition(3, w)
        assert np.allclose(part.offsets, -part.directions @ w, atol=1e-15)

    def test_identical_functionals_rejected(self):
        with pytest.raises(ContractViolationError):
            AffinePartition(np.array([[1.0, 0.0], [1.0, 0.0]]), np.zeros(2), np.zeros(2))


def _integer_partition(m, d, rng):
    """Directions in {-2, ..., 2} and zero offsets, so that cells tie exactly
    on integer points, and all of them at the origin; the first two
    functionals differ."""
    z = rng.integers(-2, 3, (m, d)).astype(float)
    z[0, 0], z[1, 0] = 1.0, -1.0
    return AffinePartition(z, np.zeros(m), np.zeros(d))


class TestLabels:
    """classify_points (cell-major scores, a tournament over the cells)
    against argmax over the row-major scores, compared bit for bit."""

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("m", range(2, 9))
    def test_labels_match_argmax(self, m, d):
        rng = np.random.default_rng(100 * m + d)
        part = AffinePartition(rng.standard_normal((m, d)), rng.standard_normal(m), np.zeros(d))
        ties = _integer_partition(m, d, rng)
        wide = rng.standard_normal((3000, 2 * d + 1))
        inputs = [rng.standard_normal((n, d)) for n in (1, 2, 3, 1000)] + [
            wide[:, :d],  # rows with a stride, as in a pair chunk
            wide[:, 1::2],  # strided columns
            wide[::-3, :d],
        ]
        for x in inputs:
            got = part.classify_points(x)
            assert got.dtype == np.intp
            assert np.array_equal(got, oracles.argmax_labels(part, x))
        for n in (1, 2, 5000):
            x = rng.integers(-2, 3, (n, d)).astype(float)
            x[-1] = 0.0
            assert np.array_equal(ties.classify_points(x), oracles.argmax_labels(ties, x))
        # Exact ties between the best cells are common on these inputs.
        scores = ties.scores(x)
        tied = np.sum(scores == scores.max(axis=1)[:, None], axis=1) > 1
        assert np.count_nonzero(tied) > 100

    def test_classify_rejects_non_finite_points(self):
        part = simplicial_cone_partition(4)
        for point in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf]):
            with pytest.raises(DomainError):
                part.classify(point)
        assert part.classify([0.0, 0.0, 0.0]) == 0


class TestCoveringProperties:
    def test_every_point_lands_in_exactly_one_cell(self):
        rng = np.random.default_rng(4)
        part = AffinePartition(rng.standard_normal((4, 3)), rng.standard_normal(4), np.zeros(3))
        points = rng.standard_normal((100_000, 3))
        cells = part.classify_points(points)
        assert cells.shape == (100_000,)
        assert np.all((cells >= 0) & (cells < 4))

    def test_tie_set_is_thin(self):
        rng = np.random.default_rng(5)
        part = AffinePartition(rng.standard_normal((4, 3)), rng.standard_normal(4), np.zeros(3))
        points = rng.standard_normal((100_000, 3))
        scores = part.scores(points)
        srt = np.sort(scores, axis=1)
        near_tie = (srt[:, -1] - srt[:, -2]) < 1e-9
        assert near_tie.mean() <= 1e-3

    def test_permutation_symmetry_of_cone_map(self):
        part = propeller_partition()
        order = np.array([1, 2, 0])
        permuted = part.relabeled(order)
        rng = np.random.default_rng(6)
        points = rng.standard_normal((10_000, 2))
        original = part.classify_points(points)
        relabeled = permuted.classify_points(points)
        # cell i of the permuted partition is cell order[i] of the original
        assert np.array_equal(order[relabeled], original)


class TestCalibration:
    def test_two_cell_threshold(self):
        targets = (float(ndtr(1.0)), float(1.0 - ndtr(1.0)))
        part = half_space_pair(1, 0.0)
        calibrated = calibrate_offsets_to_volumes(part, targets, cfg(1, seed=5))
        # boundary at |x| = 1, i.e. c_1 - c_0 = -2 (orientation-dependent sign)
        assert calibrated.offsets[1] - calibrated.offsets[0] == pytest.approx(-2.0, abs=0.02)
        assert calibrated.offsets.sum() == pytest.approx(0.0, abs=1e-12)

    def test_fixed_point_when_targets_match(self):
        # m = 5 calibrates on Monte Carlo volumes of the config's stream
        config = cfg(4, seed=5)
        part = simplicial_cone_partition(5)
        current = mc_volumes(part, config).volumes
        calibrated = calibrate_offsets_to_volumes(part, current, config)
        assert np.allclose(calibrated.offsets, 0.0, atol=1e-12)

    @pytest.mark.parametrize("m", [3, 4])
    def test_exact_fixed_point_when_targets_match(self, m):
        part = perturb(simplicial_cone_partition(m), 0.1, 6)
        current = exact.cell_volumes(part)[0]
        calibrated = calibrate_offsets_to_volumes(part, current, cfg(m - 1))
        centred = part.offsets - part.offsets.mean()
        assert np.allclose(calibrated.offsets, centred, rtol=0.0, atol=1e-12)

    def test_propeller_equal_volumes(self):
        calibrated = calibrate_offsets_to_volumes(
            propeller_partition(), (1 / 3, 1 / 3, 1 / 3), cfg(2, seed=5))
        assert np.allclose(calibrated.offsets, 0.0, atol=0.02)

    def test_calibrate_then_measure_regression(self):
        config = cfg(2, samples=1_000_000, seed=8, chunk=125_000)
        targets = np.array([0.5, 0.3, 0.2])
        part = perturb(propeller_partition(), 0.05, 3)
        calibrated = calibrate_offsets_to_volumes(part, targets, config, tol=1e-3)
        measured = mc_volumes(calibrated, config).volumes
        assert np.max(np.abs(measured - targets)) <= 1e-3

    def test_failure_carries_last_iterate(self):
        # tolerance below the count granularity of a tiny sample stream (m = 5
        # calibrates on Monte Carlo volumes); irrational targets keep exact
        # count matches impossible
        config = IntegrationConfig(sample_count=2_000, seed=0, dimension=4, chunk_size=1_000)
        targets = (1 / math.pi, 1 / math.e, 0.1, 0.1, 0.8 - 1 / math.pi - 1 / math.e)
        with pytest.raises(CalibrationError) as err:
            calibrate_offsets_to_volumes(
                simplicial_cone_partition(5), targets, config, tol=1e-6, max_iters=12)
        assert err.value.partition is not None
        assert err.value.residual is not None

    def test_exact_failure_carries_last_iterate(self):
        far = propeller_partition().with_offsets(np.array([3.0, -1.5, -1.5]))
        with pytest.raises(CalibrationError) as err:
            calibrate_offsets_to_volumes(far, (1 / 3, 1 / 3, 1 / 3), cfg(2), max_iters=1)
        assert isinstance(err.value.partition, AffinePartition)
        volumes = exact.cell_volumes(err.value.partition)[0]
        assert err.value.residual == np.max(np.abs(volumes - 1 / 3))
        assert err.value.residual > 1e-12

    def test_invalid_targets(self):
        with pytest.raises(DomainError):
            calibrate_offsets_to_volumes(propeller_partition(), (0.5, 0.5, 0.5), cfg(2))


class TestPerturb:
    def test_zero_magnitude_is_identity(self):
        part = propeller_partition()
        same = perturb(part, 0.0, 123)
        assert np.array_equal(same.directions, part.directions)
        assert np.array_equal(same.offsets, part.offsets)

    def test_deterministic_in_seed(self):
        a = perturb(propeller_partition(), 1e-3, 7)
        b = perturb(propeller_partition(), 1e-3, 7)
        assert np.array_equal(a.directions, b.directions)
        assert np.array_equal(a.offsets, b.offsets)

    def test_directions_stay_unit(self):
        part = perturb(propeller_partition(), 0.3, 11)
        assert np.allclose(np.linalg.norm(part.directions, axis=1), 1.0, atol=1e-12)

    def test_small_magnitude_moves_volumes_slightly(self):
        config = cfg(2, seed=2)
        base = mc_volumes(propeller_partition(), config).volumes
        moved = mc_volumes(perturb(propeller_partition(), 1e-3, 5), config).volumes
        assert np.max(np.abs(moved - base)) <= 10 * 1e-3

    def test_negative_magnitude_rejected(self):
        with pytest.raises(DomainError):
            perturb(propeller_partition(), -0.1, 0)


class TestAlignment:
    def test_identity_candidate(self):
        config = cfg(2, samples=200_000, seed=3)
        res = align_rotation(propeller_partition(), propeller_partition(), config)
        assert res.misalignment <= 3.0 * res.stderr + 1e-12

    def test_recovers_ten_degree_rotation(self):
        theta = math.radians(10.0)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        config = cfg(2, samples=200_000, seed=3)
        part = propeller_partition()
        res = align_rotation(part, part.rotated(rot), config)
        recovered = math.degrees(math.atan2(res.rotation[1, 0], res.rotation[0, 0]))
        assert abs(recovered + 10.0) <= 0.5  # inverse rotation, within half a degree
        assert res.misalignment <= 3.0 * res.stderr + 1e-9

    def test_relabeled_candidate(self):
        config = cfg(2, samples=200_000, seed=3)
        part = propeller_partition()
        res = align_rotation(part, part.relabeled([2, 0, 1]), config)
        assert res.misalignment <= 3.0 * res.stderr + 1e-12

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ContractViolationError):
            align_rotation(propeller_partition(), half_space_pair(2), cfg(2))


class TestSerialization:
    @staticmethod
    def _finite_floats():
        from hypothesis import strategies as st
        return st.floats(allow_nan=False, allow_infinity=False, width=64)

    def test_round_trip_property(self):
        from hypothesis import given, settings

        @given(self._finite_floats(), self._finite_floats(), self._finite_floats())
        @settings(max_examples=80, deadline=None)
        def check(a, b, c):
            directions = np.array([[1.0, a], [b, -1.0]])
            if not np.all(np.isfinite(directions)):
                return
            try:
                part = AffinePartition(directions, np.array([c, 0.0]), np.zeros(2))
            except ContractViolationError:
                return
            restored = AffinePartition.from_json(part.to_json())
            assert np.array_equal(restored.directions, part.directions)
            assert np.array_equal(restored.offsets, part.offsets)

        check()

    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(17)
        part = AffinePartition(rng.standard_normal((3, 4)), rng.standard_normal(3),
                               rng.standard_normal(4))
        restored = AffinePartition.from_json(part.to_json())
        assert np.array_equal(restored.directions, part.directions)
        assert np.array_equal(restored.offsets, part.offsets)
        assert np.array_equal(restored.shift, part.shift)

    def test_json_fields(self):
        data = json.loads(propeller_partition().to_json())
        assert set(data) == {"m", "d", "directions", "offsets", "w"}
        assert data["m"] == 3 and data["d"] == 2
        assert len(data["directions"]) == 6  # row-major flat


def _parallel_partition():
    """Cell 0 beats cell 1 everywhere (equal directions, larger offset), so
    that constraint of cell 0 is dropped and cell 1 is empty."""
    return AffinePartition(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                           np.array([0.0, -1.0, 0.0]), np.zeros(2))


def _near_parallel_partition():
    """Cell 0 is {x >= 0} and {x >= 2.5e-10} on the line. Projecting onto the
    first constraint violates the second by 5e-10, within the projector's
    feasibility slack, so the distance reads 2.5e-10 short of the truth."""
    return AffinePartition(np.array([[1.0], [0.0], [-1.0]]),
                           np.array([0.0, 0.0, 5e-10]), np.zeros(1))


# (partition, cell) per kind of half-space description.
LIMIT_CELLS = {
    "near_parallel": lambda: (_near_parallel_partition(), 0),
    "propeller": lambda: (propeller_partition(), 0),
    "perturbed_cones4": lambda: (perturb(simplicial_cone_partition(4), 0.1, 5), 1),
    "parallel_dropped": lambda: (_parallel_partition(), 0),
    "empty": lambda: (_parallel_partition(), 1),
    "unconstrained": lambda: (AffinePartition(np.array([[1.0, 0.0], [1.0, 0.0]]),
                                              np.array([0.0, -1.0]), np.zeros(2)), 0),
}


def _points_near_faces(a, b, limit, rng):
    """Points about ``limit`` away from the cell's vertices, edges and faces.

    For every active set of at most d constraints, anchors are placed on the
    affine hull where those constraints hold with equality, and points on
    spheres of radius near ``limit`` around each anchor.
    """
    d = a.shape[1]
    radii = limit * np.array([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0])
    out = []
    for size in range(1, min(a.shape[0], d) + 1):
        for subset in itertools.combinations(range(a.shape[0]), size):
            sub, rhs = a[list(subset)], b[list(subset)]
            base = np.linalg.lstsq(sub, rhs, rcond=None)[0]
            along = null_space(sub)
            anchors = [base] + [base + along @ (t * rng.standard_normal(along.shape[1]))
                                for t in (1.0, 2.5)]
            for anchor in anchors:
                for r in radii:
                    u = rng.standard_normal((8, d))
                    out.append(anchor + r * u / np.linalg.norm(u, axis=1)[:, None])
    return np.vstack(out) if out else np.zeros((0, d))


def _tie_points(a, b, rng):
    """Points on constraint hyperplanes, and points with equal normalised
    violations of two constraints (ties of the per-row maximum)."""
    d = a.shape[1]
    unit = a / np.linalg.norm(a, axis=1)[:, None]
    out = []
    for k, l in itertools.combinations(range(a.shape[0]), 2):
        for v in (-0.3, 0.0, 1e-12, 0.05, 0.5):
            # <u_k, x> = b_k/|a_k| - v and the same for l: both violated by v.
            rows = unit[[k, l]]
            rhs = b[[k, l]] / np.linalg.norm(a[[k, l]], axis=1) - v
            base = np.linalg.lstsq(rows, rhs, rcond=None)[0]
            along = null_space(rows)
            out.append(base + (along @ rng.standard_normal((along.shape[1], 6))).T)
    return np.vstack(out) if out else np.zeros((0, d))


class TestPartitionCell:
    @pytest.mark.parametrize("limit", [math.inf, 0.1, 1e-3])
    @pytest.mark.parametrize("kind", sorted(LIMIT_CELLS) + ["cones5", "planar_cones6"])
    def test_column_folds_match_row_reductions(self, kind, limit):
        if kind == "cones5":
            part, index = perturb(simplicial_cone_partition(5), 0.1, 2), 3
        elif kind == "planar_cones6":
            rng = np.random.default_rng(6)
            part, index = AffinePartition(rng.standard_normal((6, 2)), rng.normal(0.0, 0.5, 6),
                                          np.zeros(2)), 0
        else:
            part, index = LIMIT_CELLS[kind]()
        cell = PartitionCell(part, index)
        a, b = part.cell_constraints(index)
        rng = np.random.default_rng(47)
        pts = [rng.standard_normal((5000, part.d)) * 1.5, np.zeros((1, part.d))]
        if np.all(np.isfinite(b)) and a.shape[0] > 0:
            pts += [_points_near_faces(a, b, 0.1, rng), _tie_points(a, b, rng)]
        pts = np.vstack(pts)
        got = cell.distance(pts, limit=limit)
        assert np.array_equal(got, oracles.projector_loop_distance(cell, pts, limit))
        assert cell.distance(pts[:0], limit=limit).shape == (0,)

    def test_distance_zero_inside(self):
        cell = PartitionCell(propeller_partition(), 0)
        pts = np.array([[2.0, 0.0], [1.0, 0.2]])
        assert np.allclose(cell.distance(pts), 0.0)
        assert np.all(cell.contains(pts))

    def test_distance_matches_sector_geometry(self):
        # oracle: distance to a 120-degree sector via its two boundary rays
        cell = PartitionCell(propeller_partition(), 0)
        rays = [np.array([math.cos(math.pi / 3), math.sin(math.pi / 3)]),
                np.array([math.cos(-math.pi / 3), math.sin(-math.pi / 3)])]
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((200, 2)) * 2.0
        expected = []
        for p in pts:
            if cell.contains(p[None, :])[0]:
                expected.append(0.0)
                continue
            dists = [np.linalg.norm(p - max(float(p @ v), 0.0) * v) for v in rays]
            expected.append(min(dists))
        assert np.allclose(cell.distance(pts), expected, atol=1e-9)

    def test_distance_matches_qp_oracle(self):
        rng = np.random.default_rng(21)
        part = AffinePartition(rng.standard_normal((4, 3)), 0.3 * rng.standard_normal(4),
                               np.zeros(3))
        cell = PartitionCell(part, 2)
        a, b = part.cell_constraints(2)
        pts = rng.standard_normal((12, 3)) * 1.5
        got = cell.distance(pts)
        for point, mine in zip(pts, got):
            want = oracles.convex_cell_distance(a, b, point)
            assert mine == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("limit", [0.5, 0.1, 0.01])
    @pytest.mark.parametrize("kind", sorted(LIMIT_CELLS))
    def test_limited_distance_is_exact_below_limit(self, kind, limit):
        part, index = LIMIT_CELLS[kind]()
        cell = PartitionCell(part, index)
        a, b = part.cell_constraints(index)
        rng = np.random.default_rng(31)
        pts = rng.standard_normal((10_000, part.d))
        if np.all(np.isfinite(b)):
            pts = np.vstack([pts, _points_near_faces(a, b, limit, rng)])
        exact = cell.distance(pts)
        limited = cell.distance(pts, limit=limit)
        below = exact < limit
        assert np.array_equal(limited[below], exact[below])
        assert np.all(limited[~below] >= limit)

    def test_limited_distance_probes_rows_at_the_limit(self):
        # The hand-placed points put rows on both sides of the limit within
        # rounding distance, where a pruning margin that is too tight shows.
        part, index = LIMIT_CELLS["perturbed_cones4"]()
        cell = PartitionCell(part, index)
        a, b = part.cell_constraints(index)
        pts = _points_near_faces(a, b, 0.1, np.random.default_rng(31))
        exact = cell.distance(pts)
        near = np.abs(exact - 0.1) <= 1e-8
        assert np.any(near & (exact < 0.1)) and np.any(near & (exact >= 0.1))

    def test_limited_distance_matches_qp_oracle(self):
        part, index = LIMIT_CELLS["perturbed_cones4"]()
        cell = PartitionCell(part, index)
        a, b = part.cell_constraints(index)
        rng = np.random.default_rng(44)
        pts = rng.standard_normal((3000, 3))
        limit = 0.05
        got = cell.distance(pts, limit=limit)
        kept = np.flatnonzero((got > 0.0) & (got < limit))[:10]
        dropped = np.flatnonzero(got >= limit)[:5]
        assert kept.size == 10 and dropped.size == 5
        for row in kept:
            assert got[row] == pytest.approx(oracles.convex_cell_distance(a, b, pts[row]), abs=1e-6)
        for row in dropped:
            assert oracles.convex_cell_distance(a, b, pts[row]) >= limit - 1e-6

    @pytest.mark.parametrize("kind", ["cones5", "planar_cones6", "cones9"])
    def test_projector_batches_keep_the_distances(self, kind, monkeypatch):
        # cones9 (d = 8) takes np.linalg.norm where smaller d fold the squares.
        from gauss_bubbles import partitions

        if kind.startswith("cones"):
            part = perturb(simplicial_cone_partition(int(kind[5:])), 0.1, 2)
        else:
            rng = np.random.default_rng(6)
            part = AffinePartition(rng.standard_normal((6, 2)), rng.normal(0.0, 0.5, 6),
                                   np.zeros(2))
        pts = 1.5 * np.random.default_rng(48).standard_normal((400, part.d))
        for index in range(part.m):
            cell = PartitionCell(part, index)
            want = oracles.projector_loop_distance(cell, pts)
            outside = np.count_nonzero(want > 0.0)
            # Batches of 1, 2, ... projectors, most of them crossing from one
            # active-set size to the next.
            for per_batch in (1, 2, 3, 4, 6, 7):
                monkeypatch.setattr(partitions, "_PROJECTED_COORDINATES",
                                    per_batch * outside * part.d)
                assert np.array_equal(cell.distance(pts), want)

    def test_short_constraint_rows_get_projectors(self):
        # |z_0 - z_1| = 5e-7: cell 0's constraint against cell 1 has a tiny
        # gradient but is not degenerate, so it needs its projector.
        part = AffinePartition(np.array([[1.0, 0.0], [1.0 - 5e-7, 0.0], [0.0, 1.0]]),
                               np.array([0.0, 0.0, -1.0]), np.zeros(2))
        point = np.array([-0.05, 0.0])
        assert part.classify(point) == 1
        a, b = part.cell_constraints(0)
        want = oracles.convex_cell_distance(a, b, point)
        assert want == pytest.approx(0.05, abs=1e-6)
        for limit in (math.inf, 0.1):
            assert PartitionCell(part, 0).distance(point, limit)[0] == pytest.approx(0.05, rel=1e-9)

    @pytest.mark.parametrize("m", [9, 11])
    def test_projector_count_within_cap_builds(self, m):
        cell = PartitionCell(simplicial_cone_partition(m), 0)
        assert cell.distance(np.zeros((1, m - 1)))[0] == 0.0

    @pytest.mark.parametrize("m, count", [(12, 2047), (16, 32767)])
    def test_projector_count_above_cap_raises(self, m, count):
        with pytest.raises(CapacityError, match=f"cell 0 .* {count} active-set projectors"):
            PartitionCell(simplicial_cone_partition(m), 0)


class TestRoundCylinder:
    def test_validation(self):
        with pytest.raises(DomainError):
            RoundCylinder(k=3, r=1.0, ambient=3)
        with pytest.raises(DomainError):
            RoundCylinder(k=0, r=-1.0, ambient=2)
        with pytest.raises(DomainError):
            RoundCylinder(k=0, r=1.0, ambient=2, orientation="sideways")

    def test_membership_and_distance(self):
        cyl = RoundCylinder(k=1, r=1.0, ambient=3)
        pts = np.array([[0.5, 0.0, 9.0], [2.0, 0.0, -3.0]])
        assert list(cyl.contains(pts)) == [True, False]
        assert np.allclose(cyl.distance(pts), [0.0, 1.0])
        assert np.array_equal(cyl.distance(pts, limit=0.1), cyl.distance(pts))
        flipped = cyl.complement()
        assert list(flipped.contains(pts)) == [False, True]
        assert np.allclose(flipped.distance(pts), [0.5, 0.0])

    def test_central_symmetry(self):
        cyl = RoundCylinder(k=0, r=0.7, ambient=2, orientation="outside")
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((1000, 2))
        assert np.array_equal(cyl.contains(pts), cyl.contains(-pts))
