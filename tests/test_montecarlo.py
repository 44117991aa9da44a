import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from gauss_bubbles import (
    AffinePartition,
    ConfigError,
    ContractViolationError,
    DegenerateCellError,
    DomainError,
    IntegrationConfig,
    MAX_CELL_MOMENT_NORM,
    divergence_identity_check,
    gaussian_density,
    half_space_pair,
    mc_moments,
    mc_volumes,
    minkowski_partition_perimeter,
    noise_stability_partition,
    perturb,
    propeller_partition,
    sample_correlated_pairs,
    sample_standard_normal,
    simplicial_cone_partition,
)
from gauss_bubbles import montecarlo
from gauss_bubbles.montecarlo import (
    MAIN_SUBSTREAM,
    PAIR_SUBSTREAM,
    _tile_rows,
    map_chunks,
    mc_mean,
)

import oracles

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def cfg2(samples=400_000, seed=7, antithetic=False):
    return IntegrationConfig(sample_count=samples, seed=seed, dimension=2,
                             chunk_size=50_000, antithetic=antithetic)


class TestGaussianDensity:
    def test_origin_1d(self):
        assert gaussian_density([0.0]) == pytest.approx(INV_SQRT_2PI, rel=1e-15)

    def test_origin_2d(self):
        assert gaussian_density([0.0, 0.0], 2) == pytest.approx(1.0 / (2 * math.pi), rel=1e-15)

    def test_unit_point_matches_scalar_formula(self):
        # oracle: the scalar formula evaluated directly
        expected = INV_SQRT_2PI * math.exp(-0.5)
        assert expected == pytest.approx(0.24197072451914337, abs=1e-15)
        assert gaussian_density([1.0]) == pytest.approx(expected, rel=1e-14)

    def test_monotone_in_radius(self):
        values = [gaussian_density([r, 0.0]) for r in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError):
            gaussian_density([1.0, 2.0], 3)


class TestCorrelatedPairs:
    def test_rho_zero_independent(self):
        cfg = cfg2()
        acc = 0.0
        for x, y in sample_correlated_pairs(0.0, cfg):
            acc += float((x[:, 0] * y[:, 0]).sum())
        corr = acc / cfg.sample_count
        assert abs(corr) <= 3.0 / math.sqrt(cfg.sample_count)

    def test_rho_near_one_accepted(self):
        cfg = cfg2(samples=100_000)
        rho = 1.0 - 1e-12
        acc = 0.0
        for x, y in sample_correlated_pairs(rho, cfg):
            acc += float((x[:, 0] * y[:, 0]).sum())
        assert acc / cfg.sample_count == pytest.approx(1.0, abs=0.01)

    def test_rho_half_within_band(self):
        cfg = IntegrationConfig(sample_count=1_000_000, seed=3, dimension=2,
                                chunk_size=125_000)
        acc = 0.0
        for x, y in sample_correlated_pairs(0.5, cfg):
            acc += float((x[:, 0] * y[:, 0]).sum())
        assert 0.497 <= acc / cfg.sample_count <= 0.503

    def test_marginals_standard(self):
        cfg = cfg2()
        sums = np.zeros(2)
        sums_sq = np.zeros(2)
        for _, y in sample_correlated_pairs(0.7, cfg):
            sums += y.sum(axis=0)
            sums_sq += (y * y).sum(axis=0)
        mean = sums / cfg.sample_count
        var = sums_sq / cfg.sample_count
        assert np.all(np.abs(mean) < 3.0 / math.sqrt(cfg.sample_count))
        assert np.allclose(var, 1.0, atol=0.01)

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
    def test_rho_out_of_domain(self, rho):
        with pytest.raises(DomainError):
            next(sample_correlated_pairs(rho, cfg2()))


class TestIntegrationConfig:
    def test_sample_count_multiple_of_chunk(self):
        with pytest.raises(ConfigError):
            IntegrationConfig(sample_count=100_001, seed=0, dimension=1, chunk_size=1000)

    def test_antithetic_needs_even_chunk(self):
        with pytest.raises(ConfigError):
            IntegrationConfig(sample_count=9, seed=0, dimension=1, chunk_size=3,
                              antithetic=True)

    @pytest.mark.parametrize("field, value", [
        ("sample_count", 0), ("chunk_size", 0), ("dimension", 0), ("seed", -1),
    ])
    def test_positivity(self, field, value):
        kwargs = dict(sample_count=1000, seed=0, dimension=1, chunk_size=100)
        kwargs[field] = value
        with pytest.raises(ConfigError):
            IntegrationConfig(**kwargs)

    def test_bit_identical_reruns(self):
        cfg = cfg2(samples=200_000)
        part = propeller_partition()
        first = mc_volumes(part, cfg)
        second = mc_volumes(part, cfg)
        assert np.array_equal(first.volumes, second.volumes)
        assert np.array_equal(first.stderr, second.stderr)

    def test_thread_count_does_not_change_results(self, monkeypatch):
        cfg = cfg2(samples=200_000)
        part = propeller_partition()
        results = []
        for threads in ("1", "3", "8"):
            monkeypatch.setenv("GAUSS_BUBBLES_THREADS", threads)
            results.append(mc_volumes(part, cfg).volumes)
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])


class TestVolumes:
    def test_propeller_thirds(self):
        report = mc_volumes(propeller_partition(), cfg2())
        assert np.all(np.abs(report.volumes - 1.0 / 3.0) <= 3.0 * report.stderr + 1e-12)

    def test_counts_partition_the_samples(self):
        report = mc_volumes(propeller_partition(), cfg2())
        assert report.counts.sum() == report.config.sample_count
        assert report.volumes.sum() == pytest.approx(1.0, abs=1e-12)

    def test_halfspaces_center_split(self):
        cfg = IntegrationConfig(sample_count=200_000, seed=1, dimension=2,
                                chunk_size=50_000, antithetic=True)
        report = mc_volumes(half_space_pair(2, 0.0), cfg)
        # antithetic pairs cancel a symmetric half-space exactly
        assert report.volumes[0] == pytest.approx(0.5, abs=1e-15)
        assert report.volumes[1] == pytest.approx(0.5, abs=1e-15)

    def test_halfspace_split_at_one(self):
        # oracle: 1-D normal CDF
        expected = (1.0 - ndtr(1.0), ndtr(1.0))
        assert expected[1] == pytest.approx(0.8413447460685429, abs=1e-12)
        report = mc_volumes(half_space_pair(2, 1.0), cfg2())
        for got, want, err in zip(report.volumes, expected, report.stderr):
            assert got == pytest.approx(want, abs=3.0 * err)

    def test_antithetic_variance_reduction(self):
        # measured across seeds on the symmetric half-space volume
        part = half_space_pair(1, 0.0)
        plain, anti = [], []
        for seed in range(16):
            base = IntegrationConfig(sample_count=4_000, seed=seed, dimension=1,
                                     chunk_size=1_000)
            plain.append(mc_volumes(part, base).volumes[0])
            anti.append(mc_volumes(
                part, IntegrationConfig(sample_count=4_000, seed=seed, dimension=1,
                                        chunk_size=1_000, antithetic=True)).volumes[0])
        assert np.var(anti) <= np.var(plain)


class TestMoments:
    def test_propeller_moment_functional(self):
        # oracle: polar quadrature of the sector moment
        norm = oracles.sector_moment_norm(math.pi / 3.0)
        assert norm == pytest.approx(0.3454941494713355, abs=1e-12)
        expected = 3.0 * norm * norm
        assert expected == pytest.approx(9.0 / (8.0 * math.pi), rel=1e-12)

        report = mc_moments(propeller_partition(), None, cfg2())
        assert report.moment_functional == pytest.approx(expected, rel=0.01)
        assert report.penalty == pytest.approx(math.sqrt(math.pi / 2.0) * report.moment_functional)

    def test_halfspace_moment_functional(self):
        # oracle: 1-D quadrature of x * gamma_1 over the half-line
        half_moment = oracles.halfspace_moment(0.0)
        assert half_moment == pytest.approx(INV_SQRT_2PI, abs=1e-12)
        expected = 2.0 * half_moment**2
        assert expected == pytest.approx(1.0 / math.pi, rel=1e-12)

        cfg = IntegrationConfig(sample_count=400_000, seed=11, dimension=1,
                                chunk_size=50_000)
        report = mc_moments(half_space_pair(1, 0.0), None, cfg)
        assert report.moment_functional == pytest.approx(expected, rel=0.01)

    def test_rotation_invariance(self):
        theta = 0.83
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        base = mc_moments(propeller_partition(), None, cfg2())
        rotated = mc_moments(propeller_partition().rotated(rot), None, cfg2(seed=13))
        tol = 3.0 * math.hypot(base.moment_functional_stderr, rotated.moment_functional_stderr)
        assert abs(base.moment_functional - rotated.moment_functional) <= tol

    def test_moment_sum_vanishes(self):
        report = mc_moments(simplicial_cone_partition(4), None,
                            IntegrationConfig(sample_count=400_000, seed=2, dimension=3,
                                              chunk_size=50_000))
        total = report.moments.sum(axis=0)
        tol = 3.0 * np.sqrt((report.moments_stderr**2).sum(axis=0))
        assert np.all(np.abs(total) <= tol)

    def test_moment_norm_bound_random_partitions(self):
        rng = np.random.default_rng(0)
        for trial in range(6):
            m = int(rng.integers(2, 5))
            d = int(rng.integers(max(2, m - 1), 5))
            from gauss_bubbles import AffinePartition
            part = AffinePartition(rng.standard_normal((m, d)),
                                   0.4 * rng.standard_normal(m), np.zeros(d))
            cfg = IntegrationConfig(sample_count=100_000, seed=trial, dimension=d,
                                    chunk_size=25_000)
            report = mc_moments(part, None, cfg)
            bound = MAX_CELL_MOMENT_NORM + 3.0 * report.moment_norm_stderr
            assert np.all(report.moment_norms <= bound)

    def test_degenerate_cell_with_shift(self):
        # far-off offset empties cell 1
        part = half_space_pair(1, 0.0).with_offsets(np.array([100.0, -100.0]))
        cfg = IntegrationConfig(sample_count=10_000, seed=0, dimension=1, chunk_size=10_000)
        with pytest.raises(DegenerateCellError):
            mc_moments(part, np.array([0.3]), cfg)

    def test_scaled_shifts_use_estimated_volumes(self):
        w = np.array([0.2, -0.1])
        report = mc_moments(propeller_partition(), w, cfg2())
        assert np.allclose(report.scaled_shifts,
                           w[None, :] / report.volumes[:, None])

    def test_moment_functional_identity(self):
        # M must equal sum_i |z_i - a_i * (w/a_i)|^2 built from report fields
        w = np.array([0.3, 0.1])
        report = mc_moments(propeller_partition(), w, cfg2())
        dev = report.moments - report.volumes[:, None] * report.scaled_shifts
        assert np.all(np.einsum("ij,ij->i", dev, dev) >= 0.0)
        assert report.moment_functional == pytest.approx(float((dev * dev).sum()),
                                                         abs=1e-15)
        assert np.allclose(dev, report.deviations, atol=1e-12)


class TestDivergenceIdentity:
    def test_halfspace_both_sides(self):
        # oracle: volume side is (-1/sqrt(2pi), 0) for {x_1 <= 0}
        expected = oracles.halfspace_moment(0.0)
        part = half_space_pair(2, 0.0)
        report = divergence_identity_check(part, 1, cfg2())
        assert report.volume_side[0] == pytest.approx(-expected, abs=3e-3)
        assert report.surface_side[0] == pytest.approx(expected, abs=3e-3)
        assert report.passed

    def test_full_space_degenerate(self):
        from gauss_bubbles import AffinePartition
        # identical directions, different offsets: cell 0 is all of R^2
        part = AffinePartition(np.array([[1.0, 0.0], [1.0, 0.0]]),
                               np.array([0.0, -1.0]), np.zeros(2))
        report = divergence_identity_check(part, 0, cfg2())
        assert np.allclose(report.surface_side, 0.0)
        assert report.residual <= 3.0 * report.combined_stderr

    def test_propeller_cell(self):
        report = divergence_identity_check(propeller_partition(), 0, cfg2())
        assert report.passed, (report.residual, report.combined_stderr)

    def test_cone_cell_in_three_dimensions(self):
        # m=4: every facet has at most two other cells, so the surface side
        # is closed-form
        cfg = IntegrationConfig(sample_count=400_000, seed=3, dimension=3,
                                chunk_size=50_000)
        report = divergence_identity_check(simplicial_cone_partition(4), 1, cfg)
        assert report.surface_stderr.max() == 0.0
        assert report.passed, (report.residual, report.combined_stderr)

    def test_cone_cell_in_four_dimensions(self):
        # m=5: three other cells cut each facet, so its fraction is sampled
        cfg = IntegrationConfig(sample_count=400_000, seed=3, dimension=4,
                                chunk_size=50_000)
        report = divergence_identity_check(simplicial_cone_partition(5), 1, cfg)
        assert report.surface_stderr.max() > 0.0
        assert report.passed, (report.residual, report.combined_stderr)

    def test_rejects_geometry_free_regions(self):
        from gauss_bubbles import RoundCylinder, UnsupportedGeometryError
        with pytest.raises(UnsupportedGeometryError):
            divergence_identity_check(RoundCylinder(k=1, r=1.0, ambient=2), 0, cfg2())


class TestMeanMachinery:
    def test_chunking_scheme_changes_stream_but_stays_deterministic(self):
        part = propeller_partition()
        a = mc_volumes(part, IntegrationConfig(sample_count=200_000, seed=5, dimension=2,
                                               chunk_size=50_000)).volumes
        b = mc_volumes(part, IntegrationConfig(sample_count=200_000, seed=5, dimension=2,
                                               chunk_size=25_000)).volumes
        # different chunking is a different (still valid) stream
        assert not np.array_equal(a, b)
        assert np.allclose(a, b, atol=5e-3)

    def test_stderr_scaling(self):
        part = propeller_partition()
        small = mc_volumes(part, cfg2(samples=100_000))
        large = mc_volumes(part, cfg2(samples=400_000))
        ratio = small.stderr.mean() / large.stderr.mean()
        assert ratio == pytest.approx(2.0, rel=0.2)


# Chunks of three whole d = 3 tiles plus a partial one (even, for antithetic
# pairs).
TILE_ROWS = _tile_rows(3)
TILED_CHUNK = 3 * TILE_ROWS + 1000
CONES4 = perturb(simplicial_cone_partition(4), 0.1, 11)


def tiled_cfg(antithetic):
    return IntegrationConfig(sample_count=2 * TILED_CHUNK, seed=13, dimension=3,
                             chunk_size=TILED_CHUNK, antithetic=antithetic)


def moment_values(x):
    """Volume and moment columns of CONES4, as mc_moments evaluates them."""
    hot = (CONES4.classify_points(x)[:, None] == np.arange(4)[None, :]).astype(float)
    mom = (x[:, None, :] * hot[:, :, None]).reshape(x.shape[0], 12)
    return np.concatenate([hot, mom], axis=1)


def pair_values(x, y):
    """Per-cell joint membership and agreement, as noise stability evaluates
    them, plus <X, Y>, whose sums (unlike the indicators') depend on their order."""
    cx, cy = CONES4.classify_points(x), CONES4.classify_points(y)
    both = (cx[:, None] == np.arange(4)[None, :]) & (cy[:, None] == np.arange(4)[None, :])
    return np.concatenate([both.astype(float), (cx == cy).astype(float)[:, None],
                           (x * y).sum(axis=1)[:, None]], axis=1)


def whole_chunk_mean(cfg, value_fn, blocks):
    """mc_mean's fold and reduction, applied to value_fn on whole chunks."""
    total = total_sq = None
    for block in blocks:
        v = np.asarray(value_fn(*block), dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if cfg.antithetic:
            h = v.shape[0] // 2
            v = 0.5 * (v[:h] + v[h:])
        s, sq = v.sum(axis=0), np.einsum("ij,ij->j", v, v)
        total = s.copy() if total is None else total + s
        total_sq = sq.copy() if total_sq is None else total_sq + sq
    n = cfg.n_observations
    mean = total / n
    var = np.maximum(total_sq / n - mean * mean, 0.0) * (n / (n - 1))
    return mean, np.sqrt(var / n)


class TestRowTiles:
    def test_tiles_hold_about_2_16_coordinates_in_even_rows(self):
        assert [_tile_rows(d) for d in (2, 3, 4)] == [32768, 21844, 16384]
        assert TILED_CHUNK % 2 == 0
        for d in range(1, 7):
            rows = _tile_rows(d)
            assert rows % 2 == 0
            # Scores of an m = d + 1 partition stay below the 2**19
            # multiply-adds at which OpenBLAS starts its own threads.
            assert rows * d * (d + 1) < 2**19

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("pairs", [False, True])
    def test_integrand_never_sees_more_than_a_tile(self, pairs, antithetic):
        cfg = tiled_cfg(antithetic)
        seen = []

        def record(*blocks):
            assert len({b.shape[0] for b in blocks}) == 1
            seen.append(blocks[0].shape[0])
            return np.ones(blocks[0].shape[0])

        res = mc_mean(cfg, record, pair_rho=0.5 if pairs else None)
        assert max(seen) == TILE_ROWS
        assert sum(seen) == cfg.sample_count
        assert len(seen) == 2 * 4  # three whole tiles and one partial per chunk
        assert np.array_equal(res.mean, [1.0])

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_tiled_mean_matches_whole_chunks_bit_for_bit(self, antithetic):
        cfg = tiled_cfg(antithetic)
        res = mc_mean(cfg, moment_values, substream=MAIN_SUBSTREAM)
        mean, stderr = whole_chunk_mean(
            cfg, moment_values, ((x,) for x in sample_standard_normal(cfg)))
        assert np.array_equal(res.mean, mean)
        assert np.array_equal(res.stderr, stderr)

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_tiled_pair_mean_matches_whole_chunks_bit_for_bit(self, antithetic):
        cfg = tiled_cfg(antithetic)
        res = mc_mean(cfg, pair_values, substream=PAIR_SUBSTREAM, pair_rho=0.9)
        mean, stderr = whole_chunk_mean(cfg, pair_values, sample_correlated_pairs(0.9, cfg))
        assert np.array_equal(res.mean, mean)
        assert np.array_equal(res.stderr, stderr)


FOLD_GROUPS = 4


def fold_labels(*blocks):
    """Cell labels of CONES4, with FOLD_GROUPS for rows in no group: a pair
    whose points differ, or a single draw with x_1 > 0.5."""
    x, y = blocks[0], blocks[-1]
    if len(blocks) == 2:
        cx, cy = CONES4.classify_points(x), CONES4.classify_points(y)
        return np.where(cx == cy, cx, FOLD_GROUPS)
    return np.where(x[:, 0] > 0.5, FOLD_GROUPS, CONES4.classify_points(x))


def fold_values(q, *blocks):
    """q columns of mixed scale and sign, so that the order in which a column
    is summed shows in its last bits; even in the sample, so that antithetic
    pairs do not cancel."""
    x, y = blocks[0], blocks[-1]
    scale = np.exp(3.0 * y[:, :1] ** 2)
    return np.hstack([np.cos((k + 1) * x[:, :1] + y[:, 1:2]) * scale ** (k % 3)
                      for k in range(q)])


# Each fold path of mc_mean: (groups, integrand, its dense whole-chunk form).
FOLD_PATHS = {
    "one column": (None, lambda *b: fold_values(1, *b)[:, 0],
                   lambda *b: fold_values(1, *b)),
    "columns": (None, lambda *b: fold_values(3, *b), lambda *b: fold_values(3, *b)),
    "grouped labels": (FOLD_GROUPS, lambda *b: (fold_labels(*b), None),
                       lambda *b: dense_grouped(fold_labels(*b), np.ones((b[0].shape[0], 1)))),
    "grouped one column": (FOLD_GROUPS, lambda *b: (fold_labels(*b), fold_values(1, *b)[:, 0]),
                           lambda *b: dense_grouped(fold_labels(*b), fold_values(1, *b))),
    "grouped columns": (FOLD_GROUPS, lambda *b: (fold_labels(*b), fold_values(3, *b)),
                        lambda *b: dense_grouped(fold_labels(*b), fold_values(3, *b))),
}


def dense_grouped(labels, v):
    """The grouped reduction's columns as one dense per-row array: the one-hot
    product, then v on the rows of any group."""
    hot = (labels[:, None] == np.arange(FOLD_GROUPS)[None, :]).astype(float)
    spread = (hot[:, :, None] * v[:, None, :]).reshape(v.shape[0], -1)
    return np.concatenate([spread, v * (labels < FOLD_GROUPS)[:, None]], axis=1)


class TestTileFolds:
    """Every way mc_mean folds a tile into its chunk's running sums, against
    the dense integrand reduced over whole chunks (``whole_chunk_mean``),
    bit for bit. The chunk is not a whole number of tiles, and with
    antithetic pairs its half is not a whole number of half-tiles."""

    def test_chunks_end_in_a_partial_tile(self):
        assert TILED_CHUNK % TILE_ROWS != 0
        assert TILED_CHUNK // 2 % (TILE_ROWS // 2) != 0

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("pairs", [False, True])
    @pytest.mark.parametrize("path", sorted(FOLD_PATHS))
    def test_fold_matches_whole_chunks_bit_for_bit(self, path, pairs, antithetic, threads,
                                                   monkeypatch):
        monkeypatch.setenv("GAUSS_BUBBLES_THREADS", threads)
        cfg = tiled_cfg(antithetic)
        groups, integrand, dense = FOLD_PATHS[path]
        if pairs:
            res = mc_mean(cfg, integrand, substream=PAIR_SUBSTREAM, pair_rho=0.9,
                          groups=groups)
            blocks = sample_correlated_pairs(0.9, cfg)
        else:
            res = mc_mean(cfg, integrand, substream=MAIN_SUBSTREAM, groups=groups)
            blocks = ((x,) for x in sample_standard_normal(cfg))
        mean, stderr = whole_chunk_mean(cfg, dense, blocks)
        assert np.array_equal(res.mean, mean)
        assert np.array_equal(res.stderr, stderr)
        assert np.all(res.mean != 0.0)


def traced_peak_mib(fn) -> float:
    """Peak of the memory numpy and Python allocate while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestChunkMemory:
    """A chunk holds one tile of samples and values at a time, not arrays
    as long as the chunk. Measured at one thread, so one chunk is in flight;
    reducing whole 125 000-row chunks peaked at 8.60 and 21.59 MiB."""

    PARTITION = perturb(simplicial_cone_partition(4), 0.1, 5)

    def test_noise_stability_pairs(self, monkeypatch):
        monkeypatch.setenv("GAUSS_BUBBLES_THREADS", "1")
        cfg = IntegrationConfig(sample_count=1_000_000, seed=3, dimension=3)
        peak = traced_peak_mib(lambda: noise_stability_partition(self.PARTITION, 0.9, cfg))
        assert peak < 4.0

    def test_antithetic_collar(self, monkeypatch):
        monkeypatch.setenv("GAUSS_BUBBLES_THREADS", "1")
        cfg = IntegrationConfig(sample_count=250_000, seed=3, dimension=3, antithetic=True)
        peak = traced_peak_mib(
            lambda: minkowski_partition_perimeter(self.PARTITION, [0.1, 0.05, 0.025], cfg))
        assert peak < 8.0


class TestNestedPools:
    def test_mc_mean_inside_a_pool_worker_stays_on_its_thread(self, monkeypatch):
        monkeypatch.setenv("GAUSS_BUBBLES_THREADS", "2")
        cfg = tiled_cfg(False)

        def worker(_):
            seen = set()

            def values(x):
                seen.add(threading.get_ident())
                return moment_values(x)

            res = mc_mean(cfg, values)
            return threading.get_ident(), seen, res.mean

        outcomes = map_chunks(worker, 2)
        for ident, seen, mean in outcomes:
            assert ident != threading.get_ident()
            assert seen == {ident}
        assert np.array_equal(outcomes[0][2], outcomes[1][2])

    def test_top_level_mc_mean_still_uses_the_pool(self, monkeypatch):
        monkeypatch.setenv("GAUSS_BUBBLES_THREADS", "2")
        map_chunks(lambda c: c, 2)  # a finished pool leaves the caller unmarked
        seen = set()

        def values(x):
            seen.add(threading.get_ident())
            return moment_values(x)

        mc_mean(tiled_cfg(False), values)
        assert threading.get_ident() not in seen


# Cell 2 is empty: functional 2 never beats functional 0, whose direction it
# shares at a lower offset.
EMPTY_CELL = AffinePartition(np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]),
                             np.array([0.0, 0.0, -1.0]), np.zeros(2))
GROUPED_PARTITIONS = {
    "propeller3": propeller_partition(),
    "perturbed-cones4": CONES4,
    "empty-cell": EMPTY_CELL,
}


def grouped_cfg(part, antithetic):
    return IntegrationConfig(sample_count=2 * TILED_CHUNK, seed=17, dimension=part.d,
                             chunk_size=TILED_CHUNK, antithetic=antithetic)


def dense_one_hot(labels, k):
    """The per-row one-hot matrix the grouped reduction replaces; label k rows are 0."""
    return (labels[:, None] == np.arange(k)[None, :]).astype(float)


class TestGroupedReduction:
    """The grouped reduction against the dense one-hot integrands it replaced,
    evaluated through the per-row path, compared bit for bit."""

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("name", sorted(GROUPED_PARTITIONS))
    def test_volumes_match_dense_one_hot(self, name, antithetic):
        part = GROUPED_PARTITIONS[name]
        cfg = grouped_cfg(part, antithetic)
        got = mc_volumes(part, cfg)
        want = mc_mean(cfg, lambda x: dense_one_hot(part.classify_points(x), part.m))
        scale = 2.0 if antithetic else 1.0
        counts = np.rint(want.mean * want.n_observations * scale).astype(np.int64)
        assert np.array_equal(got.volumes, want.mean)
        assert np.array_equal(got.stderr, want.stderr)
        assert np.array_equal(got.counts, counts)
        assert got.counts.sum() == cfg.sample_count

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("name", sorted(GROUPED_PARTITIONS))
    def test_moments_match_dense_one_hot(self, name, antithetic):
        part = GROUPED_PARTITIONS[name]
        m, d = part.m, part.d
        cfg = grouped_cfg(part, antithetic)

        def dense(x):
            hot = dense_one_hot(part.classify_points(x), m)
            mom = (x[:, None, :] * hot[:, :, None]).reshape(x.shape[0], m * d)
            return np.concatenate([hot, mom], axis=1)

        got = mc_moments(part, None, cfg)
        want = mc_mean(cfg, dense)
        assert np.array_equal(got.volumes, want.mean[:m])
        assert np.array_equal(got.volumes_stderr, want.stderr[:m])
        assert np.array_equal(got.moments, want.mean[m:].reshape(m, d))
        assert np.array_equal(got.moments_stderr, want.stderr[m:].reshape(m, d))

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("columns", [1, 3])
    def test_ungrouped_rows_are_dropped(self, columns, antithetic):
        # Label 4 (= k) marks rows outside every group; they still count as
        # observations but add nothing to any block.
        k = 4
        cfg = grouped_cfg(CONES4, antithetic)

        def labels(x):
            return np.where(x[:, 0] > 0.5, k, CONES4.classify_points(x))

        def grouped(x):
            return labels(x), x[:, :columns] ** 2 - x[:, -1:]

        def dense(x):
            hot = dense_one_hot(labels(x), k)
            v = x[:, :columns] ** 2 - x[:, -1:]
            spread = (hot[:, :, None] * v[:, None, :]).reshape(x.shape[0], k * columns)
            return np.concatenate([spread, v * (labels(x) < k)[:, None]], axis=1)

        got = mc_mean(cfg, grouped, groups=k)
        want = mc_mean(cfg, dense)
        assert got.mean.shape == ((k + 1) * columns,)
        # The last block is the per-row sum over groups, values * 1{label < k}.
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.stderr, want.stderr)
        dropped = mc_mean(cfg, lambda x: (np.full(x.shape[0], k), None), groups=k)
        assert np.array_equal(dropped.mean, np.zeros(k + 1))

    def test_labels_outside_the_group_range_raise(self):
        cfg = grouped_cfg(CONES4, False)
        with pytest.raises(ContractViolationError):
            mc_mean(cfg, lambda x: (np.full(x.shape[0], 5), None), groups=4)
        with pytest.raises(ContractViolationError):
            mc_mean(cfg, lambda x: (np.full(x.shape[0], -1), None), groups=4)

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_grouped_reports_are_identical_across_thread_counts(self, monkeypatch, antithetic):
        cfg = IntegrationConfig(sample_count=8 * 6_000, seed=23, dimension=3,
                                chunk_size=6_000, antithetic=antithetic)
        reports = []
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("GAUSS_BUBBLES_THREADS", threads)
            vol = mc_volumes(CONES4, cfg)
            mom = mc_moments(CONES4, np.array([0.1, -0.2, 0.05]), cfg)
            reports.append(repr((vol.volumes.tobytes(), vol.stderr.tobytes(),
                                 vol.counts.tobytes(), mom.moments.tobytes(),
                                 mom.moments_stderr.tobytes(), mom.moment_functional,
                                 mom.moment_functional_stderr, mom.penalty)))
        assert reports[0] == reports[1] == reports[2]


REFERENCE_PARTITIONS = dict(GROUPED_PARTITIONS,
                            **{"perturbed-cones5": perturb(simplicial_cone_partition(5), 0.1, 4)})


class TestReferenceKernels:
    """Sampled estimates against the same estimators run on the reference
    kernels of ``oracles`` (a new array for every sampling step, argmax
    labels on row-major scores), compared bit for bit."""

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("name", sorted(REFERENCE_PARTITIONS))
    def test_cell_estimates_match_reference_kernels(self, name, antithetic, monkeypatch):
        part = REFERENCE_PARTITIONS[name]
        cfg = grouped_cfg(part, antithetic)

        def estimates():
            vol = mc_volumes(part, cfg)
            mom = mc_moments(part, None, cfg)
            noise = noise_stability_partition(part, 0.9, cfg)
            return [vol.volumes, vol.stderr, vol.counts, mom.volumes, mom.volumes_stderr,
                    mom.moments, mom.moments_stderr, noise.per_cell, noise.per_cell_stderr,
                    np.array([noise.total, noise.total_stderr])]

        got = estimates()
        drawn = oracles.use_reference_kernels(monkeypatch)
        want = estimates()
        # Three estimators, each drawing every chunk through the reference.
        assert len(drawn) == 3 * cfg.n_chunks
        for mine, reference in zip(got, want):
            assert np.array_equal(mine, reference)

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_pair_rows_match_reference_kernels(self, antithetic):
        cfg = grouped_cfg(CONES4, antithetic)
        x, y = montecarlo._pair_chunk(cfg, 0.9, PAIR_SUBSTREAM, 1)
        want_x, want_y = oracles.pair_chunk(cfg, 0.9, PAIR_SUBSTREAM, 1)
        assert np.array_equal(x, want_x) and np.array_equal(y, want_y)

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("pair_rho", [None, 0.9])
    def test_tiles_match_the_whole_chunk_reference(self, pair_rho, antithetic):
        # Successive draws from one Philox generator continue its stream, so
        # each tile holds exactly the rows of the chunk drawn in one call.
        cfg = grouped_cfg(CONES4, antithetic)
        got = list(montecarlo._sample_tiles(cfg, PAIR_SUBSTREAM, 1, pair_rho, TILE_ROWS))
        want = list(oracles.sample_tiles(cfg, PAIR_SUBSTREAM, 1, pair_rho, TILE_ROWS))
        assert len(got) == len(want) == 4
        for mine, reference in zip(got, want):
            assert len(mine) == len(reference) == (1 if pair_rho is None else 2)
            for a, b in zip(mine, reference):
                assert np.array_equal(a, b)

    def test_normal_rows_are_finite_at_the_ends_of_the_uniform_range(self, monkeypatch):
        # The generator draws from [0, 1); the floor keeps an exact 0 away
        # from ndtri, so every sampled row is finite, as classify_points needs.
        class Extremes:
            def __init__(self, bit_generator):
                pass

            def random(self, shape):
                u = np.full(shape, 0.5)
                u[0, 0], u[1, 0] = 0.0, np.nextafter(1.0, 0.0)
                return u

        monkeypatch.setattr(montecarlo, "Generator", Extremes)
        for antithetic in (False, True):
            cfg = IntegrationConfig(sample_count=8, seed=1, dimension=2, chunk_size=4,
                                    antithetic=antithetic)
            rows = montecarlo._normal_chunk(cfg, MAIN_SUBSTREAM, 0)
            assert np.all(np.isfinite(rows))
            assert rows[0, 0] < -8.0 and rows[1, 0] > 8.0


def _columns(q):
    """A row-wise integrand with q columns of mixed scale and sign, so that
    the order in which a column is summed shows in its last bits."""
    def values(x):
        scale = np.exp(3.0 * x[:, :1])
        return np.hstack([np.sin((k + 1) * x[:, :1] + x[:, 1:2]) * scale ** (k % 3)
                          for k in range(q)])
    return values


def _sum_then_square_reduction(config, values):
    """Column sums and sums of squares of every chunk, reduced as the per-row
    path did with ``v.sum(axis=0)`` and folded in chunk order."""
    from gauss_bubbles.montecarlo import _normal_chunk

    total = total_sq = None
    for chunk in range(config.n_chunks):
        v = values(_normal_chunk(config, MAIN_SUBSTREAM, chunk))
        if config.antithetic:
            h = v.shape[0] // 2
            v[:h] += v[h:]
            v = v[:h]
            v *= 0.5
        s, sq = v.sum(axis=0), np.einsum("ij,ij->j", v, v)
        total = s.copy() if total is None else total + s
        total_sq = sq.copy() if total_sq is None else total_sq + sq
    n = config.n_observations
    mean = total / n
    var = np.maximum(total_sq / n - mean * mean, 0.0) * (n / (n - 1))
    return mean, np.sqrt(var / n)


class TestPerRowReduction:
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_matches_sum_reduction_bit_for_bit(self, antithetic):
        config = IntegrationConfig(sample_count=3 * TILED_CHUNK, seed=23, dimension=2,
                                   chunk_size=TILED_CHUNK, antithetic=antithetic)
        for q in range(1, 20):
            res = mc_mean(config, _columns(q))
            mean, stderr = _sum_then_square_reduction(config, _columns(q))
            assert np.array_equal(res.mean, mean), q
            assert np.array_equal(res.stderr, stderr), q
