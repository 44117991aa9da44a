from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_bubbles import (
    CapacityError,
    ConfigError,
    ContractViolationError,
    DiscreteFunction,
    DomainError,
    IntegrationConfig,
    NoiseKernel,
    apply_noise_kernel,
    clt_crosscheck,
    discrete_noise_stability,
    influences,
    noise_stability_partition,
    plurality_function,
    plurality_noise_stability,
    propeller_partition,
)
from gauss_bubbles import discrete

import oracles


# Every (m, n) with m^n <= 1e5 and m <= 10; larger m at n = 1 would be an
# m x m table of over 10^10 entries.
PLURALITY_CASES = [(m, n) for m in range(2, 11) for n in range(1, 17) if m**n <= 10**5]


def dictator(m: int, n: int) -> DiscreteFunction:
    values = np.zeros((m,) * n + (m,))
    first = np.indices((m,) * n)[0]
    for j in range(m):
        values[..., j] = (first == j).astype(float)
    return DiscreteFunction(m=m, n=n, values=values)


class TestInfluences:
    def test_constant_function(self):
        g = np.full((3, 3), 0.7)
        for i in (1, 2):
            _, _, influence = influences(g, i)
            assert influence == pytest.approx(0.0, abs=1e-30)

    def test_first_coordinate_indicator(self):
        # g = 1{omega_1 = 0} on {0,1}^2; brute force over the 4 points
        g = np.array([[1.0, 1.0], [0.0, 0.0]])
        mean, conditional, inf1 = influences(g, 1)
        assert mean == pytest.approx(0.5)
        assert inf1 == pytest.approx(0.25)
        _, _, inf2 = influences(g, 2)
        assert inf2 == 0.0

    def test_equality_indicator(self):
        g = np.array([[1.0, 0.0], [0.0, 1.0]])  # 1{omega_1 = omega_2}
        for i in (1, 2):
            _, _, influence = influences(g, i)
            assert influence == pytest.approx(0.25)

    def test_index_out_of_range(self):
        with pytest.raises(DomainError):
            influences(np.zeros((2, 2)), 3)


class TestNoiseKernel:
    @pytest.mark.parametrize("m", [2, 3, 5, 9])
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.7, 1.0])
    def test_rows_sum_to_one(self, m, rho):
        kernel = NoiseKernel(m=m, rho=rho)
        assert abs(kernel.stay + (m - 1) * kernel.move - 1.0) <= 1e-15
        rows = kernel.matrix.sum(axis=1)
        assert np.max(np.abs(rows - 1.0)) <= 1e-15

    def test_m2_reduces_to_classic_form(self):
        kernel = NoiseKernel(m=2, rho=0.5)
        assert kernel.stay == pytest.approx(0.75)
        assert kernel.move == pytest.approx(0.25)

    def test_admissible_range(self):
        NoiseKernel(m=3, rho=-0.5)  # boundary of [-1/(m-1), 1]
        with pytest.raises(DomainError):
            NoiseKernel(m=3, rho=-0.6)
        with pytest.raises(DomainError):
            NoiseKernel(m=2, rho=1.1)

    @given(st.integers(2, 6), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_rows_stochastic_property(self, m, rho):
        kernel = NoiseKernel(m=m, rho=rho)
        assert np.all(kernel.matrix >= 0.0)
        assert np.max(np.abs(kernel.matrix.sum(axis=1) - 1.0)) <= 1e-14


class TestApplyNoiseKernel:
    def test_identity_at_rho_one(self):
        rng = np.random.default_rng(0)
        g = rng.random((3, 3, 3))
        assert np.allclose(apply_noise_kernel(g, 1.0), g, atol=1e-14)

    def test_averages_at_rho_zero(self):
        rng = np.random.default_rng(1)
        g = rng.random((2, 2, 2, 2))
        out = apply_noise_kernel(g, 0.0)
        assert np.allclose(out, g.mean(), atol=1e-14)

    def test_single_coordinate_hand_example(self):
        g = np.array([1.0, 0.0])
        out = apply_noise_kernel(g, 0.5)
        assert np.allclose(out, [0.75, 0.25], atol=1e-15)

    def test_preserves_mean(self):
        rng = np.random.default_rng(2)
        g = rng.random((3, 3, 3))
        out = apply_noise_kernel(g, 0.42)
        assert out.mean() == pytest.approx(g.mean(), abs=1e-12)

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 7), (3, 5), (4, 4), (5, 3), (9, 2)])
    def test_matches_matrix_product_oracle(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        g = rng.random((m,) * n)
        for rho in (-1.0 / (m - 1), -0.3, 0.0, 0.42, 1.0):
            if rho < -1.0 / (m - 1):
                continue
            kernel = NoiseKernel(m=m, rho=rho)
            want = oracles.noise_kernel_matmul(g, kernel.matrix)
            assert np.max(np.abs(apply_noise_kernel(g, rho) - want)) <= 1e-14
            # an explicit kernel overrides rho
            got = apply_noise_kernel(g, 0.9, kernel=kernel)
            assert np.max(np.abs(got - want)) <= 1e-14

    def test_leaves_input_unchanged(self):
        g = np.random.default_rng(3).random((3, 3, 3, 3))
        before = g.copy()
        apply_noise_kernel(g, 0.3)
        assert np.array_equal(g, before)

    def test_accepts_read_only_coordinate_views(self):
        f = plurality_function(3, 4)
        for j in range(3):
            fj = f.coordinate(j)
            assert not fj.flags.writeable
            before = fj.copy()
            out = apply_noise_kernel(fj, 0.6)
            assert np.array_equal(fj, before)
            want = oracles.noise_kernel_matmul(before, NoiseKernel(m=3, rho=0.6).matrix)
            assert np.max(np.abs(out - want)) <= 1e-14

    def test_kernel_on_another_alphabet_rejected(self):
        with pytest.raises(ContractViolationError):
            apply_noise_kernel(np.zeros((3, 3)), 0.5, kernel=NoiseKernel(m=2, rho=0.5))


class TestDiscreteStability:
    def test_dictator_closed_form(self):
        for rho in (0.0, 0.25, 0.5, 0.9, 1.0):
            result = discrete_noise_stability(dictator(2, 1), rho)
            assert result.total == pytest.approx((1.0 + rho) / 2.0, abs=1e-14)

    def test_rho_zero_squares_means(self):
        f = plurality_function(3, 2)
        result = discrete_noise_stability(f, 0.0)
        means = f.as_matrix().mean(axis=0)
        assert result.total == pytest.approx(float((means**2).sum()), abs=1e-13)

    def test_rho_one_counts_mass(self):
        f = dictator(3, 2)  # indicator-valued
        result = discrete_noise_stability(f, 1.0)
        assert result.total == pytest.approx(1.0, abs=1e-13)

    def test_matches_brute_force_double_sum(self):
        # every (m, n) with m^n <= 81
        rng = np.random.default_rng(7)
        cases = [(m, n) for m in range(2, 10) for n in range(1, 7) if m**n <= 81]
        assert (3, 4) in cases and (9, 2) in cases
        for m, n in cases:
            g = rng.random((m,) * n)
            values = np.zeros((m,) * n + (m,))
            values[..., 0] = g / (g.max() + 1.0)
            values[..., 1] = 1.0 - values[..., 0]
            f = DiscreteFunction(m=m, n=n, values=values)
            for rho in (0.0, 0.3, 0.7, 1.0):
                exact = discrete_noise_stability(f, rho)
                brute = sum(
                    oracles.brute_force_discrete_stability(f.coordinate(j), rho)
                    for j in range(m))
                assert exact.total == pytest.approx(brute, abs=1e-12)

    def test_indicator_band_over_rho_grid(self):
        f = plurality_function(2, 3)
        means = f.as_matrix().mean(axis=0)
        for rho in np.linspace(0.0, 1.0, 6):
            result = discrete_noise_stability(f, float(rho))
            for j in range(2):
                lo = means[j] ** 2 - 1e-12
                hi = means[j] + 1e-12
                assert lo <= result.per_coordinate[j] <= hi

    def test_relabeling_symmetry(self):
        f = plurality_function(3, 3)
        perm = np.array([2, 0, 1])
        table = f.values
        relabeled = table[..., perm]  # permute simplex coordinates
        for axis in range(3):
            relabeled = np.take(relabeled, perm, axis=axis)  # permute symbols
        g = DiscreteFunction(m=3, n=3, values=relabeled)
        for rho in (0.2, 0.6):
            assert discrete_noise_stability(g, rho).total == pytest.approx(
                discrete_noise_stability(f, rho).total, abs=1e-12)

    def test_capacity_error_without_sampler(self):
        f = plurality_function(2, 5)
        with pytest.raises(CapacityError):
            discrete_noise_stability(f, 0.5, capacity=16)

    def test_capacity_guard_counts_the_two_work_arrays(self):
        f = plurality_function(3, 4)  # 2 * 3^4 = 162 work values
        discrete_noise_stability(f, 0.5, capacity=162)
        with pytest.raises(CapacityError):
            discrete_noise_stability(f, 0.5, capacity=161)

    def test_capacity_guard_fires_before_allocation(self):
        import tracemalloc

        f = plurality_function(2, 16)  # work arrays of 2^16 floats, 512 KiB each
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                discrete_noise_stability(f, 0.5, capacity=2 * 2**16 - 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_sampler_agrees_with_exact(self):
        f = plurality_function(3, 3)
        exact = discrete_noise_stability(f, 0.4)
        sampled = discrete_noise_stability(f, 0.4, sample_count=200_000, seed=5,
                                           capacity=10)
        assert not sampled.exact
        assert sampled.total == pytest.approx(exact.total, abs=3.0 * sampled.stderr)


class TestPlurality:
    def test_strict_winner(self):
        f = plurality_function(2, 3)
        assert np.allclose(f.values[0, 0, 1], [1.0, 0.0])  # votes (0,0,1) -> e_0

    def test_three_way_tie_is_barycenter(self):
        f = plurality_function(3, 3)
        assert np.allclose(f.values[0, 1, 2], [1 / 3, 1 / 3, 1 / 3])

    def test_two_way_tie(self):
        f = plurality_function(2, 2)
        assert np.allclose(f.values[0, 1], [0.5, 0.5])

    def test_capacity(self):
        with pytest.raises(CapacityError):
            plurality_function(2, 10, capacity=100)
        # the table holds m^(n+1) values, not m^n
        plurality_function(2, 10, capacity=2**11)
        with pytest.raises(CapacityError):
            plurality_function(2, 10, capacity=2**11 - 1)
        with pytest.raises(CapacityError):
            plurality_function(100, 2, capacity=100**2)

    @pytest.mark.parametrize("m,n", [(2, 23), (3, 14)])
    def test_capacity_guard_fires_before_allocation(self, m, n):
        # m^n fits DEFAULT_CAPACITY, the m^(n+1) table values do not
        import tracemalloc

        assert m**n <= discrete.DEFAULT_CAPACITY < m ** (n + 1)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                plurality_function(m, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_domain(self):
        with pytest.raises(DomainError):
            plurality_function(1, 3)
        with pytest.raises(DomainError):
            plurality_function(3, 0)

    def test_matches_word_matrix_oracle(self):
        cases = PLURALITY_CASES
        assert (2, 16) in cases and (3, 10) in cases and (10, 5) in cases
        for m, n in cases:
            assert np.array_equal(plurality_function(m, n).values,
                                  oracles.plurality_table(m, n)), (m, n)

    @given(st.integers(2, 4), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_rows_live_on_simplex(self, m, n):
        f = plurality_function(m, n)
        matrix = f.as_matrix()
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-12)
        assert matrix.min() >= 0.0


class TestPluralityCounts:
    @pytest.mark.parametrize("m,n", PLURALITY_CASES)
    def test_matches_table_path(self, m, n):
        f = plurality_function(m, n)
        for rho in (0.0, 0.3, 0.7, 0.95, 1.0):
            counts = plurality_noise_stability(m, n, rho)
            table = discrete_noise_stability(f, rho)
            assert counts.exact and counts.stderr == 0.0 and counts.rho == rho
            assert np.max(np.abs(counts.per_coordinate - table.per_coordinate)) <= 1e-13
            assert counts.total == float(counts.per_coordinate.sum())

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 6), (3, 5), (4, 4), (5, 3), (7, 2)])
    def test_endpoints_square_means_and_count_mass(self, m, n):
        matrix = oracles.plurality_table(m, n).reshape(m**n, m)
        means = matrix.mean(axis=0)
        squares = (matrix**2).mean(axis=0)
        assert np.max(np.abs(plurality_noise_stability(m, n, 0.0).per_coordinate
                             - means**2)) <= 1e-15
        assert np.max(np.abs(plurality_noise_stability(m, n, 1.0).per_coordinate
                             - squares)) <= 1e-15

    @pytest.mark.parametrize("m,n", [(2, 5), (3, 4), (4, 3), (6, 2)])
    def test_negative_rho_is_the_table_path(self, m, n):
        f = plurality_function(m, n)
        for rho in (-1.0 / (m - 1), -0.5 / (m - 1), -1e-3):
            counts = plurality_noise_stability(m, n, rho)
            table = discrete_noise_stability(f, rho)
            assert counts.per_coordinate.tobytes() == table.per_coordinate.tobytes()
            assert counts.total == table.total

    @pytest.mark.parametrize("n", [1, 3, 101, 1001])
    def test_two_candidates_are_the_majority_sum(self, n):
        # At m = 2 and odd n plurality is majority, whose agreement
        # probability clt_crosscheck sums over Fourier levels.
        config = IntegrationConfig(sample_count=10_000, seed=0, dimension=1,
                                   chunk_size=10_000)
        for rho in (0.0, 0.2, 0.5, 0.9, 1.0):
            total = plurality_noise_stability(2, n, rho).total
            assert abs(total - clt_crosscheck(rho, n, config).discrete) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            plurality_noise_stability(1, 3, 0.5)
        with pytest.raises(DomainError):
            plurality_noise_stability(3, 0, 0.5)
        with pytest.raises(DomainError):
            plurality_noise_stability(3, 4, -0.6)
        with pytest.raises(DomainError):
            plurality_noise_stability(3, 4, 1.1)

    def test_accepts_every_table_size_and_far_beyond(self):
        cases = [(m, n) for m in range(2, 11) for n in range(1, 24)
                 if m**n <= discrete.DEFAULT_CAPACITY]
        assert (2, 23) in cases and (3, 14) in cases and (10, 7) in cases
        for m, n in cases + [(3, 201)]:
            result = plurality_noise_stability(m, n, 0.5)
            assert 1.0 / m - 1e-12 <= result.total <= 1.0

    def test_capacity_guard_counts_types_times_votes(self):
        # 78 types of 11 votes over 3 candidates, times max(n, m) = 11
        plurality_noise_stability(3, 11, 0.5, capacity=78 * 11)
        with pytest.raises(CapacityError):
            plurality_noise_stability(3, 11, 0.5, capacity=78 * 11 - 1)
        # 11 types of one vote over 11 candidates, times max(n, m) = 11
        plurality_noise_stability(11, 1, 0.5, capacity=11 * 11)
        with pytest.raises(CapacityError):
            plurality_noise_stability(11, 1, 0.5, capacity=11 * 11 - 1)
        # rho < 0 keeps the table's own guard
        with pytest.raises(CapacityError):
            plurality_noise_stability(3, 11, -0.1, capacity=3**11 - 1)

    @pytest.mark.parametrize("m,n", [(3, 10**7), (2, 10**9), (10**6, 10**6)])
    def test_capacity_guard_fires_before_allocation(self, m, n):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                plurality_noise_stability(m, n, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPluralityToPropeller:
    """Three-candidate plurality tends to the propeller's noise stability as
    the number of voters grows (the invariance principle)."""

    def test_oracle_value(self):
        assert abs(oracles.propeller_noise_stability(0.5) - 0.5346378202401305) <= 1e-12

    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.8])
    def test_oracle_matches_monte_carlo(self, rho):
        config = IntegrationConfig(sample_count=400_000, seed=11, dimension=2,
                                   chunk_size=100_000)
        report = noise_stability_partition(propeller_partition(), rho, config)
        want = oracles.propeller_noise_stability(rho)
        assert abs(report.total - want) <= 4.0 * report.total_stderr

    @pytest.mark.parametrize("rho", [0.2, 0.5])
    def test_plurality_at_201_voters_is_near_the_propeller(self, rho):
        gap = plurality_noise_stability(3, 201, rho).total - oracles.propeller_noise_stability(rho)
        assert abs(gap) <= 0.01

    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.8])
    def test_gap_falls_with_the_voter_count(self, rho):
        want = oracles.propeller_noise_stability(rho)
        gaps = [abs(plurality_noise_stability(3, n, rho).total - want) for n in (11, 101, 201)]
        assert gaps[0] > gaps[1] > gaps[2]


class TestDiscreteFunctionValidation:
    def test_rejects_non_simplex_rows(self):
        values = np.zeros((2, 2))
        values[0] = [0.7, 0.7]
        with pytest.raises(ContractViolationError):
            DiscreteFunction(m=2, n=1, values=values)

    def test_rejects_negative_entries(self):
        values = np.array([[1.2, -0.2], [0.5, 0.5]])
        with pytest.raises(ContractViolationError):
            DiscreteFunction(m=2, n=1, values=values)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ContractViolationError):
            DiscreteFunction(m=2, n=2, values=np.zeros((2, 2)))

    def test_csv_round_trip(self):
        f = plurality_function(3, 2)
        text = f.to_csv()
        g = DiscreteFunction.from_csv(text, 3, 2)
        assert np.array_equal(f.values, g.values)
        assert text.startswith("f0,f1,f2")


class TestCltCrosscheck:
    def cfg(self, samples=200_000, seed=2):
        return IntegrationConfig(sample_count=samples, seed=seed, dimension=1,
                                 chunk_size=50_000)

    def test_rho_zero_both_half(self):
        result = clt_crosscheck(0.0, 101, self.cfg())
        assert result.gaussian == pytest.approx(0.5)
        assert result.discrete == pytest.approx(0.5, abs=3.0 * result.discrete_stderr)

    def test_rho_one_both_one(self):
        result = clt_crosscheck(1.0, 101, self.cfg(samples=50_000))
        assert result.gaussian == pytest.approx(1.0)
        assert result.discrete == 1.0

    def test_rho_half_matches_arcsine_law(self):
        result = clt_crosscheck(0.5, 1001, self.cfg(samples=400_000, seed=4))
        assert result.gaussian == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert abs(result.gap) <= 0.01

    def test_even_n_rejected(self):
        with pytest.raises(DomainError):
            clt_crosscheck(0.5, 100, self.cfg())

    def test_antithetic_rejected(self):
        config = IntegrationConfig(sample_count=100_000, seed=0, dimension=1,
                                   chunk_size=50_000, antithetic=True)
        with pytest.raises(ConfigError):
            clt_crosscheck(0.5, 101, config)

    @pytest.mark.parametrize("n", [101, 1001])
    @pytest.mark.parametrize("rho", [-0.5, 0.2, 0.5, 0.9])
    def test_matches_pair_sampler(self, rho, n):
        mean, stderr = oracles.majority_pair_sampler(rho, n, 400_000, seed=17,
                                                     chunk_size=100_000)
        result = clt_crosscheck(rho, n, self.cfg())
        assert result.discrete_stderr == 0.0
        assert abs(result.discrete - mean) <= 4.0 * stderr

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_matches_enumeration(self, n):
        for rho in (-0.7, 0.1, 0.6):
            result = clt_crosscheck(rho, n, self.cfg())
            want = oracles.majority_agreement_enumerated(rho, n)
            assert abs(result.discrete - want) <= 1e-13

    @pytest.mark.parametrize("n", [101, 1001])
    def test_matches_scipy_binomial_sum(self, n):
        for rho in (-0.9, -0.3, 0.3, 0.8):
            result = clt_crosscheck(rho, n, self.cfg())
            assert abs(result.discrete - oracles.majority_agreement_binom(rho, n)) <= 1e-13

    def test_endpoints_exact_and_values_in_unit_interval(self):
        for n in (1, 3, 101, 1001):
            assert clt_crosscheck(1.0, n, self.cfg()).discrete == 1.0
            assert clt_crosscheck(-1.0, n, self.cfg()).discrete == 0.0
            assert clt_crosscheck(0.0, n, self.cfg()).discrete == 0.5
            for rho in np.linspace(-1.0, 1.0, 21):
                assert 0.0 <= clt_crosscheck(float(rho), n, self.cfg()).discrete <= 1.0

    def test_capacity_guard(self, monkeypatch):
        import tracemalloc

        # n // 2 + 1 Fourier levels against DEFAULT_CAPACITY, before any array
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                clt_crosscheck(0.5, 2 * discrete.DEFAULT_CAPACITY + 1, self.cfg())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        monkeypatch.setattr(discrete, "DEFAULT_CAPACITY", 50)
        with pytest.raises(CapacityError):
            clt_crosscheck(0.5, 101, self.cfg())
        monkeypatch.setattr(discrete, "DEFAULT_CAPACITY", 51)
        clt_crosscheck(0.5, 101, self.cfg())

    @pytest.mark.parametrize("n", [1, 3, 101, 1001, 3161])
    def test_matches_pascal_table_sum(self, n):
        for rho in np.linspace(-1.0, 1.0, 9):
            result = clt_crosscheck(float(rho), n, self.cfg())
            want = oracles.majority_agreement_table(float(rho), n)
            assert abs(result.discrete - want) <= 1e-13

    @pytest.mark.parametrize("n", [1, 3, 11, 101, 1001])
    def test_matches_exact_fourier_sum(self, n):
        # dyadic rho, so the float argument is the rational one
        for rho in (Fraction(-7, 8), Fraction(-1, 4), Fraction(1, 16), Fraction(1, 2),
                    Fraction(3, 4), Fraction(15, 16)):
            want = oracles.majority_agreement_exact(rho, n)
            got = clt_crosscheck(float(rho), n, self.cfg()).discrete
            assert abs(Fraction(got) - want) <= Fraction(1, 10**15)

    def test_voter_count_times_gap_converges(self):
        # gap = O(1/n): n * gap settles, with corrections of order 1/n
        scaled = [n * clt_crosscheck(0.5, n, self.cfg()).gap
                  for n in (10**3 + 1, 10**5 + 1, 10**6 + 1)]
        assert 0.0 < scaled[2] < scaled[1] < scaled[0]
        assert scaled[0] - scaled[2] <= 1e-4
        assert scaled[1] - scaled[2] <= 1e-6
