"""Tests for the weighted kernels and heat diagnostics.

Oracle routes kept independent of the code under test:
- scipy.linalg.expm cross-checks the separable eigendecomposition route of
  the expm-of-laplacian mode;
- Gaussian integrals have closed forms: total mass 1, squared mass
  (2 pi s)^{nu/2} (4 pi s)^{-nu}, 2-D radial tail exp(-R^2/4s);
- 0/1 kernels are recomputed entry by entry from scratch;
- the Lanczos operator norm is compared with a full SVD;
- the support-restricted kernel_power_bound and domination_check are
  compared with their dense N x N formulas, written out here;
- hs_diagnostics' singular values, taken in the heat factor's eigenbasis,
  are compared with a full SVD of the formed masked block, and its
  domination excess with the formed block's;
- the Dirichlet heat kernel of the expm-of-laplacian mode is compared with
  the infinite-lattice kernel written as a Fourier integral;
- the Gaussian heat kernel built from its 1-D factor is compared with the
  literal pairwise formula, the norm taken through the Kronecker factor
  with a full SVD, and the truncation mask with N x N integer offsets.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spectralab import kernels
from spectralab.kernels import (
    KernelMatrix,
    compose_C,
    d_kernel,
    domination_check,
    gaussian_squared_mass,
    heat_matrix,
    hs_diagnostics,
    kernel_power_bound,
    multiply_function,
    operator_norm,
    split_tail,
    truncated_convolution,
)
from spectralab.operators import (
    DENSE_ENTRY_BUDGET,
    Grid,
    discrete_laplacian,
    potential_on_grid,
)
from spectralab.potentials import parse_potential
from spectralab.rng import derived_rng
from spectralab.sublevel import ball_volume

CROSS = parse_potential("x1^2 * x2^2", 2)


def random_kernel(grid, seed):
    rng = derived_rng(seed, "kernel")
    return KernelMatrix(grid, rng.standard_normal((grid.size, grid.size)))


class TestKernelMatrix:
    def test_shape_guard(self):
        g = Grid(1, 1.0, 0.5)
        with pytest.raises(ValueError, match="kernel must be"):
            KernelMatrix(g, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="function values must match the grid size"):
            multiply_function(KernelMatrix(g, np.zeros((4, 4))), np.ones(3))

    def test_finite_guard(self):
        g = Grid(1, 1.0, 0.5)
        bad = np.zeros((4, 4))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            KernelMatrix(g, bad)

    def test_multiplication_operator_scales_columns_without_weight(self):
        g = Grid(1, 1.0, 0.25)
        K = random_kernel(g, 6)
        func = np.arange(1.0, g.size + 1.0)
        direct = multiply_function(K, func)
        np.testing.assert_array_equal(direct.values, K.values * func[None, :])
        # composing with the delta-kernel of the same multiplication
        # operator (diagonal / w) must agree exactly
        delta = np.diag(func) / g.weight
        np.testing.assert_allclose(g.weight * (K.values @ delta), direct.values,
                                   rtol=0.0, atol=1e-15)

    def test_multiply_function_keeps_the_block_form(self, monkeypatch):
        # a d_kernel and a dense kernel scale their blocks' columns: the
        # entries are those of the dense product, bit for bit, the norm taken
        # on the block agrees with the dense one and the SVD, and no dense
        # entry budget is checked on the way
        g = Grid(2, 2.5, 0.25)
        func = derived_rng(24, "scale").standard_normal(g.size)
        for K in (d_kernel(g, CROSS, 1.0, 1.0), random_kernel(g, 24)):
            dense = KernelMatrix(g, K.values * func[None, :])
            with monkeypatch.context() as patch:
                patch.setattr(Grid, "require_dense_budget", lambda grid: pytest.fail(
                    "multiply_function or operator_norm checked the dense entry budget"))
                out = multiply_function(K, func)
                norm = operator_norm(out)
            assert out._index is K._index and "values" not in vars(out)
            np.testing.assert_array_equal(out._block, K._block * func[K._index])
            np.testing.assert_array_equal(out.values, dense.values)
            expected = g.weight * np.linalg.svd(dense.values, compute_uv=False)[0]
            for got in (norm, operator_norm(dense)):
                assert abs(got - expected) <= 1e-12 * expected
        # a non-finite value is refused off the block too, as it was when the
        # product was formed densely (0 * inf is nan)
        D = d_kernel(g, CROSS, 1.0, 1.0)
        off = np.setdiff1d(np.arange(g.size), D._index)
        assert off.size
        for bad in (np.inf, np.nan):
            func[off[0]] = bad
            with pytest.raises(ValueError, match="finite"):
                multiply_function(D, func)

    def test_operator_norm_small_matches_numpy_svd(self):
        g = Grid(1, 2.0, 0.1)
        K = random_kernel(g, 8)
        expected = g.weight * np.linalg.svd(K.values, compute_uv=False)[0]
        assert abs(operator_norm(K) - expected) <= 1e-12 * expected

    def test_power_iteration_matches_svd(self):
        rng = derived_rng(9, "power-check")
        M = rng.standard_normal((300, 180))
        expected = np.linalg.svd(M, compute_uv=False)[0]
        got = kernels._lanczos_sigma_max(lambda x: M @ x, lambda y: M.T @ y,
                                         np.arange(180), 180, seed=3)
        assert abs(got - expected) <= 1e-12 * expected

    def test_operator_norm_above_the_svd_limit_matches_numpy_svd(self):
        g = Grid(1, 103.0, 0.1)   # 2060 points
        rng = derived_rng(10, "large-norm")
        values = rng.standard_normal((g.size, g.size))
        zero = rng.random(g.size) < 0.85   # skipped columns
        values[:, zero] = 0.0
        # zero columns add only zero singular values
        expected = g.weight * np.linalg.svd(values[:, ~zero], compute_uv=False)[0]
        got = operator_norm(KernelMatrix(g, values), seed=4)
        assert abs(got - expected) <= 1e-12 * expected

    def test_operator_norm_raises_instead_of_returning_a_partial_estimate(
            self, monkeypatch):
        g = Grid(1, 103.0, 0.1)
        values = derived_rng(17, "capped-norm").standard_normal((g.size, g.size))
        # the uncapped recurrence takes 113 steps on this kernel
        monkeypatch.setattr(kernels, "NORM_STEPS", 20)
        with pytest.raises(RuntimeError, match="not converged in 20 Lanczos steps"):
            operator_norm(KernelMatrix(g, values))

    def test_operator_norm_above_the_svd_limit_with_fewer_than_two_columns(self):
        g = Grid(1, 103.0, 0.1)
        values = np.zeros((g.size, g.size))
        assert operator_norm(KernelMatrix(g, values)) == 0.0
        values[::3, 7] = 2.0
        expected = g.weight * float(np.linalg.norm(values[:, 7]))
        assert operator_norm(KernelMatrix(g, values)) == pytest.approx(
            expected, rel=1e-15)


class TestHeatMatrix:
    def test_diagonal_is_gaussian_peak(self):
        g = Grid(2, 2.0, 0.5)
        K = heat_matrix(g, 1.0)
        np.testing.assert_array_equal(np.diag(K.values), 1.0 / (4.0 * math.pi))

    def test_row_sums_are_substochastic(self):
        g = Grid(2, 4.0, 0.25)
        K = heat_matrix(g, 1.0)
        sums = g.weight * K.values.sum(axis=1)
        assert np.max(sums) <= 1.0 + 1e-3

    def test_symmetry(self):
        for mode in ("gaussian-kernel", "expm-of-laplacian"):
            K = heat_matrix(Grid(2, 2.0, 0.25), 0.7, mode)
            gap = np.max(np.abs(K.values - K.values.T))
            assert gap <= 1e-12 * np.max(np.abs(K.values))

    def test_gaussian_matches_the_pairwise_formula(self):
        for nu, L, h, s in ((1, 3.0, 0.25, 1.0), (2, 2.0, 0.25, 0.7),
                            (3, 1.0, 0.25, 0.5)):
            g = Grid(nu, L, h)
            K = heat_matrix(g, s).values
            d2 = np.zeros((g.size, g.size))
            for c in range(nu):
                d2 += (g.points[:, c, None] - g.points[None, :, c]) ** 2
            literal = (4.0 * math.pi * s) ** (-nu / 2.0) * np.exp(-d2 / (4.0 * s))
            assert np.max(np.abs(K - literal) / literal) <= 1e-15
            np.testing.assert_array_equal(K, K.T)

    def test_discrete_squared_mass_1d(self):
        g = Grid(1, 6.0, 0.1)
        K = heat_matrix(g, 1.0)
        center = g.size // 2
        got = g.weight * float(np.sum(K.values[center] ** 2))
        assert abs(got - gaussian_squared_mass(1, 1.0)) <= 0.01 * got

    def test_discrete_squared_mass_2d(self):
        g = Grid(2, 8.0, 0.25)
        K = heat_matrix(g, 1.0)
        center = (g.size + g.points_per_axis) // 2
        got = g.weight * float(np.sum(K.values[center] ** 2))
        analytic = 1.0 / (8.0 * math.pi)
        assert abs(got - analytic) <= 0.01 * analytic
        assert abs(gaussian_squared_mass(2, 1.0) - analytic) <= 1e-15

    def test_expm_mode_matches_scipy_expm(self):
        for nu, L, h in ((1, 2.0, 0.25), (2, 1.5, 0.25)):
            g = Grid(nu, L, h)
            K = heat_matrix(g, 0.8, "expm-of-laplacian")
            dense = discrete_laplacian(g).matrix.toarray()
            oracle = expm(-0.8 * dense)
            np.testing.assert_allclose(g.weight * K.values, oracle,
                                       rtol=1e-10, atol=1e-12)

    def test_modes_agree_on_interior_vectors(self):
        g = Grid(2, 8.0, 0.25)
        gauss = heat_matrix(g, 1.0)
        semi = heat_matrix(g, 1.0, "expm-of-laplacian")
        interior = np.max(np.abs(g.points), axis=1) <= g.half_width / 2.0
        rng = derived_rng(11, "interior")
        for _ in range(3):
            v = rng.standard_normal(g.size) * interior
            v /= np.linalg.norm(v)
            gap = np.linalg.norm(g.weight * (gauss.values @ v)
                                 - g.weight * (semi.values @ v))
            assert gap <= 0.05

    def test_guards(self):
        g = Grid(1, 1.0, 0.5)
        with pytest.raises(ValueError, match="s must be"):
            heat_matrix(g, 0.0)
        with pytest.raises(ValueError, match="mode"):
            heat_matrix(g, 1.0, "finite-elements")
        # the structured kernel is built; forming its dense values is refused
        big = heat_matrix(Grid(2, 16.0, 0.1), 1.0)
        with pytest.raises(ValueError, match="budget"):
            big.values


class TestComposeC:
    def test_zero_potential_reproduces_heat(self):
        g = Grid(2, 2.0, 0.5)
        C = compose_C(g, parse_potential("0", 2))
        np.testing.assert_array_equal(C.values, heat_matrix(g, 1.0).values)

    def test_huge_potential_kills_the_operator(self):
        g = Grid(1, 2.0, 0.5)
        C = compose_C(g, parse_potential("1000000", 1))
        np.testing.assert_array_equal(C.values, 0.0)

    def test_norm_at_most_one(self):
        g = Grid(2, 4.0, 0.25)
        C = compose_C(g, CROSS)
        assert operator_norm(C) <= 1.0 + 1e-3


class TestSplitTail:
    def test_level_zero_empties_the_sublevel_part(self):
        g = Grid(2, 2.0, 0.5)
        C = compose_C(g, CROSS)
        C_m, D_m, norms = split_tail(C, CROSS, 0.0)
        np.testing.assert_array_equal(C_m.values, 0.0)
        np.testing.assert_array_equal(D_m.values, C.values)
        assert norms["C_m"] == 0.0

    def test_bounded_potential_has_no_tail(self):
        g = Grid(1, 2.0, 0.5)
        V = parse_potential("0.5 * exp(-x1^2)", 1)
        C = compose_C(g, V)
        C_m, D_m, norms = split_tail(C, V, 1.0)
        np.testing.assert_array_equal(D_m.values, 0.0)
        np.testing.assert_array_equal(C_m.values, C.values)
        assert norms["D_m"] == 0.0

    def test_split_is_exact(self):
        g = Grid(2, 4.0, 0.25)
        C = compose_C(g, CROSS)
        C_m, D_m, _ = split_tail(C, CROSS, 2.0)
        np.testing.assert_array_equal(C.values - C_m.values, D_m.values)

    def test_tail_norm_is_exponentially_damped(self):
        g = Grid(2, 4.0, 0.25)
        C = compose_C(g, CROSS)
        _, _, norms = split_tail(C, CROSS, 1.0)
        assert norms["D_m"] <= math.exp(-1.0) * 1.001
        assert norms["reference"] == math.exp(-1.0)

    def test_reference_is_e_to_the_minus_m_at_every_level(self):
        # m = -710 used to raise OverflowError, and m >= 700 read 0.0
        V = parse_potential("x1^2", 1)
        C = compose_C(Grid(1, 1.0, 0.5), V)
        for m, reference in ((-710.0, math.inf), (-700.0, math.exp(700.0)),
                             (-math.inf, math.inf), (700.0, math.exp(-700.0)),
                             (math.inf, 0.0)):
            assert split_tail(C, V, m)[2]["reference"] == reference


class TestHsDiagnostics:
    def test_empty_mask(self):
        g = Grid(2, 2.0, 0.5)
        diag = hs_diagnostics(heat_matrix(g, 1.0), np.zeros(g.size, bool))
        assert diag.hs_norm == 0.0
        assert diag.singular_values.size == 0
        assert diag.all_passed()

    def test_full_mask_hs_is_the_frobenius_sum(self):
        g = Grid(2, 2.0, 0.5)
        K = heat_matrix(g, 1.0)
        diag = hs_diagnostics(K, np.ones(g.size, bool))
        expected = g.weight**2 * float(np.sum(K.values**2))
        assert diag.hs_norm**2 == pytest.approx(expected, rel=1e-14)
        assert diag.all_passed()

    def test_domination_is_exact_in_gaussian_mode(self):
        g = Grid(2, 4.0, 0.25)
        K = heat_matrix(g, 1.0)
        mask = potential_on_grid(g, CROSS) < 1.0
        diag = hs_diagnostics(K, mask)
        dom = diag.checks[0]
        assert dom.name == "pointwise-domination"
        assert dom.lhs == 0.0
        assert diag.all_passed()

    def test_sublevel_mass_bound_within_quadrature_tolerance(self):
        g = Grid(2, 4.0, 0.25)
        K = heat_matrix(g, 1.0)
        mask = potential_on_grid(g, CROSS) < 1.0
        diag = hs_diagnostics(K, mask)
        by_name = {c.name: c for c in diag.checks}
        mass = by_name["hs-vs-gaussian-mass"]
        assert mass.passed
        assert mass.rhs == pytest.approx(
            gaussian_squared_mass(2, 1.0) * g.weight * mask.sum(), rel=1e-14)

    @pytest.mark.parametrize("s, mode", [(0.01, "expm-of-laplacian"),
                                         (0.001, "gaussian-kernel")])
    def test_mass_check_holds_when_s_is_small_against_h_squared(self, s, mode):
        # against the continuum Gaussian mass these read lhs 54.07 > rhs
        # 50.93 and 832.5 > 509.3: a lattice column holds more than it
        g = Grid(2, 3.0, 0.1)
        mask = potential_on_grid(g, CROSS) < 1.0
        diag = hs_diagnostics(heat_matrix(g, s, mode), mask)
        mass = {c.name: c for c in diag.checks}["hs-vs-gaussian-mass"]
        assert mass.lhs > gaussian_squared_mass(2, s) * g.weight * mask.sum()
        assert mass.lhs <= mass.rhs and diag.all_passed()
        assert diag.constants["gaussian_mass"] == kernels._lattice_heat_mass(g, s, mode)

    @pytest.mark.parametrize("mode", kernels.HEAT_MODES)
    @pytest.mark.parametrize("nu, h", [(1, 0.1), (1, 0.25), (2, 0.1), (2, 0.25)])
    def test_lattice_mass_bounds_every_column(self, nu, h, mode):
        g = Grid(nu, 1.0, h)
        for s in (0.001, 0.003, 0.01, 0.1, 1.0):
            K = heat_matrix(g, s, mode)
            columns = g.weight * np.sum(K.values**2, axis=0)
            assert np.max(columns) <= kernels._lattice_heat_mass(g, s, mode) * (1.0 + 1e-12)

    @pytest.mark.parametrize("h, s", [(0.1, 0.001), (0.1, 0.00159), (0.1, 0.0016),
                                      (0.25, 0.01), (0.1, 0.01), (0.1, 1.0)])
    def test_lattice_mass_against_long_lattice_sums(self, h, s):
        # theta's two sides meet where 2 pi^2 s / h^2 = pi (s = 0.0015915 at
        # h = 0.1); each mode against its sum over 8001 lattice offsets
        from scipy.special import ive

        g, n = Grid(1, 1.0, h), np.arange(-4000, 4001)
        theta = h * math.fsum(np.exp(-(n * h) ** 2 / (2.0 * s))) / math.sqrt(2.0 * math.pi * s)
        assert kernels._lattice_heat_mass(g, s, "gaussian-kernel") == pytest.approx(
            gaussian_squared_mass(1, s) * theta, rel=1e-14)
        per_offset = ive(np.abs(n), 2.0 * s / h**2) / h
        assert kernels._lattice_heat_mass(g, s, "expm-of-laplacian") == pytest.approx(
            h * math.fsum(per_offset**2), rel=1e-14)

    def test_lattice_mass_is_the_gaussian_mass_at_the_run_settings(self):
        # theta rounds to 1.0 at s = 1 and h = 0.1 (README) or 0.16 (bench)
        for h in (0.1, 0.16):
            for nu in (1, 2):
                g = Grid(nu, 2.0, h)
                assert kernels._lattice_heat_mass(g, 1.0, "gaussian-kernel") == \
                    gaussian_squared_mass(nu, 1.0)

    def test_sup_bounds_are_the_squared_row_and_column_sums(self):
        # against exactly rounded sums (math.fsum) over each row and column
        # of the formed K^2
        g = Grid(2, 2.0, 0.25)
        for mode in MODES:
            K = heat_matrix(g, 0.8, mode)
            diag = hs_diagnostics(K, potential_on_grid(g, CROSS) < 1.0)
            squared = K.values**2
            for name, lines in (("row_bound", squared), ("column_bound", squared.T)):
                exact = g.weight * max(math.fsum(line) for line in lines.tolist())
                assert abs(diag.constants[name] - exact) <= 1e-15 * exact

    def test_row_column_gap_for_symmetric_kernel(self):
        g = Grid(1, 4.0, 0.1)
        diag = hs_diagnostics(heat_matrix(g, 1.0), np.ones(g.size, bool))
        gap = {c.name: c for c in diag.checks}["row-column-gap"]
        assert gap.passed

    def test_lattice_kernel_dominates_the_dirichlet_kernel(self):
        # The Dirichlet kernel exceeds the Gaussian near the diagonal, but
        # not the infinite-lattice kernel, which it approaches in the
        # interior of a large box.
        g = Grid(2, 4.0, 0.25)
        K = heat_matrix(g, 1.0, "expm-of-laplacian")
        mask = potential_on_grid(g, CROSS) < 1.0
        gauss = heat_matrix(g, 1.0).values
        assert np.max(K.values[:, mask] - gauss[:, mask]) > 1e-3 * np.max(gauss)
        diag = hs_diagnostics(K, mask)
        dom = diag.checks[0]
        assert dom.name == "pointwise-domination" and dom.passed
        assert diag.all_passed()
        # independent lattice kernel: (1/h) (1/pi) int_0^pi
        # exp(-2t(1 - cos theta)) cos(n theta) dtheta with t = s/h^2, per axis
        t = 1.0 / g.spacing**2
        theta = (np.arange(4000) + 0.5) * math.pi / 4000
        per_axis = [float(np.mean(np.exp(-2.0 * t * (1.0 - np.cos(theta)))
                                  * np.cos(n * theta))) / g.spacing
                    for n in range(3)]
        n = g.points_per_axis
        centre = (n // 2) * n + n // 2
        for offset, (a, b) in ((0, (0, 0)), (1, (0, 1)), (n + 2, (1, 2))):
            lattice = per_axis[a] * per_axis[b]
            assert K.values[centre, centre + offset] <= lattice * (1.0 + 1e-12)
            assert K.values[centre, centre + offset] >= lattice * (1.0 - 1e-3)

    def test_mask_length_guard(self):
        g = Grid(1, 1.0, 0.5)
        with pytest.raises(ValueError, match="mask length"):
            hs_diagnostics(heat_matrix(g, 1.0), np.ones(3, bool))

    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
    def test_time_must_be_finite_and_positive(self, s):
        # hs_diagnostics reads s from the heat record, which only heat_matrix
        # writes, and heat_matrix refuses such an s in either mode
        g = Grid(2, 2.0, 0.25)
        for mode in MODES:
            with pytest.raises(ValueError, match="s must be finite and > 0"):
                heat_matrix(g, s, mode)

    def test_unknown_mode_is_refused(self):
        # likewise for the mode of the heat record
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            heat_matrix(Grid(2, 2.0, 0.25), 1.0, "bogus")

    @pytest.mark.parametrize("s, mode", [(2.0, "gaussian-kernel"), (0.5, "gaussian-kernel"),
                                         (1.0, "expm-of-laplacian")])
    def test_kernel_built_at_another_time_or_mode_is_refused(self, s, mode):
        # hs_diagnostics takes no time or mode of its own, so a call naming
        # others than the kernel's is refused by the signature; the checks
        # run at the kernel's own (heat_matrix(g, 1.0) against s = 2 failed
        # pointwise-domination and hs-vs-gaussian-mass)
        g = Grid(2, 2.0, 0.25)
        K, mask = heat_matrix(g, s, mode), np.sum(g.points**2, axis=1) < 1.0
        for kernel in (K, multiply_function(K, np.exp(-potential_on_grid(g, CROSS)))):
            with pytest.raises(TypeError):
                hs_diagnostics(kernel, mask, 1.0, "gaussian-kernel")
            diag = hs_diagnostics(kernel, mask)
            assert diag.constants["gaussian_mass"] == kernels._lattice_heat_mass(g, s, mode)
            assert {c.name: c.passed for c in diag.checks}["pointwise-domination"]

    def test_kernel_keeps_its_time_and_mode_through_multiply_function(self):
        g = Grid(2, 2.0, 0.25)
        mask = potential_on_grid(g, CROSS) < 1.0
        damping = np.exp(-potential_on_grid(g, CROSS))
        for mode in MODES:
            # e^{-V} <= 1 keeps |C| under the dominating kernel; C is not
            # symmetric, so its row and column bounds differ
            C = multiply_function(heat_matrix(g, 0.8, mode), damping)
            assert C._heat == (0.8, mode)
            diag = hs_diagnostics(C, mask)
            checks = {c.name: c.passed for c in diag.checks}
            assert checks["pointwise-domination"] and not checks["row-column-gap"]
            assert diag.constants["gaussian_mass"] == kernels._lattice_heat_mass(g, 0.8, mode)

    def test_kernel_without_a_heat_record_is_refused(self):
        g = Grid(2, 2.0, 0.25)
        mask = np.ones(g.size, bool)
        for K in (KernelMatrix(g, heat_matrix(g, 1.0).values),
                  truncated_convolution(g, 1.0, 1.0)[0]):
            with pytest.raises(ValueError, match="needs a heat_matrix kernel"):
                hs_diagnostics(K, mask)

    @pytest.mark.parametrize("h, blocks", [(0.16, 1.5), (0.1, 0.6)])
    def test_allocation_peak_in_blocks(self, h, blocks):
        # the bench box (2500 points, 600 of them masked) and the README box
        # (6400 and 1520); a block is the N x |mask| masked block, which is
        # never held.  The eigenbasis block of the kept rows, one gather and
        # two column chunks of the domination excess make the peak: it reads
        # 0.70 and 0.47 blocks at the bench box, 0.34 and 0.23 at the README
        # box (gaussian-kernel and expm-of-laplacian).
        g = Grid(2, 4.0, h)
        mask = potential_on_grid(g, CROSS) < 1.0
        block = g.size * np.count_nonzero(mask) * 8
        for mode in MODES:
            hs_diagnostics(heat_matrix(Grid(2, 1.0, 0.25), 1.0, mode),
                           np.ones(64, bool))   # imports done
            K = heat_matrix(g, 1.0, mode)
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                hs_diagnostics(K, mask)
                peak = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
            assert unformed(K)
            assert peak <= blocks * block, (mode, peak / block)


class TestTruncatedConvolution:
    def test_untruncated_when_radius_covers_the_box(self):
        g = Grid(2, 2.0, 0.5)
        F, tail = truncated_convolution(g, 1.0, 50.0)
        np.testing.assert_array_equal(F.values, heat_matrix(g, 1.0).values)
        half_cover = 2.0 * g.half_width - g.spacing / 2.0
        remainder = 1.0 - math.erf(half_cover / 2.0) ** 2
        assert tail == pytest.approx(remainder, rel=1e-12)

    def test_tiny_radius_keeps_only_the_diagonal(self):
        g = Grid(2, 2.0, 0.5)
        F, tail = truncated_convolution(g, 1.0, 0.2)
        np.testing.assert_array_equal(
            F.values, np.diag(np.diag(heat_matrix(g, 1.0).values)))
        assert 0.9 <= tail <= 1.0001

    def test_operator_gap_bounded_by_tail(self):
        g = Grid(2, 4.0, 0.25)
        F, tail = truncated_convolution(g, 1.0, 2.0)
        heat = heat_matrix(g, 1.0)
        gap = KernelMatrix(g, heat.values - F.values)
        assert operator_norm(gap) <= tail * 1.01

    def test_2d_radial_tail_oracle(self):
        # mass of the 2-D Gaussian outside radius R is exp(-R^2/4s)
        g = Grid(2, 8.0, 0.25)
        _, tail = truncated_convolution(g, 1.0, 5.0)
        assert tail == pytest.approx(math.exp(-25.0 / 4.0), rel=5e-3)

    def test_radius_guard(self):
        with pytest.raises(ValueError, match="R must be"):
            truncated_convolution(Grid(1, 1.0, 0.5), 1.0, 0.0)

    def test_cut_matches_the_integer_offset_mask(self):
        # the N x N int64 offset mask, written out; radii on and between
        # lattice shells.  F_R's cutoff, the proximity kernel on a sublevel
        # set that is the whole grid and the largest column count of the
        # power bound's ball all follow it.
        for nu, L, h in ((1, 3.0, 0.25), (2, 2.0, 0.25), (3, 1.0, 0.25)):
            g = Grid(nu, L, h)
            everywhere = parse_potential("x1^2", nu)
            idx = np.unravel_index(np.arange(g.size), (g.points_per_axis,) * nu)
            d2 = sum((a.astype(np.int64)[:, None] - a.astype(np.int64)[None, :]) ** 2
                     for a in idx)
            for R in (0.25, 0.5, 5 ** 0.5 * 0.25, 0.6, 1.0):
                F, _ = truncated_convolution(g, 1.0, R)
                mask = d2 <= (R / h) ** 2 * (1.0 + 1e-9) + 1e-9
                expected = np.where(mask, heat_matrix(g, 1.0).values, 0.0)
                np.testing.assert_array_equal(F.values, expected)
                # d_kernel's ball has radius 2R, the power bound's 2kR
                D = d_kernel(g, everywhere, 1e9, R / 2)
                assert D._index.size == g.size
                np.testing.assert_array_equal(D.values, mask.astype(float))
                diag = kernel_power_bound(d_kernel(g, everywhere, 1e9, R / 4), 2)
                assert (diag.constants["ball_measure_sup"]
                        == g.weight * float(np.max(np.sum(mask, axis=0))))

    def test_radius_must_be_finite(self):
        g = Grid(2, 2.0, 0.25)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="radius must be finite"):
                d_kernel(g, CROSS, 1.0, bad)
            with pytest.raises(ValueError, match="radius must be finite"):
                truncated_convolution(g, 1.0, bad)
        # a finite R whose reach 2kR = 2.4e308 overflows
        with pytest.raises(ValueError, match="radius must be finite"):
            kernel_power_bound(d_kernel(g, CROSS, 1.0, 4e307), 3)


class TestDKernel:
    def test_empty_sublevel_gives_zero(self):
        g = Grid(2, 2.0, 0.5)
        D = d_kernel(g, CROSS, 1e-12, 1.0)
        np.testing.assert_array_equal(D.values, 0.0)

    def test_full_sublevel_wide_radius_gives_all_ones(self):
        g = Grid(2, 2.0, 0.5)
        V = parse_potential("x1^2 + x2^2", 2)
        D = d_kernel(g, V, 100.0, 10.0)
        np.testing.assert_array_equal(D.values, 1.0)

    def test_pattern_matches_per_entry_recomputation(self):
        g = Grid(2, 2.5, 0.5)
        D = d_kernel(g, CROSS, 1.0, 1.0)
        chi = potential_on_grid(g, CROSS) < 1.0
        n = g.points_per_axis
        cutoff = (2.0 / 0.5) ** 2 * (1.0 + 1e-9) + 1e-9
        for i in range(g.size):
            for j in range(g.size):
                oi = divmod(i, n)
                oj = divmod(j, n)
                d2 = (oi[0] - oj[0]) ** 2 + (oi[1] - oj[1]) ** 2
                expected = 1.0 if (chi[i] and chi[j] and d2 <= cutoff) else 0.0
                assert D.values[i, j] == expected

    def test_far_pairs_on_a_long_line_stay_outside(self):
        # two sublevel windows about 65536 cells apart, and 65536^2 = 2^32
        # wraps to 0 in int32, inside any cutoff
        g = Grid(1, 40000.0, 1.0)
        V = parse_potential("abs(abs(x1) - 32768)", 1)
        D = d_kernel(g, V, 2.0, 1.0)
        x = g.axis[D._index]
        assert D._index.size == 8
        np.testing.assert_array_equal(D._block, np.abs(x[:, None] - x[None, :]) <= 2.0)

    def test_symmetric(self):
        g = Grid(2, 4.0, 0.25)
        D = d_kernel(g, CROSS, 1.0, 1.0)
        np.testing.assert_array_equal(D.values, D.values.T)


class TestDominationCheck:
    @staticmethod
    def c_mr(grid, V, M, R, s=1.0):
        F, _ = truncated_convolution(grid, s, R)
        chi = (potential_on_grid(grid, V) < M).astype(float)
        return multiply_function(F, chi)

    def test_zero_mask_gives_zero_c(self):
        g = Grid(2, 2.0, 0.5)
        C = self.c_mr(g, CROSS, 1e-12, 1.0)
        D = d_kernel(g, CROSS, 1e-12, 1.0)
        diag = domination_check(C, D)
        assert diag.constants["c"] == 0.0
        assert diag.singular_values.size == 0
        assert diag.all_passed()

    def test_full_mask_c_bounded_by_gaussian_peak_times_ball(self):
        g = Grid(2, 2.0, 0.25)
        V = parse_potential("0", 2)
        R = 20.0
        C = self.c_mr(g, V, 1.0, R)
        D = d_kernel(g, V, 1.0, R)
        diag = domination_check(C, D)
        f_peak = 1.0 / (4.0 * math.pi)
        box_volume = (2.0 * g.half_width) ** 2
        bound = f_peak**2 * min(ball_volume(2, R), box_volume)
        assert 0.0 < diag.constants["c"] <= bound * 1.02

    def test_cross_potential_reports_finite_c(self):
        g = Grid(2, 4.0, 0.25)
        C = self.c_mr(g, CROSS, 1.0, 2.0)
        D = d_kernel(g, CROSS, 1.0, 2.0)
        diag = domination_check(C, D)
        assert diag.constants["c"] > 0.0
        assert math.isfinite(diag.constants["c"])
        assert diag.all_passed()

    def test_support_violation_raises(self):
        g = Grid(2, 4.0, 0.25)
        C = self.c_mr(g, CROSS, 1.0, 2.0)
        narrow = d_kernel(g, CROSS, 1.0, 0.25)
        with pytest.raises(ValueError, match="support violation"):
            domination_check(C, narrow)

    def test_grid_mismatch_raises(self):
        C = self.c_mr(Grid(2, 2.0, 0.5), CROSS, 1.0, 1.0)
        D = d_kernel(Grid(2, 2.0, 0.25), CROSS, 1.0, 1.0)
        with pytest.raises(ValueError, match="grid mismatch"):
            domination_check(C, D)

    def test_kronecker_form_d_is_refused(self):
        # rather than forming its N x N values
        g = Grid(2, 2.0, 0.25)
        C = self.c_mr(g, CROSS, 1.0, 1.0)
        for D in (heat_matrix(g, 1.0), truncated_convolution(g, 1.0, 2.0)[0]):
            with pytest.raises(ValueError, match="needs a block-form D"):
                domination_check(C, D)
            assert unformed(D)


class TestKernelPowerBound:
    def test_power_guard(self):
        g = Grid(2, 2.0, 0.5)
        D = d_kernel(g, CROSS, 1.0, 1.0)
        for k in (1, 31):   # kernels.MAX_KERNEL_POWER is 30
            with pytest.raises(ValueError, match="k must be"):
                kernel_power_bound(D, k)

    def test_kernel_without_a_d_kernel_record_is_refused(self):
        # a dense kernel, multiply_function of a d_kernel (no longer 0/1)
        # and Kronecker-form kernels, before any product
        g = Grid(2, 2.0, 0.5)
        D = d_kernel(g, CROSS, 1.0, 1.0)
        assert D._radius == 1.0
        for K in (KernelMatrix(g, D.values), multiply_function(D, np.full(g.size, 2.0)),
                  heat_matrix(g, 1.0), truncated_convolution(g, 1.0, 1.0)[0]):
            with pytest.raises(ValueError, match="needs a d_kernel kernel"):
                kernel_power_bound(K, 2)

    def test_zero_kernel_stays_zero(self):
        g = Grid(2, 2.0, 0.5)
        D = d_kernel(g, CROSS, 1e-12, 1.0)
        diag = kernel_power_bound(D, 3)
        assert diag.hs_norm == 0.0
        assert diag.all_passed()

    def test_single_cell_bound_is_tight(self):
        g = Grid(2, 1.0, 1.0)
        V = parse_potential("(x1 - 0.5)^2 + (x2 - 0.5)^2", 2)
        D = d_kernel(g, V, 0.5, 1.0)
        assert D.values.sum() == 1.0
        diag = kernel_power_bound(D, 3)
        # D^3 = w^2 on the single surviving cell; omega = w makes the
        # pointwise bound an equality there
        assert diag.hs_norm == pytest.approx(g.weight * g.weight**2, rel=1e-14)
        assert diag.checks[0].lhs == 0.0
        assert diag.all_passed()

    def test_cross_pointwise_bound_is_grid_exact(self):
        g = Grid(2, 4.0, 0.25)
        D = d_kernel(g, CROSS, 1.0, 1.0)
        diag = kernel_power_bound(D, 3)
        pointwise = diag.checks[0]
        assert pointwise.name == "pointwise-power-bound"
        assert pointwise.lhs <= 1e-9
        assert diag.all_passed()
        assert diag.constants["omega_max"] > 0.0

    def test_hs_bound_uses_grid_counting(self):
        g = Grid(2, 2.0, 0.25)
        V = parse_potential("x1^2 + x2^2", 2)
        D = d_kernel(g, V, 1.0, 0.5)
        diag = kernel_power_bound(D, 2)
        hs_check = {c.name: c for c in diag.checks}["hs-power-bound"]
        assert hs_check.passed
        # independent recomputation of the bound's two factors
        chi = (potential_on_grid(g, V) < 1.0).astype(float)
        n = g.points_per_axis
        idx = np.unravel_index(np.arange(g.size), (n, n))
        cutoff = (2.0 * 2 * 0.5 / g.spacing) ** 2 * (1.0 + 1e-9) + 1e-9
        d2 = ((idx[0][:, None] - idx[0][None, :]) ** 2
              + (idx[1][:, None] - idx[1][None, :]) ** 2)
        reach = (d2 <= cutoff).astype(float)
        omega = g.weight * reach @ chi
        expected = (g.weight * np.max(reach.sum(axis=0))
                    * g.weight * np.sum(chi * omega**2))
        assert hs_check.rhs == pytest.approx(expected, rel=1e-12)

    def test_allocation_peak_in_blocks(self):
        # the bench box: 600 sublevel points, so a block is 600^2 floats.
        # The power, the bound and the excess share P and one more block;
        # the ball test adds int32 offsets, half a block each, while P is
        # held.  It reads 2.13 blocks.
        g = Grid(2, 4.0, 0.16)
        D = d_kernel(g, CROSS, 1.0, 1.0)
        assert D._index.size == 600
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            kernel_power_bound(D, 3)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * 600**2 * 8


def dense_domination(C_MR, D):
    """domination_check's quantities from the full N x N product kernel."""
    P = C_MR.weight * (C_MR.values.T @ C_MR.values)
    support = D.values != 0.0
    off = P[~support]
    on = P[support]
    c = float(np.max(on)) if on.size else 0.0
    cols = np.any(C_MR.values != 0.0, axis=0)
    block = P[np.ix_(cols, cols)]
    sv = (C_MR.weight * np.linalg.svd(block, compute_uv=False)
          if block.size else np.zeros(0))
    return {"off_max": float(np.max(np.abs(off))) if off.size else 0.0,
            "dominated": float(np.max(P - c * D.values)), "c": c,
            "hs": C_MR.weight * float(np.linalg.norm(P, "fro")), "sv": sv}


def dense_power_bound(D, k, V, M, R):
    """kernel_power_bound's quantities from full N x N matrices."""
    g = D.grid
    w = g.weight
    P = D.values.copy()
    for _ in range(k - 1):
        P = w * (P @ D.values)
    chi = (potential_on_grid(g, V) < M).astype(float)
    idx = np.unravel_index(np.arange(g.size), (g.points_per_axis,) * g.nu)
    d2 = sum((a[:, None] - a[None, :]) ** 2 for a in idx)
    cutoff = (2.0 * k * R / g.spacing) ** 2 * (1.0 + 1e-9) + 1e-9
    reach = (d2 <= cutoff).astype(float)
    omega = w * (reach @ chi)
    bound = reach * (omega ** (k - 1))[None, :] * chi[None, :]
    inside = chi != 0.0
    block = P[np.ix_(inside, inside)]
    return {"rel_excess": float(np.max((P - bound) / np.maximum(bound, 1e-300))),
            "hs2": w * w * float(np.sum(P**2)),
            "ball_sup": w * float(np.max(reach.sum(axis=0))),
            "omega_integral": w * float(np.sum(chi * omega ** (2 * k - 2))),
            "omega_max": float(np.max(omega * chi)) if inside.any() else 0.0,
            "sv": (w * np.linalg.svd(block, compute_uv=False)
                   if block.size else np.zeros(0))}


def assert_close(got, expected, rel=1e-12):
    assert abs(got - expected) <= rel * max(abs(expected), 1e-300), (got, expected)


def assert_singular_values_close(got, expected):
    assert got.shape == expected.shape
    if expected.size:
        assert np.max(np.abs(got - expected)) <= 1e-12 * expected[0]


DISC = parse_potential("x1^2 + x2^2", 2)


class TestSupportRestrictedMatchesDense:
    @staticmethod
    def check_power(D, k, V, M, R):
        # D is d_kernel(grid, V, M, R); the reference reads V, M and R
        diag = kernel_power_bound(D, k)
        ref = dense_power_bound(D, k, V, M, R)
        pointwise, hs = diag.checks
        assert_close(pointwise.lhs, ref["rel_excess"])
        assert_close(diag.hs_norm**2, ref["hs2"])
        assert_close(hs.lhs, ref["hs2"])
        assert_close(hs.rhs, ref["ball_sup"] * ref["omega_integral"])
        assert diag.constants["ball_measure_sup"] == ref["ball_sup"]
        assert_close(diag.constants["omega_integral"], ref["omega_integral"])
        assert diag.constants["omega_max"] == ref["omega_max"]
        assert_singular_values_close(diag.singular_values, ref["sv"])
        return diag

    @staticmethod
    def check_domination(C_MR, D):
        diag = domination_check(C_MR, D)
        ref = dense_domination(C_MR, D)
        containment, dominated = diag.checks
        assert_close(containment.lhs, ref["off_max"])
        assert_close(dominated.lhs, ref["dominated"])
        assert_close(diag.constants["c"], ref["c"])
        assert_close(diag.hs_norm, ref["hs"])
        assert_singular_values_close(diag.singular_values, ref["sv"])
        return diag

    def test_power_empty_support(self):
        g = Grid(2, 1.5, 0.25)
        D = d_kernel(g, DISC, 1e-12, 0.5)
        assert D._index.size == 0
        diag = self.check_power(D, 3, DISC, 1e-12, 0.5)
        assert diag.checks[0].lhs == 0.0
        assert diag.singular_values.size == 0

    def test_power_full_support(self):
        g = Grid(2, 1.5, 0.25)
        V = parse_potential("0", 2)
        self.check_power(d_kernel(g, V, 1.0, 0.5), 2, V, 1.0, 0.5)
        D = d_kernel(g, DISC, 100.0, 0.5)
        assert D._index.size == g.size
        self.check_power(D, 3, DISC, 100.0, 0.5)

    def test_power_cross_potential(self):
        g = Grid(2, 3.0, 0.25)
        self.check_power(d_kernel(g, CROSS, 1.0, 0.5), 3, CROSS, 1.0, 0.5)

    def test_domination_random_with_zero_columns(self):
        g = Grid(2, 1.5, 0.25)
        rng = derived_rng(15, "sparse-domination")
        for zero_share in (0.4, 0.0):   # some zero columns; full support
            C = rng.standard_normal((g.size, g.size))
            cols = rng.random(g.size) >= zero_share
            C[:, ~cols] = 0.0
            block = np.outer(cols, cols)
            # nonzero on the product's block; signed entries and zeros off it
            D = np.where(block, rng.random((g.size, g.size)) + 0.5,
                         rng.standard_normal((g.size, g.size))
                         * (rng.random((g.size, g.size)) < 0.5))
            # D also as a block on a superset of the product's columns, and
            # as 2 on exactly those columns: P - c D < 0 on that block, so
            # the largest excess is 0, where the zeros off it meet P = 0
            index = np.flatnonzero(cols | (rng.random(g.size) < 0.5))
            blocked = KernelMatrix._blocked(g, index, D[np.ix_(index, index)])
            twos = KernelMatrix._blocked(g, np.flatnonzero(cols),
                                         np.full((np.count_nonzero(cols),) * 2, 2.0))
            # and with zero rows off the product's columns
            rows = D.copy()
            rows[~cols & (rng.random(g.size) < 0.5), :] = 0.0
            zero_rows = KernelMatrix._blocked(g, index, rows[np.ix_(index, index)])
            for kernel in (KernelMatrix(g, D), blocked, twos, zero_rows):
                diag = self.check_domination(KernelMatrix(g, C), kernel)
                assert diag.constants["c"] > 0.0
        # D's index and the product's columns each miss points while their
        # union covers the grid: C's columns off the index are so small that
        # the product stays within the support tolerance there
        cols = rng.random(g.size) >= 0.4
        held = ~cols | (rng.random(g.size) < 0.5)
        assert np.any(cols & ~held) and np.any(~cols)
        C = rng.standard_normal((g.size, g.size)) * np.where(held, 1.0, 1e-20) * cols
        index = np.flatnonzero(held)
        union = KernelMatrix._blocked(g, index, rng.random((index.size,) * 2) + 0.5)
        assert self.check_domination(KernelMatrix(g, C), union).constants["c"] > 0.0

    def test_domination_empty_support(self):
        g = Grid(2, 1.5, 0.25)
        rng = derived_rng(16, "empty-domination")
        C = KernelMatrix(g, np.zeros((g.size, g.size)))
        signed = rng.standard_normal((g.size, g.size))
        index = np.flatnonzero(rng.random(g.size) < 0.5)
        for D in (KernelMatrix(g, np.zeros((g.size, g.size))), KernelMatrix(g, signed),
                  KernelMatrix._blocked(g, index, signed[np.ix_(index, index)])):
            diag = self.check_domination(C, D)
            assert diag.constants["c"] == 0.0

    def test_domination_truncated_heat(self):
        g = Grid(2, 3.0, 0.25)
        F, _ = truncated_convolution(g, 1.0, 1.0)
        chi = (potential_on_grid(g, CROSS) < 1.0).astype(float)
        diag = self.check_domination(multiply_function(F, chi),
                                     d_kernel(g, CROSS, 1.0, 1.0))
        assert diag.all_passed()


class TestBuiltKernelInvariants:
    def test_symmetric_recipes_produce_symmetric_kernels(self):
        g = Grid(2, 4.0, 0.25)
        for K in (heat_matrix(g, 1.0), heat_matrix(g, 1.0, "expm-of-laplacian"),
                  d_kernel(g, CROSS, 1.0, 1.0)):
            gap = np.max(np.abs(K.values - K.values.T))
            scale = np.max(np.abs(K.values))
            assert gap <= 1e-12 * max(scale, 1e-300)


def shifted_bowl(g):
    """sum_a (a + 1) (x_a - c)^2, c on the grid: zero at exactly one point.

    The axis weights make it asymmetric, so an axis mix-up in the Kronecker
    apply cannot hide behind a symmetry of the scale.
    """
    c = repr(float(g.axis[g.points_per_axis // 2]))
    return parse_potential(" + ".join(f"{a + 1} * (x{a + 1} - {c})^2"
                                      for a in range(g.nu)), g.nu)


def svd_norm(K):
    """w * sigma_max over the nonzero columns, by a full SVD."""
    cols = np.any(K.values, axis=0)
    if not cols.any():
        return 0.0
    return K.weight * float(np.linalg.svd(K.values[:, cols], compute_uv=False)[0])


def unformed(K):
    """True while a Kronecker-form kernel has not formed its dense values."""
    return "values" not in vars(K)


MODES = ("gaussian-kernel", "expm-of-laplacian")


def kron_power(factor, nu):
    dense = factor
    for _ in range(nu - 1):
        dense = np.kron(dense, factor)
    return dense


class TestSeparableKernels:
    def test_heat_records_its_factor(self):
        g = Grid(2, 2.0, 0.25)
        for mode in MODES:
            K = heat_matrix(g, 0.8, mode)
            assert unformed(K)
            factor, scale = K._factor, K._scale
            assert factor.shape == (g.points_per_axis,) * 2
            dense = np.kron(factor, factor) * scale[None, :]
            np.testing.assert_allclose(dense, K.values, rtol=1e-15, atol=0.0)
            assert not unformed(K) and K.values is K.values   # formed once, kept

    def test_kronecker_apply_matches_the_dense_product(self):
        rng = derived_rng(24, "kron")
        factor = rng.standard_normal((5, 5))   # not symmetric
        for nu in (1, 2, 3):
            dense = kron_power(factor, nu)
            x = rng.standard_normal(5**nu)
            np.testing.assert_allclose(kernels._kron_apply(factor, nu, x), dense @ x,
                                       rtol=0.0, atol=1e-12 * np.max(np.abs(dense @ x)))

    def test_record_dropped_by_values_and_kept_by_truncation(self):
        g = Grid(2, 2.0, 0.25)
        heat = heat_matrix(g, 1.0)
        assert heat._factor is not None
        assert KernelMatrix(g, heat.values)._factor is None
        held = heat.values.copy()
        F = truncated_convolution(g, 1.0, 1.0)[0]
        # the heat factor and scale, cut past the squared lattice offset 16
        assert F._factor is not None and F._cutoff == 16 and unformed(F)
        np.testing.assert_array_equal(F._scale, heat._scale)
        np.testing.assert_array_equal(heat.values, held)   # a held kernel is not cut

    def test_chained_multiply_function_multiplies_the_scales(self):
        g = Grid(2, 2.0, 0.25)
        heat = heat_matrix(g, 1.0, "expm-of-laplacian")
        rng = derived_rng(21, "scales")
        g1, g2 = rng.random(g.size), rng.standard_normal(g.size)
        out = multiply_function(multiply_function(heat, g1), g2)
        assert out._factor is heat._factor and unformed(out) and unformed(heat)
        np.testing.assert_array_equal(out._scale, heat._scale * g1 * g2)
        np.testing.assert_array_equal(heat._scale, 1.0 / g.weight)

    def test_finite_guard_on_the_factor_and_scale(self):
        g = Grid(1, 1.0, 0.5)
        heat = heat_matrix(g, 1.0)
        for bad in (np.full(g.size, np.nan), np.full(g.size, 1e308)):
            with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
                multiply_function(multiply_function(heat, bad), bad)
        # entries overflow although factor and scale are finite
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            KernelMatrix._kronecker(g, np.full((4, 4), 2.0), np.full(4, 1e308))
        K = KernelMatrix._kronecker(g, np.full((4, 4), 2.0), np.full(4, 1e307))
        assert np.all(K.values == 2e307)

    @pytest.mark.parametrize("nu, L, h", [(1, 4.0, 0.25), (2, 2.0, 0.25),
                                          (3, 1.0, 0.25)])
    @pytest.mark.parametrize("mode", MODES)
    def test_split_pieces_match_svd(self, nu, L, h, mode):
        # levels give C_m no column, one column, every column; then a
        # random signed scale.  No piece forms its values to take a norm.
        g = Grid(nu, L, h)
        V = shifted_bowl(g)
        C = compose_C(g, V, 1.0, mode)
        supports = []
        for m in (0.0, 1e-3, 1e9):
            C_m, D_m, norms = split_tail(C, V, m)
            assert unformed(C) and unformed(C_m) and unformed(D_m)
            supports.append(int(np.count_nonzero(np.any(C_m.values, axis=0))))
            for piece, name in ((C_m, "C_m"), (D_m, "D_m")):
                expected = svd_norm(piece)
                assert abs(norms[name] - expected) <= 1e-12 * expected
        assert supports == [0, 1, g.size]
        signed = multiply_function(C, derived_rng(23, "scale").standard_normal(g.size))
        for K in (C, signed):
            got = operator_norm(K)
            assert unformed(K)
            assert abs(got - svd_norm(K)) <= 1e-12 * svd_norm(K)

    @pytest.mark.parametrize("nu, L, h", [(1, 103.0, 0.1), (2, 5.75, 0.25),
                                          (3, 3.25, 0.5)])
    @pytest.mark.parametrize("mode", MODES)
    def test_norm_above_the_svd_limit_matches_svd(self, nu, L, h, mode):
        # 2060, 2116 and 2197 points
        g = Grid(nu, L, h)
        V = shifted_bowl(g)
        C = compose_C(g, V, 1.0, mode)
        supports = []
        for m in (1e-3, 4.0):
            C_m, _, norms = split_tail(C, V, m)
            assert unformed(C_m)
            supports.append(int(np.count_nonzero(np.any(C_m.values, axis=0))))
            expected = svd_norm(C_m)
            assert abs(norms["C_m"] - expected) <= 1e-12 * expected
        assert supports[0] == 1 and 1 < supports[1] < g.size // 4
        assert operator_norm(multiply_function(C, np.zeros(g.size))) == 0.0

    def test_factored_norm_raises_instead_of_a_partial_estimate(self, monkeypatch):
        g = Grid(2, 5.75, 0.25)
        # at a short time the factor is nearly the identity, so the Gram
        # spectrum is the random squared scale: clustered at the top, where
        # the uncapped recurrence takes 215 steps
        monkeypatch.setattr(kernels, "NORM_STEPS", 100)
        K = multiply_function(heat_matrix(g, 1e-3), derived_rng(22, "scale").random(g.size))
        with pytest.raises(RuntimeError, match="not converged in 100 Lanczos steps"):
            operator_norm(K)
        assert unformed(K)

    def test_split_beyond_the_dense_budget_stays_unformed(self):
        # 16,900 points: N^2 = 2.86e8 entries exceed the dense-entry budget,
        # which only a read of the values is held to
        g = Grid(2, 6.5, 0.1)
        C = compose_C(g, CROSS)
        C_m, D_m, norms = split_tail(C, CROSS, 4.0)
        assert g.size**2 > DENSE_ENTRY_BUDGET
        assert all(unformed(K) for K in (C, C_m, D_m))
        assert 0.0 < norms["D_m"] <= math.exp(-4.0) * 1.001

    def test_checks_beyond_the_dense_budget_form_only_their_blocks(self):
        # On 16,900 points each check forms only the columns or the block of
        # a 52-point sublevel disc, while reading any kernel's values raises.
        g = Grid(2, 6.5, 0.1)
        V, M = parse_potential("x1^2 + x2^2", 2), 0.15
        chi = potential_on_grid(g, V) < M
        assert g.size**2 > DENSE_ENTRY_BUDGET and np.count_nonzero(chi) == 52
        heat = heat_matrix(g, 1.0)
        assert hs_diagnostics(heat, chi).all_passed()
        D = d_kernel(g, V, M, 0.15)
        assert D._block.shape == (52, 52)
        assert kernel_power_bound(D, 3).all_passed()
        F, _ = truncated_convolution(g, 1.0, 0.15)
        C_MR = multiply_function(F, chi.astype(float))
        dom = domination_check(C_MR, D)
        assert dom.all_passed() and dom.constants["c"] > 0.0
        for K in (heat, D, F, C_MR):
            with pytest.raises(ValueError, match="budget"):
                K.values

    def test_factored_and_dense_paths_agree(self):
        g = Grid(2, 5.75, 0.25)
        C = compose_C(g, CROSS)
        for m in (1.0, 4.0, 16.0):
            C_m, D_m, norms = split_tail(C, CROSS, m)
            for piece, name in ((C_m, "C_m"), (D_m, "D_m")):
                dense = operator_norm(KernelMatrix(g, piece.values))
                assert abs(norms[name] - dense) <= 1e-12 * dense


# signed, zero and mixed column scales for the chained multiply_function
SCALES = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.4, 1.0)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 3), st.integers(1, 8), st.sampled_from(MODES),
       st.sampled_from((0.05, 0.5, 2.0)), st.lists(SCALES, max_size=2))
def test_kronecker_form_matches_kron_fill_and_svd_property(nu, n, mode, s, chain):
    g = Grid(nu, n * 0.125, 0.25)
    K = heat_matrix(g, s, mode)
    scale = np.full(g.size, (4.0 * math.pi * s) ** (-nu / 2.0)
                    if mode == "gaussian-kernel" else 1.0 / g.weight)
    for seed, kept in chain:
        rng = derived_rng(seed, "property-scale")
        func = rng.standard_normal(g.size) * (rng.random(g.size) < kept)
        K = multiply_function(K, func)
        scale = scale * func
    norm = operator_norm(K)
    assert unformed(K)
    expected = kron_power(K._factor, nu) * scale[None, :]
    np.testing.assert_allclose(K.values, expected, rtol=1e-15, atol=0.0)
    top = g.weight * np.linalg.svd(expected, compute_uv=False)[0]
    assert abs(norm - top) <= 1e-12 * top


def same_report(a, b):
    np.testing.assert_array_equal(a.singular_values, b.singular_values)
    assert (a.hs_norm, a.checks, a.constants, a.note) == (b.hs_norm, b.checks,
                                                         b.constants, b.note)


class TestPrivateForms:
    def test_columns_match_the_formed_values(self):
        # every form against its own formed values, columns drawn before the
        # values are read and without forming them; radii on and between
        # lattice shells
        rng = derived_rng(25, "columns")
        for nu, L, h in ((1, 3.0, 0.25), (2, 2.0, 0.25), (3, 1.0, 0.25)):
            g = Grid(nu, L, h)
            V = shifted_bowl(g)
            chi = (potential_on_grid(g, V) < 2.0).astype(float)
            for make in (lambda: heat_matrix(g, 0.8),
                         lambda: heat_matrix(g, 0.8, "expm-of-laplacian"),
                         lambda: truncated_convolution(g, 1.0, 0.5)[0],
                         lambda: truncated_convolution(g, 1.0, 5 ** 0.5 * 0.25)[0],
                         lambda: multiply_function(truncated_convolution(g, 1.0, 0.6)[0], chi),
                         lambda: d_kernel(g, V, 2.0, 0.25),
                         lambda: multiply_function(d_kernel(g, V, 2.0, 0.25), chi - 0.5),
                         lambda: random_kernel(g, 26)):
                for share in (0.0, 0.3, 1.0):
                    cols = np.flatnonzero(rng.random(g.size) < share)
                    K = make()
                    got = K._columns(cols)
                    assert "values" not in vars(K)
                    expected = K.values[:, cols]
                    np.testing.assert_array_equal(got, expected)
                    # the same layout, so sums over either round alike
                    assert cols.size < 2 or got.strides == expected.strides

    def test_reports_do_not_depend_on_formed_values(self):
        # the benchmark's trace hooks read `values` of the kernels it sees
        g = Grid(2, 3.0, 0.25)
        chi = potential_on_grid(g, CROSS) < 1.0

        def reports(read):
            def seen(K):
                if read:
                    K.values
                return K

            out = [hs_diagnostics(seen(heat_matrix(g, 1.0, mode)), chi) for mode in MODES]
            out.append(kernel_power_bound(seen(d_kernel(g, CROSS, 1.0, 0.5)), 3))
            F = seen(truncated_convolution(g, 1.0, 1.0)[0])
            out.append(domination_check(seen(multiply_function(F, chi.astype(float))),
                                        seen(d_kernel(g, CROSS, 1.0, 1.0))))
            return out

        for a, b in zip(reports(False), reports(True)):
            same_report(a, b)

    def test_hs_diagnostics_refuses_a_kernel_without_its_factor(self):
        g = Grid(2, 2.0, 0.25)
        mask = np.ones(g.size, bool)
        heat = heat_matrix(g, 1.0)
        for K in (KernelMatrix(g, heat.values), truncated_convolution(g, 1.0, 5.0)[0]):
            with pytest.raises(ValueError, match="heat_matrix kernel"):
                hs_diagnostics(K, mask)


def dense_masked_spectrum(K, mask):
    """w * the singular values of the formed N x |mask| block K chi."""
    if not mask.any():
        return np.zeros(0)
    return K.weight * np.linalg.svd(K.values[:, mask], compute_uv=False)


def weyl_bound(K, mask, floor):
    """hs_diagnostics' bound on how far dropping eigenbasis rows below
    `floor` times the largest moves each weighted singular value:
    w * floor * ||factor||_2^nu * max |scale| over the mask."""
    top = float(np.max(np.abs(np.linalg.eigh(K._factor)[0])))
    return K.weight * floor * top**K.grid.nu * float(np.max(np.abs(K._scale[mask])))


def kept_rows(K, floor):
    lam = np.abs(np.linalg.eigh(K._factor)[0])   # the eigenvalues the code drops by
    products = kron_power(lam[None, :], K.grid.nu).ravel()
    return int(np.count_nonzero(products >= floor * np.max(products)))


STRUCTURED_GRIDS = [(1, 4.0, 0.1), (2, 2.0, 0.125), (3, 1.0, 0.2)]


def structured_masks(g):
    rng = derived_rng(31, "structured-mask")
    return {"empty": np.zeros(g.size, bool),
            "single": np.arange(g.size) == g.size // 3,
            "every": np.ones(g.size, bool),
            "random": rng.random(g.size) < 0.3}


class TestStructuredSpectra:
    @pytest.mark.parametrize("nu, L, h", STRUCTURED_GRIDS)
    @pytest.mark.parametrize("mode", MODES)
    def test_hs_singular_values_match_the_dense_svd(self, nu, L, h, mode):
        # within 1e-14 sigma_max (the largest gap reads 3.2e-15), at a short
        # time, where few rows drop, and at s = 1, where most of them do
        g = Grid(nu, L, h)
        for s in (0.05, 1.0):
            K = heat_matrix(g, s, mode)
            signed = multiply_function(K, derived_rng(32, "signed").standard_normal(g.size))
            for kernel in (K, signed):
                for name, mask in structured_masks(g).items():
                    diag = hs_diagnostics(kernel, mask)
                    expected = dense_masked_spectrum(kernel, mask)
                    got = diag.singular_values
                    assert got.shape == expected.shape, name
                    if expected.size:
                        assert np.max(np.abs(got - expected)) <= 1e-14 * expected[0], name
                        assert np.all(np.diff(got) <= 0.0) and np.all(got >= 0.0)
                    dense_hs2 = g.weight**2 * float(np.sum(kernel.values[:, mask] ** 2))
                    assert abs(diag.hs_norm**2 - dense_hs2) <= 1e-14 * max(dense_hs2, 1e-300)

    def test_fewer_kept_rows_than_masked_columns_pad_with_zeros(self):
        g = Grid(2, 2.0, 0.125)
        K = heat_matrix(g, 1.0)
        mask = np.ones(g.size, bool)
        kept = kept_rows(K, kernels.KRON_EIGEN_FLOOR)
        assert kept < mask.sum()
        sv = hs_diagnostics(K, mask).singular_values
        assert sv.shape == (g.size,)
        assert np.all(sv[:kept] > 0.0) and np.all(sv[kept:] == 0.0)
        expected = dense_masked_spectrum(K, mask)
        # the padded zeros stand for values below roundoff of sigma_max
        assert np.max(expected[kept:]) <= 1e-14 * expected[0]

    @pytest.mark.parametrize("floor", [kernels.KRON_EIGEN_FLOOR, 1e-8, 1e-4])
    def test_dropped_rows_move_each_value_within_the_weyl_bound(self, monkeypatch, floor):
        # raised floors drop rows that matter, so the values move by more
        # than roundoff, yet within the docstring's bound
        monkeypatch.setattr(kernels, "KRON_EIGEN_FLOOR", floor)
        g = Grid(2, 2.0, 0.125)
        scale = derived_rng(33, "weyl").standard_normal(g.size)
        moved = []
        for mode in MODES:
            K = multiply_function(heat_matrix(g, 0.3, mode), scale)
            for mask in structured_masks(g).values():
                if not mask.any():
                    continue
                expected = dense_masked_spectrum(K, mask)
                gap = np.max(np.abs(hs_diagnostics(K, mask).singular_values - expected))
                assert gap <= weyl_bound(K, mask, floor) + 1e-14 * expected[0]
                moved.append(gap / expected[0])
        assert (max(moved) > 1e-12) == (floor > 1e-9)

    @pytest.mark.parametrize("mode", MODES)
    def test_chunked_excess_equals_the_formed_blocks(self, monkeypatch, mode):
        # bit for bit, for one column per chunk, a few chunks and one chunk;
        # the expm-of-laplacian excess is negative
        g = Grid(2, 2.0, 0.125)
        mask = potential_on_grid(g, CROSS) < 1.0
        K = heat_matrix(g, 0.5, mode)
        dominating = kernels._dominating_heat_kernel(g, 0.5, mode)
        expected = float(np.max(np.abs(K.values[:, mask]) - dominating.values[:, mask]))
        assert (expected < 0.0) == (mode == "expm-of-laplacian")
        for entries in (1, 7 * g.size, kernels.HS_CHUNK_ENTRIES):
            monkeypatch.setattr(kernels, "HS_CHUNK_ENTRIES", entries)
            assert hs_diagnostics(heat_matrix(g, 0.5, mode), mask).checks[0].lhs == expected

    def test_a_factor_that_is_not_symmetric_is_refused(self):
        g = Grid(2, 1.0, 0.25)
        factor = heat_matrix(g, 1.0)._factor.copy()
        factor[0, 1] += 1e-12
        K = KernelMatrix._kronecker(g, factor, np.ones(g.size))
        with pytest.raises(ValueError, match="heat_matrix kernel"):
            hs_diagnostics(K, np.ones(g.size, bool))

    def test_power_spectrum_symmetric_and_not(self, monkeypatch):
        # d_kernel's exact 0/1 block takes eigvalsh and matches
        # dense_power_bound's SVD; a random block, symmetric or not, has no
        # d_kernel record and is refused before any spectrum
        g = Grid(2, 1.5, 0.25)
        A = derived_rng(34, "power-symmetry").standard_normal((g.size, g.size))
        monkeypatch.setattr(kernels, "singular_values", refuse_call)
        TestSupportRestrictedMatchesDense.check_power(d_kernel(g, DISC, 1.0, 0.25), 3, DISC,
                                                      1.0, 0.25)
        monkeypatch.setattr(kernels, "symmetric_singular_values", refuse_call)
        for K in (KernelMatrix(g, A + A.T), KernelMatrix(g, A)):
            with pytest.raises(ValueError, match="needs a d_kernel kernel"):
                kernel_power_bound(K, 3)


def refuse_call(*args):
    raise AssertionError("this spectrum route must not run")
