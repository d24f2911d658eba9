"""Tests for grids, discrete operators, and box-schedule spectra.

Oracle routes kept independent of the code under test:
- the 1-D Dirichlet second-difference matrix has closed-form eigenvalues
  4 sin^2(j pi h / (2 (2L + h))) / h^2, exact to rounding;
- dense numpy.linalg.eigvalsh cross-checks the sparse Lanczos route;
- the harmonic oscillator x^2 has continuum eigenvalues 1, 3, 5, ...;
- the 2-D box with walls at +-2 has lowest eigenvalue 2 (pi/4)^2;
- Kronecker-sum ordering is checked against per-axis application;
- for V = v(x1) + w(x2), H = A (x) I + I (x) B with tridiagonal A and B, so
  the counting function is #{a_i + b_j < level} from two 1-D spectra;
- the deflated certificate sweeps (every inertia count undecided) stand in
  for the inertia certificate on the factor path;
- a box whose level cannot certify it runs exactly the path without a
  level, so that path's values are the oracle for each fallback.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.linalg import eigvalsh_tridiagonal

from spectralab import linalg, operators
from spectralab.linalg import lanczos_extremal
from spectralab.operators import (
    Grid,
    SparseOperator,
    _inertia_count,
    _ldlt,
    check_schedule,
    discrete_laplacian,
    hamiltonian,
    potential_on_grid,
    spectrum_study,
)
from spectralab.potentials import parse_potential
from spectralab.rng import derived_rng
from spectralab.sublevel import Region, measure


def no_factor(matrix):
    raise AssertionError("a solve that must run on H.matvec factored H")


def replace_count(monkeypatch, count):
    """Run spectrum_study's solves with the factor hook's count replaced.

    The hook keeps its solve; count(shift) stands in for the inertia count
    (None: undecided, as for a factor that pivoted rows), and raises as the
    factor would.
    """
    solve = operators.lanczos_extremal

    def replaced(*args, factor=None, **kwargs):
        def hook(shift):
            inner, value = factor(shift)[0], count(shift)
            return inner, lambda: value

        return solve(*args, factor=hook, **kwargs)

    monkeypatch.setattr(operators, "lanczos_extremal", replaced)


def sweeps_only(monkeypatch):
    """Run spectrum_study's solves on -H^{-1} with every count undecided."""
    replace_count(monkeypatch, lambda shift: None)


def record(monkeypatch, module, name):
    """Wrap module.name so that every call appends its result to a list."""
    results = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, recorded)
    return results


def record_factors(monkeypatch):
    """Count operators._ldlt calls: the shapes of the matrices it factors."""
    factors = []

    def counted_ldlt(matrix):
        factors.append(matrix.shape)
        return _ldlt(matrix)

    monkeypatch.setattr(operators, "_ldlt", counted_ldlt)
    return factors


class ReadsOfU:
    """A SuperLU factor that counts the reads of its U."""

    def __init__(self, lu):
        self.lu, self.u_reads = lu, 0

    def __getattr__(self, name):
        if name == "U":
            self.u_reads += 1
        return getattr(self.lu, name)


def assert_as_without_levels(monkeypatch, rep, *study):
    """rep equals spectrum_study(*study) run with no box given a level."""
    solve = operators.lanczos_extremal

    def without_level(*args, sigma=None, **kwargs):
        return solve(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(operators, "lanczos_extremal", without_level)
        plain = spectrum_study(*study)
    for field in ("eigenvalues", "residuals"):
        for a, b in zip(getattr(rep, field), getattr(plain, field)):
            np.testing.assert_array_equal(a, b)
    assert rep.notes == plain.notes


def dirichlet_eigenvalues(L, h):
    n = round(2 * L / h)
    j = np.arange(1, n + 1)
    return 4.0 * np.sin(j * np.pi * h / (2.0 * (2.0 * L + h))) ** 2 / h**2


class TestGrid:
    def test_axis_is_cell_centered_and_symmetric(self):
        g = Grid(1, 2.0, 0.5)
        assert g.points_per_axis == 8
        np.testing.assert_allclose(g.axis, [-1.75, -1.25, -0.75, -0.25,
                                            0.25, 0.75, 1.25, 1.75])
        np.testing.assert_allclose(g.axis + g.axis[::-1], 0.0, atol=1e-15)

    def test_points_are_c_ordered_with_first_axis_outermost(self):
        g = Grid(2, 1.0, 1.0)
        expected = np.array([[-0.5, -0.5], [-0.5, 0.5], [0.5, -0.5], [0.5, 0.5]])
        np.testing.assert_array_equal(g.points, expected)
        assert g.size == 4
        assert g.weight == 1.0

    def test_weight_is_cell_volume(self):
        assert Grid(3, 1.0, 0.5).weight == 0.125

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError, match="nu"):
            Grid(4, 1.0, 0.5)

    def test_rejects_non_integer_cell_count(self):
        # 2L/h overflows to inf in the last two
        for nu, L, h in ((1, 1.0, 0.3), (1, float("inf"), 0.1), (2, 1e308, 0.1)):
            with pytest.raises(ValueError, match="integer"):
                Grid(nu, L, h)

    def test_rejects_oversized_grid(self):
        with pytest.raises(ValueError, match="points"):
            Grid(3, 100.0, 0.1)

    def test_dense_budget_guard(self):
        g = Grid(1, 1.0, 0.5)
        g.require_dense_budget()
        big = Grid(2, 16.0, 0.1)
        with pytest.raises(ValueError, match="budget"):
            big.require_dense_budget()


class TestDiscreteLaplacian:
    def test_matches_closed_form_eigenvalues_1d(self):
        # 2L + h = 1, so the walls sit at +-1/2 and the closed form applies
        # with N + 1 = 1/h.
        g = Grid(1, 0.495, 0.01)
        vals = np.linalg.eigvalsh(discrete_laplacian(g).matrix.toarray())
        exact = dirichlet_eigenvalues(0.495, 0.01)
        np.testing.assert_allclose(vals, exact, rtol=1e-10)

    def test_positive_semidefinite(self):
        g = Grid(2, 1.0, 0.25)
        vals = np.linalg.eigvalsh(discrete_laplacian(g).matrix.toarray())
        assert vals[0] >= -1e-12 * vals[-1]

    def test_annihilates_constants_away_from_walls(self):
        g = Grid(2, 1.0, 0.25)
        image = discrete_laplacian(g).matvec(np.ones(g.size))
        interior = image.reshape(8, 8)[1:-1, 1:-1]
        np.testing.assert_array_equal(interior, 0.0)

    def test_kronecker_ordering_matches_per_axis_action(self):
        # Apply the 2-D Laplacian to a separable field and compare with the
        # two per-axis second differences assembled by hand.
        g = Grid(2, 1.0, 0.25)
        n = g.points_per_axis
        rng = derived_rng(7, "kron-order")
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        field = np.outer(u, v).ravel()
        T = discrete_laplacian(Grid(1, 1.0, 0.25)).matrix.toarray()
        expected = (np.outer(T @ u, v) + np.outer(u, T @ v)).ravel()
        got = discrete_laplacian(g).matvec(field)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-11)

    def test_matches_lanczos_route_in_2d(self):
        g = Grid(2, 1.0, 0.25)
        lap = discrete_laplacian(g)
        dense = np.linalg.eigvalsh(lap.matrix.toarray())[:3]
        sparse_route = lanczos_extremal(lap.matvec, g.size, 3, max_iters=200)
        assert sparse_route.converged
        np.testing.assert_allclose(sparse_route.eigenvalues, dense, rtol=1e-10)


class TestHamiltonian:
    def test_adds_potential_on_the_diagonal(self):
        g = Grid(1, 2.0, 0.5)
        V = parse_potential("x1^2", 1)
        H = hamiltonian(g, V).matrix.toarray()
        expected = discrete_laplacian(g).matrix.toarray() + np.diag(g.axis**2)
        np.testing.assert_array_equal(H, expected)

    def test_harmonic_oscillator_levels(self):
        g = Grid(1, 10.0, 0.05)
        H = hamiltonian(g, parse_potential("x1^2", 1))
        vals = np.linalg.eigvalsh(H.matrix.toarray())[:5]
        np.testing.assert_allclose(vals, [1, 3, 5, 7, 9], rtol=1e-2)

    def test_rejects_negative_potential(self):
        g = Grid(1, 2.0, 0.5)
        with pytest.raises(ValueError, match="negative potential"):
            hamiltonian(g, parse_potential("x1", 1))

    def test_rejects_dimension_mismatch(self):
        g = Grid(2, 1.0, 0.5)
        with pytest.raises(ValueError, match="dimension"):
            potential_on_grid(g, parse_potential("x1^2", 1))

    def test_min_max_monotonicity_under_diagonal_bumps(self):
        # Adding a nonnegative diagonal never decreases any eigenvalue.
        g = Grid(2, 1.0, 0.25)
        H = hamiltonian(g, parse_potential("x1^2 + x2^2", 2)).matrix.toarray()
        base = np.linalg.eigvalsh(H)
        for trial in range(20):
            rng = derived_rng(31, "minmax", trial)
            bump = rng.uniform(0.0, 3.0, size=g.size)
            bumped = np.linalg.eigvalsh(H + np.diag(bump))
            assert np.all(bumped >= base - 1e-10)

    def test_halving_h_improves_at_second_order(self):
        # Eigenvalue error of the oscillator is O(h^2): the change under
        # h -> h/2 must stay within a factor 4 of the h^2 prediction
        # calibrated from the analytic levels.
        exact = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
        coarse = np.linalg.eigvalsh(
            hamiltonian(Grid(1, 10.0, 0.1), parse_potential("x1^2", 1)).matrix.toarray())[:5]
        fine = np.linalg.eigvalsh(
            hamiltonian(Grid(1, 10.0, 0.05), parse_potential("x1^2", 1)).matrix.toarray())[:5]
        err_coarse = np.abs(coarse - exact)
        change = np.abs(fine - coarse)
        # second-order prediction for the change is (3/4) of the coarse error
        assert np.all(change <= 4.0 * 0.75 * err_coarse)
        assert np.all(np.abs(fine - exact) < err_coarse)


class TestSparseOperator:
    def test_rejects_nonsymmetric_matrix(self):
        M = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="not symmetric"):
            SparseOperator(2, M)

    def test_rejects_shape_mismatch(self):
        M = sparse.identity(3, format="csr")
        with pytest.raises(ValueError, match="dimension"):
            SparseOperator(2, M)


def separable_sums(grid, axes):
    """Eigenvalues of H for V = sum_a axes[a](x_a), as the Kronecker sum of
    the 1-D Dirichlet spectra (eigvalsh_tridiagonal), one axis per array axis."""
    h, x = grid.spacing, grid.axis
    off = np.full(x.size - 1, -1.0 / h**2)
    sums = 0.0
    for a, v in enumerate(axes):
        spectrum = eigvalsh_tridiagonal(2.0 / h**2 + v(x), off)
        sums = np.add.outer(sums, spectrum) if a else spectrum
    return sums


class TestSpectrumStudy:
    def test_oscillator_stabilizes(self, monkeypatch):
        # one Hamiltonian per box serves both its counts and its solve
        built = record(monkeypatch, operators, "hamiltonian")
        V = parse_potential("x1^2", 1)
        rep = spectrum_study(V, (8.0, 12.0), 0.05, 5,
                             count_levels=(2.0, 6.0, 10.0))
        assert [H.dimension for H in built] == [320, 480]
        assert rep.verdict == "stabilized"
        assert rep.potential == "x1^2"
        np.testing.assert_allclose(rep.eigenvalues[-1], [1, 3, 5, 7, 9],
                                   rtol=1e-2)
        for res in rep.residuals:
            assert np.all(res <= 1e-6)
        assert len(rep.drift) == 1
        assert rep.drift[0].shape == (5,)
        assert np.max(rep.drift[0]) <= 0.01
        assert rep.counting == ((1, 3, 5), (1, 3, 5))

    def test_counting_matches_dense_eigvalsh_beyond_k(self):
        # every box's count against the dense spectrum of its Hamiltonian;
        # k = 2, while the counts reach the whole spectrum
        cases = [("x1^2+x2^2", 2, (1.5, 2.0), 0.25, (3.0, 5.0, 9.5, 40.0)),
                 ("x1^2*x2^2", 2, (1.5, 2.0), 0.2, (2.0, 9.0, 60.0)),
                 ("x1^2", 1, (4.0, 6.0), 0.1, (5.5, 50.0, 1e4))]
        for source, nu, schedule, h, levels in cases:
            V = parse_potential(source, nu)
            rep = spectrum_study(V, schedule, h, 2, count_levels=levels)
            for L, counts in zip(schedule, rep.counting):
                grid = Grid(nu, L, h)
                dense = np.linalg.eigvalsh(hamiltonian(grid, V).matrix.toarray())
                assert counts == tuple(int(np.sum(dense < level)) for level in levels)
            assert rep.counting[-1][-1] > 2

    def test_counting_matches_the_separable_oracle(self):
        # counts below 3.3 and 6.1 at L = 4, 8, 12: linear in L for the
        # x1^2 strip (essential spectrum from 1 up), fixed for the oscillator
        h, levels = 0.2, (3.3, 6.1)
        cases = (("x1^2", np.square, np.zeros_like, ((4, 11), (9, 25), (15, 38))),
                 ("x1^2+x2^2", np.square, np.square, ((1, 6),) * 3))
        for source, v, w, pinned in cases:
            V = parse_potential(source, 2)
            for L, expected in zip((4.0, 8.0, 12.0), pinned):
                grid = Grid(2, L, h)
                x = grid.axis
                off = np.full(x.size - 1, -1.0 / h**2)
                a = eigvalsh_tridiagonal(2.0 / h**2 + v(x), off)
                b = eigvalsh_tridiagonal(2.0 / h**2 + w(x), off)
                sums = np.add.outer(a, b)
                oracle = tuple(int(np.count_nonzero(sums < level)) for level in levels)
                H = hamiltonian(grid, V)
                counts = tuple(_inertia_count(H, level) for level in levels)
                assert counts == oracle == expected, (source, L)

    def test_three_axis_counts_match_the_kronecker_sum(self):
        # nu = 3: H = A (x) I (x) I + I (x) B (x) I + I (x) I (x) C, so the
        # counts are those of the sums of three 1-D spectra.  Every sum lies
        # at least 0.0175 from each level, far above the factor's roundoff.
        h, levels = 0.25, (4.1, 7.3, 30.0)
        for source, axes in (("x1^2+x2^2+x3^2", (np.square,) * 3),
                             ("x1^2", (np.square, np.zeros_like, np.zeros_like))):
            V = parse_potential(source, 3)
            for L in (1.5, 2.0):
                grid = Grid(3, L, h)
                sums = separable_sums(grid, axes).ravel()
                assert np.min(np.abs(sums[:, None] - np.array(levels))) >= 1e-3
                H = hamiltonian(grid, V)
                counts = tuple(_inertia_count(H, level) for level in levels)
                assert counts == tuple(int(np.count_nonzero(sums < level))
                                       for level in levels), (source, L)

    def test_kept_values_match_the_kronecker_sum_on_every_box(self):
        # the first box's two-factor path and the later boxes' level path,
        # to 1e-10 relative; the third oscillator box once kept none of its
        # values (its level lay within LEVEL_SLACK of its own 5th value)
        h, k, schedule = 0.2, 5, (4.0, 6.0, 8.0)
        for source, axes in (("x1^2", (np.square, np.zeros_like)),
                             ("x1^2+x2^2", (np.square, np.square))):
            rep = spectrum_study(parse_potential(source, 2), schedule, h, k)
            assert not rep.notes, source
            for L, values in zip(schedule, rep.eigenvalues):
                oracle = np.sort(separable_sums(Grid(2, L, h), axes).ravel())[:k]
                assert values.shape == (k,), (source, L)
                np.testing.assert_allclose(values, oracle, rtol=1e-10, atol=0.0)

    def test_a_level_beside_the_boxs_own_kth_value_reruns_without_it(self, monkeypatch):
        # (6, 8) at h = 0.2: the boxes agree to about 1e-15, so the L = 8
        # level lies within LEVEL_SLACK of that box's own 5th value, and its
        # vectors missed RESIDUAL_TOLERANCE (kept 0 of 5, not-stabilized).
        # The box runs again without the level.
        levels = []

        def spy(*args, **kwargs):
            levels.append(kwargs.get("sigma"))
            return lanczos_extremal(*args, **kwargs)

        monkeypatch.setattr(operators, "lanczos_extremal", spy)
        rep = spectrum_study(parse_potential("x1^2+x2^2", 2), (6.0, 8.0), 0.2, 5)
        assert rep.verdict == "stabilized" and not rep.notes
        assert [values.size for values in rep.eigenvalues] == [5, 5]
        assert max(float(np.max(r)) for r in rep.residuals) <= 1e-9
        assert levels[0] is None and levels[1] is not None and levels[2:] == [None]

    def test_counts_stay_bounded_where_sublevel_sets_have_finite_measure(self):
        # The paper's main theorem on the grid: x1^2*x2^2*(x1^2+x2^2) is 0 on
        # both axes, yet |{V < M}| is finite, so N(level) stays bounded as
        # the box grows, while the x1^2 strip's counts grow linearly in L.
        h, levels = 0.2, (3.3, 6.1)
        theorem = parse_potential("x1^2*x2^2*(x1^2+x2^2)", 2)
        strip = parse_potential("x1^2", 2)
        strip_counts = []
        for L in (4.0, 8.0, 12.0):
            grid = Grid(2, L, h)
            H = hamiltonian(grid, theorem)
            counts = tuple(_inertia_count(H, level) for level in levels)
            H = hamiltonian(grid, strip)
            strip_counts.append(tuple(_inertia_count(H, level) for level in levels))
            assert counts == (1, 5), L
            assert all(a < b for a, b in zip(counts, strip_counts[-1])), L
        assert strip_counts == [(4, 11), (9, 25), (15, 38)]

    def test_sublevel_measure_is_finite_where_the_counts_stay_bounded(self):
        # The paper's hypothesis itself, |{V < 1}| < infinity, beside the
        # counting witness above: Monte Carlo |{V < 1} cap B_R| against the
        # closed form of each potential within 3 standard errors.
        # x1^2*x2^2*(x1^2+x2^2): finite total 2^(2/3) B(1/6, 1/2) less the
        # tail 8/R along the axes (exact up to O(R^-7)); x1^2*x2^2: grows by
        # 8 ln 2 per doubling; x1^2: the strip |x1| < 1, about 4R.
        total = 2.0 ** (2.0 / 3.0) * math.gamma(1 / 6) * math.gamma(1 / 2) / math.gamma(2 / 3)
        cases = (("x1^2*x2^2*(x1^2+x2^2)", lambda R: total - 8.0 / R),
                 ("x1^2*x2^2", lambda R: 2 * R**2 * math.asin(2 / R**2)
                  + 4 * math.log(R**2 * (1 + math.sqrt(1 - 4 / R**4)) / 2)),
                 ("x1^2", lambda R: 2 * math.sqrt(R**2 - 1) + 2 * R**2 * math.asin(1 / R)))
        for source, area in cases:
            V = parse_potential(source, 2)
            for R in (5.0, 10.0, 20.0, 40.0):
                est = measure(V, 1.0, Region((0.0, 0.0), R), budget=200_000, seed=0)
                assert abs(est.value - area(R)) <= 3 * est.std_error, (source, R)

    def test_shift_invert_matches_dense_eigvalsh(self, monkeypatch):
        # nu <= 2: the smallest box solves on -H^{-1} through one factor and
        # certifies by one more (the inertia of H - tau I); every later box
        # solves and counts through one factor of H - sigma I, sigma just
        # above the previous box's k-th value.  (1.5, 1.6) at h = 0.2 is not
        # nested, and the count alone certifies it.
        factors = record_factors(monkeypatch)
        sweeps = record(monkeypatch, linalg, "_certify")
        for source, nu, schedule, h in (("x1^2", 1, (4.0, 6.0, 8.0), 0.1),
                                        ("x1^2*x2^2", 2, (1.5, 2.0), 0.2),
                                        ("x1^2*x2^2", 2, (1.5, 1.6), 0.2)):
            V = parse_potential(source, nu)
            factors.clear()
            rep = spectrum_study(V, schedule, h, 5)
            assert len(factors) == 2 + (len(schedule) - 1) and not sweeps
            for L, values in zip(schedule, rep.eigenvalues):
                dense = np.linalg.eigvalsh(hamiltonian(Grid(nu, L, h), V).matrix.toarray())
                np.testing.assert_allclose(values, dense[:5], rtol=1e-12, atol=0)

    def test_only_a_counted_factor_copies_u(self, monkeypatch):
        # reading diag(U) copies all of U (70 MB at the nu = 2 cap): the
        # first box's solve factor at shift 0 never reads it, and its count
        # factor and the later box's factor at sigma read it once each
        V = parse_potential("x1^2*x2^2", 2)
        schedule, h = (1.5, 2.0), 0.2
        factors = []

        def watched_ldlt(matrix):
            factors.append((matrix.diagonal(), ReadsOfU(_ldlt(matrix))))
            return factors[-1][1]

        monkeypatch.setattr(operators, "_ldlt", watched_ldlt)
        spectrum_study(V, schedule, h, 5)
        H = hamiltonian(Grid(2, schedule[0], h), V)
        np.testing.assert_array_equal(factors[0][0], H.matrix.diagonal())
        assert [lu.u_reads for _, lu in factors] == [0, 1, 1]

    def test_level_below_the_kth_value_runs_the_two_factor_path(self, monkeypatch):
        # x1^4 at h = 0.5: the L = 3 grid is not nested in the L = 2.75 one,
        # its points sit where V is larger, and only 2 of its values lie
        # below the smaller box's 3rd; the box makes the factor at sigma,
        # then exactly the path without a level (two more factors)
        V = parse_potential("x1^4", 1)
        schedule, h, k = (2.75, 3.0), 0.5, 3
        dense = np.linalg.eigvalsh(hamiltonian(Grid(1, 3.0, h), V).matrix.toarray())
        factors = record_factors(monkeypatch)
        rep = spectrum_study(V, schedule, h, k)
        assert len(factors) == 2 + 3
        assert _inertia_count(hamiltonian(Grid(1, 3.0, h), V),
                              rep.eigenvalues[0][-1] * (1 + 1e-10)) == 2
        np.testing.assert_allclose(rep.eigenvalues[1], dense[:k], rtol=1e-12, atol=0)
        assert_as_without_levels(monkeypatch, rep, V, schedule, h, k)

    def test_level_above_too_many_values_runs_the_two_factor_path(self, monkeypatch):
        # V = 0 on (1, 8) at h = 0.1: 38 values of the larger box lie below
        # the smaller box's 5th, more than MAX_EIGENPAIRS
        V = parse_potential("0", 1)
        schedule, h, k = (1.0, 8.0), 0.1, 5
        factors = record_factors(monkeypatch)
        rep = spectrum_study(V, schedule, h, k)
        assert len(factors) == 2 + 3
        level = rep.eigenvalues[0][-1] * (1 + 1e-10)
        assert _inertia_count(hamiltonian(Grid(1, 8.0, h), V), level) == 38
        np.testing.assert_allclose(rep.eigenvalues[1], dirichlet_eigenvalues(8.0, h)[:k],
                                   rtol=1e-12, atol=0)
        assert_as_without_levels(monkeypatch, rep, V, schedule, h, k)

    def test_singular_factor_at_the_level_runs_the_two_factor_path(self, monkeypatch):
        # the factor at sigma exactly singular (the hook raising ValueError)
        V = parse_potential("x1^2*x2^2", 2)
        schedule, h, k = (1.5, 2.0), 0.2, 5
        solve = operators.lanczos_extremal
        levels = []

        def singular_at_sigma(*args, factor=None, sigma=None, **kwargs):
            def hook(shift):
                if shift == sigma:
                    levels.append(shift)
                    raise ValueError("no inertia count")
                return factor(shift)

            return solve(*args, factor=hook, sigma=sigma, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(operators, "lanczos_extremal", singular_at_sigma)
            rep = spectrum_study(V, schedule, h, k)
        assert len(levels) == 1
        assert_as_without_levels(monkeypatch, rep, V, schedule, h, k)

    def test_inertia_brackets_the_showcase_values(self):
        # bench showcase boxes: nothing below lambda_1, exactly k up to lambda_k
        V = parse_potential("x1^2*x2^2", 2)
        rep = spectrum_study(V, (3.0, 4.0), 0.1, 5)
        for L, values in zip((3.0, 4.0), rep.eigenvalues):
            H = hamiltonian(Grid(2, L, 0.1), V)
            assert values.size == 5
            assert _inertia_count(H, values[-1] * (1 + 1e-6)) == 5
            assert _inertia_count(H, values[0] * (1 - 1e-6)) == 0

    def test_inertia_certifies_the_showcase_without_sweeps(self, monkeypatch):
        # bench showcase boxes: the inertia counts agree, so no deflation
        # sweep runs, three factors serve both boxes (two for L = 3, one at
        # sigma for L = 4), and each solve takes fewer applications than
        # the sweeps.  L = 3 solves exactly as the sweeps' first run does;
        # L = 4 reports Rayleigh quotients, within 1e-12 of the sweeps'.
        V = parse_potential("x1^2*x2^2", 2)
        sweeps = record(monkeypatch, linalg, "_certify")
        factors = record_factors(monkeypatch)
        solves = record(monkeypatch, operators, "lanczos_extremal")
        rep = spectrum_study(V, (3.0, 4.0), 0.1, 5)
        assert not sweeps and len(solves) == 2 and len(factors) == 3
        counted = [result.matvec_count for result in solves]
        solves.clear()
        sweeps_only(monkeypatch)
        swept = spectrum_study(V, (3.0, 4.0), 0.1, 5)
        assert len(sweeps) == 2 and len(solves) == 2
        assert all(a < b.matvec_count for a, b in zip(counted, solves))
        np.testing.assert_array_equal(rep.eigenvalues[0], swept.eigenvalues[0])
        np.testing.assert_allclose(rep.eigenvalues[1], swept.eigenvalues[1], rtol=1e-12, atol=0)
        assert rep.notes == swept.notes == ()

    def test_missed_pair_falls_back_to_the_sweeps(self, monkeypatch):
        # a first ARPACK run that skips the lowest pair: the inertia count
        # below tau exceeds the found values, and the sweeps recover the pair
        arpack = linalg._arpack_smallest
        runs = []

        def skip_lowest(apply, dim, k, v0, rng, max_iters, tol):
            runs.append(k)
            if len(runs) > 1:
                return arpack(apply, dim, k, v0, rng, max_iters, tol)
            values, vectors, complete = arpack(apply, dim, k + 1, v0, rng, max_iters, tol)
            return values[1:], vectors[:, 1:], complete

        monkeypatch.setattr(linalg, "_arpack_smallest", skip_lowest)
        sweeps = record(monkeypatch, linalg, "_certify")
        V = parse_potential("x1^2*x2^2", 2)
        schedule = (1.5, 2.0)
        rep = spectrum_study(V, schedule, 0.2, 5)
        # the smallest box solves first; only its run skipped a pair
        assert len(sweeps) == 1 and len(runs) > 2
        for L, values in zip(schedule, rep.eigenvalues):
            dense = np.linalg.eigvalsh(hamiltonian(Grid(2, L, 0.2), V).matrix.toarray())
            np.testing.assert_allclose(values, dense[:5], rtol=1e-12, atol=0)
        assert rep.notes == ()

    def test_missed_pair_at_the_level_runs_the_two_factor_path(self, monkeypatch):
        # the run at sigma (k = c = 8 values of the L = 2 box lie below it)
        # skips the lowest pair and ends on a positive theta, a value above
        # sigma: the box falls back to exactly the path without a level
        arpack = linalg._arpack_smallest
        runs = []

        def skip_lowest_at_sigma(apply, dim, k, v0, rng, max_iters, tol):
            runs.append(k)
            if len(runs) != 2:  # the L = 1.5 box's solve, then the fallback's
                return arpack(apply, dim, k, v0, rng, max_iters, tol)
            values, vectors, complete = arpack(apply, dim, k + 1, v0, rng, max_iters, tol)
            return values[1:], vectors[:, 1:], complete

        V = parse_potential("x1^2*x2^2", 2)
        schedule, h, k = (1.5, 2.0), 0.2, 5
        factors = record_factors(monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_arpack_smallest", skip_lowest_at_sigma)
            rep = spectrum_study(V, schedule, h, k)
        assert runs == [k, 8, k] and len(factors) == 2 + 3
        assert_as_without_levels(monkeypatch, rep, V, schedule, h, k)

    def test_undecided_count_falls_back_to_the_sweeps(self, monkeypatch):
        # every count's factor exactly singular (the hook raising
        # ValueError), the factor at sigma too: each box is certified by
        # the sweeps, with the values, residuals and notes of the sweeps
        # alone
        def singular(shift):
            if shift:  # the solve factor at shift 0 is made as usual
                raise ValueError("no inertia count")

        V = parse_potential("x1^2*x2^2", 2)
        schedule, h, k = (1.5, 2.0), 0.2, 5
        sweeps = record(monkeypatch, linalg, "_certify")
        with monkeypatch.context() as patch:
            replace_count(patch, singular)
            rep = spectrum_study(V, schedule, h, k)
        assert len(sweeps) == len(schedule)
        sweeps_only(monkeypatch)
        swept = spectrum_study(V, schedule, h, k)
        assert len(sweeps) == 2 * len(schedule)
        for field in ("eigenvalues", "residuals"):
            for a, b in zip(getattr(rep, field), getattr(swept, field)):
                np.testing.assert_array_equal(a, b)
        assert rep.notes == swept.notes

    def test_bench_box_solves_only_inside_arpack(self, monkeypatch):
        # bench showcase boxes (3, 4) at h = 0.1: the symmetry probe and the
        # residuals run on H, so the factor's solve is applied only by ARPACK
        # (41 solves per box, on -H^{-1} for L = 3 and on (H - sigma I)^{-1}
        # for L = 4; 52 when the probe and the residuals ran on the solve),
        # and each residual is |H x - lambda x| / |x| exactly, lambda the
        # Rayleigh quotient of x for L = 4
        solve = operators.lanczos_extremal
        solves, matvecs = [], []

        def counting(matvec, dim, k, factor=None, **kwargs):
            solves.append(0)
            matvecs.append(0)

            def hook(shift):
                inner, count = factor(shift)

                def counted(x):
                    solves[-1] += 1
                    return inner(x)

                return counted, count

            def counted_matvec(x):
                matvecs[-1] += 1
                return matvec(x)

            return solve(counted_matvec, dim, k, factor=hook, **kwargs)

        monkeypatch.setattr(operators, "lanczos_extremal", counting)
        runs = record(monkeypatch, linalg, "_arpack_smallest")
        sweeps = record(monkeypatch, linalg, "_certify")
        results = record(monkeypatch, linalg, "LanczosResult")
        V = parse_potential("x1^2*x2^2", 2)
        schedule, h, k = (3.0, 4.0), 0.1, 5
        rep = spectrum_study(V, schedule, h, k)
        assert not sweeps and len(runs) == len(schedule)
        assert solves == [41, 41]
        assert matvecs == [6 + k, 6 + k]
        assert [r.matvec_count for r in results] == [41 + 6 + k] * 2
        # the smallest box solves first; the run at sigma finds the k = 5
        # values below it, theta ascending and so lambda descending
        vectors = [runs[0][1], runs[1][1][:, ::-1]]
        for L, vectors, result in zip(schedule, vectors, results):
            H = hamiltonian(Grid(2, L, h), V)
            values = result.eigenvalues
            if L == 4.0:
                quotients = [x @ H.matvec(x) / (x @ x) for x in vectors.T]
                order = np.argsort(quotients, kind="stable")
                np.testing.assert_array_equal(values, np.take(quotients, order))
                vectors = vectors[:, order]
            exact = [np.linalg.norm(H.matvec(x) - value * x) / np.linalg.norm(x)
                     for value, x in zip(values, vectors.T)]
            np.testing.assert_array_equal(result.residuals, exact)
        np.testing.assert_array_equal(rep.residuals[1], results[1].residuals)

    def test_three_dimensions_solve_on_the_matvec(self, monkeypatch):
        # nu = 3 factors nothing, and its values and residuals are exactly
        # those of lanczos_extremal on H.matvec
        monkeypatch.setattr(operators, "_ldlt", no_factor)
        V = parse_potential("x1^2+x2^2+x3^2", 3)
        schedule, h, k = (1.0, 1.5), 0.25, 4
        rep = spectrum_study(V, schedule, h, k, seed=3)
        for L, values, residuals in zip(schedule, rep.eigenvalues, rep.residuals):
            grid = Grid(3, L, h)
            direct = lanczos_extremal(hamiltonian(grid, V).matvec, grid.size, k,
                                      max_iters=600, seed=3, tol=3e-11)
            assert values.size == k
            np.testing.assert_array_equal(values, direct.eigenvalues)
            np.testing.assert_array_equal(residuals, direct.residuals)

    def test_factor_point_cap(self, monkeypatch):
        # a count level on a box above the cap is refused before any solve
        V3 = parse_potential("x1^2+x2^2+x3^2", 3)
        with pytest.raises(ValueError, match="cap of 32768 points at nu = 3"):
            spectrum_study(V3, (1.0, 2.0), 0.1, 3, count_levels=(5.0,))
        # a solve above the cap runs on H.matvec instead of refusing
        V = parse_potential("x1^2", 1)
        monkeypatch.setitem(operators.FACTOR_POINT_CAP, 1, 50)
        with pytest.raises(ValueError, match="cap of 50 points"):
            spectrum_study(V, (4.0, 6.0), 0.1, 3, count_levels=(5.0,))
        monkeypatch.setattr(operators, "_ldlt", no_factor)
        rep = spectrum_study(V, (4.0, 6.0), 0.1, 3)
        np.testing.assert_allclose(rep.eigenvalues[-1], [1, 3, 5], rtol=1e-2)

    def test_count_level_on_an_eigenvalue_raises(self):
        # the L = 1, h = 1 box is two points with eigenvalues 1 and 3 exactly
        with pytest.raises(ValueError, match="L=1: no inertia count at level 1"):
            spectrum_study(parse_potential("0", 1), (1.0, 2.0), 1.0, 1, count_levels=(1.0,))

    def test_inertia_count_refuses_a_row_pivoted_factor(self):
        # a zero diagonal forces SuperLU to pivot off the diagonal
        H = SparseOperator(2, sparse.csr_matrix([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="pivoted rows"):
            _inertia_count(H, 0.0)

    def test_channel_potential_does_not_stabilize(self):
        # x1^2 leaves the x2 direction free: transverse levels keep sliding
        # down as the box widens, so the drift test must fail.
        V = parse_potential("x1^2", 2)
        rep = spectrum_study(V, (4.0, 8.0), 0.25, 5)
        assert rep.verdict == "not-stabilized"
        assert np.max(rep.drift[-1]) > 0.01
        # every eigenvalue still sits above the oscillator ground level
        assert np.all(rep.eigenvalues[-1] > 0.9)

    def test_partial_data_propagates_with_notes(self):
        # one restart for 30 pairs of the strip: the cap stops both boxes
        # short of k (20 and 22 kept values)
        V = parse_potential("x1^2", 2)
        k = 30
        rep = spectrum_study(V, (8.0, 12.0), 0.25, k, max_iters=1)
        assert rep.verdict == "not-stabilized"
        assert rep.notes
        assert all(vals.size < k for vals in rep.eigenvalues)

    def test_values_past_the_residual_tolerance_are_dropped_with_a_note(self, monkeypatch):
        # the L = 6 box's 3rd residual raised past RESIDUAL_TOLERANCE: its
        # values stop before it, and a note says how many stayed
        solve = operators.lanczos_extremal

        def loose_third(matvec, dim, k, **kwargs):
            result = solve(matvec, dim, k, **kwargs)
            if dim == 120:
                result.residuals[2] = 1.0
            return result

        monkeypatch.setattr(operators, "lanczos_extremal", loose_third)
        rep = spectrum_study(parse_potential("x1^2", 1), (4.0, 6.0), 0.1, 3)
        assert [values.size for values in rep.eigenvalues] == [3, 2]
        assert rep.notes == ("L=6: kept 2 of 3 eigenvalues (residual tolerance 1e-06)",)
        assert rep.verdict == "not-stabilized"

    def test_requires_two_increasing_boxes(self):
        V = parse_potential("x1^2", 1)
        with pytest.raises(ValueError, match="two box sizes"):
            spectrum_study(V, (8.0,), 0.05, 3)
        with pytest.raises(ValueError, match="increasing"):
            spectrum_study(V, (8.0, 8.0), 0.05, 3)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_boxes(self, bad):
        with pytest.raises(ValueError, match="finite"):
            check_schedule([1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            spectrum_study(parse_potential("x1^2", 1), (8.0, bad), 0.05, 3)
