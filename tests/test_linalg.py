"""Tests for the dense linear algebra core and the Lanczos solver.

Independent oracle routes used here:
  - scipy.linalg.expm (Pade scaling-and-squaring) cross-checks expm_sym,
    which goes through the eigendecomposition instead;
  - Gram-matrix eigenvalues cross-check singular_values (SVD route), and
    the SVD cross-checks symmetric_singular_values (eigvalsh route);
  - products of singular values cross-check compound-matrix norms;
  - the analytic discrete sine-mode eigenvalues check Lanczos on the 1-d
    second-difference matrix.
"""

import numpy as np
import pytest
import scipy.linalg

from spectralab import linalg
from spectralab.linalg import (
    as_symmetric,
    compound_matrix,
    expm_sym,
    lanczos_extremal,
    singular_values,
    spectral_norm,
    symmetric_singular_values,
)


def random_symmetric(rng, d):
    G = rng.standard_normal((d, d))
    return (G + G.T) / 2.0


def random_psd(rng, d):
    G = rng.standard_normal((d, d))
    return G @ G.T


# ---------------------------------------------------------------- symmetry


def test_as_symmetric_symmetrizes_exactly():
    A = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
    S = as_symmetric(A)
    assert np.array_equal(S, S.T)


def test_as_symmetric_rejects_asymmetry():
    with pytest.raises(ValueError, match="not symmetric"):
        as_symmetric(np.array([[1.0, 2.0], [2.5, 3.0]]))


def test_as_symmetric_judges_each_matrix_of_a_stack_against_its_own_scale():
    big = np.diag([1e6, 2e6])
    skew = np.array([[1.0, 2.0], [2.0 + 1e-9, 3.0]])  # 5e-10 of its own max
    with pytest.raises(ValueError, match="not symmetric"):
        as_symmetric(np.stack([big, skew]))
    near = np.array([[1.0, 2.0], [2.0 + 1e-13, 3.0]])
    S = as_symmetric(np.stack([big, near]))
    assert np.array_equal(S[0], as_symmetric(big))
    assert np.array_equal(S[1], as_symmetric(near))


def test_as_symmetric_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ValueError, match="non-finite"):
        as_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        as_symmetric(np.ones((2, 3)))


# ---------------------------------------------------------- singular values


def test_singular_values_examples():
    assert np.allclose(singular_values(np.diag([2.0, -5.0])), [5.0, 2.0], atol=1e-14)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(5)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(7)
    v /= np.linalg.norm(v)
    mu = singular_values(np.outer(u, v))
    assert abs(mu[0] - 1.0) <= 1e-12
    assert np.all(mu[1:] <= 1e-12)


def test_singular_values_match_gram_oracle():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 4))
    mu = singular_values(A)
    gram_eigs = np.linalg.eigvalsh(A.T @ A)[::-1]
    oracle = np.sqrt(np.clip(gram_eigs, 0.0, None))
    assert np.allclose(mu, oracle, rtol=1e-10, atol=1e-12)
    assert np.all(np.diff(mu) <= 0) and np.all(mu >= 0)


def test_symmetric_singular_values_match_the_svd():
    rng = np.random.default_rng(5)
    A = random_symmetric(rng, 9)
    mu = symmetric_singular_values(A)
    assert np.allclose(mu, np.linalg.svd(A, compute_uv=False), rtol=0.0,
                       atol=1e-14 * mu[0])
    assert np.all(np.diff(mu) <= 0) and np.all(mu >= 0)
    # only the lower triangle is read
    upper = np.triu(rng.standard_normal((9, 9)), 1)
    np.testing.assert_array_equal(symmetric_singular_values(np.tril(A) + upper), mu)
    assert symmetric_singular_values(np.zeros((0, 0))).size == 0
    with pytest.raises(ValueError, match="non-finite"):
        symmetric_singular_values(np.full((2, 2), np.nan))


def test_min_max_random_subspaces_upper_bound_mu_n():
    # Any n-1 constraint vectors give sup |A psi| over the complement,
    # which can only overshoot the n-th singular value.
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = int(rng.integers(3, 8))
        A = rng.standard_normal((d, d))
        mu = singular_values(A)
        n = int(rng.integers(2, d + 1))
        constraints = rng.standard_normal((d, n - 1))
        Q, _ = np.linalg.qr(constraints, mode="complete")
        complement = Q[:, n - 1 :]
        bound = spectral_norm(A @ complement)
        assert mu[n - 1] <= bound + 1e-12


# ---------------------------------------------------------------- expm_sym


def test_expm_sym_trivial_cases():
    assert np.allclose(expm_sym(np.zeros((2, 2)), -1.0), np.eye(2), atol=1e-14)
    E = expm_sym(np.diag([1.0, 2.0]), -1.0)
    assert np.allclose(E, np.diag([np.exp(-1.0), np.exp(-2.0)]), atol=1e-14)
    A = random_symmetric(np.random.default_rng(6), 5)
    assert np.allclose(expm_sym(A, 0.0), np.eye(5), rtol=0, atol=1e-12)


def test_expm_sym_semigroup_law():
    rng = np.random.default_rng(7)
    A = random_psd(rng, 5)
    s, t = 0.3, 0.9
    lhs = expm_sym(A, -(s + t))
    rhs = expm_sym(A, -s) @ expm_sym(A, -t)
    assert spectral_norm(lhs - rhs) <= 1e-10 * spectral_norm(lhs)


def test_expm_sym_matches_pade_oracle():
    rng = np.random.default_rng(8)
    for t in (-1.0, 0.3, 2.0):
        A = random_symmetric(rng, 6)
        ours = expm_sym(A, t)
        oracle = scipy.linalg.expm(t * A)
        assert spectral_norm(ours - oracle) <= 1e-10 * spectral_norm(oracle)


def test_expm_sym_overflow_reported():
    with pytest.raises(OverflowError, match="700"):
        expm_sym(np.diag([800.0, 1.0]), 1.0)
    with pytest.raises(OverflowError, match="700"):
        expm_sym(np.diag([-800.0, 1.0]), -1.0)
    # Large negative exponents underflow harmlessly instead.
    E = expm_sym(np.diag([800.0, 1.0]), -1.0)
    assert E[0, 0] == 0.0


# --------------------------------------------------------- compound matrix


def test_compound_matrix_examples():
    C = compound_matrix(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(C, np.diag([6.0, 3.0, 2.0]), atol=1e-12)
    assert abs(spectral_norm(C) - 6.0) <= 1e-12
    for n in (1, 2, 3, 4):
        I = compound_matrix(np.eye(4), n)
        assert np.allclose(I, np.eye(I.shape[0]), atol=1e-12)


def test_compound_matrix_order_one_is_a_copy():
    A = np.random.default_rng(9).standard_normal((3, 5))
    C = compound_matrix(A, 1)
    assert np.array_equal(C, A)
    assert C is not A


def test_compound_matrix_cauchy_binet():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((5, 4))
    B = rng.standard_normal((4, 6))
    for n in (2, 3):
        lhs = compound_matrix(A @ B, n)
        rhs = compound_matrix(A, n) @ compound_matrix(B, n)
        assert spectral_norm(lhs - rhs) <= 1e-9 * max(spectral_norm(rhs), 1e-300)


def test_compound_norm_is_product_of_singular_values():
    rng = np.random.default_rng(12)
    for trial in range(20):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, min(3, d) + 1))
        A = rng.standard_normal((d, d))
        mu = singular_values(A)
        expected = float(np.prod(mu[:n]))
        got = spectral_norm(compound_matrix(A, n))
        assert abs(got - expected) <= 1e-9 * max(expected, 1e-300)


def test_compound_matrix_guards():
    with pytest.raises(ValueError, match="dimension overflow"):
        compound_matrix(np.eye(25), 12)
    with pytest.raises(ValueError, match="order"):
        compound_matrix(np.ones((3, 3)), 4)
    with pytest.raises(ValueError, match="order"):
        compound_matrix(np.ones((3, 3)), 0)


# ----------------------------------------------------------------- lanczos


def test_lanczos_diagonal_map():
    diag = np.arange(1.0, 101.0)
    res = lanczos_extremal(lambda v: diag * v, dim=100, k=3, seed=1)
    assert res.converged
    assert np.allclose(res.eigenvalues, [1.0, 2.0, 3.0], rtol=0, atol=1e-8)
    assert np.all(res.residuals <= 1e-8)


def test_lanczos_identity_reports_repeated_eigenvalue():
    res = lanczos_extremal(lambda v: v.copy(), dim=37, k=2, seed=2)
    assert res.converged
    assert np.allclose(res.eigenvalues, [1.0, 1.0], rtol=0, atol=1e-12)
    assert np.all(res.residuals <= 1e-10)


def test_lanczos_degenerate_diagonal():
    diag = np.array([5.0, 1.0, 2.0, 1.0, 4.0, 3.0, 6.0, 8.0])
    res = lanczos_extremal(lambda v: diag * v, dim=8, k=3, seed=3)
    assert res.converged
    assert np.allclose(res.eigenvalues, [1.0, 1.0, 2.0], rtol=0, atol=1e-10)
    full = lanczos_extremal(lambda v: diag * v, dim=8, k=8, seed=3)
    assert full.converged
    assert np.allclose(full.eigenvalues, np.sort(diag), rtol=0, atol=1e-12)


def test_lanczos_dirichlet_laplacian_smallest_mode():
    h = 1.0 / 1000.0
    dim = 999

    def laplacian(v):
        w = 2.0 * v.copy()
        w[:-1] -= v[1:]
        w[1:] -= v[:-1]
        return w / h**2

    res = lanczos_extremal(laplacian, dim=dim, k=1, max_iters=dim, seed=4)
    assert res.converged
    analytic = 4.0 * np.sin(np.pi * h / 2.0) ** 2 / h**2
    assert abs(res.eigenvalues[0] - analytic) <= 1e-8 * analytic
    assert abs(res.eigenvalues[0] - np.pi**2) <= 1e-3 * np.pi**2


def test_lanczos_symmetry_check_rejects_nonsymmetric_map():
    with pytest.raises(ValueError, match="symmetry"):
        lanczos_extremal(lambda v: np.roll(v, 1), dim=50, k=1, seed=5)
    with pytest.raises(ValueError, match="non-finite"):
        lanczos_extremal(lambda v: v * np.nan, dim=50, k=1, seed=5)


def test_lanczos_partial_results_on_tiny_budget():
    h = 1.0 / 400.0

    def laplacian(v):
        w = 2.0 * v.copy()
        w[:-1] -= v[1:]
        w[1:] -= v[:-1]
        return w / h**2

    res = lanczos_extremal(laplacian, dim=399, k=5, max_iters=8, seed=6)
    assert not res.converged
    assert res.note != ""
    assert res.eigenvalues.size <= 5
    # whatever is kept is the lowest part of the spectrum, index by index
    exact = (2.0 - 2.0 * np.cos(np.pi * np.arange(1, 6) / 400.0)) / h**2
    m = res.eigenvalues.size
    assert np.allclose(res.eigenvalues, exact[:m], rtol=1e-9, atol=0)


def test_lanczos_partial_pairs_missing_a_lower_value(monkeypatch):
    # ARPACK stopped at its cap with the 2nd and 3rd pairs converged but
    # not the lowest: the certificate must restore index order.
    diag = np.arange(1.0, 41.0)
    arpack = linalg._arpack_smallest
    calls = []

    def capped_first_run(apply, dim, k, v0, rng, max_iters, tol):
        calls.append(k)
        if len(calls) > 1:
            return arpack(apply, dim, k, v0, rng, max_iters, tol)
        return np.array([2.0, 3.0]), np.eye(dim)[:, 1:3], False

    monkeypatch.setattr(linalg, "_arpack_smallest", capped_first_run)
    res = lanczos_extremal(lambda v: diag * v, dim=40, k=5, seed=0)
    assert not res.converged
    assert res.note == "inner iteration cap reached"
    assert np.allclose(res.eigenvalues, [1.0, 2.0], rtol=0, atol=1e-10)
    assert np.all(res.residuals <= 1e-8)


def test_certify_stops_without_a_certifying_sweep(monkeypatch):
    # _certify's exits other than a sweep that finds nothing lower: the
    # whole space already found, a sweep budget spent on missed values, and
    # an inner run stopped at its restart cap
    diag = np.arange(1.0, 11.0)
    identity = np.eye(10)
    rng = np.random.default_rng(0)

    def certify(values, vectors, k, sweeps):
        return linalg._certify(lambda x: diag * x, np.array(values), vectors, k, rng,
                               100, 1e-12, sweeps)

    values, _, certified, note = certify(diag, identity, 10, 3)
    assert certified and note == "" and values.tolist() == diag.tolist()
    # the one sweep finds the missed 1.0 below 2.0, and none is left to certify
    values, _, certified, note = certify([2.0], identity[:, [1]], 1, 1)
    assert not certified and note == "restart budget exhausted before certification"
    np.testing.assert_allclose(values, [1.0, 2.0], rtol=0, atol=1e-10)
    monkeypatch.setattr(linalg, "_arpack_smallest",
                        lambda *args: (np.array([1.0]), identity[:, [0]], False))
    values, _, certified, note = certify([2.0], identity[:, [1]], 1, 3)
    assert not certified and note == "inner iteration cap reached"
    assert values.tolist() == [2.0]


def test_lanczos_guards():
    with pytest.raises(ValueError, match="k must be"):
        lanczos_extremal(lambda v: v, dim=100, k=31)
    with pytest.raises(ValueError, match="exceeds the dimension"):
        lanczos_extremal(lambda v: v, dim=5, k=6)


# ------------------------------------------------- shift-invert at a level


def diagonal_factor(diag, shifts):
    """lanczos_extremal's factor hook for diag(diag): the exact solve of
    diag - shift and the call that counts below shift; each shift is
    appended to shifts, and a shift on a diagonal entry is singular."""
    def factor(shift):
        shifts.append(shift)
        if np.any(diag == shift):
            raise ValueError("exactly singular")
        count = int(np.count_nonzero(diag < shift))
        return (lambda x: x / (diag - shift)), (lambda: count)
    return factor


def test_level_solves_and_counts_with_one_factor():
    # sigma = 5.5 over diag(1..100): one factor, c = 5 pairs below it, the
    # k = 3 lowest kept, no count at a second level and no sweep
    diag = np.arange(1.0, 101.0)
    shifts = []
    res = lanczos_extremal(lambda v: diag * v, dim=100, k=3, seed=1,
                           factor=diagonal_factor(diag, shifts), sigma=5.5)
    assert shifts == [5.5]
    assert res.converged and res.note == ""
    np.testing.assert_allclose(res.eigenvalues, [1.0, 2.0, 3.0], rtol=1e-14, atol=0)
    assert np.all(res.residuals <= 1e-12)


def test_level_gives_the_vectors_below_it_and_no_eigenvalues():
    # diag(1..100) below sigma = 5.5: the five unit vectors e_0..e_4 (up to
    # sign), one column each, in ascending order of their eigenvalues
    diag = np.arange(1.0, 101.0)
    vectors = linalg._below_level(diagonal_factor(diag, []), 5.5, 100, 3, lambda f: f,
                                  seed=1, max_iters=600, tol=1e-12)
    assert isinstance(vectors, np.ndarray) and vectors.shape == (100, 5)
    np.testing.assert_allclose(np.abs(vectors), np.eye(100)[:, :5], rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim, sigma, why", [
    (100, 2.5, "fewer than k values below sigma"),
    (100, 40.5, "more than MAX_EIGENPAIRS values below sigma"),
    (100, 3.0, "sigma is an eigenvalue: the factor is singular"),
    (20, 25.0, "every value lies below sigma"),
])
def test_level_that_cannot_certify_runs_the_two_factor_path(dim, sigma, why):
    # each case makes the factor at sigma, applies nothing through it, then
    # runs exactly the path without sigma: a solve factor at 0 and a count
    # factor
    diag = np.arange(1.0, dim + 1.0)
    shifts, plain_shifts = [], []
    res = lanczos_extremal(lambda v: diag * v, dim=dim, k=3, seed=1,
                           factor=diagonal_factor(diag, shifts), sigma=sigma)
    plain = lanczos_extremal(lambda v: diag * v, dim=dim, k=3, seed=1,
                             factor=diagonal_factor(diag, plain_shifts))
    assert shifts == [sigma] + plain_shifts and len(plain_shifts) == 2, why
    np.testing.assert_array_equal(res.eigenvalues, plain.eigenvalues)
    np.testing.assert_array_equal(res.residuals, plain.residuals)
    assert res.converged and res.matvec_count == plain.matvec_count


def test_level_with_an_undecided_count_or_an_incomplete_run(monkeypatch):
    diag = np.arange(1.0, 101.0)
    plain = lanczos_extremal(lambda v: diag * v, dim=100, k=3, seed=1,
                             factor=diagonal_factor(diag, []))
    # the factor at sigma cannot count (a row-pivoted factor)
    undecided = []

    def no_count(shift):
        solve, count = diagonal_factor(diag, undecided)(shift)
        return solve, (lambda: None) if shift == 5.5 else count

    res = lanczos_extremal(lambda v: diag * v, dim=100, k=3, seed=1, factor=no_count,
                           sigma=5.5)
    assert undecided[0] == 5.5 and len(undecided) == 3
    np.testing.assert_array_equal(res.eigenvalues, plain.eigenvalues)
    # ARPACK stops short on the run at sigma
    arpack = linalg._arpack_smallest
    runs = []

    def capped_first_run(apply, dim, k, v0, rng, max_iters, tol):
        runs.append(k)
        values, vectors, _ = arpack(apply, dim, k, v0, rng, max_iters, tol)
        return values, vectors, len(runs) > 1

    monkeypatch.setattr(linalg, "_arpack_smallest", capped_first_run)
    res = lanczos_extremal(lambda v: diag * v, dim=100, k=3, seed=1,
                           factor=diagonal_factor(diag, []), sigma=5.5)
    assert runs == [5, 3]
    np.testing.assert_array_equal(res.eigenvalues, plain.eigenvalues)
    np.testing.assert_array_equal(res.residuals, plain.residuals)


def test_level_is_ignored_without_a_factor():
    diag = np.arange(1.0, 101.0)
    plain = lanczos_extremal(lambda v: diag * v, dim=100, k=3, seed=1)
    res = lanczos_extremal(lambda v: diag * v, dim=100, k=3, seed=1, sigma=5.5)
    np.testing.assert_array_equal(res.eigenvalues, plain.eigenvalues)
    assert res.matvec_count == plain.matvec_count
