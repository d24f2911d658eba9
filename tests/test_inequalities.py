"""Tests for the semigroup norm/trace inequality checks.

Frozen oracle values: the strict trace-inequality example below was computed
with scipy.linalg.expm (Pade route) ahead of time:
    A = [[1,0],[0,0]], B = [[0.5,0.5],[0.5,0.5]]
    trace(expm(-(A+B)))          = 0.9274916407295174
    trace(expm(-A) @ expm(-B))   = 0.9355470827897487
The eigendecomposition route agrees with both to 2e-16.

The nonsymmetric eigenvalue solver cross-checks product_spectrum_match,
which only ever forms symmetric matrices.
"""

from dataclasses import replace

import numpy as np
import pytest

from spectralab.inequalities import (
    _Pair,
    _spectrum_match,
    batch_summary,
    compactness_proxy,
    golden_thompson,
    half_product_bound,
    inequality_batch,
    product_spectrum_match,
    segal,
    trotter_sequence,
    wedge_norm_identity,
    wedge_segal_chain,
)
from spectralab.linalg import spectral_norm
from spectralab.rng import derived_rng

GT_STRICT_LHS = 0.9274916407295174
GT_STRICT_RHS = 0.9355470827897487


def random_psd_pair(seed, d):
    rng = derived_rng(seed, "psd-pair")
    G = rng.standard_normal((d, d))
    H = rng.standard_normal((d, d))
    return G @ G.T, H @ H.T


# ------------------------------------------------------------------- segal


def test_segal_zero_pair_is_tight():
    for form in ("plain", "symmetric"):
        rep = segal(np.zeros((2, 2)), np.zeros((2, 2)), form)
        assert rep.passed
        assert abs(rep.lhs - 1.0) <= 1e-12
        assert abs(rep.rhs - 1.0) <= 1e-12


def test_segal_commuting_diagonals_are_equal():
    A = np.diag([1.0, 2.0])
    B = np.diag([3.0, 1.0])
    for form in ("plain", "symmetric"):
        rep = segal(A, B, form)
        assert rep.passed
        assert abs(rep.lhs - np.exp(-3.0)) <= 1e-14
        assert abs(rep.margin) <= 1e-12


def test_segal_random_pair_margins():
    A, B = random_psd_pair(21, 4)
    for form in ("plain", "symmetric"):
        rep = segal(A, B, form)
        assert rep.passed
        assert rep.margin >= -1e-10 * max(rep.lhs, rep.rhs)
        assert rep.inputs["dimension"] == 4
        assert rep.name == f"segal-{form}"


def test_pair_stack_judges_positivity_per_matrix():
    # -1e-5 is far below 1e-10 of its own matrix's scale, though far above
    # 1e-10 of the stack's largest eigenvalue
    A = np.stack([np.diag([1e6, 2e6]), np.diag([1.0, -1e-5])])
    with pytest.raises(ValueError, match=r"A is not positive semidefinite \(smallest eigenvalue -1.000e-05\)"):
        _Pair(A, np.stack([np.eye(2)] * 2))


def test_segal_guards():
    with pytest.raises(ValueError, match="positive semidefinite"):
        segal(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(ValueError, match="form"):
        segal(np.eye(2), np.eye(2), "twisted")
    with pytest.raises(ValueError, match="shape mismatch"):
        segal(np.eye(2), np.eye(3))


# --------------------------------------------------------- golden thompson


def test_golden_thompson_zero_pair():
    rep = golden_thompson(np.zeros((3, 3)), np.zeros((3, 3)))
    assert rep.passed
    assert abs(rep.lhs - 3.0) <= 1e-12
    assert abs(rep.rhs - 3.0) <= 1e-12


def test_golden_thompson_commuting_equality():
    rep = golden_thompson(np.diag([0.5, 2.0, 1.0]), np.diag([1.0, 0.2, 0.7]))
    assert rep.passed
    assert abs(rep.margin) <= 1e-12


def test_golden_thompson_strict_gap_matches_frozen_oracle():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    B = np.array([[0.5, 0.5], [0.5, 0.5]])
    rep = golden_thompson(A, B)
    assert rep.passed
    assert abs(rep.lhs - GT_STRICT_LHS) <= 1e-12
    assert abs(rep.rhs - GT_STRICT_RHS) <= 1e-12
    assert rep.margin > 8e-3


def test_golden_thompson_allows_indefinite_inputs():
    rep = golden_thompson(np.diag([1.0, -0.5]), np.diag([-0.3, 0.4]))
    assert rep.passed


# -------------------------------------------------------- half-product form


def test_half_product_bound_commuting_equality():
    rep = half_product_bound(np.diag([1.0, 2.0]), np.diag([0.5, 0.1]))
    assert rep.passed
    assert abs(rep.margin) <= 1e-12


def test_half_product_bound_random_pair():
    A, B = random_psd_pair(22, 5)
    rep = half_product_bound(A, B)
    assert rep.passed
    assert rep.name == "half-product-square"


# --------------------------------------------------- product spectrum match


def test_product_spectrum_rank_one():
    rng = derived_rng(23, "rank-one")
    u = rng.standard_normal((5, 1))
    v = rng.standard_normal((1, 5))
    match = product_spectrum_match(u, v)
    assert match.passed
    expected = float((v @ u)[0, 0])
    assert np.allclose(match.cd_spectrum, [expected], atol=1e-14)
    assert np.allclose(match.dc_spectrum, [expected], atol=1e-14)
    assert match.max_gap == 0.0
    # a 1 x 1 pair that is not positive semidefinite is a column and a row
    match = product_spectrum_match(np.array([[-2.0]]), np.array([[3.0]]))
    assert match.cd_spectrum.tolist() == [-6.0] and match.max_gap == 0.0


def test_product_spectrum_identity_factors():
    match = product_spectrum_match(np.eye(3), np.eye(3))
    assert match.passed
    assert np.allclose(match.cd_spectrum, np.ones(3), atol=1e-12)
    assert np.allclose(match.dc_spectrum, np.ones(3), atol=1e-12)


def test_product_spectrum_random_psd_pair():
    C, D = random_psd_pair(24, 5)
    match = product_spectrum_match(C, D)
    assert match.passed
    assert match.max_gap <= 1e-8 * match.scale
    assert match.cd_spectrum.size == match.dc_spectrum.size == 5


def test_product_spectrum_rank_deficient_factor():
    rng = derived_rng(25, "deficient")
    v = rng.standard_normal(4)
    C = np.outer(v, v)
    D, _ = random_psd_pair(26, 4)
    match = product_spectrum_match(C, D)
    assert match.passed
    assert match.cd_spectrum.size == 1
    assert match.dc_spectrum.size == 1


def test_product_spectrum_rank_read_differently_across_orders():
    # 3e-12 clears the cutoff 1e-12 * 2 on one side, 1e-13 does not on the
    # other: each side keeps its own nonzero values, and the gap compares
    # them padded with zeros (3e-12, above the entrywise 2.9e-12)
    match = _spectrum_match(np.array([1e-13, 1.0, 2.0]), np.array([3e-12, 1.0, 2.0]), 1e-8)
    assert match.cd_spectrum.tolist() == [1.0, 2.0]
    assert match.dc_spectrum.tolist() == [3e-12, 1.0, 2.0]
    assert match.max_gap == 3e-12 and match.passed


def test_product_spectrum_diagonal_example():
    match = product_spectrum_match(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.allclose(match.cd_spectrum, [3.0, 8.0], atol=1e-12)
    assert np.allclose(match.dc_spectrum, [3.0, 8.0], atol=1e-12)


def test_product_spectrum_matches_nonsymmetric_oracle():
    rng = np.random.default_rng(16)
    G, H = rng.standard_normal((6, 6)), rng.standard_normal((6, 6))
    C, D = G @ G.T, H @ H.T
    match = product_spectrum_match(C, D)
    for got, product in ((match.cd_spectrum, C @ D), (match.dc_spectrum, D @ C)):
        oracle = np.sort(np.linalg.eigvals(product).real)
        scale = max(abs(oracle[-1]), 1.0)
        assert np.allclose(got, oracle, rtol=0, atol=1e-8 * scale)


def test_product_spectrum_both_orders_agree():
    rng = np.random.default_rng(17)
    for trial in range(20):
        d = int(rng.integers(2, 9))
        G, H = rng.standard_normal((d, d)), rng.standard_normal((d, d))
        C, D = G @ G.T, H @ H.T
        match = product_spectrum_match(C, D)
        cd, dc = match.cd_spectrum, match.dc_spectrum
        scale = max(cd[-1], 1.0)
        assert cd.size == dc.size == d
        assert np.max(np.abs(cd - dc)) <= 1e-8 * scale
        assert np.all(cd >= -1e-9 * scale)
        # Spectral radius of CD never exceeds the operator norm of DC.
        assert cd[-1] <= spectral_norm(D @ C) * (1 + 1e-10)


def test_product_spectrum_rejects_indefinite():
    with pytest.raises(ValueError, match="first factor is not positive semidefinite"):
        product_spectrum_match(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(ValueError, match="second factor is not positive semidefinite"):
        product_spectrum_match(np.eye(2), np.diag([1.0, -1.0]))


def test_product_spectrum_restrictions():
    with pytest.raises(ValueError, match="supported factor shapes"):
        product_spectrum_match(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(ValueError, match="larger than 12"):
        product_spectrum_match(np.eye(13), np.eye(13))
    with pytest.raises(ValueError, match="positive semidefinite"):
        product_spectrum_match(np.diag([1.0, -2.0]), np.eye(2))


# ----------------------------------------------------------------- trotter


def test_trotter_zero_pair_all_ones():
    seq = trotter_sequence(np.zeros((2, 2)), np.zeros((2, 2)), 6)
    assert np.allclose(seq.values, 1.0, atol=1e-12)
    assert abs(seq.limit_reference - 1.0) <= 1e-12
    assert abs(seq.cap_reference - 1.0) <= 1e-12


def test_trotter_commuting_pair_is_constant():
    seq = trotter_sequence(np.diag([1.0, 0.3]), np.diag([0.2, 2.0]), 8)
    assert np.allclose(seq.values, seq.limit_reference, rtol=1e-12)


def test_trotter_random_pair_converges():
    A, B = random_psd_pair(27, 4)
    seq = trotter_sequence(A, B, 12)
    assert seq.indices.size == 13
    # Every chain value sits below the cap and the chain is nonincreasing
    # within roundoff.
    assert np.all(seq.values <= seq.cap_reference + 1e-10)
    assert np.all(np.diff(seq.values) <= 1e-10 * seq.cap_reference)
    assert abs(seq.values[-1] - seq.limit_reference) <= 1e-6
    assert abs(seq.values[0] - seq.cap_reference) <= 1e-15


def test_trotter_guards():
    with pytest.raises(ValueError, match="n_max"):
        trotter_sequence(np.eye(2), np.eye(2), 15)
    with pytest.raises(ValueError, match="positive semidefinite"):
        trotter_sequence(np.diag([-1.0, 0.0]), np.eye(2), 4)


# ---------------------------------------------------------- wedge identities


def test_wedge_norm_identity_examples():
    rep = wedge_norm_identity(np.diag([3.0, 2.0, 1.0]), 2)
    assert rep.passed and rep.equality
    assert abs(rep.lhs - 6.0) <= 1e-12
    assert abs(rep.rhs - 6.0) <= 1e-12
    rep = wedge_norm_identity(np.eye(5), 3)
    assert rep.passed
    assert abs(rep.lhs - 1.0) <= 1e-12


def test_wedge_norm_identity_random():
    rng = derived_rng(28, "wedge")
    for trial in range(10):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, min(3, d) + 1))
        A = rng.standard_normal((d, d))
        rep = wedge_norm_identity(A, n)
        assert rep.passed, (rep.lhs, rep.rhs)


def test_wedge_segal_chain_reduces_to_segal_at_order_one():
    A, B = random_psd_pair(29, 5)
    chain = wedge_segal_chain(A, B, 1)
    plain = segal(A, B, "plain")
    assert chain.inequality.lhs == plain.lhs
    assert chain.inequality.rhs == plain.rhs
    assert chain.inequality.margin == plain.margin
    assert chain.inequality.passed == plain.passed
    assert chain.multiplicativity.passed


def test_wedge_segal_chain_commuting_equalities():
    chain = wedge_segal_chain(np.diag([1.0, 2.0, 0.5]), np.diag([0.3, 0.1, 1.5]), 2)
    assert abs(chain.inequality.margin) <= 1e-12
    assert abs(chain.multiplicativity.margin) <= 1e-12
    assert chain.inequality.passed and chain.multiplicativity.passed


def test_wedge_segal_chain_random_pair():
    A, B = random_psd_pair(30, 5)
    for n in (2, 3):
        chain = wedge_segal_chain(A, B, n)
        scale = max(abs(chain.inequality.lhs), abs(chain.inequality.rhs))
        assert chain.inequality.margin >= -1e-9 * scale
        assert chain.inequality.passed
        assert chain.multiplicativity.passed


def test_wedge_segal_chain_dimension_guard():
    A = np.eye(14)
    with pytest.raises(ValueError, match="dimension overflow"):
        wedge_segal_chain(A, A, 7)


# --------------------------------------------------------- compactness proxy


def test_compactness_proxy_geometric_sequence():
    mu = 2.0 ** -np.arange(1.0, 13.0)
    g = compactness_proxy(mu, 12)
    expected = 2.0 ** (-(np.arange(1, 13) + 1) / 2.0)
    assert np.allclose(g, expected, rtol=1e-12, atol=0)
    assert np.all(np.diff(g) <= 0)


def test_compactness_proxy_flat_sequence():
    g = compactness_proxy(np.ones(8), 8)
    assert np.array_equal(g, np.ones(8))


def test_compactness_proxy_accepts_operator():
    rng = derived_rng(31, "proxy")
    A = rng.standard_normal((6, 6))
    from spectralab.linalg import singular_values

    direct = compactness_proxy(singular_values(A), 4)
    via_matrix = compactness_proxy(A, 4)
    assert np.array_equal(direct, via_matrix)
    assert np.all(np.diff(via_matrix) <= 1e-15)


def test_compactness_proxy_handles_zero_tail():
    g = compactness_proxy(np.array([1.0, 0.5, 0.0, 0.0]), 4)
    assert g[2] == 0.0 and g[3] == 0.0


def test_compactness_proxy_guards():
    with pytest.raises(ValueError, match="sorted"):
        compactness_proxy(np.array([1.0, 2.0]), 2)
    with pytest.raises(ValueError, match="nonnegative"):
        compactness_proxy(np.array([1.0, -0.1]), 2)
    with pytest.raises(ValueError, match="n_max"):
        compactness_proxy(np.array([1.0, 0.5]), 3)


# ------------------------------------------------------------- batch driver


def test_inequality_batch_all_pass():
    reports = inequality_batch(trials=40, dims=(2, 3, 4, 5, 6, 7, 8), master_seed=11)
    assert len(reports) == 200
    assert all(rep.passed for rep in reports)
    names = {rep.name for rep in reports}
    assert names == {
        "segal-plain",
        "segal-symmetric",
        "golden-thompson",
        "half-product-square",
        "product-spectrum-agreement",
    }
    for rep in reports:
        scale = max(abs(rep.lhs), abs(rep.rhs))
        if rep.equality:
            assert rep.passed == (abs(rep.margin) <= rep.tol_rel * scale)
        else:
            assert rep.passed == (rep.margin >= -rep.tol_rel * scale)
        assert rep.inputs["seed"] == 11
        assert "trial" in rep.inputs


def test_inequality_batch_is_deterministic():
    a = inequality_batch(trials=6, dims=(3, 5), master_seed=4)
    b = inequality_batch(trials=6, dims=(3, 5), master_seed=4)
    assert a == b


def test_inequality_batch_decomposes_each_matrix_once(monkeypatch):
    # A, B and A + B of every trial are decomposed once each, in one stacked
    # eigh per dimension; every exponential and both product spectra are read
    # from those decompositions.
    matrices = []
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(M):
        calls.append(M.shape)
        matrices.append(M.size // M.shape[-1] ** 2)
        return eigh(M)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    reports = inequality_batch(trials=17, dims=(2, 3, 4, 5, 6, 7, 8), master_seed=3)
    assert len(reports) == 5 * 17
    assert sum(matrices) == 3 * 17
    assert len(calls) == 3 * 7


@pytest.mark.parametrize("master_seed", [0, 5])
def test_inequality_batch_rows_equal_the_single_pair_checks(master_seed):
    # Each trial's row, computed on stacks of its dimension, equals float for
    # float the public checks on the same drawn pair (G G^T, H H^T).
    dims = (1, 2, 3, 4, 5, 6, 7, 8)
    trials = 2 * len(dims) + 3
    reports = inequality_batch(trials=trials, dims=dims, master_seed=master_seed)
    assert len(reports) == 5 * trials
    for t in range(trials):
        d = dims[t % len(dims)]
        rng = derived_rng(master_seed, "inequality-batch", t)
        G = rng.standard_normal((d, d))
        H = rng.standard_normal((d, d))
        A, B = G @ G.T, H @ H.T
        singles = [
            segal(A, B, "plain", seed=master_seed),
            segal(A, B, "symmetric", seed=master_seed),
            golden_thompson(A, B, seed=master_seed),
            half_product_bound(A, B, seed=master_seed),
        ]
        row = reports[5 * t : 5 * t + 5]
        for got, single in zip(row, singles):
            assert got == replace(single, inputs={**single.inputs, "trial": t})
        agreement = row[4]
        assert agreement.name == "product-spectrum-agreement"
        assert agreement.inputs == {"seed": master_seed, "dimension": d, "trial": t}
        match = product_spectrum_match(A, B, tol=1e-10)
        assert agreement.lhs == match.max_gap / match.scale
        assert agreement.passed == match.passed


def test_batch_summary_rows():
    reports = inequality_batch(trials=10, dims=(4,), master_seed=9)
    rows = batch_summary(reports)
    assert [row["name"] for row in rows] == [
        "segal-plain",
        "segal-symmetric",
        "golden-thompson",
        "half-product-square",
        "product-spectrum-agreement",
    ]
    for row in rows:
        assert row["trials"] == 10
        assert row["pass_rate"] == 1.0
        assert row["min_margin"] >= -1e-10


def test_batch_guards():
    with pytest.raises(ValueError, match="trials"):
        inequality_batch(trials=0)
    with pytest.raises(ValueError, match="dims"):
        inequality_batch(trials=2, dims=())
