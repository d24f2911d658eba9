"""Finite-dimensional semigroup norm and trace inequalities.

Every check reports both sides of the comparison: the norm inequality for
exp(-(A+B)) against split products (plain and symmetrized forms), the trace
inequality, agreement of product spectra under reversal, the Trotter-chain
values with their cap and limit references, antisymmetric-power norm
identities, and the geometric-mean compactness proxy built from singular
values.

Every check on a pair (A, B) validates it and reads its exponentials and
product spectra through one _Pair: a stack of pairs of one dimension, with
one batched eigendecomposition each of the A, B and A + B stacks.  The
public checks run it on a stack of one; inequality_batch stacks every trial
of a dimension, so the five checks of all those trials share one
decomposition per stack.

Tolerance conventions: 1e-10 relative for algebraic identities at small
dimension, 1e-9 for anything routed through compound matrices (minor
determinants amplify roundoff).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    _as_matrix,
    _expm_from_eigh,
    as_symmetric,
    compound_matrix,
    singular_values,
    spectral_norm,
)
from .rng import derived_rng

__all__ = [
    "InequalityReport",
    "SpectrumMatchReport",
    "TrotterSequence",
    "WedgeChainReport",
    "segal",
    "golden_thompson",
    "half_product_bound",
    "product_spectrum_match",
    "trotter_sequence",
    "wedge_norm_identity",
    "wedge_segal_chain",
    "compactness_proxy",
    "inequality_batch",
    "batch_summary",
]

TOL_ALGEBRAIC = 1e-10
CHAIN_BASIS_LIMIT = 1_000


@dataclass(frozen=True)
class InequalityReport:
    """Two sides of a comparison with its margin and verdict.

    margin = rhs - lhs.  For plain reports passed means
    margin >= -tol_rel * max(|lhs|, |rhs|); for equality-form reports
    (equality=True) it means |margin| <= tol_rel * max(|lhs|, |rhs|).
    inputs carries the seed/dimension digest of the generating trial.
    """

    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    tol_rel: float
    inputs: dict
    equality: bool = False


def _report(name, lhs, rhs, tol_rel, seed=None, dimension=None, equality=False,
            extra=None) -> InequalityReport:
    lhs = float(lhs)
    rhs = float(rhs)
    margin = rhs - lhs
    scale = max(abs(lhs), abs(rhs))
    if equality:
        passed = abs(margin) <= tol_rel * scale
    else:
        passed = margin >= -tol_rel * scale
    inputs = {"seed": seed, "dimension": dimension}
    if extra:
        inputs.update(extra)
    return InequalityReport(name, lhs, rhs, margin, bool(passed), float(tol_rel),
                            inputs, equality)


def _norms(M: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix of a stack."""
    return np.linalg.svd(M, compute_uv=False)[:, 0]


class _Pair:
    """Validated symmetric pairs (A_i, B_i) of one dimension, stacked along a
    leading axis and decomposed once.

    A and B are (T, d, d) stacks.  Holds one batched np.linalg.eigh each of
    the A, B and A + B stacks, keyed "A", "B" and "A+B"; exp(t X) is formed
    for the whole stack from those eigenpairs and memoized per (X, t), and
    every product, norm, trace and spectrum below is taken over the stack.
    The matrices named in psd_labels (A's label first) must be positive
    semidefinite: each matrix's smallest eigenvalue may not fall below
    -1e-10 times its own max|lambda|.
    """

    def __init__(self, A, B, psd_labels=("A", "B")):
        A = as_symmetric(A)
        B = as_symmetric(B)
        if A.shape != B.shape:
            raise ValueError(f"shape mismatch: {A.shape[1:]} vs {B.shape[1:]}")
        self.dimension = A.shape[-1]
        self.matrix = {"A": A, "B": B, "A+B": A + B}
        self.eigh = {X: np.linalg.eigh(M) for X, M in self.matrix.items()}
        self._exp = {}
        for X, label in zip("AB", psd_labels):
            lam = self.eigh[X][0]
            low = lam[:, 0]
            norm = np.maximum(np.abs(low), np.abs(lam[:, -1]))
            bad = np.flatnonzero(low < -1e-10 * np.maximum(norm, 1e-300))
            if bad.size:
                raise ValueError(
                    f"{label} is not positive semidefinite "
                    f"(smallest eigenvalue {low[bad[0]]:.3e})"
                )

    def exp(self, X: str, t: float) -> np.ndarray:
        if (X, t) not in self._exp:
            self._exp[X, t] = _expm_from_eigh(*self.eigh[X], t)
        return self._exp[X, t]

    def split(self, t: float) -> np.ndarray:
        """The split products exp(t A) exp(t B)."""
        return self.exp("A", t) @ self.exp("B", t)

    def product_spectra(self) -> list:
        """Ascending eigenvalues of A B and of B A, each order X Y through the
        symmetric similarity X^{1/2} Y X^{1/2}; two (T, d) arrays."""
        spectra = []
        for X, Y in (("A", "B"), ("B", "A")):
            lam, Q = self.eigh[X]
            root = (Q * np.sqrt(np.clip(lam, 0.0, None))[:, None, :]) @ np.swapaxes(Q, 1, 2)
            sym = root @ self.matrix[Y] @ root
            spectra.append(np.linalg.eigvalsh((sym + np.swapaxes(sym, 1, 2)) / 2.0))
        return spectra


def _one(M) -> np.ndarray:
    """A single matrix (linalg._as_matrix) as a stack of one."""
    return _as_matrix(M)[None]


def _segal_sides(pair: _Pair, form: str) -> tuple:
    lhs = _norms(pair.exp("A+B", -1.0))
    if form == "plain":
        rhs = _norms(pair.split(-1.0))
    else:
        half = pair.exp("B", -0.5)
        rhs = _norms(half @ pair.exp("A", -1.0) @ half)
    return lhs, rhs


def segal(A, B, form: str = "plain", tol_rel: float = TOL_ALGEBRAIC,
          seed=None) -> InequalityReport:
    """Norm bound for the sum exponential against split products.

    lhs = |exp(-(A+B))|.  form="plain" compares against |exp(-A) exp(-B)|,
    form="symmetric" against |exp(-B/2) exp(-A) exp(-B/2)|.  Both require
    positive semidefinite inputs.
    """
    if form not in ("plain", "symmetric"):
        raise ValueError(f"form must be 'plain' or 'symmetric', got {form!r}")
    pair = _Pair(_one(A), _one(B))
    lhs, rhs = _segal_sides(pair, form)
    return _report(f"segal-{form}", lhs[0], rhs[0], tol_rel, seed=seed,
                   dimension=pair.dimension)


def _golden_thompson_sides(pair: _Pair) -> tuple:
    return (np.trace(pair.exp("A+B", -1.0), axis1=1, axis2=2),
            np.trace(pair.split(-1.0), axis1=1, axis2=2))


def golden_thompson(A, B, tol_rel: float = TOL_ALGEBRAIC, seed=None) -> InequalityReport:
    """Trace of exp(-(A+B)) against the trace of the split product.

    Holds for all symmetric inputs; positivity is not required.
    """
    pair = _Pair(_one(A), _one(B), psd_labels=())
    lhs, rhs = _golden_thompson_sides(pair)
    return _report("golden-thompson", lhs[0], rhs[0], tol_rel, seed=seed,
                   dimension=pair.dimension)


def _half_product_sides(pair: _Pair) -> tuple:
    # squared as Python floats, through pow(): numpy's array square (x * x)
    # may round differently
    lhs = [float(norm) ** 2 for norm in _norms(pair.split(-0.5))]
    return lhs, _norms(pair.split(-1.0))


def half_product_bound(A, B, tol_rel: float = TOL_ALGEBRAIC, seed=None) -> InequalityReport:
    """Squared half-step product norm against the full product norm.

    lhs = |exp(-A/2) exp(-B/2)|^2, rhs = |exp(-A) exp(-B)|.
    """
    pair = _Pair(_one(A), _one(B))
    lhs, rhs = _half_product_sides(pair)
    return _report("half-product-square", lhs[0], rhs[0], tol_rel, seed=seed,
                   dimension=pair.dimension)


@dataclass(frozen=True)
class SpectrumMatchReport:
    """Sorted nonzero spectra of both product orders and their deviation."""

    cd_spectrum: np.ndarray
    dc_spectrum: np.ndarray
    max_gap: float
    scale: float
    tol: float
    passed: bool


def _spectrum_match(cd: np.ndarray, dc: np.ndarray, tol: float) -> SpectrumMatchReport:
    scale = max(float(np.max(np.abs(cd))), float(np.max(np.abs(dc))), 1e-300)
    gap = float(np.max(np.abs(cd - dc)))
    cutoff = 1e-12 * scale
    nz_cd, nz_dc = cd[np.abs(cd) > cutoff], dc[np.abs(dc) > cutoff]
    if nz_cd.size != nz_dc.size:
        # Rank read differently across the orders: compare after padding
        # the shorter list with zeros at the small end.
        width = max(nz_cd.size, nz_dc.size)
        pad_cd = np.concatenate([np.zeros(width - nz_cd.size), nz_cd])
        pad_dc = np.concatenate([np.zeros(width - nz_dc.size), nz_dc])
        gap = max(gap, float(np.max(np.abs(pad_cd - pad_dc))))
    return SpectrumMatchReport(nz_cd, nz_dc, gap, scale, float(tol), bool(gap <= tol * scale))


def product_spectrum_match(C, D, tol: float = 1e-8) -> SpectrumMatchReport:
    """Agreement of the nonzero spectra of C @ D and D @ C.

    Two supported shapes: a column C (m x 1) against a row D (1 x m), where
    both products have the single nonzero eigenvalue D @ C; and a pair of
    same-sized positive semidefinite symmetric matrices, whose product
    spectra come from the symmetric similarity C^{1/2} D C^{1/2} (and
    D^{1/2} C D^{1/2}) built on one eigendecomposition of each factor.
    Two nonnegative 1 x 1 factors fit both and take the second route, as
    inequality_batch does at dimension 1.  Anything else is rejected.
    """
    C = np.asarray(C, dtype=float)
    D = np.asarray(D, dtype=float)
    if C.ndim != 2 or D.ndim != 2:
        raise ValueError("factors must be 2-d matrices")
    if max(*C.shape, *D.shape) > 12:
        raise ValueError("factors larger than 12 in any direction are not supported")
    psd_scalars = C.shape == D.shape == (1, 1) and C[0, 0] >= 0.0 and D[0, 0] >= 0.0
    if C.shape[1] == 1 and D.shape[0] == 1 and C.shape[0] == D.shape[1] and not psd_scalars:
        value = float((D @ C)[0, 0])
        return _spectrum_match(np.array([value]), np.array([value]), tol)
    if C.shape != D.shape or C.shape[0] != C.shape[1]:
        raise ValueError(
            "supported factor shapes are (m,1)x(1,m) or a same-shape symmetric "
            f"positive semidefinite pair; got {C.shape} x {D.shape}"
        )
    cd, dc = _Pair(C[None], D[None], ("first factor", "second factor")).product_spectra()
    return _spectrum_match(cd[0], dc[0], tol)


@dataclass(frozen=True)
class TrotterSequence:
    """Norms of the doubling product chain with cap and limit references.

    values[i] = |(exp(-A/2^n) exp(-B/2^n))^(2^n)| at n = indices[i];
    cap_reference = |exp(-A) exp(-B)| bounds every value from above and
    limit_reference = |exp(-(A+B))| is the n -> infinity limit.
    """

    indices: np.ndarray
    values: np.ndarray
    limit_reference: float
    cap_reference: float


def trotter_sequence(A, B, n_max: int = 12) -> TrotterSequence:
    """Doubling chain of split-product norms for a positive semidefinite pair."""
    if not 0 <= n_max <= 14:
        raise ValueError(f"n_max must be between 0 and 14, got {n_max}")
    pair = _Pair(_one(A), _one(B))
    values = np.empty(n_max + 1)
    for n in range(n_max + 1):
        M = pair.split(-(2.0 ** (-n)))
        for _ in range(n):
            M = M @ M
        values[n] = _norms(M)[0]
    limit = float(_norms(pair.exp("A+B", -1.0))[0])
    cap = float(_norms(pair.split(-1.0))[0])
    return TrotterSequence(np.arange(n_max + 1), values, limit, cap)


def wedge_norm_identity(A, n: int, tol_rel: float = 1e-9, seed=None) -> InequalityReport:
    """Equality of the compound-matrix norm with the singular-value product."""
    A = np.asarray(A, dtype=float)
    lhs = spectral_norm(compound_matrix(A, n))
    mu = singular_values(A)
    rhs = float(np.prod(mu[:n]))
    return _report("wedge-norm-identity", lhs, rhs, tol_rel, seed=seed,
                   dimension=A.shape[0], equality=True, extra={"order": n})


@dataclass(frozen=True)
class WedgeChainReport:
    """Inequality and multiplicativity halves of the compound-power chain."""

    order: int
    inequality: InequalityReport
    multiplicativity: InequalityReport


def wedge_segal_chain(A, B, n: int, tol_rel: float = 1e-9, seed=None) -> WedgeChainReport:
    """Compound-power norm chain for a positive semidefinite pair.

    inequality: |wedge_n(exp(-(A+B)))| <= |wedge_n(exp(-A)) wedge_n(exp(-B))|;
    multiplicativity: that right side equals |wedge_n(exp(-A) exp(-B))|.
    At n = 1 the compound power is an exact copy, so the inequality half
    coincides with segal(A, B, "plain") float for float.
    """
    pair = _Pair(_one(A), _one(B))
    d = pair.dimension
    if math.comb(d, n) > CHAIN_BASIS_LIMIT:
        raise ValueError(
            f"antisymmetric basis would have {math.comb(d, n)} elements "
            f"(limit {CHAIN_BASIS_LIMIT}): dimension overflow"
        )
    lhs = spectral_norm(compound_matrix(pair.exp("A+B", -1.0)[0], n))
    split = spectral_norm(compound_matrix(pair.exp("A", -1.0)[0], n)
                          @ compound_matrix(pair.exp("B", -1.0)[0], n))
    product = spectral_norm(compound_matrix(pair.split(-1.0)[0], n))
    inequality = _report("wedge-segal-chain", lhs, split, tol_rel, seed=seed,
                         dimension=d, extra={"order": n})
    multiplicativity = _report("wedge-multiplicativity", split, product, tol_rel,
                               seed=seed, dimension=d, equality=True,
                               extra={"order": n})
    return WedgeChainReport(n, inequality, multiplicativity)


def compactness_proxy(mu_or_operator, n_max: int) -> np.ndarray:
    """Geometric means g(n) = (mu_1 ... mu_n)^(1/n) for n = 1..n_max.

    Accepts a sorted singular-value list or a matrix (whose singular values
    are then taken).  Computed in the log domain; g is nonincreasing since
    the input is sorted descending.
    """
    mu = np.asarray(mu_or_operator, dtype=float)
    if mu.ndim == 2:
        mu = singular_values(mu)
    elif mu.ndim != 1:
        raise ValueError("expected a singular value list or a matrix")
    if np.any(mu < 0):
        raise ValueError("singular values must be nonnegative")
    if np.any(np.diff(mu) > 0):
        raise ValueError("singular values must be sorted descending")
    if not 1 <= n_max <= mu.size:
        raise ValueError(f"n_max must be between 1 and {mu.size}, got {n_max}")
    head = mu[:n_max]
    with np.errstate(divide="ignore"):
        logs = np.log(head)
    counts = np.arange(1, n_max + 1, dtype=float)
    return np.exp(np.cumsum(logs) / counts)


def inequality_batch(trials: int = 500, dims=(2, 3, 4, 5, 6, 7, 8),
                     master_seed: int = 0, tol_rel: float = TOL_ALGEBRAIC) -> list:
    """Seeded sweep of the norm/trace/spectrum checks on random PSD pairs.

    Trial t draws G, H with i.i.d. standard normal entries at dimension
    dims[t % len(dims)] from derived_rng(master_seed, "inequality-batch", t)
    and tests the pair (G G^T, H H^T).  Every trial is drawn first; the
    pairs of each dimension then form one stacked _Pair, decomposed once and
    shared by the five checks of all its trials.  Returns the flat list of
    InequalityReports in trial order (five per trial); the fifth reads the
    product-spectrum deviation max_gap / scale against tol_rel.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dims = tuple(int(d) for d in dims)
    if not dims or min(dims) < 1:
        raise ValueError("dims must be a nonempty tuple of positive integers")
    drawn = []
    for t in range(trials):
        d = dims[t % len(dims)]
        rng = derived_rng(master_seed, "inequality-batch", t)
        G = rng.standard_normal((d, d))
        H = rng.standard_normal((d, d))
        drawn.append((G @ G.T, H @ H.T))
    rows = [None] * trials
    for d in set(dims[:trials]):
        group = [t for t in range(trials) if dims[t % len(dims)] == d]
        pair = _Pair(np.stack([drawn[t][0] for t in group]),
                     np.stack([drawn[t][1] for t in group]))
        sides = [("segal-plain", *_segal_sides(pair, "plain")),
                 ("segal-symmetric", *_segal_sides(pair, "symmetric")),
                 ("golden-thompson", *_golden_thompson_sides(pair)),
                 ("half-product-square", *_half_product_sides(pair))]
        cd, dc = pair.product_spectra()
        for i, t in enumerate(group):
            trial = {"seed": master_seed, "dimension": d, "extra": {"trial": t}}
            match = _spectrum_match(cd[i], dc[i], tol_rel)
            rows[t] = [_report(name, lhs[i], rhs[i], tol_rel, **trial)
                       for name, lhs, rhs in sides]
            rows[t].append(_report("product-spectrum-agreement",
                                   match.max_gap / match.scale, tol_rel, tol_rel,
                                   **trial))
    return [rep for row in rows for rep in row]


def batch_summary(reports) -> list:
    """Per-check rows (name, trials, min_margin, pass_rate) from a report list,
    in the order each name first appears."""
    grouped: dict[str, list[InequalityReport]] = {}
    for rep in reports:
        grouped.setdefault(rep.name, []).append(rep)
    rows = []
    for name, group in grouped.items():
        rows.append({
            "name": name,
            "trials": len(group),
            "min_margin": min(rep.margin for rep in group),
            "pass_rate": sum(1 for rep in group if rep.passed) / len(group),
        })
    return rows
