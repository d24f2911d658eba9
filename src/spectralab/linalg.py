"""Dense symmetric linear algebra plus an iterative eigensolver.

Covers the linear-algebra needs of the rest of the package: singular
values, matrix exponentials through the eigenbasis (_expm_from_eigh takes
eigenpairs a caller already holds, as the semigroup checks' shared pair
does), compound (antisymmetric power) matrices built from explicit minors,
and the smallest eigenvalues of an opaque symmetric linear map (ARPACK's
implicitly restarted Lanczos through scipy's eigsh, followed by a
certificate that no lower eigenvalue was missed).  The certificate is an
exact count when the caller can give one (count_below, in the map's own
eigenvalues); otherwise, or when the count disagrees or cannot be made, it
is a deflated sweep pass that recovers repeated eigenvalues.  The map may
be a spectral transformation: operators.spectrum_study hands it
x -> -H^{-1} x for nu <= 2, with a count from the Sylvester inertia of
H - lambda I, so there its tol and residuals refer to that map, not to H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .rng import derived_rng

__all__ = [
    "LanczosResult",
    "as_symmetric",
    "singular_values",
    "spectral_norm",
    "expm_sym",
    "compound_matrix",
    "lanczos_extremal",
]

SYMMETRY_TOLERANCE = 1e-12
WEDGE_BASIS_LIMIT = 10_000
# Most eigenpairs one lanczos_extremal call computes.
MAX_EIGENPAIRS = 30
# Lanczos vectors ARPACK keeps between restarts.  Its default of 20 leaves
# the certificate sweep on the 1-d Dirichlet Laplacian at h = 1e-3 (spectral
# width 4e6 against a lowest gap of 30) unconverged after 999 restarts.
ARPACK_BASIS = 40


def _as_matrix(A, square: bool = False) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    if square and A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def as_symmetric(A) -> np.ndarray:
    """Check near-symmetry (1e-12 relative), then symmetrize exactly."""
    A = _as_matrix(A, square=True)
    if A.size == 0:
        raise ValueError("matrix must have dimension >= 1")
    scale = float(np.max(np.abs(A)))
    gap = float(np.max(np.abs(A - A.T)))
    if gap > SYMMETRY_TOLERANCE * scale:
        raise ValueError(
            f"matrix is not symmetric: max |A_ij - A_ji| = {gap:.3e} "
            f"exceeds {SYMMETRY_TOLERANCE:g} * max|A| = {SYMMETRY_TOLERANCE * scale:.3e}"
        )
    return (A + A.T) / 2.0


def singular_values(A) -> np.ndarray:
    """Singular values of a general matrix, sorted descending."""
    A = _as_matrix(A)
    if A.size == 0:
        return np.zeros(0)
    return np.linalg.svd(A, compute_uv=False)


def spectral_norm(A) -> float:
    """Operator (largest singular) norm."""
    mu = singular_values(A)
    return float(mu[0]) if mu.size else 0.0


def expm_sym(A, t: float = 1.0) -> np.ndarray:
    """exp(t*A) for symmetric A, computed as Q exp(t*Lambda) Q^T.

    Raises OverflowError when some t*lambda exceeds 700, where float64
    exp() overflows; saturating silently would corrupt norm comparisons.
    """
    return _expm_from_eigh(*np.linalg.eigh(as_symmetric(A)), t)


def _expm_from_eigh(lam: np.ndarray, Q: np.ndarray, t: float) -> np.ndarray:
    """Q exp(t*Lambda) Q^T, symmetrized, from the eigenpairs of a symmetric matrix."""
    t = float(t)
    scaled = t * lam
    peak = float(np.max(scaled))
    if peak > 700.0:
        raise OverflowError(
            f"t * lambda_max = {peak:.6g} exceeds 700; exp() would overflow float64"
        )
    E = (Q * np.exp(scaled)) @ Q.T
    return (E + E.T) / 2.0


def _lexicographic_subsets(d: int, n: int) -> list[tuple[int, ...]]:
    if not 1 <= n <= d:
        raise ValueError(f"order must satisfy 1 <= n <= {d}, got {n}")
    count = math.comb(d, n)
    if count > WEDGE_BASIS_LIMIT:
        raise ValueError(
            f"antisymmetric basis would have {count} elements "
            f"(limit {WEDGE_BASIS_LIMIT}): dimension overflow"
        )
    return list(combinations(range(d), n))


def compound_matrix(A, n: int) -> np.ndarray:
    """Antisymmetric n-th power: the matrix of all n x n minors of A.

    Rows and columns are indexed by the lexicographically ordered n-element
    subsets of the row and column indices of A.  Multiplicative over matrix
    products (Cauchy-Binet).
    """
    A = _as_matrix(A)
    m, p = A.shape
    rows = _lexicographic_subsets(m, n)
    cols = _lexicographic_subsets(p, n)
    if n == 1:
        return A.copy()
    row_idx = np.asarray(rows)
    col_idx = np.asarray(cols)
    out = np.empty((len(rows), len(cols)))
    # Minor determinants in batched chunks (LU under the hood) to bound memory.
    chunk = max(1, 4_000_000 // max(1, len(cols) * n * n))
    for start in range(0, len(rows), chunk):
        ri = row_idx[start : start + chunk]
        minors = A[ri[:, None, :, None], col_idx[None, :, None, :]]
        out[start : start + chunk] = np.linalg.det(minors)
    return out


@dataclass(frozen=True)
class LanczosResult:
    """Smallest eigenvalues of a symmetric map with true residual norms.

    eigenvalues are ascending; vectors[:, i] is the unit eigenvector of
    eigenvalues[i]; residuals[i] = |A x_i - lambda_i x_i| / |x_i|
    recomputed with the raw map.  converged is False when the iteration
    stopped early (restart cap or certificate budget); partial values are
    kept.  After ARPACK's restart cap only the pairs it did converge exist,
    and they are kept only once the certificate shows no lower value was
    missed, so eigenvalues[i] is still the (i+1)-th smallest.  matvec_count
    counts every application of the map, the sweeps' included; an exact
    count (count_below) that certifies applies it nowhere.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray = field(repr=False)
    residuals: np.ndarray
    converged: bool
    matvec_count: int
    note: str = ""


def _check_symmetry(matvec, dim: int, seed: int) -> int:
    rng = derived_rng(seed, "lanczos-symmetry")
    for _ in range(3):
        x = rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        y = rng.standard_normal(dim)
        y /= np.linalg.norm(y)
        ax = np.asarray(matvec(x), dtype=float)
        ay = np.asarray(matvec(y), dtype=float)
        if not (np.all(np.isfinite(ax)) and np.all(np.isfinite(ay))):
            raise ValueError("map returned non-finite values on a random probe")
        scale = max(1.0, float(np.linalg.norm(ax)), float(np.linalg.norm(ay)))
        gap = abs(float(ax @ y - x @ ay))
        if gap > 1e-8 * scale:
            raise ValueError(
                "map failed the probabilistic symmetry check: "
                f"|<Ax,y> - <x,Ay>| = {gap:.3e} > 1e-08 * {scale:.3e}"
            )
    return 6


def _arpack_smallest(apply, dim, k, v0, rng, max_iters, tol):
    """ARPACK's k smallest pairs, ascending; partial pairs if it stops early."""
    op = LinearOperator((dim, dim), matvec=apply, dtype=float)
    try:
        values, vectors = eigsh(op, k, which="SA", v0=v0,
                                ncv=min(dim, max(2 * k + 1, ARPACK_BASIS)),
                                maxiter=max_iters, tol=tol, rng=rng)
        complete = True
    except ArpackNoConvergence as exc:
        values, vectors = exc.eigenvalues, exc.eigenvectors
        complete = False
    order = np.argsort(values, kind="stable")
    return values[order], vectors[:, order], complete


def _certificate_level(tau: float) -> float:
    """tau less a relative slack of 1e-10: a missed eigenvalue lies below it."""
    return tau - 1e-10 * max(1.0, abs(tau))


def _counted(count_below, values) -> bool:
    """Whether an exact count certifies the found values.

    count_below(level) is the number of the map's eigenvalues below level.
    It certifies when it equals the number of found values below
    _certificate_level(tau), tau the largest found value: then no
    eigenvalue below that level was missed.  A count that disagrees, or
    raises ValueError (it cannot decide), does not.
    """
    level = _certificate_level(float(values[-1]))
    try:
        return count_below(level) == int(np.count_nonzero(values < level))
    except ValueError:
        return False


def _certify(apply, values, vectors, k, rng, max_iters, tol, sweeps):
    """Recover repeated eigenvalues the first ARPACK run may have missed.

    Each sweep runs ARPACK with k = 1 on the map restricted to the
    complement of the vectors found so far, with those directions lifted
    above the current k-th value tau.  A value below _certificate_level(tau)
    is a missed eigenvalue and joins the found set; nothing below it
    certifies.  Returns (values, vectors, certified, note).
    """
    dim = vectors.shape[0]
    for _ in range(sweeps):
        if vectors.shape[1] >= dim:
            return values, vectors, True, ""  # the whole space is resolved
        tau = float(values[k - 1])
        lift = tau + max(1.0, abs(tau))
        Q = vectors

        def deflated(x):
            c = Q.T @ x
            y = apply(x - Q @ c)
            return y - Q @ (Q.T @ y) + lift * (Q @ c)

        start = rng.standard_normal(dim)
        start -= Q @ (Q.T @ start)
        found, vec, complete = _arpack_smallest(deflated, dim, 1, start, rng,
                                                max_iters, tol)
        if not complete:
            return values, vectors, False, "inner iteration cap reached"
        if found[0] >= _certificate_level(tau):
            return values, vectors, True, ""
        x = vec[:, 0] - Q @ (Q.T @ vec[:, 0])
        x /= np.linalg.norm(x)
        at = int(np.searchsorted(values, found[0]))
        values = np.insert(values, at, found[0])
        vectors = np.insert(vectors, at, x, axis=1)
    return values, vectors, False, "restart budget exhausted before certification"


def lanczos_extremal(matvec, dim: int, k: int, max_iters: int = 600, seed: int = 0,
                     tol: float = 1e-12, count_below=None) -> LanczosResult:
    """k smallest eigenvalues of a symmetric linear map, with residuals.

    ARPACK's implicitly restarted Lanczos (scipy's eigsh, which="SA", at
    most max_iters restarts) finds k pairs, or fewer at the restart cap;
    a certificate then shows that no lower eigenvalue was missed.  Given
    count_below(level), the exact number of the map's eigenvalues below
    level (operators._box_spectrum passes a Sylvester inertia count), one
    count at the largest found value less its slack certifies when it
    equals the found values below that level (see _counted), and no sweep
    runs; the map is applied no more after such a count, so count_below may
    free what the map holds, provided the map can still run.  Without it, or when the count disagrees or raises ValueError,
    a deflated certificate pass (see _certify) recovers copies of repeated
    eigenvalues that a single Krylov space cannot see; values, vectors and
    note are then those of the sweeps alone.  Where ARPACK cannot run
    (k == dim) the map is assembled from dim matvecs and solved densely.
    tol is ARPACK's: a Ritz pair converges once its residual estimate is
    <= tol * |theta|, theta an eigenvalue of the map given (of -H^{-1},
    not of H, when spectrum_study transforms it).
    The map is checked for symmetry probabilistically before any work.
    Residuals are recomputed with the raw map; convergence claims rest on
    them.
    """
    dim = int(dim)
    k = int(k)
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if not 1 <= k <= MAX_EIGENPAIRS:
        raise ValueError(f"k must be between 1 and {MAX_EIGENPAIRS}, got {k}")
    if k > dim:
        raise ValueError(f"k = {k} exceeds the dimension {dim}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    matvecs = _check_symmetry(matvec, dim, seed)

    def apply(x):
        nonlocal matvecs
        matvecs += 1
        return np.asarray(matvec(x), dtype=float)

    def residuals_of(values, vectors):
        return np.array([np.linalg.norm(apply(x) - value * x) / np.linalg.norm(x)
                         for value, x in zip(values, vectors.T)])

    rng = derived_rng(seed, "lanczos-start")
    ok, note, counted = True, "", False
    if k >= dim:
        A = np.column_stack([apply(e) for e in np.eye(dim)])
        values, vectors = np.linalg.eigh((A + A.T) / 2.0)
        found = k
    else:
        values, vectors, complete = _arpack_smallest(apply, dim, k, rng.standard_normal(dim),
                                                     rng, max_iters, tol)
        # After the restart cap the converged pairs need not be the lowest
        # ones, so the certificate also decides whether partial pairs stay.
        found = values.size
        ok = found > 0
        if ok and count_below is not None:
            # The residuals come first: after a count that certifies the map
            # is applied no more, so count_below may release what it holds.
            residuals = residuals_of(values, vectors)
            counted = _counted(count_below, values)
        if ok and not counted:
            values, vectors, ok, note = _certify(apply, values, vectors, found, rng,
                                                 max_iters, tol, 3 * k + 11)
        if not complete:
            found = found if ok else 0
            ok, note = False, "inner iteration cap reached"

    eigenvalues, vectors = values[:found], vectors[:, :found]
    if not counted:
        residuals = residuals_of(eigenvalues, vectors)
    converged = ok and eigenvalues.size == k
    return LanczosResult(eigenvalues, vectors, residuals, converged, matvecs, note)
