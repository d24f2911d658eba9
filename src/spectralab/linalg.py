"""Dense symmetric linear algebra plus an iterative eigensolver.

Covers the linear-algebra needs of the rest of the package: singular
values, matrix exponentials through the eigenbasis (_expm_from_eigh takes
eigenpairs a caller already holds, as the semigroup checks' stacked pairs
do), compound (antisymmetric power) matrices built from explicit minors,
and the smallest eigenvalues of an opaque symmetric linear map (ARPACK's
implicitly restarted Lanczos through scipy's eigsh, followed by a
certificate that no lower eigenvalue was missed).  A caller that can
factor a positive definite map hands lanczos_extremal a factor hook; the
solver then owns the spectral transformation and the whole life of its
factors, and certifies by one exact count of the eigenvalues below a level
(operators' Sylvester inertia count).  Given a level sigma above the k
lowest eigenvalues, one factor of A - sigma I does both: its solve finds
every eigenvalue below sigma (_below_level) and its inertia counts them.
Otherwise the solve runs on -A^{-1} and a second factor counts.  When the
count disagrees or cannot be made, or without a factor hook, the
certificate is a deflated sweep pass that recovers repeated eigenvalues.
Values and residuals are always those of the map itself.
scipy.sparse.linalg is imported inside the one function that runs ARPACK
(_arpack_smallest), when it runs, so the dense routines never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .rng import derived_rng

__all__ = [
    "LanczosResult",
    "as_symmetric",
    "singular_values",
    "symmetric_singular_values",
    "spectral_norm",
    "expm_sym",
    "compound_matrix",
    "lanczos_extremal",
]

SYMMETRY_TOLERANCE = 1e-12
WEDGE_BASIS_LIMIT = 10_000
# Most eigenpairs one lanczos_extremal call computes.
MAX_EIGENPAIRS = 30
# Relative slack, 1e-10 * max(1, |v|), between a computed eigenvalue v and
# the level _certificate_level sets just below it.
LEVEL_SLACK = 1e-10
# Lanczos vectors ARPACK keeps between restarts.  Its default of 20 leaves
# the certificate sweep on the 1-d Dirichlet Laplacian at h = 1e-3 (spectral
# width 4e6 against a lowest gap of 30) unconverged after 999 restarts.
ARPACK_BASIS = 40


def _as_matrix(A, stack: bool = False) -> np.ndarray:
    """A as a float array, once it is one matrix (or, with stack, a stack of
    them along leading axes) with finite entries."""
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or (A.ndim > 2 and not stack):
        raise ValueError(f"expected a 2-d array, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return A


def as_symmetric(A) -> np.ndarray:
    """Check near-symmetry (1e-12 relative), then symmetrize exactly.

    A is one square matrix or a stack of them along leading axes; each
    matrix is judged against its own largest entry.
    """
    A = _as_matrix(A, stack=True)
    if A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.size == 0:
        raise ValueError("matrix must have dimension >= 1")
    AT = np.swapaxes(A, -1, -2)
    scale = np.max(np.abs(A), axis=(-2, -1))
    gap = np.max(np.abs(A - AT), axis=(-2, -1))
    bad = gap > SYMMETRY_TOLERANCE * scale
    if bad.any():
        gap, scale = float(gap[bad].flat[0]), float(scale[bad].flat[0])
        raise ValueError(
            f"matrix is not symmetric: max |A_ij - A_ji| = {gap:.3e} "
            f"exceeds {SYMMETRY_TOLERANCE:g} * max|A| = {SYMMETRY_TOLERANCE * scale:.3e}"
        )
    return (A + AT) / 2.0


def singular_values(A) -> np.ndarray:
    """Singular values of a general matrix, sorted descending."""
    A = _as_matrix(A)
    if A.size == 0:
        return np.zeros(0)
    return np.linalg.svd(A, compute_uv=False)


def symmetric_singular_values(A) -> np.ndarray:
    """Singular values of a symmetric matrix, sorted descending: the
    |eigenvalues| of the matrix read from its lower triangle."""
    A = _as_matrix(A)
    if A.size == 0:
        return np.zeros(0)
    return np.sort(np.abs(np.linalg.eigvalsh(A)))[::-1]


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
    """Q exp(t*Lambda) Q^T, symmetrized, from the eigenpairs of a symmetric
    matrix, or of a stack of them (lam of shape (..., d), Q (..., d, d))."""
    t = float(t)
    scaled = t * lam
    peak = float(np.max(scaled))
    if peak > 700.0:
        raise OverflowError(
            f"t * lambda_max = {peak:.6g} exceeds 700; exp() would overflow float64"
        )
    E = (Q * np.exp(scaled)[..., None, :]) @ np.swapaxes(Q, -1, -2)
    return (E + np.swapaxes(E, -1, -2)) / 2.0


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

    eigenvalues are ascending, of the map given to lanczos_extremal (of H,
    not of -H^{-1} or (H - sigma I)^{-1}, when a factor hook transforms
    it); residuals[i] =
    |A x_i - lambda_i x_i| / |x_i|, computed with matvec on every path.
    converged is False when the iteration stopped early (restart cap or
    certificate budget); partial values are kept.  After ARPACK's restart
    cap only the pairs it did converge exist, and they are kept only once
    the certificate shows no lower value was missed, so eigenvalues[i] is
    still the (i+1)-th smallest.  matvec_count counts every application of
    matvec and of a factor's solve: the symmetry probe, the Lanczos
    iterations, the sweeps and the residuals.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    converged: bool
    matvec_count: int
    note: str = ""


def _check_symmetry(matvec, dim: int, seed: int) -> None:
    rng = derived_rng(seed, "lanczos-symmetry")
    for _ in range(3):
        x = rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        y = rng.standard_normal(dim)
        y /= np.linalg.norm(y)
        ax, ay = matvec(x), matvec(y)
        if not (np.all(np.isfinite(ax)) and np.all(np.isfinite(ay))):
            raise ValueError("map returned non-finite values on a random probe")
        scale = max(1.0, float(np.linalg.norm(ax)), float(np.linalg.norm(ay)))
        gap = abs(float(ax @ y - x @ ay))
        if gap > 1e-8 * scale:
            raise ValueError(
                "map failed the probabilistic symmetry check: "
                f"|<Ax,y> - <x,Ay>| = {gap:.3e} > 1e-08 * {scale:.3e}"
            )


def _arpack_smallest(apply, dim, k, v0, rng, max_iters, tol):
    """ARPACK's k smallest pairs, ascending; partial pairs if it stops early."""
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

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
    """tau less its LEVEL_SLACK: a missed eigenvalue lies below it."""
    return tau - LEVEL_SLACK * max(1.0, abs(tau))


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


def _below_level(factor, sigma: float, dim: int, k: int, wrap, seed: int,
                 max_iters: int, tol: float):
    """The eigenvectors of every eigenvalue of A below sigma, as columns in
    ascending order of the eigenvalues, from one factor of A - sigma I; None
    when that factor cannot certify them.

    factor(sigma) gives the solve x -> (A - sigma I)^{-1} x and a call that
    counts the c eigenvalues below sigma.  With k <= c <= MAX_EIGENPAIRS
    and c < dim, ARPACK runs with k = c on the solve (wrapped by wrap, which
    counts its applications): its c smallest values theta =
    1 / (lambda - sigma) are the negative ones, one per eigenvalue below
    sigma.  The vectors are certified when ARPACK completes and all c
    values are negative, since exactly c eigenvalues lie below sigma.  An
    undecided count, a singular factor, a count outside that range, an
    incomplete run or a theta >= 0 gives None, after the factor is freed.
    """
    try:
        solve, count = factor(sigma)
    except ValueError:  # sigma is an eigenvalue to working precision
        return None
    count = count()
    if count is None or not k <= count <= MAX_EIGENPAIRS or count >= dim:
        return None
    rng = derived_rng(seed, "lanczos-start")
    theta, vectors, complete = _arpack_smallest(wrap(solve), dim, count,
                                                rng.standard_normal(dim), rng, max_iters, tol)
    if not complete or np.any(theta >= 0.0):
        return None
    # lambda = sigma + 1/theta falls as theta rises through the negatives
    return vectors[:, ::-1]


def _check_eigenpairs(k) -> None:
    """Refuses a k outside 1..MAX_EIGENPAIRS, the eigenpairs one
    lanczos_extremal call computes."""
    if not 1 <= k <= MAX_EIGENPAIRS:
        raise ValueError(f"k must be between 1 and {MAX_EIGENPAIRS}, got {k}")


def lanczos_extremal(matvec, dim: int, k: int, max_iters: int = 600, seed: int = 0,
                     tol: float = 1e-12, factor=None, sigma=None) -> LanczosResult:
    """k smallest eigenvalues of a symmetric linear map, with residuals.

    ARPACK's implicitly restarted Lanczos (scipy's eigsh, which="SA", at
    most max_iters restarts) finds k pairs, or fewer at the restart cap;
    a certificate then shows that no lower eigenvalue was missed.  Without
    factor, ARPACK runs on matvec and the certificate is a deflated sweep
    pass (see _certify) that recovers copies of repeated eigenvalues a
    single Krylov space cannot see.

    factor is for a positive definite map A (operators._box_spectrum passes
    one for nu <= 2).  factor(shift) returns the solve of a factor of
    A - shift I and its count: a call that gives the number of eigenvalues
    of A below shift, or None when the factor cannot tell.  The count is
    called only where it is used, so the solve factor at shift 0 never
    pays for one.  factor raises ValueError when its factor is exactly
    singular.  ARPACK then runs on x -> -A^{-1} x, whose smallest
    values mu = -1/lambda converge in a few restarts (the spectral
    transformation of Ericsson & Ruhe, 1980), and lambda = -1/mu is
    reported.  The solve factor is made before ARPACK allocates its
    workspace and freed before the certificate makes its own: one count
    at the largest found mu less its slack (see _certificate_level)
    certifies when it equals the found values below that level, and no
    sweep runs.  When the count disagrees or cannot be made, the solve
    factor is made again for the sweeps, and values and note are those of
    the sweeps alone.

    sigma, with factor, is a level believed to lie above the k lowest
    eigenvalues (operators.spectrum_study passes the previous box's k-th
    value plus operators.LEVEL_MARGIN).  Then one factor of A - sigma I first
    solves for every eigenvalue below sigma and certifies them by its own
    count (see _below_level); the k lowest are kept, and each value is the
    Rayleigh quotient x.Ax / x.x of its vector.  Where it cannot, the path
    above runs as if sigma were not given, from the same start vector.
    tol is ARPACK's: a Ritz pair converges once its residual estimate is
    <= tol * |theta|, theta an eigenvalue of the map it runs on (-A^{-1}
    or (A - sigma I)^{-1} with a factor).

    Where ARPACK cannot run (k == dim) A is assembled from dim matvecs and
    solved densely.  matvec is checked for symmetry probabilistically
    before any work, and the residuals are computed with it; convergence
    claims rest on them.
    """
    dim = int(dim)
    k = int(k)
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    _check_eigenpairs(k)
    if k > dim:
        raise ValueError(f"k = {k} exceeds the dimension {dim}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    applications = 0

    def counted(map_):
        def apply(x):
            nonlocal applications
            applications += 1
            return np.asarray(map_(x), dtype=float)
        return apply

    def inverse():
        solve = factor(0.0)[0]
        return counted(lambda x: -solve(x))

    apply_matvec = counted(matvec)
    _check_symmetry(apply_matvec, dim, seed)
    rng = derived_rng(seed, "lanczos-start")
    ok, note = True, ""
    below = (_below_level(factor, float(sigma), dim, k, counted, seed, max_iters, tol)
             if factor is not None and sigma is not None else None)
    if below is not None:
        vectors, found = below, k
    elif k >= dim:
        A = np.column_stack([apply_matvec(e) for e in np.eye(dim)])
        values, vectors = np.linalg.eigh((A + A.T) / 2.0)
        found = k
    else:
        apply = apply_matvec if factor is None else inverse()
        values, vectors, complete = _arpack_smallest(apply, dim, k, rng.standard_normal(dim),
                                                     rng, max_iters, tol)
        # After the restart cap the converged pairs need not be the lowest
        # ones, so the certificate also decides whether partial pairs stay.
        found = values.size
        ok = found > 0
        certified = False
        if ok and factor is not None:
            apply = None  # frees the solve factor before the count makes its own
            level = _certificate_level(float(values[-1]))
            try:
                count = factor(-1.0 / level)[1]()
            except ValueError:  # the level is an eigenvalue to working precision
                count = None
            certified = count == int(np.count_nonzero(values < level))
            if not certified:
                apply = inverse()
        if ok and not certified:
            values, vectors, ok, note = _certify(apply, values, vectors, found, rng,
                                                 max_iters, tol, 3 * k + 11)
        if not complete:
            found = found if ok else 0
            ok, note = False, "inner iteration cap reached"
        if factor is not None:
            values = -1.0 / values

    vectors = vectors[:, :found]
    eigenvalues = np.empty(found) if below is not None else values[:found]
    residuals = np.empty(found)
    for i, x in enumerate(vectors.T):
        y = apply_matvec(x)
        if below is not None:
            # the Rayleigh quotient on the map: second order in the vector's
            # error, where sigma + 1/theta is first order in the indefinite
            # solve's, whose factor pivots on its diagonal only
            eigenvalues[i] = x @ y / (x @ x)
        residuals[i] = np.linalg.norm(y - eigenvalues[i] * x) / np.linalg.norm(x)
    if below is not None:
        order = np.argsort(eigenvalues, kind="stable")
        eigenvalues, residuals = eigenvalues[order], residuals[order]
    converged = ok and eigenvalues.size == k
    return LanczosResult(eigenvalues, residuals, converged, applications, note)
