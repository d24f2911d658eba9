"""Weighted integral kernels and heat-semigroup diagnostics.

A KernelMatrix holds K(x_i, y_j) on a cell-centered grid with cell volume
w; its operator acts on a grid function v as w * K @ v, so matrix sums
approximate kernel integrals.  Operator norms, singular values
mu_j = w sigma_j, and Hilbert-Schmidt norms all carry the weight.

One lattice rule decides every ball (the range-R cutoff of F_R, the 0/1
proximity kernel, the reach and the local-measure counts of the power
bound): points with integer lattice offset o lie within radius r when
|o|^2 <= floor((r/h)^2 (1 + 1e-9) + 1e-9).  _lattice_cutoff takes that
floor once, and _in_ball tests it on per-axis int32 lattice coordinates
(int64 on a 1-D grid too long for int32 squares).
The hair of slack puts pairs exactly on a boundary inside everywhere alike,
so a chain of hops of lattice length <= R stays inside the lattice ball of
the summed radius, with no floating-point fringe cases.

Every KernelMatrix holds one of two private forms, and each function here
forms only the entries it reads, equal bit for bit to the matching entries
of the dense `values`:

- Kronecker form.  Both heat kernels are separable on the tensor grid:
  K = (k1 (x) ... (x) k1) diag(scale) with one n x n factor k1 per axis
  (Van Loan, "The ubiquitous Kronecker product", 2000).  heat_matrix returns
  that form, truncated_convolution the same form with a lattice cutoff
  (entries at larger lattice offsets are 0), and multiply_function of
  either multiplies the scale.  heat_matrix's kernel records its time s
  and mode, multiply_function keeps them, and hs_diagnostics reads them
  there and refuses a kernel without them.  One builder,
  _gaussian_heat, forms the Gaussian heat kernel for heat_matrix, for
  hs_diagnostics' dominating kernel and, with its cutoff, for
  truncated_convolution.  hs_diagnostics
  takes the row and column sums of K^2 and the HS norm from the factor, the
  singular values in the factor's eigenbasis, and the domination excess
  over chunks of the masked columns, so it never holds the N x |mask| block;
  domination_check forms only the nonzero columns of its C; operator_norm
  runs a Lanczos recurrence on the Gram map at every size, through k1 (one
  n x n product per axis, O(N n)) when no cutoff is held and through the
  dense values otherwise.
- Block form.  An increasing index set I and the dense |I| x |I| block on
  I x I; every entry off it is an exact zero.  Kernels cut down to the
  sublevel set {V < M} vanish outside it, so d_kernel returns the proximity
  kernel on the sublevel points and records its R; kernel_power_bound
  reads the sublevel points as its index and the reach from R, and refuses
  a kernel without that record.  KernelMatrix(grid, values) is the block
  over all points, and multiply_function of a block-form kernel scales the
  block's columns on the same index and drops R.  A block-form kernel's
  columns are copied from its block into zeros, and operator_norm runs on
  the block.

kernel_power_bound and domination_check read only blocks.  Each counts the
exact zeros off its block, when the block is not the whole grid, as one more
entry of value 0.  domination_check reads D's block and the product's on the
union U of their index sets through _restrict, and refuses a D in Kronecker
form.

A structured kernel's `values` is formed on every read, into an array only
the caller holds, and only that read is held to the grid's dense-entry
budget; the structured work is not.  No kernel keeps it, so numpy can write
a temporary such as heat.values - F.values into its left operand's buffer.
KernelMatrix(grid, values) returns the array it holds.  Of the functions
here only operator_norm reads `values`, of a cutoff kernel.  None of them
loads scipy.sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import expm_sym, singular_values, symmetric_singular_values
from .operators import Grid, _dirichlet_stencil, potential_on_grid
from .potentials import PotentialExpr
from .rng import derived_rng
from .sublevel import ball_volume, check_ball_volume, check_positive

__all__ = [
    "HEAT_MODES",
    "BoundCheck",
    "CompactnessDiagnostics",
    "KernelMatrix",
    "check_kernel_power",
    "compose_C",
    "d_kernel",
    "domination_check",
    "gaussian_squared_mass",
    "heat_matrix",
    "hs_diagnostics",
    "kernel_power_bound",
    "multiply_function",
    "operator_norm",
    "split_tail",
    "truncated_convolution",
]

HEAT_MODES = ("gaussian-kernel", "expm-of-laplacian")
LATTICE_SLACK = 1e-9
# Largest power kernel_power_bound takes.  Each step is one block product,
# and the bound's omega^(2k - 2) overflows long before k = 2000.
MAX_KERNEL_POWER = 30
# Lanczos steps operator_norm takes before it raises, one Gram product each.
# The slowest norm measured, a random column scale on heat_matrix(Grid(2,
# 5.75, 0.25), 1e-3) (a clustered top), takes 215 steps; a random dense
# 2060 x 2060 kernel 113, and each norm of the criterion-7 kernel sequence
# at most 16.  At the cap, T_j and its eigenvectors are 8 MB each.
NORM_STEPS = 1000
# Eigenvalue products of the heat factor below this share of the largest are
# left out of hs_diagnostics' singular values.  By Weyl's inequality each
# weighted value then moves by at most w * KRON_EIGEN_FLOOR * ||f||_2^nu *
# max |scale| (_kron_singular_values), which for heat_matrix kernels is about
# KRON_EIGEN_FLOOR times ||w K||, below the SVD's own roundoff of 1.1e-16
# times it.  The README box keeps 715 (gaussian-kernel) and 485
# (expm-of-laplacian) of its 6400 rows.
KRON_EIGEN_FLOOR = 1e-17
# Entries of one column chunk of hs_diagnostics' domination excess (2 MB per
# kernel).  Every chunk size gives the same excess, a maximum of the same
# entries, in about the same time (2**14 to 2**22 entries measured alike);
# the two chunks held at once are a third of the N x |mask| block at the
# bench box and a twentieth at the README box.  A cutoff kernel's lattice
# mask is built in chunks of as many bool entries.
HS_CHUNK_ENTRIES = 2**18


def _require_finite(entries: np.ndarray) -> None:
    if not np.all(np.isfinite(entries)):
        raise ValueError("kernel entries must be finite")


class KernelMatrix:
    """Kernel K(x_i, y_j) on a grid with quadrature weight w.

    KernelMatrix(grid, values) holds dense values, as the block over all
    points.  heat_matrix, truncated_convolution and multiply_function of
    them hold (factor (x) ... (x) factor) diag(scale), cut at a lattice
    offset for truncated_convolution; d_kernel holds a block on its sublevel
    points, and multiply_function of a block the scaled block.  Those form
    `values` on every read, after checking the grid's dense-entry budget,
    into an array only the caller holds.
    """

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=float)
        n = grid.size
        if values.shape != (n, n):
            raise ValueError(
                f"kernel must be {n} x {n} on this grid, got {values.shape}"
            )
        self._hold_block(grid, np.arange(n), values)

    def _hold_block(self, grid: Grid, index: np.ndarray, block: np.ndarray) -> None:
        _require_finite(block)
        self.grid, self._index, self._block = grid, index, block
        self._factor = self._scale = self._cutoff = self._heat = self._radius = None

    @classmethod
    def _blocked(cls, grid: Grid, index: np.ndarray, block: np.ndarray,
                 radius: float | None = None) -> KernelMatrix:
        """The kernel equal to `block` on index x index (increasing point
        indices) and 0 elsewhere, values unformed.  radius is R when the
        kernel is d_kernel(grid, V, M, R); kernel_power_bound reads it."""
        K = cls.__new__(cls)
        K._hold_block(grid, index, block)
        K._radius = radius
        return K

    @classmethod
    def _kronecker(cls, grid: Grid, factor: np.ndarray, scale: np.ndarray,
                   cutoff: int | None = None, heat: tuple | None = None) -> KernelMatrix:
        """The kernel (factor (x) ... (x) factor) diag(scale), values unformed.

        With a cutoff, entries whose squared integer lattice offset exceeds
        it are 0.  heat is (s, mode) when the kernel is heat_matrix(grid, s,
        mode) or multiply_function of one; hs_diagnostics reads it.
        """
        # largest |entry| per column, formed as values are: overflows as they would
        peak = reduce(np.multiply.outer, [np.max(np.abs(factor), axis=0)] * grid.nu)
        _require_finite(peak.ravel() * np.abs(scale))
        K = cls.__new__(cls)
        K.grid, K._factor, K._scale, K._cutoff, K._heat = grid, factor, scale, cutoff, heat
        K._index = K._block = K._radius = None
        return K

    @property
    def values(self) -> np.ndarray:
        if self._factor is None and self._index.size == self.grid.size:
            return self._block
        self.grid.require_dense_budget()
        if self._factor is None:
            values = np.zeros((self.grid.size, self.grid.size))
            values[np.ix_(self._index, self._index)] = self._block
            return values
        # row i of K is line i of the transposed factor, in row-major order
        points = np.arange(self.grid.size)
        values = _kron_lines(self._factor.T, self.grid.nu, points)
        values *= self._scale
        return self._cut(values, points)

    @property
    def weight(self) -> float:
        return self.grid.weight

    def _columns(self, cols: np.ndarray) -> np.ndarray:
        """values[:, cols] for increasing indices cols, values unformed.

        The columns are formed as lines (one per col), laid out column-major
        as numpy lays out values[:, cols], so sums and products over them
        round as they do over that copy.  A Kronecker-form kernel forms its
        lines from the factor, a block-form kernel copies its block's
        columns into lines of zeros.
        """
        if self._factor is None:
            held = np.flatnonzero(np.isin(cols, self._index))
            lines = np.zeros((cols.size, self.grid.size))
            lines[np.ix_(held, self._index)] = \
                self._block[:, np.searchsorted(self._index, cols[held])].T
            return lines.T
        lines = _kron_lines(self._factor, self.grid.nu, cols)
        lines *= self._scale[cols, None]
        return self._cut(lines, cols).T

    def _cut(self, lines: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Zero lines[p, r] where the squared lattice offset between point r
        and points[p] exceeds the cutoff, if one is held."""
        if self._cutoff is None:
            return lines
        n, nu = self.grid.points_per_axis, self.grid.nu
        mesh = _mesh(self.grid, np.arange(n))
        step = max(1, HS_CHUNK_ENTRIES // self.grid.size)   # lines per mask chunk
        for start in range(0, points.size, step):
            chunk = points[start:start + step]
            # the (line, r_1..r_nu) view: each line's point against the grid mesh
            at = [a.reshape((-1,) + (1,) * nu) for a in _coordinates(self.grid, chunk)]
            inside = _in_ball(self._cutoff, at, mesh)
            np.copyto(lines[start:start + step].reshape((chunk.size,) + (n,) * nu), 0.0,
                      where=np.logical_not(inside, out=inside))
        return lines


def _restrict(index: np.ndarray, block: np.ndarray, points: np.ndarray) -> np.ndarray:
    """values[points x points] of the kernel that is `block` on index x index
    and 0 elsewhere; both index arrays increasing."""
    if np.array_equal(points, index):
        return block
    out = np.zeros((points.size, points.size))
    held = np.isin(points, index)
    at = np.searchsorted(index, points[held])
    out[np.ix_(held, held)] = block[np.ix_(at, at)]
    return out


def multiply_function(K: KernelMatrix, values_on_grid) -> KernelMatrix:
    """Compose with a multiplication operator: scales columns, no weight.

    The result keeps K's form: a Kronecker-form kernel multiplies its column
    scale and keeps its heat record, a block-form kernel its block's columns
    and drops d_kernel's R, since the scaled entries are no longer the 0/1
    proximity kernel; no values are formed.  A non-finite function value is
    refused in either form, also at a point off a block, where the entries
    are exact zeros.
    """
    g = np.asarray(values_on_grid, dtype=float)
    if g.shape != (K.grid.size,):
        raise ValueError("function values must match the grid size")
    _require_finite(g)
    if K._factor is not None:
        return KernelMatrix._kronecker(K.grid, K._factor, K._scale * g, K._cutoff, K._heat)
    return KernelMatrix._blocked(K.grid, K._index, K._block * g[K._index])


def _lanczos_sigma_max(matvec, rmatvec, cols: np.ndarray, size: int, seed: int) -> float:
    """sigma_max(M) from a Lanczos recurrence on x -> M^T (M x).

    M has `size` columns, of which only `cols` can be nonzero; matvec and
    rmatvec apply M and M^T.  The three-term recurrence (Golub & Van Loan,
    Matrix Computations, 10.1) runs over `cols` only from a start vector
    drawn from `seed`, and keeps three vectors and the tridiagonal T_j, no
    basis.  At steps 1..10 and then about every 10% more steps, the top
    eigenpair (theta, s) of T_j (one np.linalg.eigh) gives the residual
    estimate beta_j |s_j|; the recurrence stops once that is at most
    eps/2 * theta, ARPACK's tol=0 rule.  Lost orthogonality only adds
    copies of converged Ritz values; each converged one still lies within
    about its estimate of an eigenvalue (Paige 1980).  Each new vector is
    orthogonalized against the current one twice: with one pass the
    estimate of the criterion-7 norms often stalled just above eps/2 * theta
    while a copy formed, and took up to 2.6 times the Gram products.
    Raises RuntimeError after NORM_STEPS steps rather than return an
    unconverged lower bound.
    """
    embedded = np.zeros(size)
    if cols.size < 2:
        embedded[cols] = 1.0
        return float(np.linalg.norm(matvec(embedded)))

    def gram(x):
        embedded[cols] = x
        return rmatvec(matvec(embedded))[cols]

    q = derived_rng(seed, "operator-norm").standard_normal(cols.size)
    q /= np.linalg.norm(q)
    previous = np.zeros(cols.size)
    alpha, beta = [], [0.0]
    check = 1
    for step in range(1, NORM_STEPS + 1):
        w = gram(q)
        w -= beta[-1] * previous
        alpha.append(float(q @ w))
        w -= alpha[-1] * q
        again = float(q @ w)   # the second pass against q
        w -= again * q
        alpha[-1] += again
        beta.append(float(np.linalg.norm(w)))
        if step == check or beta[-1] == 0.0:
            off = beta[1:-1]
            ritz, vectors = np.linalg.eigh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
            if beta[-1] * abs(vectors[-1, -1]) <= 0.5 * np.finfo(float).eps * abs(ritz[-1]):
                return math.sqrt(max(float(ritz[-1]), 0.0))
            check = min(step + max(1, step // 10), NORM_STEPS)
        previous, q = q, w / beta[-1]
    raise RuntimeError(f"operator norm not converged in {NORM_STEPS} Lanczos steps")


def _kron_apply(factor: np.ndarray, nu: int, x: np.ndarray) -> np.ndarray:
    """(factor (x) ... (x) factor) @ x, as one n x n product per axis."""
    n = factor.shape[0]
    t = x.reshape((n,) * nu)
    for axis in range(nu):
        t = np.moveaxis(np.tensordot(factor, t, axes=(1, axis)), 0, axis)
    return t.reshape(-1)


def operator_norm(K: KernelMatrix, seed: int = 0) -> float:
    """Operator norm w * sigma_max(K).

    A Lanczos recurrence on the Gram map K^T K over the nonzero columns
    (_lanczos_sigma_max), at every size, converged to machine precision
    from a start vector drawn from `seed`; RuntimeError is raised, never a
    partial estimate.  A kernel in Kronecker form without a cutoff
    (heat_matrix and multiply_function of it) is applied through its
    per-axis factor and column scale, a block-form kernel through its
    |I| x |I| block (the rows and columns off it are zero), and neither
    forms its values; a cutoff kernel is applied through its dense values.
    """
    if K._factor is not None and K._cutoff is None:
        factor, scale, nu = K._factor, K._scale, K.grid.nu
        top = _lanczos_sigma_max(lambda x: _kron_apply(factor, nu, scale * x),
                                 lambda y: scale * _kron_apply(factor.T, nu, y),
                                 np.flatnonzero(scale), scale.size, seed)
    else:
        M = K._block if K._factor is None else K.values
        top = _lanczos_sigma_max(lambda x: M @ x, lambda y: M.T @ y,
                                 np.flatnonzero(np.any(M, axis=0)), M.shape[1], seed)
    return K.weight * top


def gaussian_squared_mass(nu: int, s: float) -> float:
    """L2 mass of the heat kernel factor: (2 pi s)^{nu/2} (4 pi s)^{-nu}."""
    return (2.0 * math.pi * s) ** (nu / 2.0) * (4.0 * math.pi * s) ** (-nu)


def _heat_peak(nu: int, s: float) -> float:
    """(4 pi s)^{-nu/2}, the Gaussian heat kernel at zero offset."""
    return (4.0 * math.pi * s) ** (-nu / 2.0)


def _gaussian_heat(grid: Grid, s: float, cutoff: int | None = None,
                   heat: tuple | None = None) -> KernelMatrix:
    """The Gaussian heat kernel (4 pi s)^{-nu/2} exp(-|x - y|^2 / 4s) in
    Kronecker form: the factor exp(-(x_i - x_j)^2 / 4s) on every axis and the
    peak as column scale, cut at `cutoff` when one is given; heat as for
    KernelMatrix._kronecker."""
    offsets = grid.axis[:, None] - grid.axis[None, :]
    factor = np.exp(-(offsets * offsets) / (4.0 * s))
    peak = np.full(grid.size, _heat_peak(grid.nu, s))
    return KernelMatrix._kronecker(grid, factor, peak, cutoff, heat)


def _kron_lines(factor: np.ndarray, nu: int, picks: np.ndarray) -> np.ndarray:
    """Array L of shape (picks.size, n**nu), L[p, r] = prod_a factor[r_a, q_a]
    for q = picks[p], points r in C order.

    So L.T holds the columns `picks` of factor (x) ... (x) factor, and L for
    factor.T its rows `picks`.  Each entry is the product of its nu per-axis
    factors taken in axis order, as np.kron does, so any set of lines
    matches the full matrix bit for bit.  L owns its buffer: each axis
    writes its product into a new array, never a view.
    """
    n = factor.shape[0]
    lines = np.ones((picks.size, 1))
    for pick_axis in np.unravel_index(picks, (n,) * nu):
        out = np.empty((picks.size, lines.shape[1] * n))
        np.multiply(lines[:, :, None], factor.T[pick_axis][:, None, :],
                    out=out.reshape(picks.size, lines.shape[1], n))
        lines = out
    return lines


def _lattice_cutoff(grid: Grid, radius: float) -> int:
    """Largest squared integer lattice offset inside the ball of `radius`.

    Capped at the grid's largest, nu (n - 1)^2.
    """
    if not 0.0 <= radius < math.inf:
        raise ValueError(f"radius must be finite and >= 0, got {radius}")
    widest = grid.nu * (grid.points_per_axis - 1) ** 2
    cells = min(radius / grid.spacing, widest + 1.0)   # squares without overflow
    return min(widest, math.floor(cells**2 * (1.0 + LATTICE_SLACK) + LATTICE_SLACK))


def _lattice_int(grid: Grid) -> type:
    """int32, or int64 where the grid's largest squared offset overflows it."""
    return np.int32 if grid.nu * (grid.points_per_axis - 1) ** 2 < 2**31 else np.int64


def _coordinates(grid: Grid, points: np.ndarray) -> list:
    """Per-axis integer lattice coordinates of the point indices `points`."""
    shape = (grid.points_per_axis,) * grid.nu
    return [a.astype(_lattice_int(grid)) for a in np.unravel_index(points, shape)]


def _mesh(grid: Grid, axis: np.ndarray) -> tuple:
    """Integers `axis` on each grid axis, shaped to broadcast as an open mesh."""
    return np.ix_(*[axis.astype(_lattice_int(grid))] * grid.nu)


def _in_ball(cutoff: int, rows, cols) -> np.ndarray:
    """[sum_a (rows[a] - cols[a])^2 <= cutoff], broadcast.

    rows and cols hold per-axis lattice coordinates (or ints).  Axis 0
    is tested against the room the other axes leave, so only its offsets and
    the result span the full broadcast shape.
    """
    room = cutoff - sum((r - c) ** 2 for r, c in zip(rows[1:], cols[1:]))
    return (rows[0] - cols[0]) ** 2 <= room


def _check_heat_inputs(s, mode: str) -> float:
    """s as a float, once it is finite and > 0 and mode is one of HEAT_MODES."""
    s = check_positive("s", s)
    if mode not in HEAT_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return s


def heat_matrix(grid: Grid, s: float = 1.0, mode: str = "gaussian-kernel") -> KernelMatrix:
    """Heat-semigroup kernel at time s, in Kronecker form.

    Both modes build a 1-D factor k1 and a constant column scale, so that
    K = (k1 (x) ... (x) k1) * scale.  gaussian-kernel takes
    k1_ij = exp(-(x_i - x_j)^2 / 4s) and scale (4 pi s)^{-nu/2}, so K_ij =
    (4 pi s)^{-nu/2} exp(-|x_i - x_j|^2 / 4s) up to rounding and the diagonal
    is exactly the peak; expm-of-laplacian takes k1 = exp(-s T) (expm_sym)
    for the 1-D Dirichlet Laplacian T (operators._dirichlet_stencil) and
    scale 1/w, so that the weighted action w * K @ v is the matrix
    exponential's action.  Both factors are exactly symmetric, so the formed
    values are too.  The kernel records s and mode for hs_diagnostics, and
    multiply_function of it keeps them.  The dense values are formed on
    every read, into an array only the caller holds, and only that read is
    held to the grid's dense-entry budget.
    """
    s = _check_heat_inputs(s, mode)
    if mode == "gaussian-kernel":
        return _gaussian_heat(grid, s, heat=(s, mode))
    main, off = _dirichlet_stencil(grid.points_per_axis, grid.spacing)
    factor = expm_sym(np.diag(main) + np.diag(off, -1) + np.diag(off, 1), -s)
    return KernelMatrix._kronecker(grid, factor, np.full(grid.size, 1.0 / grid.weight),
                                   heat=(s, mode))


def compose_C(grid: Grid, V: PotentialExpr, s: float = 1.0,
              mode: str = "gaussian-kernel") -> KernelMatrix:
    """Kernel of e^{s Laplacian} e^{-V} (damped heat operator)."""
    damping = np.exp(-potential_on_grid(grid, V))
    return multiply_function(heat_matrix(grid, s, mode), damping)


def split_tail(C: KernelMatrix, V: PotentialExpr, m: float):
    """Split C into C_m = C chi_{[V < m]} and the tail D_m = C - C_m.

    Returns (C_m, D_m, norms) where norms records the two operator norms
    next to the reference level e^{-m}: on the sublevel complement V >= m,
    so every column of D_m is damped by at least e^{-m}.  The reference is
    e^{-m} for every m, inf where that overflows; a NaN m is refused.
    """
    if math.isnan(m):
        raise ValueError("m must not be NaN")
    chi = (potential_on_grid(C.grid, V) < m).astype(float)
    C_m = multiply_function(C, chi)
    D_m = multiply_function(C, 1.0 - chi)
    try:
        reference = math.exp(-m)
    except OverflowError:
        reference = math.inf
    return C_m, D_m, {"C_m": operator_norm(C_m), "D_m": operator_norm(D_m),
                      "reference": reference}


@dataclass(frozen=True)
class BoundCheck:
    """One named inequality lhs <= rhs with an absolute tolerance."""

    name: str
    lhs: float
    rhs: float
    tol: float
    passed: bool


def _bound(name: str, lhs: float, rhs: float, tol: float) -> BoundCheck:
    lhs = float(lhs)
    rhs = float(rhs)
    tol = float(tol)
    return BoundCheck(name, lhs, rhs, tol, bool(lhs <= rhs + tol))


@dataclass(frozen=True)
class CompactnessDiagnostics:
    """Singular values, HS norm, and named bound checks for one operator."""

    singular_values: np.ndarray
    hs_norm: float
    checks: tuple
    constants: dict
    note: str = ""

    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)


def _dominating_heat_kernel(grid: Grid, s: float, mode: str) -> KernelMatrix:
    """A heat kernel that bounds heat_matrix(grid, s, mode), in Kronecker form.

    The gaussian-kernel mode is bounded by the Gaussian itself, built by the
    same _gaussian_heat as heat_matrix, so the bound is an equality.  The
    Dirichlet semigroup of expm-of-laplacian is bounded, by domain
    monotonicity, by the heat kernel of the infinite lattice h Z^nu:
    prod_a (1/h) e^{-2s/h^2} I_{|n_a|}(2s/h^2) at lattice offset n.
    """
    if mode == "gaussian-kernel":
        return _gaussian_heat(grid, s)
    from scipy.special import ive  # only this mode needs it

    n = grid.points_per_axis
    per_offset = ive(np.arange(n), 2.0 * s / grid.spacing**2) / grid.spacing
    factor = per_offset[np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])]
    return KernelMatrix._kronecker(grid, factor, np.ones(grid.size))


def _lattice_heat_mass(grid: Grid, s: float, mode: str) -> float:
    """Column L2 mass on h Z^nu of the dominating heat kernel of `mode`: at
    least w * sum_i K(x_i, x_j)^2 for every column j of heat_matrix(grid, s,
    mode), since every grid offset is a lattice offset.

    It is a product over the axes.  For gaussian-kernel each axis gives
    sqrt(2 pi s) / (4 pi s) times theta = h sum_n exp(-n^2 h^2 / 2s) /
    sqrt(2 pi s) = 1 + 2 sum_{k>=1} exp(-2 pi^2 s k^2 / h^2) (Poisson
    summation), so the mass is gaussian_squared_mass times theta^nu; the
    side whose exponent is at least pi is summed to k = 7, and the next
    term is below 1e-87.  For expm-of-laplacian each axis gives h sum_n
    (ive(n, 2s/h^2) / h)^2 = ive(0, 4s/h^2) / h, since sum_n I_n(x)^2 =
    I_0(2x).
    """
    h = grid.spacing
    if mode == "expm-of-laplacian":
        from scipy.special import ive  # only this mode needs it

        return float(ive(0, 4.0 * s / h**2) / h) ** grid.nu
    a = 2.0 * math.pi**2 * s / h**2  # and pi^2 / a = h^2 / 2s
    e, front = (a, 1.0) if a >= math.pi else (math.pi**2 / a, h / math.sqrt(2.0 * math.pi * s))
    theta = front * (1.0 + 2.0 * math.fsum(math.exp(-e * k * k) for k in range(1, 8)))
    return gaussian_squared_mass(grid.nu, s) * theta**grid.nu


def _kron_singular_values(factor: np.ndarray, nu: int, scale: np.ndarray,
                          cols: np.ndarray) -> np.ndarray:
    """Singular values of (f (x) ... (x) f)[:, cols] diag(scale[cols]) for a
    symmetric n x n factor f, sorted descending, cols.size of them.

    With f = U Lambda U^T (one eigh), U (x) ... (x) U is orthogonal, so they
    are the singular values of B = (Lambda (x) ... (x) Lambda)
    (U (x) ... (x) U)^T[:, cols] diag(scale[cols]) (Van Loan 2000).  The rows
    of B whose eigenvalue product |lambda_a1 ... lambda_anu| falls below
    KRON_EIGEN_FLOOR times the largest, ||f||_2^nu, are dropped, and the
    missing values are zeros.  The dropped rows form a block E with
    ||E||_2 <= KRON_EIGEN_FLOOR ||f||_2^nu max |scale[cols]|, since a block of
    an orthogonal matrix has norm <= 1; by Weyl's inequality for singular
    values, |sigma_i(B) - sigma_i(B with E zeroed)| <= ||E||_2, so each value
    moves by at most that bound.  B is formed on the kept rows only, one
    per-axis gather U^T[a_axis, c_axis] at a time.
    """
    lam, U = np.linalg.eigh(factor)
    n = lam.size
    weights = reduce(np.multiply.outer, [np.abs(lam)] * nu).ravel()
    keep = np.flatnonzero(weights >= KRON_EIGEN_FLOOR * np.max(weights))
    gathers = zip(np.unravel_index(keep, (n,) * nu), np.unravel_index(cols, (n,) * nu))
    B = reduce(np.multiply, (U.T[np.ix_(a, c)] for a, c in gathers))
    B *= weights[keep, None]
    B *= scale[cols]
    sv = np.zeros(cols.size)
    sv[:min(keep.size, cols.size)] = singular_values(B)
    return sv


def _largest_excess(K: KernelMatrix, dominating: KernelMatrix, cols: np.ndarray) -> float:
    """max of |K| - dominating over the columns cols (0.0 when there are
    none), formed HS_CHUNK_ENTRIES entries of each kernel at a time."""
    step = max(1, HS_CHUNK_ENTRIES // K.grid.size)
    excess = -math.inf if cols.size else 0.0
    for start in range(0, cols.size, step):
        chunk = cols[start:start + step]
        # |K| - dominating on this chunk, in the two arrays formed for it
        gap = K._columns(chunk)
        np.abs(gap, out=gap)
        gap -= dominating._columns(chunk)
        excess = max(excess, float(np.max(gap)))
    return excess


def hs_diagnostics(K: KernelMatrix, mask) -> CompactnessDiagnostics:
    """Compactness evidence for the masked operator K chi.

    K is the heat kernel heat_matrix(grid, s, mode), or multiply_function
    of it, and s and mode are the ones it records.  Checks, in order:
    pointwise domination of |K chi| by the dominating heat kernel of that
    mode (the Gaussian at time s, an equality for gaussian-kernel; the
    infinite-lattice kernel for expm-of-laplacian), row vs column sup bounds
    of K and their gap, the sup-bound estimate of the HS norm, and the
    sharper mass estimate HS^2 <= m * |masked region|, m the dominating
    kernel's column L2 mass on the lattice h Z^nu (_lattice_heat_mass,
    reported as gaussian_mass).  The continuum Gaussian mass |f|_{L2}^2
    is no bound once s is small against h^2: a lattice column of the
    Gaussian then holds more mass than the continuum one.

    The N x |mask| block K chi is never held.  K^2 is separable like K, so
    its row sums are one Kronecker apply of factor^2 to scale^2, its column
    sums the Kronecker product of the 1-D column sums times scale^2, and
    HS^2 = w * (the column sums over the mask).  The singular values are
    taken in the factor's eigenbasis (_kron_singular_values); each weighted
    value mu_i = w sigma_i is within w * KRON_EIGEN_FLOOR * ||factor||_2^nu *
    max |scale| over the mask of mu_i(K chi).  For heat_matrix kernels that
    is at most KRON_EIGEN_FLOOR in expm-of-laplacian mode (a factor of norm
    < 1, scale 1/w), and (1 + h / sqrt(4 pi s))^nu KRON_EIGEN_FLOOR in
    gaussian-kernel mode (the factor's norm is at most its largest row sum,
    1 + sqrt(4 pi s) / h).
    The domination excess is taken over chunks of HS_CHUNK_ENTRIES entries
    of the masked columns of K and of the dominating kernel.  Before any
    work it refuses a kernel that records no heat time and mode (any kernel
    not from heat_matrix or multiply_function of one).
    """
    if K._heat is None:
        raise ValueError("hs_diagnostics needs a heat_matrix kernel")
    s, mode = K._heat
    factor = K._factor
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (K.grid.size,):
        raise ValueError("mask length must equal the grid size")
    w = K.weight
    nu = K.grid.nu
    cols = np.flatnonzero(mask)

    factor_sq, scale_sq = factor**2, K._scale**2
    row_sums = w * _kron_apply(factor_sq, nu, scale_sq)
    col_sums = w * (reduce(np.multiply.outer, [np.sum(factor_sq, axis=0)] * nu).ravel()
                    * scale_sq)
    hs2 = w * float(np.sum(col_sums[cols]))
    sv = w * _kron_singular_values(factor, nu, K._scale, cols)

    coef = _heat_peak(nu, s)
    excess = _largest_excess(K, _dominating_heat_kernel(K.grid, s, mode), cols)

    row_bound = float(np.max(row_sums))
    col_bound = float(np.max(col_sums))
    mass = _lattice_heat_mass(K.grid, s, mode)
    region_measure = w * cols.size

    checks = (
        _bound("pointwise-domination", excess, 0.0, 1e-12 * coef),
        _bound("row-column-gap", abs(row_bound - col_bound), 0.0,
               1e-12 * max(row_bound, col_bound, 1e-300)),
        _bound("hs-vs-sup-bound", hs2, col_bound * region_measure,
               1e-12 * max(col_bound * region_measure, 1e-300)),
        _bound("hs-vs-gaussian-mass", hs2, mass * region_measure,
               0.01 * mass * region_measure),
    )
    constants = {
        "row_bound": row_bound,
        "column_bound": col_bound,
        "mask_measure": region_measure,
        "gaussian_mass": mass,
    }
    return CompactnessDiagnostics(sv, math.sqrt(hs2), checks, constants)


def truncated_convolution(grid: Grid, s: float, R: float):
    """Range-R truncation F_R of the heat kernel and its L1 tail.

    F_R is the Gaussian heat kernel in Kronecker form, cut to 0 at lattice
    offsets beyond R.  The tail is the quadrature mass of the Gaussian
    outside radius R -- lattice offsets inside the difference box plus the
    analytic mass beyond it in closed form -- and upper-bounds |heat - F_R|
    in operator norm by the Schur test, since every discarded entry shows up
    in the lattice sum.  The lattice rule refuses a non-finite or negative
    R, and check_positive refuses R = 0, then a bad s.
    """
    cutoff = _lattice_cutoff(grid, R)
    check_positive("R", R)
    F = _gaussian_heat(grid, check_positive("s", s), cutoff)

    h = grid.spacing
    n = grid.points_per_axis
    offsets = _mesh(grid, np.arange(1 - n, n))
    outside = ~_in_ball(cutoff, offsets, [0] * grid.nu)
    d2 = sum(o * o for o in offsets)[outside]
    coef = _heat_peak(grid.nu, s)
    gauss = coef * np.exp(-(d2 * h * h) / (4.0 * s))
    lattice_tail = grid.weight * float(np.sum(gauss))

    half_cover = 2.0 * grid.half_width - h / 2.0
    beyond_box = 1.0 - math.erf(half_cover / (2.0 * math.sqrt(s))) ** grid.nu
    return F, lattice_tail + beyond_box


def d_kernel(grid: Grid, V: PotentialExpr, M: float, R: float) -> KernelMatrix:
    """0/1 proximity kernel chi(x) [|x-y| <= 2R] chi(y) on the sublevel set.

    Held in block form on the sublevel points, with R recorded for
    kernel_power_bound; only that block is formed.  M must be finite and
    > 0 (sublevel.check_positive).
    """
    M = check_positive("M", M)
    cutoff = _lattice_cutoff(grid, 2.0 * R)
    inside = np.flatnonzero(potential_on_grid(grid, V) < M)
    at = _coordinates(grid, inside)
    block = _in_ball(cutoff, [a[:, None] for a in at], at).astype(float)
    return KernelMatrix._blocked(grid, inside, block, float(R))


def domination_check(C_MR: KernelMatrix, D: KernelMatrix) -> CompactnessDiagnostics:
    """Pointwise bound of the product kernel C*C by a multiple of D.

    Reports the smallest admissible c and verifies that the product kernel
    vanishes wherever D does; a violation is raised, since the truncation
    radii make off-support products impossible by construction.

    Only the nonzero columns of C are formed, and the product w C^T C lives
    on their block; the block U is D's index together with those columns.
    The product is symmetric by construction, so its singular values are
    the |eigenvalues| of its lower triangle (symmetric_singular_values).
    A D in Kronecker form is refused rather than formed.
    """
    if C_MR.grid != D.grid:
        raise ValueError("grid mismatch between the kernels")
    if D._factor is not None:
        raise ValueError("domination_check needs a block-form D, such as d_kernel's")
    # the columns that can hold a nonzero entry, in increasing order
    candidates = C_MR._index if C_MR._factor is None else np.flatnonzero(C_MR._scale)
    C = C_MR._columns(candidates)
    nonzero = np.any(C, axis=0)
    cols, C = candidates[nonzero], C[:, nonzero]
    P = C_MR.weight * (C.T @ C)
    U = np.union1d(D._index, cols)
    P_U = _restrict(cols, P, U)
    D_U = _restrict(D._index, D._block, U)
    support = D_U != 0.0

    off_max = float(np.max(np.abs(P_U), where=~support, initial=0.0))
    tol_support = 1e-14 * float(np.max(P, initial=1.0))
    if off_max > tol_support:
        raise ValueError(
            f"support violation: product reaches {off_max:.3e} where D "
            "vanishes (implementation bug, not a tunable)"
        )
    on = P_U[support]
    c = float(np.max(on)) if on.size else 0.0
    dominated = float(np.max(P_U - c * D_U,
                             initial=0.0 if U.size < D.grid.size else -np.inf))

    sv = C_MR.weight * symmetric_singular_values(P)
    hs = C_MR.weight * float(np.linalg.norm(P, "fro"))
    checks = (
        _bound("support-containment", off_max, 0.0, tol_support),
        _bound("dominated-by-c-D", dominated, 0.0, 1e-12 * max(1.0, c)),
    )
    return CompactnessDiagnostics(sv, hs, checks, {"c": c})


def check_kernel_power(k) -> None:
    """Refuses a kernel_power_bound power k outside 2..MAX_KERNEL_POWER."""
    if not 2 <= k <= MAX_KERNEL_POWER:
        raise ValueError(f"k must be in 2..{MAX_KERNEL_POWER}, got {k}")


def kernel_power_bound(D: KernelMatrix, k: int) -> CompactnessDiagnostics:
    """Local-measure bound on the k-th weighted power of the proximity kernel.

    D is d_kernel(grid, V, M, R).  D^k(x,y) counts weighted chains of k hops
    of length <= 2R through the sublevel set, so it is bounded by
    [|x-y| <= 2kR] * omega^{k-1} * chi(y) with omega the grid-counting local
    measure of the sublevel set at radius 2kR -- the same argument as the
    continuum one, restricted to grid sums, hence exact up to roundoff.  The
    HS norm of D^k is reported against the integral bound (sup ball measure)
    * integral of omega^{2k-2}.

    The sublevel set is D's index and R is D's record, so everything is
    computed on D's block, and the entries off it are exact zeros.  That
    block is exactly symmetric, so D^k is too, and its singular values are
    the |eigenvalues| of its lower triangle (symmetric_singular_values).
    Refused before any product: a kernel without d_kernel's record (a dense
    kernel, multiply_function of a d_kernel, a Kronecker-form kernel), and a
    reach 2kR that the lattice rule refuses or whose ball volume, a reported
    constant, is beyond float range (sublevel.check_ball_volume).
    """
    check_kernel_power(k)
    if D._radius is None:
        raise ValueError("kernel_power_bound needs a d_kernel kernel")
    grid, index = D.grid, D._index
    w = D.weight
    radius = 2.0 * k * D._radius
    cutoff = _lattice_cutoff(grid, radius)
    check_ball_volume("2kR", grid.nu, radius)
    P = D._block
    for _ in range(k - 1):
        P = P @ D._block
        P *= w
    hs2 = w * w * float(np.sum(P**2))
    sv = w * symmetric_singular_values(P)

    at = _coordinates(grid, index)
    ball = _in_ball(cutoff, [a[:, None] for a in at], at)
    omega = w * np.count_nonzero(ball, axis=1)   # exact counts
    bound = ball * omega ** (k - 1)
    # the relative excess (P - bound) / max(bound, 1e-300), in place in P
    P -= bound
    P /= np.maximum(bound, 1e-300, out=bound)
    rel_excess = float(np.max(P, initial=0.0 if index.size < grid.size else -np.inf))
    # Column counts of the lattice ball within the box peak at the central
    # point.  A column's count is a sum, over the offsets along the other
    # axes, of 1-D counts #{o : |o| <= r, 0 <= j + o < n}, and each of those
    # is largest at j = (n - 1) // 2 whatever r is; so centre every axis.
    n = grid.points_per_axis
    centre = [(n - 1) // 2] * grid.nu
    ball_sup = w * float(np.count_nonzero(_in_ball(cutoff, centre, _mesh(grid, np.arange(n)))))
    omega_integral = w * float(np.sum(omega ** (2 * k - 2)))
    hs_bound = ball_sup * omega_integral

    checks = (
        _bound("pointwise-power-bound", rel_excess, 0.0, 1e-9),
        _bound("hs-power-bound", hs2, hs_bound,
               1e-9 * max(hs_bound, 1e-300)),
    )
    constants = {
        "ball_measure_sup": ball_sup,
        "analytic_ball_volume": ball_volume(grid.nu, radius),
        "omega_integral": omega_integral,
        "omega_max": float(np.max(omega, initial=0.0)),
    }
    return CompactnessDiagnostics(sv, math.sqrt(hs2), checks, constants)
