"""Discretized Schrodinger operators on boxes.

Cell-centered grids on [-L, L]^nu with the 2*nu+1 point Dirichlet stencil:
the grid has N = 2L/h points per axis at x_i = -L + (i + 1/2) h, which puts
the homogeneous Dirichlet walls at +-(L + h/2).  Potential values must be
nonnegative and not NaN, and finite wherever they enter a Hamiltonian
(potentials.guard_values).  Spectra come from
linalg.lanczos_extremal (ARPACK plus a certificate that no lower value was
missed); for nu <= 2 within FACTOR_POINT_CAP it is handed a factor hook,
_shifted_factor: the solve and the Sylvester inertia count of one sparse
LDL^T factor of H - shift I.  spectrum_study runs the boxes smallest first
and hands each later box a level just above the previous box's k-th value,
so that one factor there both solves and counts.  They are reported as
box-stabilization evidence: a truncated box always has discrete spectrum,
so discreteness claims rest on eigenvalues that stop moving as the box
grows, and on counts N(level) that stay bounded.  check_spectrum_inputs
holds every rule on a study's inputs; spectrum_study and cli both call it
before any count or solve.  SparseOperator's exact symmetry check runs once
per Hamiltonian: hamiltonian adds V to the Laplacian's unchecked CSR matrix
(_laplacian_csr, which discrete_laplacian wraps too) and checks H alone, and
spectrum_study builds each box's H once for its counts and its solve.
scipy.sparse and scipy.sparse.linalg are imported inside the functions that
build, check or factor a matrix, when they run, so a process that only
samples a potential never loads them; annotations such as sparse.csr_matrix
stay unevaluated strings (from __future__ import annotations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .linalg import LEVEL_SLACK, SYMMETRY_TOLERANCE, _check_eigenpairs, lanczos_extremal
from .potentials import PotentialExpr, evaluate, guard_values
from .sublevel import check_positive

__all__ = [
    "Grid",
    "SparseOperator",
    "SpectrumReport",
    "check_schedule",
    "check_spectrum_inputs",
    "discrete_laplacian",
    "hamiltonian",
    "potential_on_grid",
    "spectrum_study",
]

SPARSE_POINT_BUDGET = 4_000_000
DENSE_ENTRY_BUDGET = 250_000_000
# Most grid points one sparse factor (_ldlt) may span, per nu: each cap
# holds one inertia count to about 345 MB of peak RSS above H.  Measured at
# each cap in a fresh process (ru_maxrss, one core), a count adds 291 MB at
# nu = 1, 343 MB at nu = 2 and 337 MB at nu = 3.  The factor alone takes
# 291, 273 and 211 MB of that; the rest (0, 70 and 126 MB) is the copy of U
# that _shifted_factor's count makes (lu.U) to read the diagonal, which
# SuperLU exposes no other way; a solve factor whose count is never called
# makes none.  A whole nu = 2 solve at the cap adds 445 MB, with
# one factor at sigma or with a solve factor and a count factor alike:
# ARPACK's Lanczos vectors come on top of the factor.
FACTOR_POINT_CAP = {1: 640_000, 2: 262_144, 3: 32_768}
RESIDUAL_TOLERANCE = 1e-6
# lanczos_extremal's ARPACK tolerance for every box of spectrum_study.
SOLVER_TOLERANCE = 3e-11


@dataclass(frozen=True)
class Grid:
    """Cell-centered tensor grid on [-L, L]^nu with spacing h."""

    nu: int
    half_width: float
    spacing: float
    axis: np.ndarray = field(init=False, repr=False, compare=False)
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.nu not in (1, 2, 3):
            raise ValueError(f"nu must be 1, 2, or 3, got {self.nu}")
        L = float(self.half_width)
        h = float(self.spacing)
        if not (L > 0.0 and h > 0.0):
            raise ValueError("half_width and spacing must be positive")
        ratio = 2.0 * L / h
        n = round(ratio) if np.isfinite(ratio) else 0
        if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
            raise ValueError(f"2L/h must be a positive integer, got {ratio}")
        if n**self.nu > SPARSE_POINT_BUDGET:
            raise ValueError(
                f"grid would have {n**self.nu} points "
                f"(limit {SPARSE_POINT_BUDGET})"
            )
        object.__setattr__(self, "half_width", L)
        object.__setattr__(self, "spacing", h)
        axis = -L + (np.arange(n) + 0.5) * h
        mesh = np.meshgrid(*([axis] * self.nu), indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "points", points)

    @property
    def points_per_axis(self) -> int:
        return self.axis.size

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def weight(self) -> float:
        return self.spacing**self.nu

    @property
    def factor_fits(self) -> bool:
        """Whether a sparse factor on this grid stays within FACTOR_POINT_CAP."""
        return self.size <= FACTOR_POINT_CAP[self.nu]

    def require_dense_budget(self) -> None:
        """Guard for operations that materialize size x size kernels."""
        if self.size**2 > DENSE_ENTRY_BUDGET:
            raise ValueError(
                f"dense kernel on {self.size} points ({self.size**2} entries) "
                f"exceeds the budget of {DENSE_ENTRY_BUDGET} entries"
            )


@dataclass(frozen=True)
class SparseOperator:
    """CSR-backed symmetric operator; construction checks the symmetry."""

    dimension: int
    matrix: sparse.csr_matrix = field(repr=False, compare=False)

    def __post_init__(self):
        from scipy.sparse.linalg import norm

        if self.matrix.shape != (self.dimension, self.dimension):
            raise ValueError("matrix shape does not match the declared dimension")
        gap = norm(self.matrix - self.matrix.T, ord=np.inf)
        scale = norm(self.matrix, ord=np.inf)
        if gap > SYMMETRY_TOLERANCE * max(scale, 1e-300):
            raise ValueError("matrix is not symmetric")

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v


def _dirichlet_stencil(n: int, h: float) -> tuple:
    """The 1-D Dirichlet second difference on n points of spacing h, as its
    main diagonal and its (symmetric) off diagonal."""
    return np.full(n, 2.0 / h**2), np.full(n - 1, -1.0 / h**2)


def _second_difference(n: int, h: float) -> sparse.csr_matrix:
    import scipy.sparse as sparse

    main, off = _dirichlet_stencil(n, h)
    return sparse.diags([off, main, off], offsets=(-1, 0, 1), format="csr")


def _laplacian_csr(grid: Grid) -> sparse.csr_matrix:
    """The Dirichlet Laplacian's CSR matrix, not yet checked for symmetry."""
    import scipy.sparse as sparse

    T = _second_difference(grid.points_per_axis, grid.spacing)
    total = T
    # kronsum(A, T) = I (x) A + T (x) I; every axis has the same T, so the
    # fold gives the sum over axes of T acting on that axis alone
    for _ in range(grid.nu - 1):
        total = sparse.kronsum(total, T, format="csr")
    return total


def discrete_laplacian(grid: Grid) -> SparseOperator:
    """Dirichlet finite-difference Laplacian (positive semidefinite)."""
    return SparseOperator(grid.size, _laplacian_csr(grid))


def potential_on_grid(grid: Grid, V: PotentialExpr) -> np.ndarray:
    """Values of V at the cell centers, guarded (see potentials.guard_values)."""
    if V.dimension != grid.nu:
        raise ValueError(
            f"potential has dimension {V.dimension}, grid has nu = {grid.nu}"
        )
    return guard_values(V, evaluate(V, grid.points), "at a grid point")


def hamiltonian(grid: Grid, V: PotentialExpr) -> SparseOperator:
    """H = discrete Laplacian + multiplication by V at the cell centers; the
    SparseOperator of H is the one symmetry check on the way."""
    import scipy.sparse as sparse

    values = guard_values(V, potential_on_grid(grid, V), "at a grid point",
                          finite=True)
    H = _laplacian_csr(grid) + sparse.diags(values, format="csr")
    return SparseOperator(grid.size, H.tocsr())


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues per box size with drift, counting, and a verdict.

    eigenvalues[j] holds the ascending values kept at schedule[j] (only
    values whose residual |H x - lambda x| / |x| cleared the residual
    tolerance are kept);
    drift[j] compares schedule[j] to schedule[j+1] entrywise relative to the
    larger box.  counting[j][i] is the counting function N(count_levels[i])
    of the schedule[j] Hamiltonian: all of its eigenvalues below the level,
    from the inertia of H - level I (_inertia_count), whatever k is.
    verdict is "stabilized" when the final drift row exists, is complete,
    and stays within 1 percent.
    """

    potential: str
    schedule: tuple
    spacing: float
    k: int
    eigenvalues: tuple
    residuals: tuple
    drift: tuple
    count_levels: tuple
    counting: tuple
    verdict: str
    notes: tuple


def check_schedule(schedule) -> tuple:
    """The box half-widths as floats, once they are >= 2 finite, positive,
    strictly increasing values."""
    schedule = tuple(check_positive("L", L) for L in schedule)
    if len(schedule) < 2:
        raise ValueError("schedule needs at least two box sizes")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    return schedule


def check_spectrum_inputs(nu: int, schedule, h: float, k: int, count_levels=()) -> tuple:
    """(schedule, count_levels) as float tuples, once spectrum_study can run on them.

    Refuses a schedule that check_schedule refuses, k outside
    1..MAX_EIGENPAIRS (linalg's rule, which lanczos_extremal applies too),
    a count level that is NaN or infinite, and then box by box, smallest
    first: a Grid(nu, L, h) that cannot be built, k above its points, and,
    when there are count levels, a sparse factor over FACTOR_POINT_CAP.
    """
    schedule = check_schedule(schedule)
    _check_eigenpairs(k)
    count_levels = tuple(float(level) for level in count_levels)
    for level in count_levels:
        if not np.isfinite(level):
            raise ValueError(f"count level must be finite, got {level:g}")
    for L in schedule:
        grid = Grid(nu, L, h)
        if k > grid.size:
            raise ValueError(f"k = {k} exceeds the {grid.size} points of the L = {L:g} grid")
        if count_levels and not grid.factor_fits:
            raise ValueError(f"sparse factor on {grid.size} points exceeds the cap of "
                             f"{FACTOR_POINT_CAP[nu]} points at nu = {nu}")
    return schedule, count_levels


def _ldlt(matrix):
    """SuperLU's factor of a symmetric sparse matrix, as P (L D L^T) P^T.

    Diagonal pivots only, in a symmetric fill-reducing order; the factor
    solves either way, and its diag(U) = D is the inertia while perm_r
    equals perm_c (no row was pivoted).  The caller keeps the grid within
    FACTOR_POINT_CAP.
    """
    from scipy.sparse.linalg import splu

    return splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0, options={"SymmetricMode": True})


def _shifted_factor(H: SparseOperator, shift: float):
    """lanczos_extremal's factor hook for H: the _ldlt factor of H - shift I.

    Returns its solve and its count: a call that gives, by Sylvester's law
    of inertia, the number of eigenvalues of H below the shift (the
    negative entries of D), or None when the factor pivoted rows.  The
    count reads diag(U) through lu.U, a copy of all of U, so only a factor
    whose count is called pays for it.  An exactly singular factor (the
    shift is an eigenvalue to working precision) raises ValueError.
    """
    import scipy.sparse as sparse

    try:
        lu = _ldlt(H.matrix - shift * sparse.identity(H.dimension, format="csr"))
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise ValueError(f"no inertia count at level {shift:g}: {exc}") from None

    def count():
        if not np.array_equal(lu.perm_r, lu.perm_c):
            return None
        return int(np.count_nonzero(lu.U.diagonal() < 0.0))

    return lu.solve, count


def _inertia_count(H: SparseOperator, level: float) -> int:
    """Eigenvalues of H below `level` (see _shifted_factor); ValueError if undecided."""
    count = _shifted_factor(H, level)[1]()
    if count is None:
        raise ValueError(f"no inertia count at level {level:g}: the factor pivoted rows")
    return count


def _box_counts(H: SparseOperator, L: float, levels: tuple) -> tuple:
    """The counting function of the L box's H at each level (see _inertia_count)."""
    try:
        return tuple(_inertia_count(H, level) for level in levels)
    except ValueError as exc:
        raise ValueError(f"L={L:g}: {exc}") from None


def _box_operator(V: PotentialExpr, L: float, h: float) -> tuple:
    """The L box's Hamiltonian H and lanczos_extremal's factor hook for it.

    The hook is _shifted_factor on H for nu <= 2 on a grid within
    FACTOR_POINT_CAP, and None otherwise: for nu = 3 the factor's fill
    costs more than the restarts it saves.  The grid is not kept.
    """
    grid = Grid(V.dimension, L, h)
    H = hamiltonian(grid, V)
    return H, partial(_shifted_factor, H) if grid.nu <= 2 and grid.factor_fits else None


def _box_spectrum(L: float, H: SparseOperator, factor, k: int, sigma=None, **solver):
    """One box of spectrum_study: its kept values and residuals, and its notes.

    lanczos_extremal gets the box's factor hook (see _box_operator) and
    the level sigma (None for the first box).  With a hook it solves
    through a sparse factor of H and certifies by its inertia count: one
    factor at sigma when that level serves, else a solve factor and a count
    factor.  Without one it runs on H.matvec alone.  When the level's
    vectors miss RESIDUAL_TOLERANCE, the box runs again without it: a sigma
    within LEVEL_SLACK of the box's own k-th value gives a solve of norm
    about 1/slack, whose roundoff leaves the lowest vectors inexact.
    """
    solve = partial(lanczos_extremal, H.matvec, H.dimension, k, tol=SOLVER_TOLERANCE,
                    factor=factor, **solver)
    result = solve(sigma=sigma)
    if factor is not None and sigma is not None and np.any(result.residuals > RESIDUAL_TOLERANCE):
        result = solve()
    values, residuals = result.eigenvalues, result.residuals
    notes = []
    if not result.converged and result.note:
        notes.append(f"L={L:g}: {result.note}")
    keep = 0
    while keep < values.size and residuals[keep] <= RESIDUAL_TOLERANCE:
        keep += 1
    if keep < values.size:
        notes.append(
            f"L={L:g}: kept {keep} of {values.size} eigenvalues "
            f"(residual tolerance {RESIDUAL_TOLERANCE:g})"
        )
    return values[:keep].copy(), residuals[:keep].copy(), notes


def spectrum_study(V: PotentialExpr, schedule, h: float, k: int, seed: int = 0,
                   max_iters: int = 600, count_levels=()) -> SpectrumReport:
    """k lowest eigenvalues of H across a growing-box schedule at fixed h.

    The verdict is box-stabilization evidence, not a proof: "stabilized"
    means the lowest k eigenvalues moved by at most 1 percent between the
    two largest boxes and every kept value has residual
    |H x - lambda x| / |x| below RESIDUAL_TOLERANCE.  seed and max_iters
    are lanczos_extremal's, as is SOLVER_TOLERANCE (see _box_spectrum).
    Eigensolver shortfalls are propagated as notes with partial data.
    Boxes run smallest first; for nu <= 2 each later box solves and
    certifies through one factor at a level above the previous box's k-th
    value, or through two factors when that level cannot serve (see
    linalg.lanczos_extremal).
    Inputs go through check_spectrum_inputs before any work.  Each box's
    grid and Hamiltonian are built once (_box_operator), and H serves its
    counts and its solve.  The schedule's CSR matrices are held together
    until the first solve, 64 bytes per point at nu = 2 (16.8 MB at
    FACTOR_POINT_CAP, against a 273 MB factor there); each is freed when
    the next box's solve begins.
    Counts come first, box by box, each from its own sparse factor: a count
    level that the inertia cannot decide (see _inertia_count) raises
    ValueError naming the box before any solve.
    """
    schedule, count_levels = check_spectrum_inputs(V.dimension, schedule, h, k,
                                                   count_levels)
    hamiltonians = [_box_operator(V, L, h) for L in schedule]
    counting = tuple(_box_counts(H, L, count_levels)
                     for L, (H, _) in zip(schedule, hamiltonians))

    # Smallest box first: each box's k-th value, plus linalg.LEVEL_SLACK
    # relative, is the next box's shift-invert level.  On nested grids
    # ((L2 - L1) / h an integer) H(L1) is a principal submatrix of H(L2) up
    # to the last bits of the cell centres and of V there, so by Cauchy
    # interlacing and Weyl's inequality lambda_k(L2) <= lambda_k(L1) +
    # max |delta V|; the slack covers that and the solver's error in
    # lambda_k(L1).  Where it does not, the count at the level decides.
    # The order costs little memory (glibc malloc, peak RSS): 150 studies on
    # boxes (3, 4) at h = 0.1 in one process peak at 73.5-73.8 MB either
    # way, and one study on (6, 8) at 104.4 MB against 101.4 MB largest
    # first, when each smaller box's factor fits in heap memory the larger
    # one freed.
    boxes, sigma = [], None
    for L in schedule:
        H, factor = hamiltonians.pop(0)  # frees the smaller box's H
        boxes.append(_box_spectrum(L, H, factor, k, sigma, max_iters=max_iters, seed=seed))
        kept = boxes[-1][0]
        sigma = kept[-1] + LEVEL_SLACK * max(1.0, abs(kept[-1])) if kept.size == k else None
    kept_values, kept_residuals, box_notes = zip(*boxes)
    notes = [note for per_box in box_notes for note in per_box]

    drift = []
    for a, b in zip(kept_values, kept_values[1:]):
        m = min(a.size, b.size)
        denom = np.maximum(np.abs(b[:m]), 1e-300)
        drift.append(np.abs(b[:m] - a[:m]) / denom)

    final = drift[-1]
    complete = kept_values[-1].size == k and kept_values[-2].size == k
    stabilized = complete and final.size == k and bool(np.all(final <= 0.01))
    return SpectrumReport(
        potential=V.source,
        schedule=schedule,
        spacing=float(h),
        k=int(k),
        eigenvalues=tuple(kept_values),
        residuals=tuple(kept_residuals),
        drift=tuple(drift),
        count_levels=count_levels,
        counting=counting,
        verdict="stabilized" if stabilized else "not-stabilized",
        notes=tuple(notes),
    )
