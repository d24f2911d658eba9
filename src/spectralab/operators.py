"""Discretized Schrodinger operators on boxes.

Cell-centered grids on [-L, L]^nu with the 2*nu+1 point Dirichlet stencil:
the grid has N = 2L/h points per axis at x_i = -L + (i + 1/2) h, which puts
the homogeneous Dirichlet walls at +-(L + h/2).  Potential values must be
nonnegative and not NaN, and finite wherever they enter a Hamiltonian
(potentials.guard_values).  Spectra come from
linalg.lanczos_extremal (ARPACK plus a certificate that no lower value was
missed); for nu <= 2 within FACTOR_POINT_CAP it is handed a factor hook,
_shifted_factor: the solve and the Sylvester inertia count of one sparse
LDL^T factor of H - shift I.  They are reported as
box-stabilization evidence: a truncated box always has discrete spectrum,
so discreteness claims rest on eigenvalues that stop moving as the box
grows, and on counts N(level) that stay bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg  # noqa: F401  (registers sparse.linalg)

from .linalg import lanczos_extremal
from .potentials import PotentialExpr, evaluate, guard_values

__all__ = [
    "Grid",
    "SparseOperator",
    "SpectrumReport",
    "check_schedule",
    "discrete_laplacian",
    "hamiltonian",
    "spectrum_study",
]

SPARSE_POINT_BUDGET = 4_000_000
DENSE_ENTRY_BUDGET = 250_000_000
# Most grid points one sparse factor (_ldlt) may span, per nu: each cap
# holds the factor to about 250 MB of peak RSS.  Measured on one core: 370
# bytes per point at nu = 1 (linear), 242 MB at 262,144 points for nu = 2,
# 205 MB at 32,768 points for nu = 3 (576 MB at 64,000).
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

    def require_factor_budget(self) -> None:
        """Guard for operations that need a sparse factor (inertia counts)."""
        if not self.factor_fits:
            raise ValueError(
                f"sparse factor on {self.size} points exceeds the cap of "
                f"{FACTOR_POINT_CAP[self.nu]} points at nu = {self.nu}"
            )

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
        if self.matrix.shape != (self.dimension, self.dimension):
            raise ValueError("matrix shape does not match the declared dimension")
        gap = sparse.linalg.norm(self.matrix - self.matrix.T, ord=np.inf)
        scale = sparse.linalg.norm(self.matrix, ord=np.inf)
        if gap > 1e-12 * max(scale, 1e-300):
            raise ValueError("matrix is not symmetric")

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


def _second_difference(n: int, h: float) -> sparse.csr_matrix:
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    return sparse.diags([off, main, off], offsets=(-1, 0, 1), format="csr")


def discrete_laplacian(grid: Grid) -> SparseOperator:
    """Dirichlet finite-difference Laplacian (positive semidefinite)."""
    T = _second_difference(grid.points_per_axis, grid.spacing)
    total = T
    # kronsum(A, T) = I (x) A + T (x) I; every axis has the same T, so the
    # fold gives the sum over axes of T acting on that axis alone
    for _ in range(grid.nu - 1):
        total = sparse.kronsum(total, T, format="csr")
    return SparseOperator(grid.size, total)


def potential_on_grid(grid: Grid, V: PotentialExpr) -> np.ndarray:
    """Values of V at the cell centers, guarded (see potentials.guard_values)."""
    if V.dimension != grid.nu:
        raise ValueError(
            f"potential has dimension {V.dimension}, grid has nu = {grid.nu}"
        )
    return guard_values(V, evaluate(V, grid.points), "at a grid point")


def hamiltonian(grid: Grid, V: PotentialExpr) -> SparseOperator:
    """H = discrete Laplacian + multiplication by V at the cell centers."""
    values = guard_values(V, potential_on_grid(grid, V), "at a grid point",
                          finite=True)
    lap = discrete_laplacian(grid)
    H = lap.matrix + sparse.diags(values, format="csr")
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
    """The box half-widths as floats, once they are >= 2 finite, strictly increasing values."""
    schedule = tuple(float(L) for L in schedule)
    if len(schedule) < 2:
        raise ValueError("schedule needs at least two box sizes")
    if not all(np.isfinite(schedule)):
        raise ValueError(f"schedule must be finite, got {schedule}")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    return schedule


def _ldlt(matrix):
    """SuperLU's factor of a symmetric sparse matrix, as P (L D L^T) P^T.

    Diagonal pivots only, in a symmetric fill-reducing order; the factor
    solves either way, and its diag(U) = D is the inertia while perm_r
    equals perm_c (no row was pivoted).  The caller keeps the grid within
    FACTOR_POINT_CAP.
    """
    return sparse.linalg.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                              diag_pivot_thresh=0, options={"SymmetricMode": True})


def _shifted_factor(H: SparseOperator, shift: float):
    """lanczos_extremal's factor hook for H: the _ldlt factor of H - shift I.

    Returns its solve and, by Sylvester's law of inertia, the count of
    eigenvalues of H below the shift (the negative entries of D), or None
    when the factor pivoted rows.  An exactly singular factor (the shift is
    an eigenvalue to working precision) raises ValueError.
    """
    try:
        lu = _ldlt(H.matrix - shift * sparse.identity(H.dimension, format="csr"))
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise ValueError(f"no inertia count at level {shift:g}: {exc}") from None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return lu.solve, None
    return lu.solve, int(np.count_nonzero(lu.U.diagonal() < 0.0))


def _inertia_count(H: SparseOperator, level: float) -> int:
    """Eigenvalues of H below `level` (see _shifted_factor); ValueError if undecided."""
    count = _shifted_factor(H, level)[1]
    if count is None:
        raise ValueError(f"no inertia count at level {level:g}: the factor pivoted rows")
    return count


def _box_counts(V: PotentialExpr, L: float, h: float, levels: tuple) -> tuple:
    """The counting function of one box at each level (see _inertia_count)."""
    if not levels:
        return ()
    H = hamiltonian(Grid(V.dimension, L, h), V)
    try:
        return tuple(_inertia_count(H, level) for level in levels)
    except ValueError as exc:
        raise ValueError(f"L={L:g}: {exc}") from None


def _box_spectrum(V: PotentialExpr, L: float, h: float, k: int, **solver):
    """One box of spectrum_study: its kept values and residuals, and its notes.

    For nu <= 2 on a grid within FACTOR_POINT_CAP, lanczos_extremal gets
    the _shifted_factor hook, so it solves through a sparse factor of H and
    certifies by one inertia count.  For nu = 3 the factor's fill costs
    more than the restarts it saves, so it runs on H.matvec alone.  The
    box's Hamiltonian is freed on return.
    """
    grid = Grid(V.dimension, L, h)
    H = hamiltonian(grid, V)
    factor = partial(_shifted_factor, H) if grid.nu <= 2 and grid.factor_fits else None
    result = lanczos_extremal(H.matvec, grid.size, k, tol=SOLVER_TOLERANCE, factor=factor,
                              **solver)
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
    Counts come first, box by box, each from its own sparse factor: a box over
    FACTOR_POINT_CAP, or a count level that the inertia cannot decide (see
    _inertia_count), raises ValueError naming the box before any solve.
    """
    schedule = check_schedule(schedule)
    count_levels = tuple(float(level) for level in count_levels)
    if count_levels:
        Grid(V.dimension, schedule[-1], h).require_factor_budget()
    counting = tuple(_box_counts(V, L, h, count_levels) for L in schedule)

    # Largest box first: each smaller box's factor then fits in heap memory
    # the larger one freed.  Repeated studies on boxes (3, 4) at h = 0.1
    # peaked at 77.5 MB RSS in ascending order against 71 MB (glibc malloc).
    # Each box's result is independent of the order (lanczos_extremal
    # derives its start vector from seed alone).
    boxes = [_box_spectrum(V, L, h, k, max_iters=max_iters, seed=seed)
             for L in schedule[::-1]][::-1]
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
