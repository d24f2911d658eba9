"""Sublevel-set geometry: measures of Omega_M = {0 <= V < M} in a ball
(the paper's |Omega_M cap B_R|), local measures omega_x^l, polynomial-thinness
evidence, and decay fits.

All Monte Carlo draws derive from one master seed through numpy SeedSequence
spawn keys.  `thinness` estimates omega in blocks with their own streams;
each block rotates one pattern of uniform ball points by an independent
Haar-random matrix per center, and since a rotation maps the uniform ball
distribution to itself, each center still sees i.i.d. uniform points.  A
group of blocks draws first and makes all its rotations in one stacked QR;
then each chunk of a block's centers is one matrix product, which rotates
and translates the pattern into column-major points in (center, pattern
point) order.
Scalar reductions use math.fsum (exact compensated summation).

One sampler, _shell_points, makes every draw of uniform points: the Monte
Carlo `measure` samples, the thinness proposals and the omega patterns.  It
draws in _CHUNK_POINTS slices, and each slice draws its own normals, then
its own uniforms, so a longer draw is the concatenation of its slices'
draws and holds one slice at a time.  So a caller's peak does not grow
with its budget: `measure` counts each slice's membership (a tracemalloc
peak of 0.8 MB at nu = 2, at 2**15 samples as at 2**22) and `thinness`
keeps each slice's hits.

Every entry point checks its inputs before it draws a sample:
check_positive refuses a height, exponent or radius that is not finite
and > 0 (NaN and +-inf included), check_ball_volume also refuses a
radius whose nu-ball volume is beyond float range, and
check_monte_carlo_budget refuses a Monte Carlo budget below
MONTE_CARLO_MIN_BUDGET.  cli calls the same three rules, so a run refuses
what the library refuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import PotentialExpr, evaluate, guard_values
from .rng import derived_rng

__all__ = [
    "Region",
    "MeasureEstimate",
    "ThinnessReport",
    "DecayFit",
    "ball_volume",
    "indicator",
    "measure",
    "local_measure",
    "decay_fit",
    "thinness",
    "check_ball_volume",
    "check_monte_carlo_budget",
    "check_positive",
    "check_radii",
]


# fewest uniform samples of a Monte Carlo `measure`
MONTE_CARLO_MIN_BUDGET = 1_000
# points per membership evaluation: every _shell_points draw and a block's
# omega centers go in slices, whose arrays (256 KB of points at nu = 2)
# stay in cache.  Each slice of a draw draws from the stream in turn, so
# this length fixes every longer draw, as _BLOCK_POINTS fixes the omega
# estimates.  glibc hands a freed array this large back to the OS unless a
# larger free raised its thresholds, so the omega loop writes its points
# into one buffer held across slices
_CHUNK_POINTS = 2**14


def ball_volume(nu: int, radius: float) -> float:
    return math.pi ** (nu / 2.0) / math.gamma(nu / 2.0 + 1.0) * radius**nu


def check_positive(name: str, value) -> float:
    """`value` as a float, once it is finite and > 0."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value:g}")
    return value


def check_ball_volume(name: str, nu: int, radius) -> float:
    """`radius` as a float, once it is finite, > 0 and its nu-ball volume
    is within float range."""
    radius = check_positive(name, radius)
    try:
        if ball_volume(nu, radius) < math.inf:
            return radius
    except OverflowError:  # radius**nu
        pass
    raise ValueError(f"{name} = {radius:g} gives a ball volume beyond "
                     f"float range at nu = {nu}")


def check_monte_carlo_budget(budget) -> None:
    """Refuses a Monte Carlo `measure` budget below MONTE_CARLO_MIN_BUDGET."""
    if budget < MONTE_CARLO_MIN_BUDGET:
        raise ValueError(f"monte-carlo budget must be >= {MONTE_CARLO_MIN_BUDGET}")


@dataclass(frozen=True)
class Region:
    """Closed ball of `radius` about `center`."""

    center: tuple
    radius: float

    def __post_init__(self):
        center = tuple(float(c) for c in np.atleast_1d(self.center))
        object.__setattr__(self, "center", center)
        radius = float(np.asarray(self.radius).reshape(()))
        object.__setattr__(self, "radius",
                           check_ball_volume("ball radius", len(center), radius))

    @property
    def dimension(self) -> int:
        return len(self.center)

    @property
    def volume(self) -> float:
        return ball_volume(self.dimension, self.radius)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        delta = pts - np.asarray(self.center)
        return np.einsum("ij,ij->i", delta, delta) <= self.radius**2


def _row_norms(points: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, summed column by column.

    For fewer than 8 columns this is the order np.linalg.norm sums in, so the
    two agree bit for bit; it avoids the slow reduction over a short axis.
    """
    sq = points[:, 0] * points[:, 0]
    for k in range(1, points.shape[1]):
        sq += points[:, k] * points[:, k]
    return np.sqrt(sq, out=sq)


def _shell_normals(nu: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n x nu standard normals, the directions of one slice of a draw: its
    zero rows (a zero normal vector has measure zero) are drawn again, in
    row order, after all n rows."""
    points = rng.standard_normal((n, nu))
    bad = np.flatnonzero(_row_norms(points) == 0.0)
    if bad.size:
        points[bad] = _shell_normals(nu, bad.size, rng)
    return points


def _to_shell(points: np.ndarray, r_inner: float, r_outer: float,
              rng: np.random.Generator) -> np.ndarray:
    """Scales each row of `points` (normals from _shell_normals) in place to
    a uniform point in the centered shell r_inner < |x| <= r_outer, drawing
    one uniform per row.  r_inner = 0 gives the ball, with radii
    r_outer * u**(1/nu).
    """
    nu = points.shape[1]
    norms = _row_norms(points)
    radii = rng.random(points.shape[0])  # u, then the radii in place
    if r_inner == 0.0:
        radii **= 1.0 / nu
        radii *= r_outer
    else:
        radii *= r_outer**nu - r_inner**nu
        radii += r_inner**nu
        radii **= 1.0 / nu
    for k in range(nu):  # column by column: a row of nu is too short a loop
        points[:, k] /= norms
        points[:, k] *= radii
    return points


def _shell_points(nu: int, r_inner: float, r_outer: float, n: int,
                  rng: np.random.Generator):
    """n uniform points in the centered shell r_inner < |x| <= r_outer, as
    consecutive _CHUNK_POINTS slices: each slice is _to_shell on its own
    _shell_normals draw from `rng`."""
    for lo in range(0, n, _CHUNK_POINTS):
        normals = _shell_normals(nu, min(_CHUNK_POINTS, n - lo), rng)
        yield _to_shell(normals, r_inner, r_outer, rng)


@dataclass(frozen=True)
class MeasureEstimate:
    value: float
    std_error: float
    method: str  # 'monte-carlo' | 'grid-quadrature'
    samples: int
    seed: int


@dataclass(frozen=True)
class ThinnessReport:
    r: float
    ell: float
    radii: tuple
    partial_integrals: tuple
    tail_ratios: tuple
    verdict: str  # 'convergent-evidence' | 'divergent-evidence' | 'inconclusive'


@dataclass(frozen=True)
class DecayFit:
    constant: float
    exponent: float
    distances: tuple
    local_measures: tuple


def _membership(V: PotentialExpr, M: float, pts: np.ndarray) -> np.ndarray:
    # values within [-tol, 0) are roundoff zeros and count as inside
    return guard_values(V, evaluate(V, pts), "at a sample point") < M


def indicator(V: PotentialExpr, M: float, x) -> bool:
    """Membership of x in Omega_M(V) = {0 <= V < M}."""
    M = check_positive("M", M)
    pts = np.asarray(x, dtype=float).reshape(1, -1)
    return bool(_membership(V, M, pts)[0])


def measure(
    V: PotentialExpr,
    M: float,
    region: Region,
    method: str = "monte-carlo",
    budget: int = 100_000,
    seed: int = 0,
) -> MeasureEstimate:
    """Estimate |Omega_M(V) cap region| for a ball region.

    monte-carlo: `budget` (at least MONTE_CARLO_MIN_BUDGET) uniform samples
    over the ball; std_error is the binomial standard error scaled by the
    ball volume.  It counts the membership of each _shell_points slice of
    the budget, moved to the region's centre.  A negative potential value
    is refused at the first slice that holds one, with that slice's
    minimum.  grid-quadrature: counts the cell centers of a uniform grid
    over the ball's bounding cube that lie in the ball (std_error 0);
    `budget` is the target cell count of the cube.
    """
    M = check_positive("M", M)
    if region.dimension != V.dimension:
        raise ValueError("region dimension does not match potential dimension")
    if method == "monte-carlo":
        check_monte_carlo_budget(budget)
        hits = 0
        for pts in _shell_points(region.dimension, 0.0, region.radius, budget, derived_rng(seed, 0)):
            for k, c in enumerate(region.center):  # by column, as in _to_shell
                pts[:, k] += c
            hits += int(np.count_nonzero(_membership(V, M, pts)))
        p = hits / budget
        volume = region.volume
        value = p * volume
        std_error = volume * math.sqrt(p * (1.0 - p) / budget)
        return MeasureEstimate(value, std_error, "monte-carlo", budget, seed)
    if method == "grid-quadrature":
        if budget < 10_000:
            raise ValueError("grid-quadrature budget must be >= 1e4 cells")
        nu = region.dimension
        per_axis = int(math.ceil(budget ** (1.0 / nu)))
        radius = region.radius
        axes = [c - radius + (np.arange(per_axis) + 0.5) * (2 * radius / per_axis) for c in region.center]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        pts = pts[region.contains(pts)]
        cell = float(np.prod(np.full(nu, 2 * radius / per_axis)))
        inside = _membership(V, M, pts)
        value = int(np.count_nonzero(inside)) * cell
        return MeasureEstimate(value, 0.0, "grid-quadrature", int(per_axis**nu), seed)
    raise ValueError(f"unknown method {method!r}")


def local_measure(
    V: PotentialExpr,
    M: float,
    x,
    ell: float,
    budget: int = 2_000,
    seed: int = 0,
    method: str = "monte-carlo",
) -> MeasureEstimate:
    """omega_x^ell(Omega_M) = |Omega_M cap ball(x, ell)|."""
    ell = check_positive("ell", ell)
    region = Region(tuple(np.atleast_1d(np.asarray(x, dtype=float))), ell)
    return measure(V, M, region, method=method, budget=budget, seed=seed)


def decay_fit(
    V: PotentialExpr,
    M: float,
    ell: float,
    ray_direction,
    distances,
    budget: int = 100_000,
) -> DecayFit:
    """Least-squares fit of log omega against log(1/(t+1)) along a ray.

    Models omega_{t*ray}^ell ~ C * (t+1)^(-exponent).  Every probe point
    t*ray must lie in Omega_M.  Each omega is a grid quadrature of `budget`
    cells on the same ball-centered grid at every probe, so a
    translation-invariant omega fits exponent 0 exactly.  Distances must be
    finite and >= 0, so that log(t + 1) is defined.
    """
    ray = np.asarray(ray_direction, dtype=float)
    norm = float(np.linalg.norm(ray))
    if norm == 0.0:
        raise ValueError("ray_direction must be nonzero")
    ray = ray / norm
    ts = [float(t) for t in distances]
    if not all(0.0 <= t < math.inf for t in ts):
        raise ValueError(f"distances must be finite and >= 0, got {ts}")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("distances must be strictly increasing")
    omegas = []
    for t in ts:
        point = t * ray
        if not indicator(V, M, point):
            raise ValueError(f"ray point at distance {t} lies outside Omega_M")
        est = local_measure(V, M, point, ell, budget=budget, method="grid-quadrature")
        if est.value <= 0.0:
            raise ValueError(f"no sublevel mass within ell of the ray point at distance {t}")
        omegas.append(est.value)
    y = np.log(np.asarray(omegas))
    z = -np.log(np.asarray(ts) + 1.0)
    if np.all(y == y[0]):
        return DecayFit(float(math.exp(y[0])), 0.0, tuple(ts), tuple(omegas))
    zc = z - z.mean()
    slope = math.fsum(zc * (y - y.mean())) / math.fsum(zc * zc)
    intercept = float(y.mean() - slope * z.mean())
    return DecayFit(float(math.exp(intercept)), float(slope), tuple(ts), tuple(omegas))


# ball points per omega block: each block draws its pattern and rotations
# from its own stream, so this size fixes the estimates
_BLOCK_POINTS = 2**16


def _rotations(draws: np.ndarray) -> np.ndarray:
    """Haar-random orthogonal matrices from a (count, nu, nu) stack of
    standard normal draws.

    Q of the QR of each Gaussian matrix, with the signs of diag R folded into
    Q (Mezzadri, "How to generate random matrices from the classical compact
    groups", 2007); without the signs Q is not Haar-distributed.
    """
    q, r = np.linalg.qr(draws)
    return q * np.copysign(1.0, np.diagonal(r, axis1=1, axis2=2))[:, None, :]


def _omega_chunk(V, M, centers, rot, lifted, buffer) -> np.ndarray:
    """Share of its own rotation rot[i] of a pattern, about centers[i], that
    lies in Omega_M, for each center i.

    `lifted` is [pattern^T; 1], so one matrix product [R_i^T | c_i] @ lifted
    rotates and translates the pattern for every center, into `buffer`.
    """
    n, nu = centers.shape
    sub_budget = lifted.shape[1]
    # column-major points in (center, pattern point) order: row (k, i) of
    # `axes` is axis k of center i's points
    axes = buffer[: nu * n * sub_budget].reshape(nu, n, sub_budget)
    lhs = np.empty((nu, n, nu + 1))
    lhs[:, :, :nu] = rot.transpose(2, 0, 1)
    lhs[:, :, nu] = centers.T
    np.matmul(lhs.reshape(nu * n, nu + 1), lifted, out=axes.reshape(nu * n, sub_budget))
    inside = _membership(V, M, axes.reshape(nu, n * sub_budget).T).reshape(n, sub_budget)
    # a count is at most sub_budget, below 2**32 wherever the pattern
    # (8 * (nu + 1) bytes per point) fits; the bool-to-uint32 sum is about
    # twice as fast as count_nonzero's bool-to-intp one
    return np.add.reduce(inside, axis=1, dtype=np.uint32) / sub_budget


def _omega_batch(V, M, centers, ell, sub_budget, seed, annulus) -> np.ndarray:
    """Monte Carlo omega^ell at each center, in blocks of about _BLOCK_POINTS.

    Block b draws from derived_rng(seed, 2, annulus, "omega", b) one pattern
    of sub_budget uniform points in the centered ell-ball, then the Gaussians
    of one random rotation per center of the block; each center tests
    membership at its own rotation of the pattern.  The blocks of a group
    draw first, then one stacked QR turns all their Gaussians into
    rotations; a group's held draws fit in one block's points.  Each chunk
    of about _CHUNK_POINTS points is one matrix product into (center,
    pattern point) order, written into one buffer that every chunk of the
    call reuses, so a center's membership is one contiguous run whose
    count, over sub_budget, is its omega.
    """
    count, nu = centers.shape
    vol = ball_volume(nu, ell)
    per_block = max(1, _BLOCK_POINTS // sub_budget)
    per_chunk = max(1, _CHUNK_POINTS // sub_budget)
    # a held block: its pattern with a column of ones, and its rotations
    per_group = max(1, per_block * sub_budget * nu
                    // (sub_budget * (nu + 1) + per_block * nu * nu))
    starts = range(0, count, per_block)
    out = np.empty(count)
    buffer = np.empty(nu * min(per_chunk, count) * sub_budget)
    for first in range(0, len(starts), per_group):
        group = starts[first : first + per_group]
        patterns, draws = [], []
        for b, start in enumerate(group, start=first):
            rng = derived_rng(seed, 2, annulus, "omega", b)
            lifted = np.ones((sub_budget, nu + 1))  # [pattern | 1]
            np.concatenate(list(_shell_points(nu, 0.0, ell, sub_budget, rng)),
                           out=lifted[:, :nu])
            patterns.append(lifted.T)
            draws.append(rng.standard_normal((min(per_block, count - start), nu, nu)))
        rotations = _rotations(np.concatenate(draws))
        for start, lifted in zip(group, patterns):
            stop = min(start + per_block, count)
            for lo in range(start, stop, per_chunk):
                hi = min(lo + per_chunk, stop)
                rot = rotations[lo - group[0] : hi - group[0]]
                out[lo:hi] = _omega_chunk(V, M, centers[lo:hi], rot, lifted, buffer) * vol
    return out


def check_radii(radii) -> list:
    """The radii as floats, once they are >= 3 strictly increasing finite positives."""
    radii = [check_positive("radius", R) for R in radii]
    if len(radii) < 3 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be at least three strictly increasing "
                         "finite positive values")
    return radii


def thinness(
    V: PotentialExpr,
    M: float,
    r: float,
    ell: float,
    radii,
    budget: int = 200_000,
    sub_budget: int = 2_000,
    seed: int = 0,
) -> ThinnessReport:
    """Partial integrals of omega_x^ell(Omega_M)^r over Omega_M cap B_R.

    Estimates annulus increments (uniform proposals per annulus, restriction
    to Omega_M by rejection on each _shell_points slice, omega per accepted
    point by a sub_budget Monte Carlo ball estimate) and accumulates them,
    so partial integrals are nondecreasing by construction.  `budget` is the proposal count per
    annulus.  E[omega^r] over the Monte Carlo omega-hat is biased upward by
    the omega-estimator variance (quadratic in the indicator's boundary
    measure within the ell-ball); sub_budget controls that bias.

    The accepted points of annulus j go in fixed blocks of about 2**16 ball
    points; block b draws from derived_rng(seed, 2, j, "omega", b).  Each
    block samples one pattern of sub_budget uniform ell-ball points and one
    Haar-random orthogonal matrix per center, drawn independently of the
    pattern, and tests membership at each center plus its own rotation of the
    pattern.  Blocks draw a group at a time, and one stacked QR makes the
    group's rotations; one matrix product rotates the pattern for every
    center of a chunk of the block, into (center, pattern point) order.  The
    groups and chunks change no draw.  A fixed rotation preserves the uniform
    ball distribution, so every omega-hat has the distribution of a
    sub_budget-point i.i.d. estimate and E[omega-hat^r] is unchanged;
    centers of one block share only the pattern's radii.

    Verdict: the last two tail ratios < 0.7 read as convergent-evidence,
    both > 0.9 as divergent-evidence, anything else inconclusive.  A verdict
    needs two ratios, so four radii: three radii give one ratio and read
    inconclusive.  This is numerical evidence about a truncated integral,
    not a proof.
    """
    nu = V.dimension
    radii = check_radii(radii)
    M = check_positive("M", M)
    r = check_positive("r", r)
    ell = check_ball_volume("ell", nu, ell)
    check_ball_volume("radius", nu, radii[-1])
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if sub_budget < 1:
        raise ValueError("sub_budget must be >= 1")
    increments = []
    bounds = [0.0] + radii
    for j, (ra, rb) in enumerate(zip(bounds, bounds[1:])):
        hits = np.concatenate([pts[_membership(V, M, pts)] for pts in
                               _shell_points(nu, ra, rb, budget, derived_rng(seed, 2, j))])
        if j == 0 and 0 < hits.shape[0] < 100:
            raise ValueError(
                f"budget too small: only {hits.shape[0]} samples landed in Omega_M cap B_{{{rb}}}"
            )
        omegas = _omega_batch(V, M, hits, ell, sub_budget, seed, j)
        shell_volume = ball_volume(nu, rb) - ball_volume(nu, ra)
        increments.append(shell_volume * math.fsum(omegas**r) / budget)
    partials = list(np.cumsum(increments))
    ratios = []
    for j in range(1, len(increments) - 1):
        num, den = increments[j + 1], increments[j]
        if den == 0.0:
            ratios.append(0.0 if num == 0.0 else math.inf)
        else:
            ratios.append(num / den)
    last_two = ratios[-2:] if len(ratios) >= 2 else []
    if last_two and all(q < 0.7 for q in last_two):
        verdict = "convergent-evidence"
    elif last_two and all(q > 0.9 for q in last_two):
        verdict = "divergent-evidence"
    else:
        verdict = "inconclusive"
    return ThinnessReport(float(r), float(ell), tuple(radii), tuple(partials), tuple(ratios), verdict)
