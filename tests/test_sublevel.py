"""Sublevel-set geometry tests with quadrature-oracle frozen values.

Frozen oracle values (scipy.integrate.quad / fine 2-D quadrature, see the
inline comments) for the cross region {|x1*x2| < 1}:
    |Omega_1 cap B_R|: R=10 -> 22.420614, 20 -> 27.965854,
                       40 -> 33.511035, 80 -> 39.056213
    omega at ((t,0), ell=1): t=5 -> 0.804169, 10 -> 0.400620,
                             20 -> 0.200070, 40 -> 0.100008
    decay-fit exponent along the x1-axis: 1.0830
"""

import math
import tracemalloc

import numpy as np
import pytest

from spectralab import sublevel
from spectralab.potentials import parse_potential
from spectralab.rng import derived_rng
from spectralab.sublevel import (
    MeasureEstimate,
    Region,
    ball_volume,
    decay_fit,
    indicator,
    local_measure,
    measure,
    thinness,
)

CROSS = parse_potential("x1^2*x2^2", 2)
DISC = parse_potential("x1^2+x2^2", 2)
STRIP = parse_potential("x1^2", 2)
ZERO = parse_potential("0", 2)

CROSS_BALL_AREA = {10: 22.420614, 20: 27.965854, 40: 33.511035, 80: 39.056213}
CROSS_OMEGA_AXIS = {5: 0.804169, 10: 0.400620, 20: 0.200070, 40: 0.100008}


def test_indicator_examples():
    assert indicator(CROSS, 1.0, (5.0, 0.0))
    assert not indicator(CROSS, 1.0, (2.0, 2.0))
    assert indicator(DISC, 4.0, (1.0, 1.0))


def test_indicator_guards():
    with pytest.raises(ValueError):
        indicator(CROSS, 0.0, (0.0, 0.0))
    negative = parse_potential("x1 - 100", 2)
    with pytest.raises(ValueError, match="negative potential"):
        indicator(negative, 1.0, (0.0, 0.0))
    # exp() overflowing to +inf is a correct value: the point lies outside
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert not indicator(parse_potential("exp(x1^2)", 2), 1.0, (40.0, 0.0))
    # inf - inf warns twice: overflow in exp, then an invalid subtraction
    with pytest.warns(RuntimeWarning, match="overflow|invalid value"), \
            pytest.raises(ValueError, match="non-finite"):
        indicator(parse_potential("exp(x1^2) - exp(x1^2)", 2), 1.0, (40.0, 0.0))


def test_region_validation():
    for radius in (0.0, -1.0, (1.0, 2.0)):
        with pytest.raises(ValueError):
            Region((0.0, 0.0), radius)
    ball = Region(np.zeros(2), 3)
    assert ball.center == (0.0, 0.0) and ball.radius == 3.0
    assert ball.volume == pytest.approx(9 * math.pi, rel=1e-15)


def test_measure_disc_matches_area():
    # the radius-2 disc inside a radius-3 ball
    region = Region((0.0, 0.0), 3.0)
    est = measure(DISC, 4.0, region, method="monte-carlo", budget=200_000, seed=7)
    assert est.std_error > 0
    assert abs(est.value - 4 * math.pi) <= 3 * est.std_error
    quad = measure(DISC, 4.0, region, method="grid-quadrature", budget=250_000)
    assert abs(quad.value - 4 * math.pi) <= 0.05
    assert quad.std_error == 0.0


def test_measure_full_region_is_exact():
    est = measure(ZERO, 1.0, Region((0.0, 0.0), 1.0), budget=2_000, seed=1)
    assert est.value == ball_volume(2, 1.0)
    assert est.std_error == 0.0  # hit fraction exactly 1


def test_measure_budget_guards():
    region = Region((0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        measure(ZERO, 1.0, region, budget=999)
    with pytest.raises(ValueError):
        measure(ZERO, 1.0, region, method="grid-quadrature", budget=9_999)
    with pytest.raises(ValueError):
        measure(ZERO, 1.0, region, method="simpson")
    with pytest.raises(ValueError, match="region dimension does not match"):
        measure(ZERO, 1.0, Region((0.0,), 1.0))


def test_cross_ball_measures_grow_like_oracle():
    # quadrature-oracle frozen values; growth ~ 8 ln 2 per radius doubling
    previous = None
    for R, oracle in CROSS_BALL_AREA.items():
        est = measure(CROSS, 1.0, Region((0.0, 0.0), float(R)), budget=1_500_000, seed=13)
        assert abs(est.value - oracle) <= 4 * est.std_error
        if previous is not None:
            gap = est.value - previous.value
            assert gap > 3 * math.hypot(est.std_error, previous.std_error)
        previous = est


def test_local_measure_examples():
    assert local_measure(ZERO, 1.0, (3.0, -2.0), 1.0, budget=2_000, seed=5).value == math.pi
    inside_strip = local_measure(STRIP, 1.0, (0.0, 11.0), 1.0, budget=2_000, seed=5)
    assert inside_strip.value == math.pi  # unit ball on the axis sits inside the strip
    est = local_measure(CROSS, 1.0, (10.0, 0.0), 1.0, budget=30_000, seed=5, method="grid-quadrature")
    assert abs(est.value - CROSS_OMEGA_AXIS[10]) <= 0.01
    assert est.value <= ball_volume(2, 1.0)


def test_local_measure_bounded_by_ball_and_monotone_in_ell():
    for ell in (0.5, 1.0, 2.0):
        est = local_measure(CROSS, 1.0, (4.0, 0.0), ell, budget=20_000, seed=3)
        assert est.value <= ball_volume(2, ell) + 1e-12
    small = local_measure(CROSS, 1.0, (4.0, 0.0), 0.5, budget=40_000, seed=3)
    large = local_measure(CROSS, 1.0, (4.0, 0.0), 1.5, budget=40_000, seed=3)
    assert small.value <= large.value + 3 * math.hypot(small.std_error, large.std_error)


def test_decay_fit_cross_axis():
    fit = decay_fit(CROSS, 1.0, 1.0, (1.0, 0.0), [5.0, 10.0, 20.0, 40.0], budget=400_000)
    assert fit.exponent >= 0.9
    assert abs(fit.exponent - 1.083) <= 0.06
    # Eq-style bound check: fitted C / (t+1) dominates the measured omega
    assert fit.local_measures[1] <= fit.constant / 11.0


def test_decay_fit_flat_cases():
    fit = decay_fit(ZERO, 1.0, 1.0, (1.0, 0.0), [2.0, 4.0, 8.0], budget=300_000)
    assert fit.exponent == 0.0
    assert abs(fit.constant - math.pi) <= 0.01
    strip = decay_fit(STRIP, 1.0, 1.0, (0.0, 1.0), [3.0, 6.0, 12.0], budget=300_000)
    assert strip.exponent == 0.0  # translation invariance along the strip


def test_decay_fit_rejects_points_outside():
    ray = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    with pytest.raises(ValueError):
        decay_fit(CROSS, 1.0, 1.0, ray, [5.0, 10.0])


@pytest.mark.parametrize("V, M, ray, distances, message", [
    (CROSS, 1.0, (0.0, 0.0), [5.0, 10.0], "ray_direction must be nonzero"),
    (CROSS, 1.0, (1.0, 0.0), [10.0, 5.0], "distances must be strictly increasing"),
    # Omega_M is a disc of radius 1e-6 about the origin, and no cell centre
    # of the 100 x 100 quadrature grid lies in it
    (DISC, 1e-12, (1.0, 0.0), [0.0, 1.0],
     "no sublevel mass within ell of the ray point at distance 0.0"),
], ids=["zero ray", "decreasing", "no mass"])
def test_decay_fit_refusals(V, M, ray, distances, message):
    with pytest.raises(ValueError) as info:
        decay_fit(V, M, 1.0, ray, distances, budget=10_000)
    assert str(info.value) == message


def test_thinness_cross_convergent():
    report = thinness(CROSS, 1.0, 2.0, 1.0, [10.0, 20.0, 40.0, 80.0], budget=120_000, sub_budget=1_000, seed=11)
    assert report.verdict == "convergent-evidence"
    assert all(b >= a for a, b in zip(report.partial_integrals, report.partial_integrals[1:]))
    assert all(q >= 0.0 for q in report.tail_ratios)
    # annulus-increment ratios track the 1/4-per-doubling oracle
    assert all(q < 0.55 for q in report.tail_ratios)


def test_thinness_strip_divergent():
    report = thinness(STRIP, 1.0, 2.0, 1.0, [10.0, 20.0, 40.0, 80.0], budget=120_000, sub_budget=1_000, seed=11)
    assert report.verdict == "divergent-evidence"
    # constant-density strip doubles each increment when radii double
    assert all(1.5 < q < 2.5 for q in report.tail_ratios)


def test_thinness_allocation_peak_is_below_one_proposal_array():
    # An annulus holds one _CHUNK_POINTS slice of its proposals at a time
    # and the hits kept so far; the omega phase adds a group's patterns and
    # one chunk's points.  The peak reads 0.72 arrays of budget x nu floats
    # here; holding the proposals' normals read 1.54, and scaling every
    # proposal at once, with its norms and radii, 2.9.
    budget = 2**18
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        thinness(STRIP, 1.0, 2.0, 1.0, [10.0, 20.0, 40.0, 80.0], budget=budget, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * budget * 2 * 8


def test_thinness_ring_is_inconclusive():
    # the ring |x| = 30 has mass in the (20, 40) annulus alone: the tail
    # ratios are inf (from an empty annulus) and 0, neither reading
    ring = parse_potential("(x1^2+x2^2-900)^2", 2)
    report = thinness(ring, 1.0, 2.0, 1.0, [10.0, 20.0, 40.0, 80.0], budget=20_000, seed=0)
    assert report.tail_ratios == (math.inf, 0.0)
    assert report.verdict == "inconclusive"


def test_thinness_empty_sublevel_set():
    # three radii give one tail ratio, and a verdict needs two
    empty = parse_potential("1 + x1^2", 2)
    report = thinness(empty, 0.5, 2.0, 1.0, [1.0, 2.0, 4.0], budget=10_000, sub_budget=1_000, seed=2)
    assert report.verdict == "inconclusive"
    assert report.tail_ratios == (0.0,)
    assert all(v == 0.0 for v in report.partial_integrals)


def test_thinness_empty_sublevel_set_at_four_radii():
    empty = parse_potential("1 + x1^2", 2)
    report = thinness(empty, 0.5, 2.0, 1.0, [1.0, 2.0, 4.0, 8.0], budget=10_000,
                      sub_budget=1_000, seed=2)
    assert report.verdict == "convergent-evidence"
    assert report.tail_ratios == (0.0, 0.0)
    assert all(v == 0.0 for v in report.partial_integrals)


@pytest.mark.parametrize("expr, ratio", [
    ("(x1^2+x2^2-900)^2", math.inf),  # the ring |x| = 30: annuli 1 and 2 empty
    ("x1^2", 1.911),                  # the strip, divergent at four radii
])
def test_thinness_reads_no_verdict_from_one_tail_ratio(expr, ratio):
    # one ratio above 0.9 once read as divergent-evidence
    report = thinness(parse_potential(expr, 2), 1.0, 2.0, 1.0, [10.0, 20.0, 40.0],
                      budget=20_000, seed=0)
    assert report.tail_ratios == pytest.approx((ratio,), rel=0.01)
    assert report.verdict == "inconclusive"


def test_thinness_budget_guard():
    with pytest.raises(ValueError, match="budget too small"):
        thinness(CROSS, 1.0, 2.0, 1.0, [10.0, 20.0, 40.0], budget=1_000, sub_budget=1_000, seed=0)
    with pytest.raises(ValueError):
        thinness(CROSS, 1.0, 2.0, 1.0, [10.0, 5.0, 40.0], budget=10_000)
    with pytest.raises(ValueError):
        thinness(CROSS, 1.0, -1.0, 1.0, [10.0, 20.0, 40.0], budget=10_000)


@pytest.mark.parametrize("call, name", [
    # each of these once gave an answer or a misleading error:
    (lambda: thinness(CROSS, math.nan, 2.0, 1.0, (10.0, 20.0, 40.0, 80.0), budget=2_000),
     "M"),        # convergent-evidence: no point lies below a NaN height
    (lambda: thinness(CROSS, 1.0, math.inf, 1.0, (10.0, 20.0, 40.0, 80.0), budget=2_000),
     "r"),        # convergent-evidence: omega**inf is 0 for omega < 1
    (lambda: measure(CROSS, 1.0, Region((0.0, 0.0), math.inf), budget=1_000),
     "ball radius"),  # value nan
    (lambda: local_measure(CROSS, 1.0, (0.0, 0.0), math.nan),
     "ell"),      # "potential ... is non-finite (nan) at a sample point"
    (lambda: measure(CROSS, 1.0, Region((0.0, 0.0), math.nan), budget=1_000),
     "ball radius"),  # the same
], ids=["thinness M=nan", "thinness r=inf", "measure radius=inf", "local_measure ell=nan",
        "measure radius=nan"])
def test_non_finite_inputs_are_refused_not_answered(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got "):
        call()


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_thinness_rejects_non_finite_radii(bad):
    # an infinite last radius used to end the divergent strip at
    # convergent-evidence (tail ratio 0 over an empty outer annulus)
    with pytest.raises(ValueError, match="finite"):
        sublevel.check_radii([10.0, 20.0, bad])
    with pytest.raises(ValueError, match="finite"):
        thinness(STRIP, 1.0, 2.0, 1.0, (10.0, 20.0, bad), budget=2_000)


@pytest.mark.parametrize("budget, sub_budget, message", [
    (0, 2_000, "^budget must be >= 1"),
    (10_000, 0, "^sub_budget must be >= 1"),
], ids=["budget", "sub_budget"])
def test_thinness_rejects_empty_budgets(monkeypatch, budget, sub_budget, message):
    def no_draws(*key):
        raise AssertionError("drew samples before validating the budgets")

    monkeypatch.setattr(sublevel, "derived_rng", no_draws)
    with pytest.raises(ValueError, match=message):
        thinness(STRIP, 1.0, 2.0, 1.0, [10.0, 20.0, 40.0], budget=budget, sub_budget=sub_budget)


def omega_blocks(V, M, centers, ell, sub_budget):
    return sublevel._omega_batch(V, M, np.asarray(centers, dtype=float), ell, sub_budget, 0, 0)


def test_omega_blocks_exact_inside_and_outside():
    # Omega_100(DISC) is the open disc of radius 10: the 0.5-balls around the
    # even centers (|c| <= 8.5) lie inside it, those around the odd ones
    # (|c| >= 11) outside.  1000 points per center span five blocks.
    ell = 0.5
    centers = np.empty((300, 2))
    centers[0::2] = np.column_stack([np.linspace(-6.0, 6.0, 150)] * 2)
    centers[1::2] = np.column_stack([np.linspace(11.0, 30.0, 150), np.linspace(-5.0, 5.0, 150)])
    omega = omega_blocks(DISC, 100.0, centers, ell, 1_000)
    assert np.all(omega[0::2] == math.pi * ell**2)
    assert np.all(omega[1::2] == 0.0)


def test_omega_blocks_half_plane_boundary():
    # abs(x1) - x1 < 1e-12 exactly when x1 > -5e-13: a half-plane whose
    # boundary runs through every center
    V = parse_potential("abs(x1) - x1", 2)
    sub_budget = 1_000
    centers = np.column_stack([np.zeros(300), np.linspace(-50.0, 50.0, 300)])
    omega = omega_blocks(V, 1e-12, centers, 1.0, sub_budget)
    std_error = math.pi * math.sqrt(0.25 / (centers.shape[0] * sub_budget))
    assert abs(omega.mean() - math.pi / 2) <= 4 * std_error


@pytest.mark.parametrize("nu", [1, 3])
def test_omega_blocks_exact_in_one_and_three_dimensions(nu):
    # balls of radius 0.5 along the last axis, inside |x| < 10 or outside it
    ell = 0.5
    ball = parse_potential("+".join(f"x{k + 1}^2" for k in range(nu)), nu)
    centers = np.zeros((300, nu))
    centers[0::2, -1] = np.linspace(-8.5, 8.5, 150)
    centers[1::2, -1] = np.linspace(11.0, 30.0, 150)
    omega = omega_blocks(ball, 100.0, centers, ell, 1_000)
    assert np.all(omega[0::2] == ball_volume(nu, ell))
    assert np.all(omega[1::2] == 0.0)


@pytest.mark.parametrize("nu", [1, 3])
def test_omega_blocks_half_space_in_one_and_three_dimensions(nu):
    # One full block at an odd sub_budget: were the block's pattern not
    # rotated per center, every estimate would be the same k/31 of the ball,
    # at least 1/62 of it from one half, beyond the i.i.d. bound below.
    sub_budget = 31
    V = parse_potential("abs(x1) - x1", nu)
    centers = np.zeros((sublevel._BLOCK_POINTS // sub_budget, nu))
    if nu > 1:
        centers[:, -1] = np.linspace(-50.0, 50.0, centers.shape[0])
    omega = omega_blocks(V, 1e-12, centers, 1.0, sub_budget)
    vol = ball_volume(nu, 1.0)
    std_error = vol * math.sqrt(0.25 / (centers.shape[0] * sub_budget))
    assert abs(omega.mean() - vol / 2) <= 4 * std_error


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_omega_blocks_match_a_per_center_reference(nu):
    # The grouped QR and one matrix product per block must give, bit for
    # bit, what each center gets from its own rotation of the block's
    # pattern.  Centers straddle the boundary of the unit ball at M = 1, and
    # 70 centers at 2000 points make blocks of 32, 32 and a partial 6.
    ell, sub_budget, seed, annulus = 0.5, 2_000, 3, 1
    V = parse_potential("+".join(f"x{k + 1}^2" for k in range(nu)), nu)
    rng = np.random.default_rng(nu)
    centers = rng.uniform(-1.2, 1.2, (70, nu))
    per_block = sublevel._BLOCK_POINTS // sub_budget
    assert centers.shape[0] % per_block
    reference = np.empty(centers.shape[0])
    for b, start in enumerate(range(0, centers.shape[0], per_block)):
        block = centers[start : start + per_block]
        block_rng = derived_rng(seed, 2, annulus, "omega", b)
        pattern = shell_points(nu, 0.0, ell, sub_budget, block_rng)
        rot = sublevel._rotations(block_rng.standard_normal((block.shape[0], nu, nu)))
        for i, center in enumerate(block):
            inside = sublevel._membership(V, 1.0, pattern @ rot[i] + center)
            reference[start + i] = inside.mean() * ball_volume(nu, ell)
    omega = sublevel._omega_batch(V, 1.0, centers, ell, sub_budget, seed, annulus)
    assert np.count_nonzero((omega > 0.0) & (omega < ball_volume(nu, ell))) >= 10
    assert np.array_equal(omega, reference)


def one_product_omega_batch(V, M, centers, ell, sub_budget, seed, annulus):
    """Reference omega blocks: one QR per block, and one product
    pattern @ [R_1 ... R_n] whose points run in (pattern point, center)
    order; omega is the mean of each center's column."""
    count, nu = centers.shape
    vol = ball_volume(nu, ell)
    per_block = max(1, sublevel._BLOCK_POINTS // sub_budget)
    out = np.empty(count)
    for b, start in enumerate(range(0, count, per_block)):
        block = centers[start : start + per_block]
        n = block.shape[0]
        rng = derived_rng(seed, 2, annulus, "omega", b)
        pattern = shell_points(nu, 0.0, ell, sub_budget, rng)
        q, r = np.linalg.qr(rng.standard_normal((n, nu, nu)))
        rot = q * np.copysign(1.0, np.diagonal(r, axis1=1, axis2=2))[:, None, :]
        pts = pattern @ rot.transpose(1, 0, 2).reshape(nu, n * nu)
        pts += block.reshape(1, n * nu)
        inside = sublevel._membership(V, M, pts.reshape(-1, nu)).reshape(sub_budget, n)
        out[start : start + per_block] = inside.mean(axis=0) * vol
    return out


@pytest.mark.parametrize("nu", [1, 2, 3])
@pytest.mark.parametrize("count, sub_budget", [
    (70, 2_000),    # blocks of 32, 32 and a partial 6
    (33, 2_000),    # a last block of one center
    (5, 40_000),    # one center per block
    (200, 7),       # one block of 200 centers
    (150, 1_000),   # blocks of 65, 65 and 20 centers; chunks of 16 and a last 1
    (32 * 33 + 5, 2_000),  # 34 blocks; a group's patterns fit in one block: at most 32
])
def test_omega_blocks_equal_the_one_product_blocks(nu, count, sub_budget):
    V = parse_potential("+".join(f"x{k + 1}^2" for k in range(nu))
                        + ("+x1^2*x2^2" if nu > 1 else ""), nu)
    # centers at distance 0.6 to 1.2 from 0: each 0.5-ball meets the boundary
    rng = np.random.default_rng(nu)
    centers = rng.standard_normal((count, nu))
    centers *= (rng.uniform(0.6, 1.2, count) / np.linalg.norm(centers, axis=1))[:, None]
    omega = sublevel._omega_batch(V, 1.0, centers, 0.5, sub_budget, 5, 2)
    expected = one_product_omega_batch(V, 1.0, centers, 0.5, sub_budget, 5, 2)
    assert np.count_nonzero((omega > 0.0) & (omega < ball_volume(nu, 0.5))) >= count // 2
    assert np.array_equal(omega, expected)


def shell_points(nu, r_inner, r_outer, n, rng):
    """The slices of _shell_points, concatenated."""
    return np.concatenate(list(sublevel._shell_points(nu, r_inner, r_outer, n, rng)))


def slice_by_slice(nu, r_inner, r_outer, n, rng):
    """Consecutive one-slice draws from `rng`, concatenated: each slice is
    _to_shell on its own _shell_normals draw, so a draw of at most one
    slice is the one call _to_shell(_shell_normals(nu, n, rng), ...)."""
    return np.concatenate([
        sublevel._to_shell(sublevel._shell_normals(nu, min(sublevel._CHUNK_POINTS, n - lo), rng),
                           r_inner, r_outer, rng)
        for lo in range(0, n, sublevel._CHUNK_POINTS)])


def test_rotations_are_orthogonal():
    rng = np.random.default_rng(9)
    for nu in (1, 2, 3):
        q = sublevel._rotations(rng.standard_normal((50, nu, nu)))
        gram = np.einsum("cki,ckj->cij", q, q)
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(nu), gram.shape), rtol=0, atol=1e-12)


def test_omega_blocks_raise_at_a_nan_sample_point():
    # exp(x1^2) - exp(x1^2) is 0 until both terms overflow past |x1| ~ 26.64,
    # then inf - inf = NaN; only the balls of the last block reach that far
    V = parse_potential("exp(x1^2) - exp(x1^2)", 2)
    centers = np.zeros((300, 2))
    centers[-10:, 0] = 26.5
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=r"non-finite \(nan\) at a sample point"):
        omega_blocks(V, 1.0, centers, 1.0, 1_000)


def test_shell_points_lie_in_the_shell():
    rng = np.random.default_rng(4)
    for nu in (1, 2, 3):
        shell = np.linalg.norm(shell_points(nu, 1.0, 2.0, 5_000, rng), axis=1)
        assert np.all((shell > 1.0) & (shell <= 2.0))
        ball = np.linalg.norm(shell_points(nu, 0.0, 2.0, 5_000, rng), axis=1)
        assert np.all(ball <= 2.0)


class ZeroRows:
    """Generator whose normal rows at the given indices are exact zeros.
    The index counts every normal row the stream has drawn, across draws.
    It logs each draw as (kind, rows, zeros placed)."""

    def __init__(self, rows):
        self.rng = np.random.default_rng(9)
        self.rows = np.asarray(rows)
        self.normal_rows = 0
        self.log = []

    def standard_normal(self, size):
        draw = self.rng.standard_normal(size)
        first, self.normal_rows = self.normal_rows, self.normal_rows + len(draw)
        zero = self.rows[(self.rows >= first) & (self.rows < self.normal_rows)] - first
        draw[zero] = 0.0
        self.log.append(("normal", len(draw), zero.size))
        return draw

    def random(self, size):
        self.log.append(("uniform", size, 0))
        return self.rng.random(size)


def assert_one_draw_per_slice(rng, n):
    """Each _CHUNK_POINTS slice of an n-point draw from the ZeroRows `rng`
    draws its normals, then its zero rows again until none is zero, then
    one uniform per row, before the next slice draws anything."""
    log = iter(rng.log)
    for lo in range(0, n, sublevel._CHUNK_POINTS):
        size = min(sublevel._CHUNK_POINTS, n - lo)
        kind, rows, zeros = next(log)
        assert (kind, rows) == ("normal", size)
        while zeros:
            kind, rows, redrawn_zeros = next(log)
            assert (kind, rows) == ("normal", zeros)
            zeros = redrawn_zeros
        assert next(log)[:2] == ("uniform", size)
    assert next(log, None) is None


def test_shell_points_resample_zero_normals():
    # a one-slice draw of 50 zero rows, and a four-slice draw with zeros in
    # its first 50 rows, mid-way through slice 1 and at the last row: each
    # slice draws its zero rows again before its first uniform, and the
    # first two rows of the first redraw are zero too, so drawn a third time
    C = sublevel._CHUNK_POINTS
    for n, zero in ((50, np.r_[0:50, 50, 51]),
                    (3 * C + 7, np.r_[0:50, C, C + 1,  # slice 0, then its redraws
                                      C + 52 + C // 2,  # slice 1 starts at C + 52
                                      3 * C + 59])):    # slice 3 at 3 C + 53
        rng = ZeroRows(zero)
        radii = np.linalg.norm(shell_points(2, 1.0, 2.0, n, rng), axis=1)
        assert_one_draw_per_slice(rng, n)
        assert rng.normal_rows == n + zero.size
        assert np.all((radii > 1.0) & (radii <= 2.0))


@pytest.mark.parametrize("n", [1, 2**14, 2**14 + 1, 3 * 2**14 + 7])
@pytest.mark.parametrize("nu", [1, 2, 3])
def test_shell_slices_are_one_pass_of_the_sampler(nu, n):
    # one pass over the stream: each slice draws its own normals, then its
    # own uniforms, and a draw of at most one slice is one such slice draw
    for r_inner in (0.0, 1.5):
        slices = list(sublevel._shell_points(nu, r_inner, 2.0, n, derived_rng(6, nu)))
        assert [len(pts) for pts in slices[:-1]] == [sublevel._CHUNK_POINTS] * (len(slices) - 1)
        assert np.array_equal(np.concatenate(slices),
                              slice_by_slice(nu, r_inner, 2.0, n, derived_rng(6, nu)))


def test_one_sampler_feeds_every_draw(monkeypatch):
    # measure's samples, the thinness proposals and the omega patterns all
    # come from _shell_points, and no other code scales a normal
    calls, scaled = [], []
    sampler, to_shell = sublevel._shell_points, sublevel._to_shell

    def spy(nu, r_inner, r_outer, n, rng):
        calls.append((r_inner, r_outer, n))
        return sampler(nu, r_inner, r_outer, n, rng)

    def counted(points, *args):
        scaled.append(len(points))
        return to_shell(points, *args)

    monkeypatch.setattr(sublevel, "_shell_points", spy)
    monkeypatch.setattr(sublevel, "_to_shell", counted)
    measure(CROSS, 1.0, Region((0.0, 0.0), 3.0), budget=40_000)
    assert calls == [(0.0, 3.0, 40_000)]
    calls.clear()
    thinness(CROSS, 1.0, 2.0, 1.0, [10.0, 20.0, 40.0], budget=5_000, sub_budget=500)
    assert calls[0] == (0.0, 10.0, 5_000)
    assert (10.0, 20.0, 5_000) in calls and (20.0, 40.0, 5_000) in calls
    patterns = [c for c in calls if c[2] == 500]
    assert patterns and all(c[:2] == (0.0, 1.0) for c in patterns)
    assert sum(scaled) == 40_000 + sum(c[2] for c in calls)


STREAM_CASES = {1: parse_potential("x1^2", 1), 2: CROSS,
                3: parse_potential("x1^2+x2^2*x3^2", 3)}


def one_shot_estimate(V, M, region, budget, rng):
    """measure's value and std_error from the sampler's slices, concatenated,
    and _membership over every point at once."""
    pts = shell_points(region.dimension, 0.0, region.radius, budget, rng)
    pts += np.asarray(region.center)
    p = int(np.count_nonzero(sublevel._membership(V, M, pts))) / budget
    return p * region.volume, region.volume * math.sqrt(p * (1.0 - p) / budget)


@pytest.mark.parametrize("budget", [1_000, 2**14, 2**14 + 1, 3 * 2**14 + 7])
@pytest.mark.parametrize("nu", [1, 2, 3])
def test_streamed_measure_matches_the_one_shot_sampler(monkeypatch, nu, budget):
    V = STREAM_CASES[nu]
    region = Region(tuple(0.5 * (k + 1) for k in range(nu)), 3.0)
    est = measure(V, 1.0, region, budget=budget, seed=3)
    assert (est.value, est.std_error) == one_shot_estimate(V, 1.0, region, budget,
                                                           derived_rng(3, 0))
    # zero rows in the first slice, a middle one (of four at 3 * 2**14 + 7)
    # and a late one are drawn again within their slice, before its first
    # uniform, and the one-shot estimate over the same points agrees
    rows = [0, 7, budget // 2, budget - 1]
    streamed, one_shot = ZeroRows(rows), ZeroRows(rows)
    monkeypatch.setattr(sublevel, "derived_rng", lambda *key: streamed)
    est = measure(V, 1.0, region, budget=budget, seed=3)
    assert_one_draw_per_slice(streamed, budget)
    assert streamed.normal_rows == budget + len(rows)
    assert (est.value, est.std_error) == one_shot_estimate(V, 1.0, region, budget, one_shot)


def measure_peak(budget):
    """tracemalloc peak of a `measure` of the unit disc, above what was held."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        measure(DISC, 4.0, Region((0.0, 0.0), 3.0), budget=budget)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_measure_peak_does_not_grow_with_the_budget():
    # each pass over the normals holds one slice at a time (about 48 bytes
    # per slice point at nu = 2), so eight times the budget may add at most
    # one slice of points; holding the budget's normals read 16 bytes per
    # sample more
    assert measure_peak(2**21) <= measure_peak(2**18) + 16 * sublevel._CHUNK_POINTS


def test_monotonicity_in_level():
    region = Region((0.0, 0.0), 5.0)
    small = measure(CROSS, 0.5, region, budget=50_000, seed=21)
    large = measure(CROSS, 2.0, region, budget=50_000, seed=21)
    assert small.value <= large.value  # identical sample points, nested sets
    rng = np.random.default_rng(3)
    for p in rng.uniform(-3, 3, size=(50, 2)):
        if indicator(CROSS, 0.5, p):
            assert indicator(CROSS, 2.0, p)


def test_scaling_relation():
    # V_2(x) = V(2x) = 16 x1^2 x2^2; |Omega_1(V_2) cap B_R| = |Omega_1(V) cap B_2R| / 4
    scaled = parse_potential("16*x1^2*x2^2", 2)
    R = 10.0
    lhs = measure(scaled, 1.0, Region((0.0, 0.0), R), budget=400_000, seed=17)
    rhs = measure(CROSS, 1.0, Region((0.0, 0.0), 2 * R), budget=400_000, seed=18)
    combined = math.hypot(lhs.std_error, rhs.std_error / 4.0)
    assert abs(lhs.value - rhs.value / 4.0) <= 3 * combined


def test_seeded_determinism():
    region = Region((0.0, 0.0), 10.0)
    a = measure(CROSS, 1.0, region, budget=20_000, seed=123)
    b = measure(CROSS, 1.0, region, budget=20_000, seed=123)
    assert a == b
    ta = thinness(CROSS, 1.0, 2.0, 1.0, [5.0, 10.0, 20.0], budget=20_000, sub_budget=500, seed=123)
    tb = thinness(CROSS, 1.0, 2.0, 1.0, [5.0, 10.0, 20.0], budget=20_000, sub_budget=500, seed=123)
    assert ta == tb


def test_report_types_are_plain_records():
    zero_1d = parse_potential("0", 1)
    est = measure(zero_1d, 1.0, Region((0.0,), 1.0), budget=1_000, seed=0)
    assert isinstance(est, MeasureEstimate)
    assert est.method == "monte-carlo" and est.samples == 1_000 and est.seed == 0
