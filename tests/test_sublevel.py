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

import numpy as np
import pytest

from spectralab import sublevel
from spectralab.potentials import parse_potential
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


def test_thinness_empty_sublevel_set():
    empty = parse_potential("1 + x1^2", 2)
    report = thinness(empty, 0.5, 2.0, 1.0, [1.0, 2.0, 4.0], budget=10_000, sub_budget=1_000, seed=2)
    assert report.verdict == "convergent-evidence"
    assert all(v == 0.0 for v in report.partial_integrals)


def test_thinness_budget_guard():
    with pytest.raises(ValueError, match="budget too small"):
        thinness(CROSS, 1.0, 2.0, 1.0, [10.0, 20.0, 40.0], budget=1_000, sub_budget=1_000, seed=0)
    with pytest.raises(ValueError):
        thinness(CROSS, 1.0, 2.0, 1.0, [10.0, 5.0, 40.0], budget=10_000)
    with pytest.raises(ValueError):
        thinness(CROSS, 1.0, -1.0, 1.0, [10.0, 20.0, 40.0], budget=10_000)


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


def test_rotations_are_orthogonal():
    rng = np.random.default_rng(9)
    for nu in (1, 2, 3):
        q = sublevel._rotations(nu, 50, rng)
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
        shell = np.linalg.norm(sublevel._shell_points(nu, 1.0, 2.0, 5_000, rng), axis=1)
        assert np.all((shell > 1.0) & (shell <= 2.0))
        ball = np.linalg.norm(sublevel._shell_points(nu, 0.0, 2.0, 5_000, rng), axis=1)
        assert np.all(ball <= 2.0)


def test_shell_points_resample_zero_normals():
    class ZeroFirstDraw:
        """Generator whose first normal draw is all zeros."""

        def __init__(self):
            self.rng = np.random.default_rng(5)
            self.normal_draws = 0

        def standard_normal(self, size):
            self.normal_draws += 1
            return np.zeros(size) if self.normal_draws == 1 else self.rng.standard_normal(size)

        def random(self, size):
            return self.rng.random(size)

    rng = ZeroFirstDraw()
    radii = np.linalg.norm(sublevel._shell_points(2, 1.0, 2.0, 50, rng), axis=1)
    assert rng.normal_draws == 2
    assert np.all((radii > 1.0) & (radii <= 2.0))


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
