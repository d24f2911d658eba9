"""One owner per input rule: each library entry point refuses bad inputs
itself, with a ValueError that names the input, before any draw, block
product, count or solve.

Rules:
1. positive and finite (sublevel.check_positive): NaN, +-inf and 0 are
   refused wherever a height, exponent, time or radius must be > 0;
2. ball volume within float range (sublevel.check_ball_volume);
3. the spectrum study's inputs (operators.check_spectrum_inputs).

Beyond these, split_tail refuses a NaN level and decay_fit a distance that
is negative or not finite.
"""

import math

import numpy as np
import pytest

from spectralab import kernels, linalg, operators, sublevel
from spectralab.kernels import (
    compose_C,
    d_kernel,
    heat_matrix,
    kernel_power_bound,
    split_tail,
    truncated_convolution,
)
from spectralab.operators import Grid, check_schedule, check_spectrum_inputs, spectrum_study
from spectralab.potentials import parse_potential
from spectralab.sublevel import (
    Region,
    check_ball_volume,
    check_radii,
    decay_fit,
    indicator,
    local_measure,
    measure,
    thinness,
)

CROSS = parse_potential("x1^2*x2^2", 2)
RADII = (10.0, 20.0, 40.0)
GRID = Grid(2, 2.0, 0.5)

# (id, call of the bad value); each call refuses it by rule 1
POSITIVE = [
    ("Region radius", "ball radius", lambda v: Region((0.0, 0.0), v)),
    ("indicator M", "M", lambda v: indicator(CROSS, v, (0.0, 0.0))),
    ("measure M", "M", lambda v: measure(CROSS, v, Region((0.0, 0.0), 1.0), budget=1_000)),
    ("local_measure ell", "ell", lambda v: local_measure(CROSS, 1.0, (0.0, 0.0), v)),
    ("thinness M", "M", lambda v: thinness(CROSS, v, 2.0, 1.0, RADII, budget=1_000)),
    ("thinness r", "r", lambda v: thinness(CROSS, 1.0, v, 1.0, RADII, budget=1_000)),
    ("thinness ell", "ell", lambda v: thinness(CROSS, 1.0, 2.0, v, RADII, budget=1_000)),
    ("check_radii", "radius", lambda v: check_radii((10.0, 20.0, v))),
    ("check_schedule", "L", lambda v: check_schedule((1.0, v))),
    ("heat_matrix s", "s", lambda v: heat_matrix(GRID, v)),
    ("check_ball_volume", "R", lambda v: check_ball_volume("R", 2, v)),
]
BAD = [math.nan, math.inf, -math.inf, 0.0]


@pytest.mark.parametrize("value", BAD, ids=["nan", "inf", "-inf", "0"])
@pytest.mark.parametrize("name, call", [row[1:] for row in POSITIVE],
                         ids=[row[0] for row in POSITIVE])
def test_positive_and_finite_refusals(name, call, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{name} must be finite and > 0, got {value:g}"


@pytest.mark.parametrize("value, message", [
    (math.nan, "radius must be finite and >= 0, got nan"),
    (math.inf, "radius must be finite and >= 0, got inf"),
    (-math.inf, "radius must be finite and >= 0, got -inf"),
    (0.0, "R must be finite and > 0, got 0"),
], ids=["nan", "inf", "-inf", "0"])
def test_truncation_radius_refusals(value, message):
    # the lattice rule refuses what is not finite, check_positive R = 0
    with pytest.raises(ValueError) as info:
        truncated_convolution(GRID, 1.0, value)
    assert str(info.value) == message


def fail_on_draw(*args):
    raise AssertionError("drew a sample before refusing the input")


@pytest.mark.parametrize("call, message", [
    (lambda: thinness(CROSS, 1.0, 2.0, 1.0, [10.0, 20.0, 1e300], budget=1_000),
     "radius = 1e+300 gives a ball volume beyond float range at nu = 2"),
    (lambda: thinness(CROSS, 1.0, 2.0, 1e200, RADII, budget=1_000),
     "ell = 1e+200 gives a ball volume beyond float range at nu = 2"),
    (lambda: measure(CROSS, 1.0, Region((0.0, 0.0), 1e300), budget=1_000),
     "ball radius = 1e+300 gives a ball volume beyond float range at nu = 2"),
    (lambda: local_measure(parse_potential("x1^2", 3), 1.0, (0.0, 0.0, 0.0), 1e103),
     "ball radius = 1e+103 gives a ball volume beyond float range at nu = 3"),
    (lambda: check_ball_volume("R", 1, 1e308),
     "R = 1e+308 gives a ball volume beyond float range at nu = 1"),
], ids=["thinness radius", "thinness ell", "measure Region", "local_measure nu=3",
        "nu=1 constant overflows"])
def test_ball_volume_refused_before_any_draw(monkeypatch, call, message):
    # the library used to raise a bare OverflowError from radius**nu, after
    # the draws of the smaller annuli; every Monte Carlo draw starts with
    # the _shell_normals call of _shell_points, the one sampler
    monkeypatch.setattr(sublevel, "_shell_normals", fail_on_draw)
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class NoProduct(np.ndarray):
    def __matmul__(self, other):
        raise AssertionError("formed a block product before refusing the reach")


def test_kernel_power_reach_refused_before_any_product():
    D = d_kernel(GRID, CROSS, 1.0, 1e300)
    D._block = D._block.view(NoProduct)
    with pytest.raises(ValueError) as info:
        kernel_power_bound(D, 3)
    assert str(info.value) == "2kR = 6e+300 gives a ball volume beyond float range at nu = 2"


def test_ball_volume_within_float_range_is_kept():
    # pi * (1e154)**2 overflows in the product, (1e155)**2 in the power
    assert check_ball_volume("R", 2, 1e153) == 1e153
    for radius in (1e154, 1e155):
        with pytest.raises(ValueError, match="beyond float range"):
            check_ball_volume("R", 2, radius)


@pytest.fixture
def no_work(monkeypatch):
    """Make any count or solve of spectrum_study fail the test."""
    def fail(*args, **kwargs):
        raise AssertionError("counted or solved before refusing the input")

    monkeypatch.setattr(operators, "lanczos_extremal", fail)
    monkeypatch.setattr(operators, "_box_counts", fail)


@pytest.mark.parametrize("nu, schedule, h, k, levels, message", [
    (1, (4.0, 6.0), 0.1, 0, (), "k must be between 1 and 30, got 0"),
    (1, (4.0, 6.0), 0.1, 31, (), "k must be between 1 and 30, got 31"),
    (1, (4.0, 6.0), 0.1, math.nan, (), "k must be between 1 and 30, got nan"),
    (1, (4.0, 6.0), 0.1, math.inf, (), "k must be between 1 and 30, got inf"),
    # the smallest box, named, before the L = 40 box is solved
    (1, (0.1, 40.0), 0.1, 3, (), "k = 3 exceeds the 2 points of the L = 0.1 grid"),
    (1, (4.0, 6.0), math.nan, 3, (), "half_width and spacing must be positive"),
    (1, (4.0, 6.0), math.inf, 3, (), "2L/h must be a positive integer, got 0.0"),
    (1, (4.0, 6.0), 0.0, 3, (), "half_width and spacing must be positive"),
    (1, (4.0, 6.03), 0.1, 3, (), "2L/h must be a positive integer, got 120.6"),
    (1, (4.0, math.nan), 0.1, 3, (), "L must be finite and > 0, got nan"),
    (1, (-math.inf, 4.0), 0.1, 3, (), "L must be finite and > 0, got -inf"),
    (1, (4.0,), 0.1, 3, (), "schedule needs at least two box sizes"),
    (3, (1.0, 2.0), 0.1, 3, (5.0,),
     "sparse factor on 64000 points exceeds the cap of 32768 points at nu = 3"),
], ids=["k=0", "k=31", "k=nan", "k=inf", "k above the smallest box", "h=nan", "h=inf",
        "h=0", "2L/h", "L=nan", "L=-inf", "one box", "factor cap"])
def test_spectrum_inputs_refused_before_any_count_or_solve(no_work, nu, schedule, h, k,
                                                           levels, message):
    V = parse_potential(" + ".join(f"x{a}^2" for a in range(1, nu + 1)), nu)
    for call in (lambda: check_spectrum_inputs(nu, schedule, h, k, levels),
                 lambda: spectrum_study(V, schedule, h, k, count_levels=levels)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_spectrum_inputs_pass_through_as_floats():
    assert check_spectrum_inputs(1, [4, 6], 0.1, 3, [1, 2.5]) == ((4.0, 6.0), (1.0, 2.5))
    assert check_spectrum_inputs(1, (4.0, 6.0), 0.1, linalg.MAX_EIGENPAIRS) == \
        ((4.0, 6.0), ())



def fail_on_evaluation(*args):
    raise AssertionError("evaluated the potential before refusing the input")


@pytest.mark.parametrize("value", BAD, ids=["nan", "inf", "-inf", "0"])
@pytest.mark.parametrize("power", [False, True], ids=["d_kernel", "kernel_power_bound"])
def test_kernel_heights_refused_before_any_evaluation(monkeypatch, power, value):
    # a NaN M used to give d_kernel an empty block, and kernel_power_bound
    # passed both of its checks with HS norm 0.  The power bound reads its
    # sublevel set from d_kernel's record, so d_kernel refuses its height.
    monkeypatch.setattr(kernels, "potential_on_grid", fail_on_evaluation)
    with pytest.raises(ValueError) as info:
        if power:
            kernel_power_bound(d_kernel(GRID, CROSS, value, 0.5), 2)
        else:
            d_kernel(GRID, CROSS, value, 0.5)
    assert str(info.value) == f"M must be finite and > 0, got {value:g}"


def test_split_tail_refuses_a_nan_level(monkeypatch):
    # it used to report the reference level e^{-m} as 0.0
    C = compose_C(GRID, CROSS)
    monkeypatch.setattr(kernels, "potential_on_grid", fail_on_evaluation)
    with pytest.raises(ValueError) as info:
        split_tail(C, CROSS, math.nan)
    assert str(info.value) == "m must not be NaN"


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_count_level_refused_before_any_grid_or_factor(monkeypatch, level):
    # NaN used to reach a SuperLU factor of H - nan I, and +inf counted every
    # eigenvalue of each box from the factor of H - inf I
    def fail(*args, **kwargs):
        raise AssertionError("built a grid, operator or factor before refusing the level")

    for name in ("Grid", "hamiltonian", "_ldlt"):
        monkeypatch.setattr(operators, name, fail)
    V = parse_potential("x1^2", 1)
    for call in (lambda: check_spectrum_inputs(1, (4.0, 6.0), 0.1, 3, (1.0, level)),
                 lambda: spectrum_study(V, (4.0, 6.0), 0.1, 3, count_levels=(1.0, level))):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"count level must be finite, got {level:g}"


@pytest.mark.parametrize("distances", [(-2.0, 5.0, 10.0), (math.nan, 5.0, 10.0),
                                       (0.0, 5.0, math.inf)],
                         ids=["negative", "nan", "inf"])
def test_decay_fit_distances_refused_before_any_quadrature(monkeypatch, distances):
    # (-2, 5, 10) used to fit exponent nan and constant nan
    monkeypatch.setattr(sublevel, "local_measure", fail_on_evaluation)
    with pytest.raises(ValueError) as info:
        decay_fit(CROSS, 1.0, 1.0, (1.0, 0.0), distances)
    assert str(info.value) == f"distances must be finite and >= 0, got {list(distances)}"


def test_decay_fit_takes_distance_zero():
    fit = decay_fit(parse_potential("0", 2), 1.0, 1.0, (1.0, 0.0), (0.0, 1.0, 2.0),
                    budget=10_000)
    assert fit.distances == (0.0, 1.0, 2.0) and fit.exponent == 0.0
