"""Parser, evaluation, expansion, and degeneracy tests for the potential DSL."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralab import potentials
from spectralab.operators import spectrum_study
from spectralab.potentials import (
    NEGATIVE_TOLERANCE,
    NonPolynomialError,
    ParseError,
    PolynomialForm,
    degeneracy_direction,
    evaluate,
    guard_values,
    parse_potential,
    to_polynomial,
)
from spectralab.sublevel import thinness

# 20-expression round-trip corpus: (source, dimension, direct arithmetic).
# The lambdas mirror the grammar's association order so agreement is exact.
CORPUS = [
    ("x1^2*x2^2", 2, lambda x: x[0] ** 2 * x[1] ** 2),
    ("x1^2*x2^4 + x1^4*x2^2", 2, lambda x: x[0] ** 2 * x[1] ** 4 + x[0] ** 4 * x[1] ** 2),
    ("0", 2, lambda x: 0.0),
    ("1.5", 2, lambda x: 1.5),
    ("x1", 2, lambda x: x[0]),
    ("x1 + x2 - 3", 2, lambda x: x[0] + x[1] - 3),
    ("x1*(x1+x2)", 2, lambda x: x[0] * (x[0] + x[1])),
    ("(x1+x2)^2", 2, lambda x: (x[0] + x[1]) ** 2),
    ("x1^2 - 2*x1*x2 + x2^2", 2, lambda x: x[0] ** 2 - 2 * x[0] * x[1] + x[1] ** 2),
    ("-x1", 2, lambda x: -x[0]),
    ("2*x1^3 - 0.5*x2", 2, lambda x: 2 * x[0] ** 3 - 0.5 * x[1]),
    ("exp(x1)", 2, lambda x: np.exp(x[0])),
    ("abs(x1*x2)", 2, lambda x: np.abs(x[0] * x[1])),
    ("exp(abs(x1) - x2^2)", 2, lambda x: np.exp(np.abs(x[0]) - x[1] ** 2)),
    ("x1^2^2", 2, lambda x: x[0] ** 4),
    ("1e-3*x1 + 2.5e2", 2, lambda x: 1e-3 * x[0] + 2.5e2),
    ("x1^2 + x2^2 + x3^2", 3, lambda x: x[0] ** 2 + x[1] ** 2 + x[2] ** 2),
    ("x1*x2*x3", 3, lambda x: x[0] * x[1] * x[2]),
    ("abs(x1)*exp(x2)", 2, lambda x: np.abs(x[0]) * np.exp(x[1])),
    ("(x1 - x2)*(x1 + x2)", 2, lambda x: (x[0] - x[1]) * (x[0] + x[1])),
]


def test_round_trip_corpus():
    rng = np.random.default_rng(20260815)
    assert len(CORPUS) == 20
    for source, nu, direct in CORPUS:
        expr = parse_potential(source, nu)
        pts = rng.uniform(-2.0, 2.0, size=(100, nu))
        got = evaluate(expr, pts)
        want = np.array([direct(p) for p in pts])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_evaluate_examples():
    v = parse_potential("x1^2*x2^2", 2)
    assert evaluate(v, [2.0, 3.0]) == 36.0
    for t in (-5.0, 0.0, 0.3, 7.0):
        assert evaluate(v, [t, 0.0]) == 0.0
    assert evaluate(parse_potential("x1^2+x2^2", 2), [3.0, 4.0]) == 25.0


def test_evaluate_batch_and_shape_errors():
    v = parse_potential("x1+x2", 2)
    out = evaluate(v, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(out, [3.0, 7.0])
    with pytest.raises(ValueError):
        evaluate(v, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        evaluate(v, np.zeros((4, 3)))


def test_evaluation_leaves_the_points_alone():
    # nodes write into their children's temporaries, never into the points;
    # a column-major batch gives the same values as a row-major one
    pts = np.asfortranarray(np.random.default_rng(2).uniform(-3.0, 3.0, (500, 2)))
    before = pts.copy()
    for source in ("x1", "x1^3", "abs(x1) - x2", "exp(-x1^2) * (x2 + 1)", "-x2"):
        v = parse_potential(source, 2)
        values = evaluate(v, pts)
        assert np.array_equal(values, evaluate(v, np.ascontiguousarray(pts)))
        values += 1.0
        assert np.array_equal(pts, before), source


def copy_then_power(self, pts):
    """_Pow.eval as it was: the base's values in a fresh array, then **=."""
    v = self.base.eval(pts)
    v **= self.exponent
    return v


@pytest.mark.parametrize("source, nu", [
    ("x1^2*x2^2", 2), ("x1^2", 2), ("x1^2+x2^2", 2),    # the bench potentials
    ("x1^0 + x2^1 - x1^3*x2^4 + x1^5", 2), ("x1^2 + x2^2*x3^2", 3),
])
def test_power_of_a_coordinate_equals_copy_then_power(monkeypatch, source, nu):
    # x_i^e is the column's power, without a copy of the column first; it is
    # numpy's same scalar power as `v **= e`, so the values agree bit for bit
    # on row- and column-major points, and the points stay as they were
    expr = parse_potential(source, nu)
    pts = np.random.default_rng(5).standard_normal((10_000, nu)) * 3.0
    pts[:4] = [[0.0] * nu, [-0.0] * nu, [1e-170] * nu, [1e40] * nu]
    before = pts.copy()
    got = [evaluate(expr, p) for p in (pts, np.asfortranarray(pts))]
    assert np.array_equal(pts, before)
    monkeypatch.setattr(potentials._Pow, "eval", copy_then_power)
    want = evaluate(expr, pts)
    for values in got:
        assert np.array_equal(values, want, equal_nan=True)
        assert np.array_equal(np.signbit(values), np.signbit(want))



WHERE = "at a test point"


@pytest.mark.parametrize("values, finite, message", [
    ([1.0, np.nan, -5.0], False, "potential 'x1' is non-finite (nan) at a test point"),
    ([1.0, np.inf, np.nan], True, "potential 'x1' is non-finite (inf) at a test point"),
    ([1.0, -np.inf, np.inf], True, "potential 'x1' is non-finite (-inf) at a test point"),
    ([1.0, -np.inf, np.inf], False,
     "negative potential value -inf at a test point (tolerance 1e-09)"),
    ([0.5, -1e-9, -2.5e-9], False,
     "negative potential value -2.5e-09 at a test point (tolerance 1e-09)"),
    ([0.5, -3.0, -1e-12], True,
     "negative potential value -3 at a test point (tolerance 1e-09)"),
])
def test_guard_values_refusals(values, finite, message):
    with pytest.raises(ValueError) as info:
        guard_values(parse_potential("x1", 1), np.array(values), WHERE, finite=finite)
    assert str(info.value) == message


@pytest.mark.parametrize("finite", [False, True])
@pytest.mark.parametrize("values", [
    [0.0, -0.0, -1e-12, -NEGATIVE_TOLERANCE, 3.0],  # roundoff zeros in [-1e-9, 0)
    [],
])
def test_guard_values_passes(values, finite):
    values = np.array(values)
    assert guard_values(parse_potential("x1", 1), values, WHERE, finite=finite) is values


def test_guard_values_passes_plus_inf_unless_finite():
    values = np.array([2.0, np.inf])
    assert guard_values(parse_potential("exp(x1)", 1), values, WHERE) is values


def test_precedence_and_associativity():
    p = [1.7, -0.6, 2.2]
    assert evaluate(parse_potential("x1+x2*x3^2", 3), p) == p[0] + p[1] * p[2] ** 2
    assert evaluate(parse_potential("x1^2^3", 1), [1.3]) == 1.3 ** 8
    assert evaluate(parse_potential("2*x1^2", 1), [3.0]) == 18.0
    assert evaluate(parse_potential("-x1^2", 1), [3.0]) == -9.0
    assert evaluate(parse_potential("x1-x2-x3", 3), p) == (p[0] - p[1]) - p[2]


@pytest.mark.parametrize(
    "source, position",
    [
        ("x1^-2", 3),
        ("x1^2.5", 3),
        ("x3", 0),
        ("foo(x1)", 0),
        ("x1 + ", 5),
        ("(x1", 3),
        ("x1 @ x2", 3),
        ("x1 x2", 3),
        # exponents above 1024, a tower's value at the literal that starts it
        ("x1^1025", 3),
        ("x1^9^9^9", 5),
        ("x1^2^11", 3),
        pytest.param("x1^" + "9" * 5000, 3, id="5000-digit-exponent"),
        # the grammar is ASCII: no superscript or non-ASCII digits
        ("x\u00b2", 1),
        ("x\u0661", 1),
        ("x1\u00a0+x2", 2),
    ],
)
def test_parse_errors_carry_position(source, position):
    with pytest.raises(ParseError) as err:
        parse_potential(source, 2)
    assert err.value.position == position


def test_exponent_cap_is_inclusive():
    assert parse_potential("x1^2^10", 1).root.exponent == 1024
    assert parse_potential("x1^0001024", 1).root.exponent == 1024


def test_exponent_must_be_integer_literal():
    with pytest.raises(ParseError):
        parse_potential("x1^(2)", 2)
    with pytest.raises(ParseError):
        parse_potential("x1^x2", 2)


def test_to_polynomial_examples():
    assert to_polynomial(parse_potential("x1^2*x2^2", 2)).terms == {(2, 2): 1.0}
    assert to_polynomial(parse_potential("x1^2*x2^4 + x1^4*x2^2", 2)).terms == {
        (2, 4): 1.0,
        (4, 2): 1.0,
    }
    assert to_polynomial(parse_potential("x1*(x1+x2)", 2)).terms == {(2, 0): 1.0, (1, 1): 1.0}


def test_to_polynomial_prunes_cancellations():
    assert to_polynomial(parse_potential("x1 - x1", 2)).terms == {}
    form = to_polynomial(parse_potential("(x1+x2)^2 - x1^2 - 2*x1*x2 - x2^2", 2))
    assert form.terms == {}
    assert all(c != 0.0 for c in form.terms.values())


def test_to_polynomial_preserves_evaluation():
    rng = np.random.default_rng(7)
    sources = [
        ("(x1+x2)^2*(x1-x2)", 2),
        ("x1^2*x2^2 + 0.25*(x1 - 2*x2)^3", 2),
        ("(x1*x2*x3 - 1)^2", 3),
        ("-(x1 - x2^2)^2 + x1^4", 2),
    ]
    for source, nu in sources:
        expr = parse_potential(source, nu)
        form = to_polynomial(expr)
        pts = rng.uniform(-1.5, 1.5, size=(16, nu))
        np.testing.assert_allclose(form.evaluate(pts), evaluate(expr, pts), rtol=1e-12, atol=1e-13)


# Random polynomial expressions in x1..x3 as (source, magnitude source,
# degree).  The magnitude source turns every '-' into '+', so evaluated at
# |x| it bounds the size of every intermediate term: the rounding scale of
# both evaluation routes.  Products and powers keep the degree <= 12 so the
# expansion stays small.
MAX_DEGREE = 12
LEAVES = st.one_of(
    st.sampled_from(["x1", "x2", "x3"]).map(lambda v: (v, v, 1)),
    st.sampled_from(["0", "1", "2", "0.5", "1.25", "3e-2"]).map(lambda c: (c, c, 0)),
)


def _binary(parts):
    (a, abs_a, deg_a), op, (b, abs_b, deg_b) = parts
    if op == "*" and deg_a + deg_b <= MAX_DEGREE:
        return f"({a} * {b})", f"({abs_a} * {abs_b})", deg_a + deg_b
    op = "-" if op == "-" else "+"
    return f"({a} {op} {b})", f"({abs_a} + {abs_b})", max(deg_a, deg_b)


def _power(parts):
    (a, abs_a, deg_a), k = parts
    k = min(k, MAX_DEGREE // max(deg_a, 1))
    return f"({a})^{k}", f"({abs_a})^{k}", deg_a * k


def _extend(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*"), children).map(_binary),
        st.tuples(children, st.integers(0, 3)).map(_power),
        children.map(lambda c: (f"-{c[0]}", c[1], c[2])),
    )


def _fold(parts):
    polynomial = _power(parts[0][::2])
    for part, op, k in parts[1:]:
        polynomial = _binary((polynomial, op, _power((part, k))))
    return polynomial


# A chain of 2..4 powered random subexpressions, so that every example
# expands products of sums.
POLYNOMIALS = st.lists(
    st.tuples(st.recursive(LEAVES, _extend, max_leaves=6), st.sampled_from("+-*"),
              st.integers(1, 3)),
    min_size=2, max_size=4,
).map(_fold)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(POLYNOMIALS, st.integers(0, 2**32 - 1))
def test_to_polynomial_matches_evaluate_property(polynomial, seed):
    source, magnitude_source, _ = polynomial
    expr = parse_potential(source, 3)
    pts = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(16, 3))
    scale = evaluate(parse_potential(magnitude_source, 3), np.abs(pts))
    gap = np.abs(to_polynomial(expr).evaluate(pts) - evaluate(expr, pts))
    assert np.all(gap <= 1e-9 * scale), source


# characters the tokenizer accepts nowhere
ILLEGAL = "$@#!?%&;~=[]{}|,/'\"\\"


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(CORPUS), st.sampled_from(ILLEGAL), st.data())
def test_parse_error_position_property(entry, char, data):
    source, nu, _ = entry
    i = data.draw(st.integers(0, len(source)))
    with pytest.raises(ParseError) as raised:
        parse_potential(source[:i] + char + source[i:], nu)
    assert raised.value.position == i


def test_to_polynomial_rejects_non_polynomial():
    with pytest.raises(NonPolynomialError):
        to_polynomial(parse_potential("exp(x1)", 1))
    with pytest.raises(NonPolynomialError):
        to_polynomial(parse_potential("x1 + abs(x2)", 2))


def _poly(source, nu):
    return to_polynomial(parse_potential(source, nu))


def test_degeneracy_direction_examples():
    verdict = degeneracy_direction(_poly("x1^2", 2))
    assert verdict.degenerate and not verdict.gradient_vanishes
    np.testing.assert_allclose(verdict.direction, [0.0, 1.0], atol=1e-12)

    verdict = degeneracy_direction(_poly("x1 + x2", 2))
    assert verdict.degenerate
    np.testing.assert_allclose(verdict.direction, [1.0, -1.0] / np.sqrt(2.0), atol=1e-12)

    verdict = degeneracy_direction(_poly("x1^2*x2^4 + x1^4*x2^2", 2))
    assert not verdict.degenerate and verdict.direction is None

    verdict = degeneracy_direction(_poly("x1^2*x2^2", 2))
    assert not verdict.degenerate


@pytest.mark.parametrize("source, budget, degenerate, verdict", [
    ("x1^2", 40_000, True, "divergent-evidence"),
    ("x1^2*x2^2", 60_000, False, "convergent-evidence"),
])
def test_degeneracy_agrees_with_thinness(source, budget, degenerate, verdict):
    # Two routes to the same question: the algebraic test on the expanded
    # polynomial, and Monte Carlo thinness of Omega_1 at r = 2 (the budgets
    # of the benchmark's sampling studies; on seeds 0-11 the last two tail
    # ratios stay above 1.7 for the strip and below 0.35 for the cross,
    # against verdict thresholds of 0.9 and 0.7).
    V = parse_potential(source, 2)
    assert degeneracy_direction(to_polynomial(V)).degenerate is degenerate
    report = thinness(V, 1.0, 2.0, 1.0, (10.0, 20.0, 40.0, 80.0), budget=budget, seed=0)
    assert report.verdict == verdict


@pytest.mark.parametrize("source, schedule, degenerate, verdict", [
    ("x1^2", (4.0, 8.0), True, "not-stabilized"),
    ("x1^2*x2^2", (4.0, 6.0), False, "stabilized"),
])
def test_degeneracy_agrees_with_spectrum(source, schedule, degenerate, verdict):
    # The algebraic test against box stabilization of the three lowest
    # eigenvalues at h = 0.25: the strip's free direction keeps them moving
    # (final drift 0.72), the cross's settle (final drift 0.0057), against
    # the 1 percent stabilization threshold.
    V = parse_potential(source, 2)
    assert degeneracy_direction(to_polynomial(V)).degenerate is degenerate
    report = spectrum_study(V, schedule, 0.25, 3)
    assert report.verdict == verdict and not report.notes


def test_degeneracy_zero_and_constant_polynomials():
    verdict = degeneracy_direction(_poly("0", 2))
    assert verdict.degenerate and verdict.gradient_vanishes and verdict.direction is None
    verdict = degeneracy_direction(_poly("4.5", 3))
    assert verdict.degenerate and verdict.gradient_vanishes


def test_returned_direction_annihilates_gradient():
    rng = np.random.default_rng(11)
    for source, nu in [("x1^2", 2), ("x1 + x2", 2), ("(x1 - x2)^4", 2), ("x1^2 + 2*x1*x2 + x2^2", 2)]:
        form = _poly(source, nu)
        verdict = degeneracy_direction(form)
        assert verdict.degenerate
        v = verdict.direction
        pts = rng.uniform(-3.0, 3.0, size=(32, nu))
        eps = 1e-7
        for p in pts:
            directional = (form.evaluate(p + eps * v) - form.evaluate(p - eps * v)) / (2 * eps)
            assert abs(directional) <= 1e-6  # finite-difference slack on the 1e-9 identity
        # exact check through the expanded gradient coefficients
        shifted = [form.evaluate(pts + 1e-5 * v), form.evaluate(pts - 1e-5 * v)]
        np.testing.assert_allclose(shifted[0], shifted[1], rtol=0, atol=1e-8)


def _substitute_linear(form: PolynomialForm, T: np.ndarray) -> PolynomialForm:
    """Oracle-side composition P(T y), expanded by dict convolution."""
    nu = form.dimension
    zero = (0,) * nu

    def poly_mul(a, b):
        out = {}
        for alpha, ca in a.items():
            for beta, cb in b.items():
                gamma = tuple(i + j for i, j in zip(alpha, beta))
                out[gamma] = out.get(gamma, 0.0) + ca * cb
        return out

    linear_forms = []
    for i in range(nu):
        lf = {}
        for j in range(nu):
            if T[i, j] != 0.0:
                alpha = tuple(1 if a == j else 0 for a in range(nu))
                lf[alpha] = T[i, j]
        linear_forms.append(lf)
    total: dict = {}
    for alpha, coeff in form.terms.items():
        term = {zero: coeff}
        for axis, power in enumerate(alpha):
            for _ in range(power):
                term = poly_mul(term, linear_forms[axis])
        for gamma, c in term.items():
            total[gamma] = total.get(gamma, 0.0) + c
    return PolynomialForm(nu, {a: c for a, c in total.items() if c != 0.0})


def test_degeneracy_is_basis_independent():
    rng = np.random.default_rng(42)
    nondegenerate = [_poly("x1^2*x2^4 + x1^4*x2^2", 2), _poly("x1^2*x2^2", 2), _poly("x1^2 + x2^4", 2)]
    for form in nondegenerate:
        for _ in range(5):
            T = rng.normal(size=(form.dimension, form.dimension))
            while abs(np.linalg.det(T)) < 0.3:
                T = rng.normal(size=(form.dimension, form.dimension))
            composed = _substitute_linear(form, T)
            assert not degeneracy_direction(composed).degenerate
