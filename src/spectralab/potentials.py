"""Expression language for potentials V(x1, ..., x_nu).

Grammar (EBNF, also documented in the README):

    expr     = term , { ("+" | "-") , term } ;
    term     = unary , { "*" , unary } ;
    unary    = "-" , unary | power ;
    power    = atom , [ "^" , exponent ] ;
    exponent = integer , [ "^" , exponent ] ;      (* right associative *)
    atom     = number | variable | name , "(" , expr , ")" | "(" , expr , ")" ;
    variable = "x" , digit , { digit } ;           (* x1 .. x_nu *)
    name     = "exp" | "abs" ;

"^" binds tighter than "*", which binds tighter than "+"/"-".  Exponents are
nonnegative integer literals; "x1^-2" and "x1^2.5" are rejected at parse time.
Whitespace is insignificant.  All syntax errors carry the 0-based position of
the offending token in the source string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ParseError",
    "NonPolynomialError",
    "PotentialExpr",
    "PolynomialForm",
    "DegeneracyVerdict",
    "parse_potential",
    "evaluate",
    "guard_values",
    "to_polynomial",
    "degeneracy_direction",
]

_FUNCTIONS = ("exp", "abs")
NEGATIVE_TOLERANCE = 1e-9


class ParseError(ValueError):
    """Syntax or validation error in a potential expression.

    Carries the 0-based character position of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class NonPolynomialError(ValueError):
    """Raised when a non-polynomial node (exp, abs) blocks expansion."""


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Node:
    def eval(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class _Const(_Node):
    value: float

    def eval(self, pts):
        return np.full(pts.shape[0], self.value)


@dataclass(frozen=True)
class _Var(_Node):
    index: int  # 1-based

    def eval(self, pts):
        return pts[:, self.index - 1].copy()


@dataclass(frozen=True)
class _BinOp(_Node):
    op: str  # '+', '-', '*'
    left: _Node
    right: _Node

    def eval(self, pts):
        a = self.left.eval(pts)
        b = self.right.eval(pts)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        return a * b


@dataclass(frozen=True)
class _Pow(_Node):
    base: _Node
    exponent: int  # nonnegative

    def eval(self, pts):
        return self.base.eval(pts) ** self.exponent


@dataclass(frozen=True)
class _Call(_Node):
    name: str  # 'exp' or 'abs'
    argument: _Node

    def eval(self, pts):
        v = self.argument.eval(pts)
        return np.exp(v) if self.name == "exp" else np.abs(v)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number', 'ident', 'op', 'end'
    text: str
    position: int
    value: float = 0.0


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*^()":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            # optional exponent part: 1e-3, 2.5E+10
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    while k < n and source[k].isdigit():
                        k += 1
                    j = k
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", i) from None
            tokens.append(_Token("number", text, i, value))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], dimension: int):
        self.tokens = tokens
        self.pos = 0
        self.dimension = dimension

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.position)
        return self.advance()

    def parse_expr(self) -> _Node:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = _BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> _Node:
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text == "*":
            self.advance()
            node = _BinOp("*", node, self.parse_unary())
        return node

    def parse_unary(self) -> _Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            # -a is (-1) * a: IEEE negation and the product agree bit for bit
            return _BinOp("*", _Const(-1.0), self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> _Node:
        base = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return _Pow(base, self.parse_exponent())
        return base

    def parse_exponent(self) -> int:
        """Nonnegative integer literal, possibly a right-associative tower."""
        tok = self.peek()
        if tok.kind != "number":
            raise ParseError(
                f"exponent must be a nonnegative integer literal, found {tok.text or 'end of input'!r}",
                tok.position,
            )
        if tok.value != int(tok.value) or "." in tok.text or "e" in tok.text or "E" in tok.text:
            raise ParseError(f"exponent must be a nonnegative integer literal, found {tok.text!r}", tok.position)
        self.advance()
        value = int(tok.value)
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            value = value ** self.parse_exponent()
        return value

    def parse_atom(self) -> _Node:
        tok = self.advance()
        if tok.kind == "number":
            return _Const(tok.value)
        if tok.kind == "ident":
            if tok.text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return _Call(tok.text, arg)
            if tok.text.startswith("x") and tok.text[1:].isdigit():
                index = int(tok.text[1:])
                if not 1 <= index <= self.dimension:
                    raise ParseError(
                        f"variable {tok.text!r} outside dimension {self.dimension}", tok.position
                    )
                return _Var(index)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.position)
        if tok.kind == "op" and tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.position)


# ---------------------------------------------------------------------------
# Public types and operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PotentialExpr:
    """Parsed potential: AST root, dimension and source text.

    Consumers that require V >= 0 guard evaluated values (`guard_values`).
    """

    dimension: int
    source: str
    root: _Node = field(repr=False)


def parse_potential(source: str, dimension: int) -> PotentialExpr:
    """Parse `source` into a PotentialExpr over variables x1..x{dimension}."""
    if not 1 <= int(dimension) == dimension:
        raise ValueError(f"dimension must be a positive integer, got {dimension}")
    parser = _Parser(_tokenize(source), int(dimension))
    root = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing input {tail.text!r}", tail.position)
    return PotentialExpr(int(dimension), source, root)


def evaluate(expr: PotentialExpr, points) -> np.ndarray:
    """Evaluate `expr` at `points` of shape (n, dimension) or (dimension,)."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[1] != expr.dimension:
        raise ValueError(f"points must have shape (n, {expr.dimension}), got {np.shape(points)}")
    values = expr.root.eval(pts)
    return values[0] if single else values


def guard_values(expr: PotentialExpr, values: np.ndarray, where: str,
                 finite: bool = False) -> np.ndarray:
    """Return evaluated values of `expr` once they are defined and V >= 0.

    Values in [-1e-9, 0) are roundoff zeros and pass.  NaN (inf - inf from
    two overflowing terms, for instance) is rejected by name.  +inf is a
    correct value of an overflowing exp() term: it lies outside every
    sublevel set and damps exp(-V) to 0, so it passes unless `finite` is
    set, as it is for the Hamiltonian and its eigensolver.
    """
    bad = ~np.isfinite(values) if finite else np.isnan(values)
    if bad.any():
        raise ValueError(
            f"potential {expr.source!r} is non-finite ({values[bad][0]}) {where}"
        )
    low = float(np.min(values)) if values.size else 0.0
    if low < -NEGATIVE_TOLERANCE:
        raise ValueError(
            f"negative potential value {low:.6g} {where} "
            f"(tolerance {NEGATIVE_TOLERANCE:g})"
        )
    return values


@dataclass(frozen=True)
class PolynomialForm:
    """Expanded polynomial: {multi-index: coefficient} with no zero entries."""

    dimension: int
    terms: dict[tuple[int, ...], float]

    def evaluate(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts.reshape(1, -1)
        if pts.shape[1] != self.dimension:
            raise ValueError(f"points must have shape (n, {self.dimension})")
        out = np.zeros(pts.shape[0])
        for alpha, coeff in self.terms.items():
            term = np.full(pts.shape[0], coeff)
            for axis, power in enumerate(alpha):
                if power:
                    term = term * pts[:, axis] ** power
            out += term
        return out[0] if single else out


def _poly_add(a: dict, b: dict, sign: float = 1.0) -> dict:
    out = dict(a)
    for alpha, coeff in b.items():
        out[alpha] = out.get(alpha, 0.0) + sign * coeff
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], float] = {}
    for alpha, ca in a.items():
        for beta, cb in b.items():
            gamma = tuple(i + j for i, j in zip(alpha, beta))
            out[gamma] = out.get(gamma, 0.0) + ca * cb
    return out


def _expand(node: _Node, dimension: int) -> dict:
    zero_index = (0,) * dimension
    if isinstance(node, _Const):
        return {zero_index: node.value}
    if isinstance(node, _Var):
        alpha = tuple(1 if i == node.index - 1 else 0 for i in range(dimension))
        return {alpha: 1.0}
    if isinstance(node, _BinOp):
        left = _expand(node.left, dimension)
        right = _expand(node.right, dimension)
        if node.op == "+":
            return _poly_add(left, right)
        if node.op == "-":
            return _poly_add(left, right, sign=-1.0)
        return _poly_mul(left, right)
    if isinstance(node, _Pow):
        base = _expand(node.base, dimension)
        out = {zero_index: 1.0}
        for _ in range(node.exponent):
            out = _poly_mul(out, base)
        return out
    if isinstance(node, _Call):
        raise NonPolynomialError(f"{node.name}(...) has no polynomial expansion")
    raise TypeError(f"unknown node {node!r}")


def to_polynomial(expr: PotentialExpr) -> PolynomialForm:
    """Expand a polynomial expression into monomial form.

    Raises NonPolynomialError if the expression contains exp or abs.
    """
    terms = {alpha: c for alpha, c in _expand(expr.root, expr.dimension).items() if c != 0.0}
    return PolynomialForm(expr.dimension, terms)


@dataclass(frozen=True)
class DegeneracyVerdict:
    """Outcome of the directional-degeneracy test v . grad(P) == 0.

    degenerate          there exists a direction v with v . grad(P) == 0
    direction           one unit such v (None when the gradient vanishes
                        identically, in which case every direction works)
    gradient_vanishes   True for constant (including zero) polynomials
    """

    degenerate: bool
    direction: np.ndarray | None
    gradient_vanishes: bool


def _gradient(poly: PolynomialForm) -> list[dict]:
    grads = []
    for axis in range(poly.dimension):
        g: dict[tuple[int, ...], float] = {}
        for alpha, coeff in poly.terms.items():
            if alpha[axis] == 0:
                continue
            beta = tuple(a - 1 if i == axis else a for i, a in enumerate(alpha))
            g[beta] = g.get(beta, 0.0) + alpha[axis] * coeff
        grads.append(g)
    return grads


def degeneracy_direction(poly: PolynomialForm, threshold: float = 1e-10) -> DegeneracyVerdict:
    """Find a unit vector v with v . grad(P) identically zero, if one exists.

    The map v -> coefficients of v . grad(P) is linear; assemble it as a
    matrix over the union of gradient monomials and take the SVD.  The
    smallest right singular vector is a degeneracy direction when its
    singular value is <= threshold * (largest singular value).

    Constant (including identically zero) polynomials have vanishing
    gradient: every direction is degenerate, reported via
    `gradient_vanishes` with no single direction.
    """
    nu = poly.dimension
    grads = _gradient(poly)
    monomials = sorted(set().union(*[g.keys() for g in grads])) if grads else []
    if not monomials:
        return DegeneracyVerdict(True, None, True)
    mat = np.zeros((len(monomials), nu))
    row = {alpha: i for i, alpha in enumerate(monomials)}
    for axis, g in enumerate(grads):
        for alpha, coeff in g.items():
            mat[row[alpha], axis] = coeff
    # full_matrices so the right singular basis always spans R^nu
    _, sigma, vt = np.linalg.svd(mat, full_matrices=True)
    sigma_full = np.zeros(nu)
    sigma_full[: sigma.size] = sigma
    if sigma_full[0] == 0.0:
        return DegeneracyVerdict(True, None, True)
    if sigma_full[-1] > threshold * sigma_full[0]:
        return DegeneracyVerdict(False, None, False)
    v = vt[-1]
    nonzero = np.nonzero(np.abs(v) > 1e-14)[0]
    if nonzero.size and v[nonzero[0]] < 0:
        v = -v
    v = v / math.sqrt(float(np.dot(v, v)))
    return DegeneracyVerdict(True, v, False)
