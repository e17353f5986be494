"""Sparse multivariate polynomials over exact rational coefficients.

Exponent vectors are plain tuples of nonnegative ints; terms live in a dict
mapping exponent tuple -> Fraction.  All arithmetic is exact and sums
Python-int numerators over one common denominator (_over_lcm), building one
Fraction per output term: a product scales each operand to integers, and
substitute_var sums one ladder of integer powers of the substituted
polynomial (p ** k is x1^k with x1 replaced by p; definite_integrate and
substitute_affine go through it too).  The Fractions, and the bits of every
float rounded from them, are those of per-term Fraction sums, without a gcd
per product.  Floating point enters only in evaluate(), which takes one
point or an (N, n) array and gives every row the same float operations,
hence the same bits, as a point-by-point loop (evaluate_exact() is the
rational path).  Canonical term order is graded lexicographic (total
degree first, then lex on the exponent tuple).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import repeat
from operator import add, index
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "Polynomial",
    "grlex_key",
    "parse_polynomial",
]


def grlex_key(exponents: tuple[int, ...]) -> tuple:
    """Sort key realizing the graded lexicographic order."""
    return (sum(exponents), exponents)


def _over_lcm(values) -> tuple[int, list[int]]:
    """(L, [v * L for v in values]) for ints and Fractions, L the lcm of their denominators."""
    values = list(values)
    L = math.lcm(*(v.denominator for v in values))
    return L, [v.numerator * (L // v.denominator) for v in values]


def _mul_nums(p: Mapping, q: Mapping) -> dict:
    """Product of two integer coefficient maps; terms in first-reached order
    (p's terms outer, q's inner), sums that cancel to 0 dropped."""
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


# scalars that arithmetic with a Polynomial accepts, each taken exactly
_SCALARS = (int, float, Fraction)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, float):
        # exact binary expansion of the float, not a nearby decimal
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"unsupported coefficient type: {type(c).__name__}")


class Polynomial:
    """Immutable sparse polynomial in ``n_vars`` variables.

    Zero coefficients are never stored; the zero polynomial has an empty
    term map and degree 0.
    """

    __slots__ = ("n_vars", "terms", "degree")

    def __init__(self, n_vars: int, terms: Mapping[tuple[int, ...], object] | None = None):
        if n_vars < 1:
            raise ValueError("n_vars must be positive")
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exp, coef in terms.items():
                try:
                    exp = tuple(map(index, exp))
                except TypeError:
                    raise ValueError(f"non-integer exponent in {exp!r}") from None
                if len(exp) != n_vars:
                    raise ValueError(f"exponent tuple {exp} has length {len(exp)}, expected {n_vars}")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                c = _as_fraction(coef)
                if c != 0:
                    clean[exp] = c
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "degree", max((sum(e) for e in clean), default=0))

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero(n_vars: int) -> "Polynomial":
        return Polynomial(n_vars, {})

    @staticmethod
    def constant(n_vars: int, c) -> "Polynomial":
        return Polynomial(n_vars, {(0,) * n_vars: _as_fraction(c)})

    @staticmethod
    def variable(n_vars: int, i: int) -> "Polynomial":
        """The monomial x_{i+1} (0-based index i)."""
        if not 0 <= i < n_vars:
            raise ValueError(f"variable index {i} out of range for n_vars={n_vars}")
        exp = tuple(1 if j == i else 0 for j in range(n_vars))
        return Polynomial(n_vars, {exp: Fraction(1)})

    @staticmethod
    def monomial(n_vars: int, exponents: Sequence[int], coef=1) -> "Polynomial":
        return Polynomial(n_vars, {tuple(exponents): _as_fraction(coef)})

    # ---- basic queries ------------------------------------------------

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.n_vars, Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n_vars == other.n_vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.terms.items())))

    # ---- arithmetic ---------------------------------------------------

    def _check_same(self, other: "Polynomial"):
        if self.n_vars != other.n_vars:
            raise ValueError(f"dimension mismatch: {self.n_vars} vs {other.n_vars}")

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = Polynomial.constant(self.n_vars, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, Fraction(0)) + c
        return Polynomial(self.n_vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.n_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = Polynomial.constant(self.n_vars, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            c = _as_fraction(other)
            return Polynomial(self.n_vars, {e: cc * c for e, cc in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same(other)
        L1, n1 = _over_lcm(self.terms.values())
        L2, n2 = _over_lcm(other.terms.values())
        nums = _mul_nums(dict(zip(self.terms, n1)), dict(zip(other.terms, n2)))
        L = L1 * L2
        return Polynomial(self.n_vars, {e: Fraction(c, L) for e, c in nums.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        # x1^k with x1 replaced by self: downstream code needs the full coefficient map
        x1_k = Polynomial.monomial(self.n_vars, (k,) + (0,) * (self.n_vars - 1))
        return x1_k.substitute_var(0, self)

    # ---- evaluation ---------------------------------------------------

    def evaluate(self, x):
        """f at one point (length n; a float) or at each row of an (N, n) array.

        Both shapes take one path, and every row gets the operations of a
        per-point loop: x_i ** e by C pow (math.pow, which float ** int
        calls too), element by element (numpy's array ** rounds differently),
        once per distinct (i, e); then for each term, in term order,
        float(coef) times its powers in variable order, added to a running
        total that starts at 0.0.
        """
        pts = np.asarray(x, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != self.n_vars:
            raise ValueError(f"points have shape {pts.shape}, expected length {self.n_vars}")
        rows = pts.reshape(-1, self.n_vars)
        powers: dict[tuple[int, int], np.ndarray] = {}
        for i in range(self.n_vars):
            # iterating a memoryview makes each CPython float as pow takes it
            col = memoryview(np.ascontiguousarray(rows[:, i]))
            for e in {exp[i] for exp in self.terms} - {0}:
                powers[i, e] = np.fromiter(map(math.pow, col, repeat(float(e))), float, len(rows))
        total = np.zeros(len(rows))
        for exp, coef in self.terms.items():
            m = float(coef)
            for i, e in enumerate(exp):
                if e:
                    m = m * powers[i, e]
            total += m
        return float(total[0]) if pts.ndim == 1 else total

    def evaluate_exact(self, x: Sequence) -> Fraction:
        """Evaluate at a rational point with exact arithmetic."""
        if len(x) != self.n_vars:
            raise ValueError(f"point has length {len(x)}, expected {self.n_vars}")
        xf = [_as_fraction(v) for v in x]
        total = Fraction(0)
        for exp, coef in self.terms.items():
            m = coef
            for xi, e in zip(xf, exp):
                if e:
                    m *= xi ** e
            total += m
        return total

    # ---- calculus -----------------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Partial derivative with respect to variable i (0-based)."""
        terms: dict[tuple[int, ...], Fraction] = {}
        for exp, coef in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            terms[tuple(new)] = coef * exp[i]
        return Polynomial(self.n_vars, terms)

    def antiderivative(self, i: int) -> "Polynomial":
        terms: dict[tuple[int, ...], Fraction] = {}
        for exp, coef in self.terms.items():
            new = list(exp)
            new[i] += 1
            terms[tuple(new)] = coef / new[i]
        return Polynomial(self.n_vars, terms)

    def substitute_var(self, i: int, value: "Polynomial") -> "Polynomial":
        """Substitute a polynomial for variable i.

        With self's coefficients N / L, value's W / V (L, V the lcms of their
        denominators) and K self's degree in x_i, each term N x^rest x_i^k
        adds N V^(K-k) x^rest W^k to one integer sum over L V^K, then one
        Fraction per term.  Terms and their order are those of adding
        term * value^k in Fractions: a sum that cancels to 0 leaves at once
        and comes back at the end if it reappears.
        """
        self._check_same(value)
        L, nums = _over_lcm(self.terms.values())
        V, vnums = _over_lcm(value.terms.values())
        w = dict(zip(value.terms, vnums))
        K = max((e[i] for e in self.terms), default=0)
        ladder = [{(0,) * self.n_vars: 1}]  # W^k
        for _ in range(K):
            ladder.append(_mul_nums(ladder[-1], w))
        out: dict[tuple[int, ...], int] = {}
        for exp, c in zip(self.terms, nums):
            k = exp[i]
            rest = exp[:i] + (0,) + exp[i + 1 :]
            c *= V ** (K - k)
            for e, v in ladder[k].items():
                e = tuple(map(add, rest, e))
                s = out.get(e, 0) + c * v
                if s:
                    out[e] = s
                else:
                    del out[e]
        den = L * V**K
        return Polynomial(self.n_vars, {e: Fraction(c, den) for e, c in out.items()})

    def substitute_affine(self, scale: Sequence, shift: Sequence) -> "Polynomial":
        """Return q with q(y) = p(scale * y + shift), exactly."""
        if len(scale) != self.n_vars or len(shift) != self.n_vars:
            raise ValueError("scale/shift length must equal n_vars")
        sc = [_as_fraction(s) for s in scale]
        sh = [_as_fraction(s) for s in shift]
        if any(s == 0 for s in sc):
            raise ValueError("scale entries must be nonzero")
        result = self
        for i in range(self.n_vars):
            result = result.substitute_var(i, Polynomial.variable(self.n_vars, i) * sc[i] + sh[i])
        return result

    def definite_integrate(self, var: int, lower: "Polynomial", upper: "Polynomial") -> "Polynomial":
        """Integrate out variable ``var`` between two polynomial bounds.

        The bounds must not involve ``var``; the result does not either.
        """
        self._check_same(lower)
        self._check_same(upper)
        for name, b in (("lower", lower), ("upper", upper)):
            if any(exp[var] != 0 for exp in b.terms):
                raise ValueError(f"{name} bound depends on the integration variable")
        anti = self.antiderivative(var)
        return anti.substitute_var(var, upper) - anti.substitute_var(var, lower)

    # ---- printing -----------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, coef in self.sorted_terms():
            factors = []
            if coef != 1 or not any(exp):
                factors.append(str(coef) if coef.denominator == 1 else f"({coef})")
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial(n_vars={self.n_vars}, '{self}')"


# ---- expression parser -----------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d+|\d+|\.\d+)|(?P<var>x\d+)|(?P<op>[-+*/^()]))"
)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the ASCII polynomial grammar:

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' uint)?
    base   := number | 'x'uint | '(' expr ')'

    Division is only defined when the divisor is a nonzero constant.
    """

    def __init__(self, text: str, n_vars: int):
        self.tokens = _tokenize(text)
        self.n_vars = n_vars
        self.i = 0
        self.text_len = len(text)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.text_len)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected token {val!r}", pos)
        return p

    def expr(self) -> Polynomial:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val == "-":
            self.next()
            negate = True
        p = self.term()
        if negate:
            p = -p
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                _, _, pos = self.peek()
                q = self.factor()
                if val == "*":
                    p = p * q
                else:
                    c = q.constant_term()
                    if q.degree > 0 or c == 0:
                        raise ParseError("divisor must be a nonzero constant", pos)
                    p = p * (1 / c)
            else:
                return p

    def factor(self) -> Polynomial:
        p = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind != "number" or "." in val:
                raise ParseError("exponent must be a nonnegative integer literal", pos)
            p = p ** int(val)
        return p

    def base(self) -> Polynomial:
        kind, val, pos = self.next()
        if kind == "number":
            return Polynomial.constant(self.n_vars, Fraction(val))
        if kind == "var":
            idx = int(val[1:])
            if not 1 <= idx <= self.n_vars:
                raise ParseError(f"variable index {idx} out of range (n_vars={self.n_vars})", pos)
            return Polynomial.variable(self.n_vars, idx - 1)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected token {val!r}", pos)


def parse_polynomial(text: str, n_vars: int) -> Polynomial:
    """Parse an ASCII polynomial expression; decimal literals become exact rationals."""
    return _Parser(text, n_vars).parse()
