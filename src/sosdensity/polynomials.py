"""Sparse multivariate polynomials over exact rational coefficients.

Exponent vectors are plain tuples of nonnegative ints; terms live in a dict
mapping exponent tuple -> Fraction.  All arithmetic is exact and sums
Python-int numerators over one common denominator (_over_lcm), building one
Fraction per output term.  Inside the kernels an exponent is one integer
code, its entries the digits of a radix wide enough for every entry of the
result, so codes add as exponents do and each output tuple is built once.
A product scales each operand to integers and sums per code (_mul_nums, the
one loop over pairs of terms); substitute_var sums one ladder of integer
powers of the substituted polynomial (_substitute_nums; p ** k is x1^k with
x1 replaced by p, and substitute_affine goes through it too);
definite_integrate folds the antiderivative into the numerators, puts in
both bounds through _substitute_nums and sums upper minus lower; a scalar
product scales the numerators.  The Fractions, their term order and the
bits of every float rounded from them are those of per-term Fraction sums,
without a gcd per product and with no intermediate Polynomial.  Floating
point enters only in evaluate(), which takes one point or an (N, n) array
and gives every row the same float operations, hence the same bits, as a
point-by-point loop: its powers come from np.float_power, whose float64
loop is C pow, as for float ** int (evaluate_exact() is the rational path).  Canonical term order is graded
lexicographic (total degree first, then lex on the exponent tuple).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import repeat
from operator import index, itemgetter, lshift
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "Polynomial",
    "ParseError",
    "parse_polynomial",
]


def grlex_key(exponents: tuple[int, ...]) -> tuple:
    """Sort key realizing the graded lexicographic order."""
    return (sum(exponents), exponents)


def _over_lcm(values) -> tuple[int, list[int]]:
    """(L, [v * L for v in values]) for ints and Fractions, L the lcm of their denominators."""
    ratios = [v.as_integer_ratio() for v in values]
    L = math.lcm(*[d for _, d in ratios])
    return L, [c * (L // d) for c, d in ratios]


def _integer(value, what: str, least: int) -> int:
    """value as an int >= least (a numpy integer becomes an int); a bool, a
    non-integer or a smaller value is a ValueError that names `what`."""
    try:
        k = index(value)
    except TypeError:
        k = None
    if k is None or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    if k < least:
        raise ValueError(f"{what} must be >= {least}, not {k}")
    return k


def _shifts(top: int, n: int) -> range:
    """Bit offsets of the n digits of an exponent code, each digit wide
    enough for entries up to top: codes of such exponents add as the
    exponents do."""
    w = top.bit_length() or 1
    return range(0, w * n, w)


def _codes(exponents, shifts: range):
    """The code of each exponent tuple: its entries as digits at shifts."""
    return map(sum, map(map, repeat(lshift), exponents, repeat(shifts)))


def _decoded(nums: Mapping[int, int], shifts: range, den: int) -> dict[tuple[int, ...], Fraction]:
    """The exponent tuple of each code of nums, with its numerator over den as a Fraction."""
    mask = (1 << shifts.step) - 1
    return {tuple([(k >> s) & mask for s in shifts]): Fraction(c, den) for k, c in nums.items()}


def _mul_nums(p: Mapping[int, int], q: Mapping[int, int]) -> dict[int, int]:
    """Product of two integer coefficient maps keyed by exponent codes; terms
    in first-reached order (p's terms outer, q's inner), sums that cancel to
    0 dropped."""
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _substitute_nums(nums: Mapping[int, int], i: int, K: int, value: "Polynomial", shifts: range) -> tuple[dict, int]:
    """(S, V^K): the code-keyed integer map nums, of degree K in x_i, with
    value put in for x_i, as sums S over V^K, where value's coefficients are
    W / V (V the lcm of their denominators).

    Each term N x^rest x_i^k adds N V^(K-k) x^rest W^k, from one ladder of
    integer powers of W, to one running sum.  Terms and their order are
    those of adding term * value^k in Fractions: a sum that cancels to 0
    leaves at once and comes back at the end if it reappears.
    """
    V, vnums = _over_lcm(value.terms.values())
    w = dict(zip(_codes(value.terms, shifts), vnums))
    ladder = [{0: 1}]  # W^k
    for _ in range(K):
        ladder.append(_mul_nums(ladder[-1], w))
    si, mask = shifts[i], (1 << shifts.step) - 1
    out: dict[int, int] = {}
    get = out.get
    for code, c in nums.items():
        k = (code >> si) & mask
        code -= k << si
        c *= V ** (K - k)
        for kw, v in ladder[k].items():
            key = code + kw
            s = get(key, 0) + c * v
            if s:
                out[key] = s
            else:
                del out[key]
    return out, V**K


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
        n_vars = _integer(n_vars, "n_vars", 1)
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exp, coef in terms.items():
                try:
                    exp = tuple(map(index, exp))
                except TypeError:
                    raise ValueError(f"non-integer exponent in {exp!r}") from None
                if len(exp) != n_vars:
                    raise ValueError(f"exponent tuple {exp} has length {len(exp)}, expected {n_vars}")
                if min(exp) < 0:
                    raise ValueError(f"negative exponent in {exp}")
                c = _as_fraction(coef)
                if c:
                    clean[exp] = c
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "degree", max(map(sum, clean), default=0))

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero(n_vars: int) -> "Polynomial":
        return Polynomial(n_vars, {})

    @staticmethod
    def constant(n_vars: int, c) -> "Polynomial":
        n_vars = _integer(n_vars, "n_vars", 1)
        return Polynomial(n_vars, {(0,) * n_vars: _as_fraction(c)})

    @staticmethod
    def variable(n_vars: int, i: int) -> "Polynomial":
        """The monomial x_{i+1} (0-based index i)."""
        n_vars = _integer(n_vars, "n_vars", 1)
        if not 0 <= i < n_vars:
            raise ValueError(f"variable index {i} out of range for n_vars={n_vars}")
        return Polynomial(n_vars, {(0,) * i + (1,) + (0,) * (n_vars - i - 1): 1})

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
            terms[exp] = terms[exp] + c if exp in terms else c
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
            # each term's numerator over the lcm of p's denominators, times c: one Fraction per term
            c = _as_fraction(other)
            L, nums = _over_lcm(self.terms.values())
            a, den = c.numerator, L * c.denominator
            return Polynomial(self.n_vars, {e: Fraction(v * a, den) for e, v in zip(self.terms, nums)})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same(other)
        shifts = _shifts(self.degree + other.degree, self.n_vars)
        L1, n1 = _over_lcm(self.terms.values())
        L2, n2 = _over_lcm(other.terms.values())
        nums = _mul_nums(dict(zip(_codes(self.terms, shifts), n1)), dict(zip(_codes(other.terms, shifts), n2)))
        return Polynomial(self.n_vars, _decoded(nums, shifts, L1 * L2))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        k = _integer(k, "exponent", 0)
        # x1^k with x1 replaced by self: downstream code needs the full coefficient map
        x1_k = Polynomial.monomial(self.n_vars, (k,) + (0,) * (self.n_vars - 1))
        return x1_k.substitute_var(0, self)

    # ---- evaluation ---------------------------------------------------

    def evaluate(self, x):
        """f at one point (length n; a float) or at each row of an (N, n) array.

        Both shapes take one path, and every row gets the operations of a
        per-point loop: x_i ** e once per distinct (i, e), by np.float_power,
        whose float64 loop calls C pow as float ** int does (np.power
        rounds differently: it may use SIMD approximations); then for each
        term, in term order, float(coef) times its powers in variable order,
        added to a running total that starts at 0.0.  As with Python floats,
        a power that overflows raises OverflowError, and inf or nan entries
        propagate without a warning.
        """
        pts = np.asarray(x, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != self.n_vars:
            raise ValueError(f"points have shape {pts.shape}, expected length {self.n_vars}")
        rows = pts.reshape(-1, self.n_vars)
        powers: dict[tuple[int, int], np.ndarray] = {}
        with np.errstate(all="ignore"):
            for i in range(self.n_vars):
                for e in {exp[i] for exp in self.terms} - {0}:
                    try:
                        with np.errstate(over="raise"):
                            powers[i, e] = np.float_power(rows[:, i], float(e))
                    except FloatingPointError:
                        raise OverflowError(f"x{i + 1}^{e} overflows a float") from None
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

        With self's coefficients N / L (L the lcm of their denominators),
        _substitute_nums sums integers over L V^K, then one Fraction per
        term.  Terms and their order are those of adding term * value^k in
        Fractions.
        """
        self._check_same(value)
        K = max(map(itemgetter(i), self.terms), default=0)
        shifts = _shifts(self.degree + K * value.degree, self.n_vars)
        L, nums = _over_lcm(self.terms.values())
        out, D = _substitute_nums(dict(zip(_codes(self.terms, shifts), nums)), i, K, value, shifts)
        return Polynomial(self.n_vars, _decoded(out, shifts, L * D))

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
        With self's coefficients N / L, the antiderivative's term for
        N x^e, x_var^k in x^e, has numerator N M / (k + 1) over L M, where
        M = lcm(1..K) and K is the antiderivative's degree in x_var;
        _substitute_nums puts each bound into that one integer map, and
        upper minus lower is summed over one denominator, then one Fraction
        per term.  Terms and their order are those of the Fraction
        antiderivative, substitutions and difference.
        """
        self._check_same(lower)
        self._check_same(upper)
        for name, b in (("lower", lower), ("upper", upper)):
            if any(exp[var] != 0 for exp in b.terms):
                raise ValueError(f"{name} bound depends on the integration variable")
        K = max(map(itemgetter(var), self.terms), default=0) + 1  # the antiderivative's degree in x_var
        shifts = _shifts(self.degree + 1 + K * max(lower.degree, upper.degree), self.n_vars)
        L, nums = _over_lcm(self.terms.values())
        M = math.lcm(*range(1, K + 1))
        step = 1 << shifts[var]
        anti = {k + step: c * (M // (e[var] + 1)) for e, k, c in zip(self.terms, _codes(self.terms, shifts), nums)}
        hi, Dh = _substitute_nums(anti, var, K, upper, shifts)
        lo, Dl = _substitute_nums(anti, var, K, lower, shifts)
        D = math.lcm(Dh, Dl)
        sh, sl = D // Dh, D // Dl
        out = {k: c * sh for k, c in hi.items()}
        get = out.get
        for k, c in lo.items():
            out[k] = get(k, 0) - c * sl
        return Polynomial(self.n_vars, _decoded(out, shifts, L * M * D))  # sums that cancel to 0 are dropped

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


def parse_polynomial(text: str, n_vars: int) -> Polynomial:
    """Parse an ASCII polynomial expression by recursive descent; decimal
    literals become exact rationals, and a divisor must be a nonzero constant.

        expr   := ['-'] term (('+'|'-') term)*
        term   := factor (('*'|'/') factor)*
        factor := base ('^' uint)?
        base   := number | 'x'uint | '(' expr ')'
    """
    tokens = _tokenize(text) + [(None, None, len(text))]  # the last marks the end of text
    i = 0  # the cursor: tokens[i] is the next token; it stops at the end mark

    def take(ops: str | None = None):
        """The next token, taken; with ops, only an operator in ops, else None."""
        nonlocal i
        tok = tokens[i]
        if ops is not None and not (tok[0] == "op" and tok[1] in ops):
            return None
        i = min(i + 1, len(tokens) - 1)
        return tok

    def expr() -> Polynomial:
        negate = take("-")
        p = term()
        if negate:
            p = -p
        while True:
            op = take("+-")
            if op is None:
                return p
            q = term()
            p = p + q if op[1] == "+" else p - q

    def term() -> Polynomial:
        p = factor()
        while True:
            op = take("*/")
            if op is None:
                return p
            pos = tokens[i][2]
            q = factor()
            if op[1] == "*":
                p = p * q
            else:
                c = q.constant_term()
                if q.degree > 0 or c == 0:
                    raise ParseError("divisor must be a nonzero constant", pos)
                p = p * (1 / c)

    def factor() -> Polynomial:
        p = base()
        if take("^"):
            kind, val, pos = take()
            if kind != "number" or "." in val:
                raise ParseError("exponent must be a nonnegative integer literal", pos)
            p = p ** int(val)
        return p

    def base() -> Polynomial:
        kind, val, pos = take()
        if kind == "number":
            return Polynomial.constant(n_vars, Fraction(val))
        if kind == "var":
            idx = int(val[1:])
            if not 1 <= idx <= n_vars:
                raise ParseError(f"variable index {idx} out of range (n_vars={n_vars})", pos)
            return Polynomial.variable(n_vars, idx - 1)
        if kind == "op" and val == "(":
            p = expr()
            if take(")") is None:
                raise ParseError("expected ')'", tokens[i][2])
            return p
        raise ParseError("unexpected end of text" if kind is None else f"unexpected token {val!r}", pos)

    try:
        p = expr()
    except RecursionError:
        raise ParseError("parentheses nested too deeply", tokens[i][2]) from None
    kind, val, pos = tokens[i]
    if kind is not None:
        raise ParseError(f"unexpected token {val!r}", pos)
    return p
