"""Exact Lebesgue moments for boxes, the standard simplex, and the unit ball.

Every supported K has moments of the factored form

    m_alpha(K) = g_K(|alpha|) * prod_i w_{K,i}(alpha_i),

with, for the box prod_i [lo_i, hi_i], the standard simplex and the unit
ball in dimension n:

    box:      w_i(k) = (hi_i^(k+1) - lo_i^(k+1)) / (k+1),  g = 1;
    simplex:  w(k) = k!,  g(s) = 1/(s+n)!;
    ball:     w(k) = (k-1)!!/2^(k/2) for even k, 0 for odd k,
              g(s) = 1/((n+s)/2)! for even n, 2^((n+s+1)/2)/(n+s)!! for odd n.

Each kind's (w, g) is stated once (_axis_weight, _degree_factor); the scalar
oracle and the memoized table both read from it.  Box and simplex moments
are plain Fractions.  Ball moments carry the common factor pi^(n//2)
symbolically (PiMultiple) so that matrix assembly can stay exact: the
formula above is their rational part.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .polynomials import Polynomial

__all__ = [
    "Domain",
    "PiMultiple",
    "moment",
    "moment_rational",
    "moment_table",
    "integrate_poly",
    "integrate_poly_exact",
    "domain_from_json",
]


def _double_factorial(k: int) -> int:
    if k in (0, -1):
        return 1
    if k < -1:
        raise ValueError("double factorial undefined below -1")
    result = 1
    while k > 1:
        result *= k
        k -= 2
    return result


@dataclass(frozen=True)
class PiMultiple:
    """Exact rational multiple of an integer power of pi."""

    coef: Fraction
    pi_power: int

    def __float__(self) -> float:
        return float(self.coef) * math.pi ** self.pi_power

    def __repr__(self) -> str:
        return f"{self.coef}*pi^{self.pi_power}"


@dataclass(frozen=True)
class Domain:
    """Box / standard simplex / unit ball, with moment oracle attached.

    kind: "box" (bounds = per-coordinate (lo, hi) rationals), "simplex"
    (standard simplex of dimension n), or "ball" (unit ball at the origin;
    general balls are handled upstream by affine substitution into f).
    """

    kind: str
    n: int
    bounds: tuple[tuple[Fraction, Fraction], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("box", "simplex", "ball"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind == "box":
            if self.bounds is None or len(self.bounds) != self.n:
                raise ValueError("box needs one (lo, hi) pair per coordinate")
            clean = tuple((Fraction(lo), Fraction(hi)) for lo, hi in self.bounds)
            for lo, hi in clean:
                if not lo < hi:
                    raise ValueError(f"degenerate box side [{lo}, {hi}]")
            object.__setattr__(self, "bounds", clean)
        elif self.bounds is not None:
            raise ValueError("bounds apply to boxes only")

    # ---- constructors -------------------------------------------------

    @staticmethod
    def box(bounds: Sequence[tuple]) -> "Domain":
        return Domain("box", len(bounds), tuple((Fraction(lo), Fraction(hi)) for lo, hi in bounds))

    @staticmethod
    def cube(n: int, lo=0, hi=1) -> "Domain":
        return Domain.box([(lo, hi)] * n)

    @staticmethod
    def simplex(n: int) -> "Domain":
        return Domain("simplex", n)

    @staticmethod
    def ball(n: int) -> "Domain":
        return Domain("ball", n)

    # ---- membership ---------------------------------------------------

    def contains(self, x: Sequence[float], slack: float = 1e-12) -> bool:
        if len(x) != self.n:
            return False
        if self.kind == "box":
            return all(float(lo) - slack <= xi <= float(hi) + slack for xi, (lo, hi) in zip(x, self.bounds))
        if self.kind == "simplex":
            return all(xi >= -slack for xi in x) and sum(x) <= 1 + slack
        return sum(xi * xi for xi in x) <= 1 + slack

    def volume(self) -> float:
        return float(moment(self, (0,) * self.n))

    def to_json(self) -> dict:
        if self.kind == "box":
            return {"kind": "box", "bounds": [[str(lo), str(hi)] for lo, hi in self.bounds]}
        return {"kind": self.kind, "n": self.n}


def domain_from_json(obj) -> Domain:
    """Read the {"kind": ...} wire form (dict or JSON string)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    kind = obj["kind"]
    if kind == "box":
        return Domain.box([(Fraction(str(lo)), Fraction(str(hi))) for lo, hi in obj["bounds"]])
    if kind == "simplex":
        return Domain.simplex(int(obj["n"]))
    if kind == "ball":
        return Domain.ball(int(obj["n"]))
    raise ValueError(f"unknown domain kind {kind!r}")


# ---- moment oracles ---------------------------------------------------


def _check_alpha(dom: Domain, alpha: Sequence[int]) -> tuple[int, ...]:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != dom.n:
        raise ValueError(f"multi-index length {len(alpha)} != dimension {dom.n}")
    if any(a < 0 for a in alpha):
        raise ValueError("multi-index entries must be nonnegative")
    return alpha


def ball_pi_power(n: int) -> int:
    """Power of pi common to every nonzero unit-ball moment in dimension n."""
    return n // 2


def _axis_weight(dom: Domain, i: int, k: int):
    """w_{K,i}(k): the factor of m_alpha contributed by alpha_i = k."""
    if dom.kind == "box":
        lo, hi = dom.bounds[i]
        return (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
    if dom.kind == "simplex":
        return math.factorial(k)
    if k % 2:
        return Fraction(0)
    return Fraction(_double_factorial(k - 1), 2 ** (k // 2))


def _degree_factor(dom: Domain, s: int) -> Fraction:
    """g_K(s): the factor of m_alpha that depends on |alpha| = s only."""
    n = dom.n
    if dom.kind == "box":
        return Fraction(1)
    if dom.kind == "simplex":
        return Fraction(1, math.factorial(s + n))
    if n % 2 == 0:
        # Gamma(1 + k/2) = (k/2)! with k = n + s even
        return Fraction(1, math.factorial((n + s) // 2))
    # Gamma(1 + k/2) = k!! sqrt(pi) / 2^((k+1)/2) with k = n + s odd
    return Fraction(2 ** ((n + s + 1) // 2), _double_factorial(n + s))


def _with_pi(dom: Domain, rational: Fraction):
    """The moment with rational part `rational`: a PiMultiple on the ball."""
    return PiMultiple(rational, ball_pi_power(dom.n)) if dom.kind == "ball" else rational


def moment_rational(dom: Domain, alpha: Sequence[int]) -> Fraction:
    """The rational part of the moment (ball: the common pi power stripped)."""
    alpha = _check_alpha(dom, alpha)
    m = _degree_factor(dom, sum(alpha))
    for i, k in enumerate(alpha):
        m *= _axis_weight(dom, i, k)
    return m


def moment(dom: Domain, alpha: Sequence[int]):
    """m_alpha(K): exact Fraction for box/simplex, PiMultiple for the ball."""
    return _with_pi(dom, moment_rational(dom, alpha))


@lru_cache(maxsize=64)
def _cached_table(dom: Domain, max_degree: int):
    # the product g(|alpha|) * prod_i w_i(alpha_i), built as running partial
    # products over the coordinates; the box has g = 1 and skips it
    n = dom.n
    w = [[_axis_weight(dom, i, k) for k in range(max_degree + 1)] for i in range(n)]
    g = None if dom.kind == "box" else [_degree_factor(dom, s) for s in range(max_degree + 1)]
    table = {}

    def rec(i, prefix, partial, left):
        wi = w[i]
        if i == n - 1:
            for k in range(left + 1):
                m = partial * wi[k]
                table[prefix + (k,)] = m if g is None else _with_pi(dom, m * g[max_degree - left + k])
            return
        for k in range(left + 1):
            rec(i + 1, prefix + (k,), partial * wi[k], left - k)

    rec(0, (), 1, max_degree)
    return table


def moment_table(dom: Domain, max_degree: int) -> dict:
    """All moments with |alpha| <= max_degree; memoized per (domain, degree)."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    return _cached_table(dom, max_degree)


def integrate_poly_exact(dom: Domain, p: Polynomial):
    """Sum of coefficients times moments; Fraction or PiMultiple (ball)."""
    if p.n_vars != dom.n:
        raise ValueError(f"polynomial has {p.n_vars} variables, domain has {dom.n}")
    total = Fraction(0)
    for exp, coef in p.terms.items():
        total += coef * moment_rational(dom, exp)
    return _with_pi(dom, total)


def integrate_poly(dom: Domain, p: Polynomial) -> float:
    """Integral of p over the domain, as a float."""
    return float(integrate_poly_exact(dom, p))
