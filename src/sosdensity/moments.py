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
symbolically (PiMultiple): the formula above is their rational part.

The table (MomentTable) holds every moment with |alpha| <= D as a Python-int
numerator over one common denominator, den = lcm(g denominators) *
prod_i lcm(w_i denominators), so that exact sums of moments are integer
sums; it is keyed by the code c(alpha) = sum_i alpha_i (D+1)^i, which adds
like the multi-indices (c(a+b) = c(a) + c(b) while no coordinate exceeds D).
On the ball the pi power is the table's single float `scale`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .polynomials import Polynomial

__all__ = [
    "Domain",
    "PiMultiple",
    "moment",
    "moment_rational",
    "MomentTable",
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


# Largest table moment_table builds.  An entry holds an int64 code, an int64
# degree, an object pointer and a Python int numerator (28-33 bytes for the
# catalog's 10-D boxes); with the arrays of the build the peak is ~60 bytes
# per entry (3.3e6 entries: 195 MB), so the limit keeps a table under
# ~250 MB and its build under ~1 s.  C(n+D, n) grows fast in D, so a larger
# limit buys little: n = 10 goes from D = 14 (2.0e6 entries) to D = 16 (5.3e6).
MAX_TABLE_ENTRIES = 4_000_000


def _over_lcm(values) -> tuple[int, list[int]]:
    """(L, [v * L for v in values]) with L the lcm of the denominators."""
    values = [Fraction(v) for v in values]
    L = math.lcm(*(v.denominator for v in values))
    return L, [v.numerator * (L // v.denominator) for v in values]


@dataclass(frozen=True, eq=False)
class MomentTable:
    """All moments m_alpha(K) with |alpha| <= max_degree, as integers over
    one common denominator.

    Entry k is the multi-index with code codes[k], c(alpha) = sum_i
    alpha_i (D+1)^i for D = max_degree; codes are sorted, and int64 unless
    (D+1)^n >= 2^63 (then Python ints in an object array).  Its moment is
    nums[k] / den exactly, times the float `scale` (pi^(n//2) on the ball,
    1.0 otherwise); degrees[k] = |alpha|.  Codes add like the multi-indices
    they encode as long as no coordinate of the sum exceeds D.
    """

    dom: Domain
    max_degree: int
    codes: np.ndarray
    degrees: np.ndarray
    nums: np.ndarray
    den: int
    scale: float

    def __len__(self) -> int:
        return len(self.codes)

    def encode(self, exps) -> np.ndarray:
        """Codes of the rows of an (N, n) array of multi-indices."""
        exps = np.asarray(exps, dtype=np.int64).reshape(-1, self.dom.n).astype(self.codes.dtype)
        powers = np.array([(self.max_degree + 1) ** i for i in range(self.dom.n)], dtype=self.codes.dtype)
        return (exps * powers).sum(axis=1)

    def decode(self, codes) -> np.ndarray:
        """The (N, n) int64 multi-indices of the given codes."""
        base = self.max_degree + 1
        out = np.empty((len(codes), self.dom.n), dtype=np.int64)
        for i in range(self.dom.n):
            out[:, i] = codes % base
            codes = codes // base
        return out


@lru_cache(maxsize=64)
def _cached_table(dom: Domain, max_degree: int) -> MomentTable:
    # m_alpha = g(|alpha|) * prod_i w_i(alpha_i) = G[|alpha|] * prod_i W_i[alpha_i] / den,
    # with G and W_i the factors scaled to integers by the lcm of their
    # denominators and den the product of those lcms
    n, D = dom.n, max_degree
    count = math.comb(n + D, n)
    if count > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"moment table for n = {n}, degree {D} would hold {count} entries "
            f"(limit {MAX_TABLE_ENTRIES}); reduce r"
        )
    base = D + 1
    ctype = object if base**n >= 2**63 else np.int64
    den, G = _over_lcm(_degree_factor(dom, s) for s in range(D + 1))
    codes = np.zeros(1, dtype=ctype)
    degrees = np.zeros(1, dtype=np.int64)
    nums = np.ones(1, dtype=object)
    # coordinates from the most significant down: each entry is followed by
    # its children alpha_i = 0..D-|alpha| in order, so the codes stay sorted
    for i in reversed(range(n)):
        L, W = _over_lcm(_axis_weight(dom, i, k) for k in range(D + 1))
        den *= L
        counts = D + 1 - degrees
        k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        codes = np.repeat(codes * base, counts) + k
        degrees = np.repeat(degrees, counts) + k
        nums = np.repeat(nums, counts) * np.array(W, dtype=object)[k]
    nums = nums * np.array(G, dtype=object)[degrees]
    for a in (codes, degrees, nums):
        a.flags.writeable = False  # the memo hands the same arrays to every caller
    scale = math.pi ** ball_pi_power(n) if dom.kind == "ball" else 1.0
    return MomentTable(dom, D, codes, degrees, nums, den, scale)


def moment_table(dom: Domain, max_degree: int) -> MomentTable:
    """All moments with |alpha| <= max_degree; memoized per (domain, degree).

    Raises ValueError for a table of more than MAX_TABLE_ENTRIES entries.
    """
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
