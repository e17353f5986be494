"""Exact Lebesgue moments for boxes, the standard simplex, and the unit ball.

Every supported K has moments of the factored form

    m_alpha(K) = g_K(|alpha|) * prod_i w_{K,i}(alpha_i),

with, for the box prod_i [lo_i, hi_i], the standard simplex and the unit
ball in dimension n:

    box:      w_i(k) = (hi_i^(k+1) - lo_i^(k+1)) / (k+1),  g = 1;
    simplex:  w(k) = k!,  g(s) = 1/(s+n)!;
    ball:     w(k) = (k-1)!!/2^(k/2) for even k, 0 for odd k,
              g(s) = 1/((n+s)/2)! for even n, 2^((n+s+1)/2)/(n+s)!! for odd n.

Each kind's (w, g) is stated once (_axis_weights, _degree_factor); the scalar
oracle and the table both read from it.  _axis_weights gives an axis's whole
row w_i(0..D) as integers over their lcm; on the box it is built from integer
running powers of the bounds over their common denominator, with no Fraction
per entry, and is the reduced row that Fraction arithmetic gives.  Exact
values are the rational part of a moment: on the ball every moment carries
the common factor pi^(n//2), which is left out of the formula above and
enters once, as the float _pi_scale(K), wherever a moment becomes a float.

The table (MomentTable) holds the nonzero moments with |alpha| <= D (on a
centred box or the ball, C(n + D//2, n) of them) as Python-int numerators
over one common denominator, den = lcm(g denominators) * prod_i lcm(w_i
denominators), so that exact sums of moments are integer sums; it is keyed by
the code c(alpha) = sum_i alpha_i (D+1)^i, which adds like the multi-indices
(c(a+b) = c(a) + c(b) while no coordinate exceeds D), and a code not in it
reads as 0.  On the ball the pi power is the table's single float `scale`.
Each request builds its own table; a bound sweep builds one, for its top order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Sequence

import numpy as np

from .polynomials import Polynomial, _integer, _over_lcm

__all__ = [
    "Domain",
    "moment_rational",
    "MomentTable",
    "moment_table",
    "integrate_poly",
    "integrate_poly_exact",
    "domain_from_json",
]


def _double_factorial(k: int) -> int:
    """k!! for k >= -1 (1 at k = 0 and k = -1)."""
    return math.prod(range(k, 0, -2))


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
        object.__setattr__(self, "n", _integer(self.n, "dimension", 1))
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
        return Domain.box([(lo, hi)] * _integer(n, "dimension", 1))

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

    def check_vars(self, *polys: Polynomial) -> None:
        """Refuse a polynomial in another number of variables than K's dimension."""
        for p in polys:
            if p.n_vars != self.n:
                raise ValueError(f"polynomial has {p.n_vars} variables, domain has {self.n}")

    def volume(self) -> float:
        return float(moment_rational(self, (0,) * self.n)) * _pi_scale(self)

    def to_json(self) -> dict:
        if self.kind == "box":
            return {"kind": "box", "bounds": [[str(lo), str(hi)] for lo, hi in self.bounds]}
        return {"kind": self.kind, "n": self.n}


def domain_from_json(obj) -> Domain:
    """Read the wire form {"kind": "box", "bounds": [[lo, hi], ...]} or
    {"kind": "simplex" | "ball", "n": n} (a dict or JSON text).  Any other
    shape is a ValueError naming these forms; Domain checks the kind and n."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "box" and obj.keys() == {"kind", "bounds"} and isinstance(obj["bounds"], list):
        if all(isinstance(pair, list) and len(pair) == 2 for pair in obj["bounds"]):
            return Domain.box([(Fraction(str(lo)), Fraction(str(hi))) for lo, hi in obj["bounds"]])
    elif kind is not None and kind != "box" and obj.keys() <= {"kind", "n"}:
        return Domain(kind, obj.get("n"))
    raise ValueError('a domain is {"kind":"box","bounds":[[lo,hi],...]} or {"kind":"simplex"|"ball","n":n}')


# ---- moment oracles ---------------------------------------------------


def _check_alpha(dom: Domain, alpha: Sequence[int]) -> tuple[int, ...]:
    try:
        alpha = tuple(map(index, alpha))
    except TypeError:
        raise ValueError(f"non-integer multi-index {alpha!r}") from None
    if len(alpha) != dom.n:
        raise ValueError(f"multi-index length {len(alpha)} != dimension {dom.n}")
    if any(a < 0 for a in alpha):
        raise ValueError("multi-index entries must be nonnegative")
    return alpha


def _pi_scale(dom: Domain) -> float:
    """The factor a moment's rational part leaves out: pi^(n//2) on the ball."""
    return math.pi ** (dom.n // 2) if dom.kind == "ball" else 1.0


def _axis_weights(dom: Domain, i: int, D: int) -> tuple[int, list[int]]:
    """(L, W) with w_{K,i}(k) = W[k] / L for k = 0..D, the factors of m_alpha
    contributed by alpha_i = k; L is the lcm of their reduced denominators.

    On a box, with q the lcm of the denominators of lo and hi, a = lo q and
    b = hi q, entry k is (b^(k+1) - a^(k+1)) / ((k+1) q^(k+1)): integer
    running powers, each entry reduced by one gcd, so (L, W) is the _over_lcm
    of the reduced Fractions without building one.
    """
    if dom.kind == "box":
        lo, hi = dom.bounds[i]
        q = math.lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)
        nums, dens = [], []
        pa, pb, pq = a, b, q
        for k in range(1, D + 2):
            num, den = pb - pa, k * pq  # num > 0 as lo < hi
            g = math.gcd(num, den)
            nums.append(num // g)
            dens.append(den // g)
            pa, pb, pq = pa * a, pb * b, pq * q
        L = math.lcm(*dens)
        return L, [v * (L // d) for v, d in zip(nums, dens)]
    if dom.kind == "simplex":
        return _over_lcm(math.factorial(k) for k in range(D + 1))
    return _over_lcm(Fraction(0) if k % 2 else Fraction(_double_factorial(k - 1), 2 ** (k // 2)) for k in range(D + 1))


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


def moment_rational(dom: Domain, alpha: Sequence[int]) -> Fraction:
    """The rational part of the moment (ball: the common pi power stripped)."""
    alpha = _check_alpha(dom, alpha)
    m = _degree_factor(dom, sum(alpha))
    for i, k in enumerate(alpha):
        L, W = _axis_weights(dom, i, k)
        m *= Fraction(W[k], L)
    return m


# Largest table moment_table builds, counted as if no moment were 0.  An entry
# holds an int64 code and degree, an object pointer and a Python int numerator
# (28-33 bytes for the catalog's 10-D boxes); with the arrays of the build the
# peak is ~60 bytes per entry (3.3e6: 195 MB), so the limit keeps a table under
# ~250 MB and its build under ~1 s.  C(n+D, n) grows fast in D, so a larger
# limit buys little: n = 10 goes from D = 14 (2.0e6 entries) to D = 16 (5.3e6).
MAX_TABLE_ENTRIES = 4_000_000


@dataclass(frozen=True, eq=False)
class MomentTable:
    """The nonzero moments m_alpha(K) with |alpha| <= max_degree, as integers
    over one common denominator; a multi-index that is not in it has m_alpha = 0.

    Entry k is the multi-index with code codes[k], c(alpha) = sum_i
    alpha_i (D+1)^i for D = max_degree; codes are sorted, and int64 unless
    (D+1)^n >= 2^63 (then Python ints in an object array).  Its moment is
    nums[k] / den exactly, times the float `scale` (pi^(n//2) on the ball,
    1.0 otherwise).  Codes add like the multi-indices they encode as long
    as no coordinate of the sum exceeds D.
    """

    dom: Domain
    max_degree: int
    codes: np.ndarray
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

    def find(self, codes) -> tuple[np.ndarray, np.ndarray]:
        """(hit, at): where codes are in the table (slice(None) if all are), and their entries."""
        at = np.minimum(np.searchsorted(self.codes, codes), len(self.codes) - 1)
        hit = self.codes[at] == codes  # all hit where no moment is 0: no gather or scatter
        return (slice(None), at) if hit.all() else (np.flatnonzero(hit), at[hit])

    def decode(self, codes) -> np.ndarray:
        """The (N, n) int64 multi-indices of the given codes."""
        base = self.max_degree + 1
        out = np.empty((len(codes), self.dom.n), dtype=np.int64)
        for i in range(self.dom.n):
            out[:, i] = codes % base
            codes = codes // base
        return out


def _scaled_factors(dom: Domain, D: int) -> tuple[int, list[int], list[list[int]]]:
    """(den, G, W) with m_alpha = G[|alpha|] * prod_i W[i][alpha_i] / den for
    |alpha| <= D: g and each w_i scaled to integers by the lcm of their
    denominators, den the product of those lcms."""
    den, G = _over_lcm(_degree_factor(dom, s) for s in range(D + 1))
    W = []
    for i in range(dom.n):
        L, Wi = _axis_weights(dom, i, D)
        den *= L
        W.append(Wi)
    return den, G, W


def _enumerate(D: int, base: int, axes, weights=None):
    """(codes, degrees, products) of every alpha with |alpha| <= D and alpha_i
    in axes[i] (ascending int64): codes ascending in radix `base` (Python ints
    once base^n >= 2^63), products prod_i weights[i][j] for alpha_i = axes[i][j]."""
    codes = np.zeros(1, dtype=object if base ** len(axes) >= 2**63 else np.int64)
    degrees = np.zeros(1, dtype=np.int64)
    prods = np.ones(1, dtype=object)
    # coordinates from the most significant down: each entry is followed by
    # its children alpha_i in axes[i] up to D - |alpha|, so the codes stay sorted
    for i in reversed(range(len(axes))):
        counts = np.searchsorted(axes[i], D - degrees, side="right")
        j = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        k = axes[i][j]
        codes = np.repeat(codes * base, counts) + k
        degrees = np.repeat(degrees, counts) + k
        if weights is not None:
            prods = np.repeat(prods, counts) * weights[i][j]
    return codes, degrees, prods


def moment_table(dom: Domain, max_degree: int) -> MomentTable:
    """Every nonzero moment with |alpha| <= max_degree, in a table built per call; ValueError past MAX_TABLE_ENTRIES."""
    n, D = dom.n, _integer(max_degree, "max_degree", 0)
    count = math.comb(n + D, n)
    if count > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"moment table for n = {n}, degree {D} would hold {count} entries "
            f"(limit {MAX_TABLE_ENTRIES}); reduce r"
        )
    den, G, W = _scaled_factors(dom, D)
    axes = [np.array([k for k, w in enumerate(Wi) if w], dtype=np.int64) for Wi in W]
    weights = [np.array([w for w in Wi if w], dtype=object) for Wi in W]
    codes, degrees, nums = _enumerate(D, D + 1, axes, weights)
    return MomentTable(dom, D, codes, nums * np.array(G, dtype=object)[degrees], den, _pi_scale(dom))


def integrate_poly_exact(dom: Domain, p: Polynomial) -> Fraction:
    """Integral of p over the domain, exactly: the rational part (on the
    ball the integral is this times pi^(n//2)).

    With p's coefficients as integer numerators c over their lcm L, the sum
    of c * G[|e|] * prod_i W_i[e_i] over the terms e (the factored moments
    over their common denominator den, up to p's degree) is divided once by
    L * den.  No Fraction per term and no table is built, so a sparse
    polynomial in many variables stays cheap.
    """
    dom.check_vars(p)
    L, coefs = _over_lcm(p.terms.values())
    den, G, W = _scaled_factors(dom, p.degree)
    total = 0
    for exp, c in zip(p.terms, coefs):
        c *= G[sum(exp)]
        for Wi, k in zip(W, exp):
            c *= Wi[k]
        total += c
    return Fraction(total, L * den)


def integrate_poly(dom: Domain, p: Polynomial) -> float:
    """Integral of p over the domain, as a float."""
    return float(integrate_poly_exact(dom, p)) * _pi_scale(dom)
