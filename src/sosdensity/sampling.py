"""Draw feasible points distributed with a polynomial density on a box or simplex.

Coordinates are generated one at a time via the method of conditional
distributions; each univariate conditional CDF is a polynomial, inverted by
bracketed bisection with a safeguarded Newton polish.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .moments import Domain, integrate_poly_exact
from .polynomials import Polynomial

__all__ = [
    "ConditionalChain",
    "CdfSlice",
    "SampleBatch",
    "DegeneratePrefixError",
    "build_chain",
    "conditional_cdf",
    "invert_cdf",
    "sample",
    "markov_check",
    "write_batch_csv",
]

MEMBERSHIP_SLACK = 1e-12
DENOMINATOR_FLOOR = 1e-12
MAX_PREFIX_RETRIES = 100


class DegeneratePrefixError(RuntimeError):
    """The conditional density vanishes at the given prefix."""


def _marginal_arrays(marg: Polynomial, i: int):
    """Array form of f_{1..i+1}: prefix exponents, own exponents, float coefficients."""
    exps = np.array([[e[j] for j in range(i)] for e in marg.terms], dtype=float).reshape(len(marg.terms), i)
    own = np.array([e[i] for e in marg.terms])
    coefs = np.array([float(c) for c in marg.terms.values()])
    return exps, own, coefs, marg.degree


@dataclass(frozen=True)
class ConditionalChain:
    """Nested marginals f_{1..i} of a normalized density on a box or simplex.

    marginals[i-1] is the polynomial f_{1..i} in variables x_1..x_i (stored
    with the full variable count, unused variables absent); the last entry
    is the density itself.  Their array form, built once here, is what the
    sampler and conditional_cdf evaluate.
    """

    domain: Domain
    density: Polynomial
    marginals: tuple[Polynomial, ...]
    arrays: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = tuple(_marginal_arrays(m, i) for i, m in enumerate(self.marginals))
        object.__setattr__(self, "arrays", arrays)


@dataclass(frozen=True)
class CdfSlice:
    """A univariate polynomial CDF together with its valid range."""

    coeffs: tuple[float, ...]  # ascending; nondecreasing on [lo, hi], 0 at lo, 1 at hi
    lo: float
    hi: float

    def __call__(self, t: float) -> float:
        return float(np.polynomial.polynomial.polyval(t, self.coeffs))


@dataclass(frozen=True)
class SampleBatch:
    points: np.ndarray  # (count, n)
    seed: int
    values: np.ndarray | None = None  # objective evaluated at points, if requested

    def __eq__(self, other):
        # content, not identity: the generated == would ask an array for a bool
        if not isinstance(other, SampleBatch):
            return NotImplemented
        if (self.values is None) != (other.values is None):
            return False
        return (
            self.seed == other.seed
            and np.array_equal(self.points, other.points)
            and (self.values is None or np.array_equal(self.values, other.values))
        )


def _simplex_upper(n_vars: int, i: int) -> Polynomial:
    """Upper integration limit 1 - x_1 - ... - x_i for coordinate i+1 (0-based i)."""
    p = Polynomial.constant(n_vars, 1)
    for j in range(i):
        p = p - Polynomial.variable(n_vars, j)
    return p


def build_chain(hstar: Polynomial, dom: Domain) -> ConditionalChain:
    """Exact nested marginals of hstar; hstar must integrate to 1 within 1e-6."""
    if dom.kind not in ("box", "simplex"):
        raise ValueError(f"sampling is supported on boxes and the simplex, not {dom.kind!r}")
    if hstar.n_vars != dom.n:
        raise ValueError(f"density has {hstar.n_vars} variables, domain has {dom.n}")
    mass = integrate_poly_exact(dom, hstar)
    if abs(float(mass) - 1.0) > 1e-6:
        raise ValueError(f"density integrates to {float(mass)}, not 1")
    h = hstar * (1 / Fraction(mass))  # exact renormalization
    marginals = [h]
    for i in range(dom.n - 1, 0, -1):
        # integrate out coordinate i (0-based) from f_{1..i+1}
        if dom.kind == "box":
            lo, hi = dom.bounds[i]
            lower = Polynomial.constant(dom.n, lo)
            upper = Polynomial.constant(dom.n, hi)
        else:
            lower = Polynomial.constant(dom.n, 0)
            upper = _simplex_upper(dom.n, i)
        marginals.append(marginals[-1].definite_integrate(i, lower, upper))
    marginals.reverse()
    return ConditionalChain(domain=dom, density=h, marginals=tuple(marginals))


def _coordinate_range(dom: Domain, i: int, prefix: Sequence[float]) -> tuple[float, float]:
    if dom.kind == "box":
        lo, hi = dom.bounds[i]
        return float(lo), float(hi)
    return 0.0, 1.0 - float(sum(prefix))


def _univariate(chain: ConditionalChain, i: int, prefix: np.ndarray) -> np.ndarray:
    """Coefficients (ascending) of f_{1..i+1}(prefix, x_{i+1}) as a polynomial in x_{i+1}."""
    exps, own, coefs, deg = chain.arrays[i]
    w = coefs if i == 0 else coefs * np.prod(prefix[None, :] ** exps, axis=1)
    return np.bincount(own, weights=w, minlength=deg + 1)


def _cdf_coeffs(dens: np.ndarray, lo: float, denom: float) -> np.ndarray:
    """Coefficients of t -> (integral of dens from lo to t) / denom."""
    anti = np.concatenate([[0.0], dens / np.arange(1, len(dens) + 1)])
    coeffs = anti / denom
    coeffs[0] -= np.polynomial.polynomial.polyval(lo, anti) / denom
    return coeffs


def _conditional(chain: ConditionalChain, i: int, prefix: np.ndarray, denom: float):
    """CDF coefficients, range and density coefficients of coordinate i (0-based)
    given the prefix; denom = f_{1..i}(prefix) is the conditional's mass.
    """
    if denom < DENOMINATOR_FLOOR:
        raise DegeneratePrefixError(f"conditional density mass {denom:.3e} at prefix {list(prefix)}")
    lo, hi = _coordinate_range(chain.domain, i, prefix)
    dens = _univariate(chain, i, prefix)
    return _cdf_coeffs(dens, lo, denom), lo, hi, dens


def _check_prefix(dom: Domain, prefix: np.ndarray):
    """A prefix is valid when completing it with the domain's lowest corner stays in K."""
    i = len(prefix)
    rest = [float(lo) for lo, _ in dom.bounds[i:]] if dom.kind == "box" else [0.0] * (dom.n - i)
    if not dom.contains(list(prefix) + rest, slack=MEMBERSHIP_SLACK):
        raise ValueError(f"prefix {list(prefix)} lies outside the domain")


def conditional_cdf(chain: ConditionalChain, i: int, prefix: Sequence[float]) -> CdfSlice:
    """CDF of coordinate i (1-based) given values for coordinates 1..i-1."""
    if not 1 <= i <= chain.domain.n:
        raise ValueError(f"coordinate index {i} out of range")
    if len(prefix) != i - 1:
        raise ValueError(f"prefix must have length {i - 1}")
    prefix = np.asarray(prefix, dtype=float)
    _check_prefix(chain.domain, prefix)
    if i == 1:
        denom = 1.0
    else:
        denom = np.polynomial.polynomial.polyval(prefix[-1], _univariate(chain, i - 2, prefix[:-1]))
    coeffs, lo, hi, _ = _conditional(chain, i - 1, prefix, denom)
    return CdfSlice(coeffs=tuple(coeffs.tolist()), lo=lo, hi=hi)


def _invert(coeffs: np.ndarray, lo: float, hi: float, u: float) -> float:
    """min{y : F(y) >= u} by bisection to width 1e-12, then one guarded Newton step."""
    pv = np.polynomial.polynomial.polyval
    if u <= pv(lo, coeffs):
        return lo
    if u >= pv(hi, coeffs):
        return hi
    a, b = lo, hi
    while b - a > 1e-12:
        mid = 0.5 * (a + b)
        if pv(mid, coeffs) >= u:
            b = mid
        else:
            a = mid
    x = 0.5 * (a + b)
    deriv = np.polynomial.polynomial.polyder(coeffs)
    d = pv(x, deriv)
    if d > 0:
        step = (pv(x, coeffs) - u) / d
        y = x - step
        if a <= y <= b:
            x = y
    return x


def invert_cdf(F: CdfSlice, u: float) -> float:
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    return _invert(np.array(F.coeffs), F.lo, F.hi, u)


def _draw_point(chain: ConditionalChain, rng: np.random.Generator) -> np.ndarray:
    n = chain.domain.n
    for _ in range(MAX_PREFIX_RETRIES):
        x = np.empty(n)
        denom = 1.0  # f_{1..i}(x_1..x_i) carried forward from the previous step
        try:
            for i in range(n):
                coeffs, lo, hi, dens = _conditional(chain, i, x[:i], denom)
                x[i] = _invert(coeffs, lo, hi, rng.random())
                denom = np.polynomial.polynomial.polyval(x[i], dens)
        except DegeneratePrefixError:
            continue
        return x
    raise DegeneratePrefixError(f"no usable prefix after {MAX_PREFIX_RETRIES} attempts")


def sample(chain: ConditionalChain, count: int, seed: int, f: Polynomial | None = None) -> SampleBatch:
    """Deterministic batch of `count` points; per-point RNG streams are derived
    from (seed, point index), so the batch is independent of generation order.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    points = np.empty((count, chain.domain.n))
    for j in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j,)))
        points[j] = _draw_point(chain, rng)
    values = None if f is None else f.evaluate(points)
    return SampleBatch(points=points, seed=seed, values=values)


def markov_check(f: Polynomial, batch: SampleBatch, bound: float, f_min: float, eps: float) -> float:
    """Observed frequency of f(x) >= bound + eps*(bound - f_min).

    The tail bound 1/(1+eps) is the caller's assertion, with statistical slack.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if bound < f_min:
        raise ValueError("bound must be >= f_min")
    values = f.evaluate(batch.points) if batch.values is None else batch.values
    threshold = bound + eps * (bound - f_min)
    return float(np.mean(values >= threshold))


def write_batch_csv(batch: SampleBatch, path: str, dom: Domain, bound: float | None = None):
    """CSV with header x1,...,xn,f plus a JSON sidecar describing the run."""
    n = batch.points.shape[1]
    header = ",".join(f"x{i + 1}" for i in range(n)) + ",f"
    lines = [header]
    values = batch.values if batch.values is not None else [float("nan")] * len(batch.points)
    for p, v in zip(batch.points, values):
        lines.append(",".join(repr(float(c)) for c in p) + f",{float(v)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    sidecar = {
        "seed": batch.seed,
        "count": int(batch.points.shape[0]),
        "bound": bound,
        "domain": dom.to_json(),
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
