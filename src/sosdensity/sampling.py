"""Draw feasible points distributed with a polynomial density on a box or simplex.

Coordinates are generated one at a time via the method of conditional
distributions; each univariate conditional CDF is a polynomial, inverted by
bracketed bisection with a safeguarded Newton polish.

The draw is batched.  `sample` takes its points in blocks of BLOCK_SIZE and,
coordinate by coordinate, builds and inverts the conditional CDFs of the
whole block at once.  Each point keeps its own generator, draws its own
uniforms and retries on its own, and it gets the bits it would get if it
were drawn alone: every batched step is the elementwise operation one point
does (one in-place Horner kernel over columns of coefficients, powers of the
prefix by numpy's array-exponent pow, a per-row `bincount` that adds terms
in term order, and 1 - (((0 + x_1) + x_2) + ...) for the simplex range),
never a matmul or `einsum`, whose sums run in another order.
`conditional_cdf` and `invert_cdf` run the same helpers on one column.
Blocks bound the memory: a block's generators and its (points, terms,
coordinates) gathered powers live only while that block is drawn.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
# Points drawn together.  A block's generators and its (points, terms,
# coordinates) gathered powers set the memory.  Drawing 4000 motzkin r = 12
# points on a 2-vCPU x86-64 host: blocks of 256 take 0.26-0.30 s with
# ~1.5 MB more peak memory than one point at a time; blocks of 128 take
# 0.31-0.36 s (0.5 MB), 512 take 0.23-0.27 s (3.3 MB), and one block of all
# 4000 takes 0.17-0.19 s but ~26 MB more.
BLOCK_SIZE = 256


class DegeneratePrefixError(RuntimeError):
    """The conditional density vanishes at the given prefix."""


def _marginal_arrays(marg: Polynomial, i: int):
    """Array form of f_{1..i+1}: the distinct prefix exponents and each term's
    gather index into a row's (coordinate, exponent) powers (_term_powers),
    own exponents, float coefficients and degree.
    """
    exps = np.array([[e[j] for j in range(i)] for e in marg.terms], dtype=float).reshape(len(marg.terms), i)
    # numpy's float power squares (x * x, which pow rounds differently) when
    # its exponent operand repeats one value along the inner loop.  The
    # per-term array prefix ** exps does so only when exps has one entry, a
    # table with one distinct exponent always would; so a larger exps also
    # puts exponent 0 in the table (pow(x, 0) is 1 either way).
    uniq = np.unique(np.append(exps, 0.0) if exps.size > 1 else exps)
    gather = np.arange(i) * uniq.size + np.searchsorted(uniq, exps)
    own = np.array([e[i] for e in marg.terms])
    coefs = np.array([float(c) for c in marg.terms.values()])
    return uniq, gather, own, coefs, marg.degree


@dataclass(frozen=True)
class ConditionalChain:
    """Nested marginals f_{1..i} of a normalized density on a box or simplex.

    marginals[i-1] is the polynomial f_{1..i} in variables x_1..x_i (stored
    with the full variable count, unused variables absent); the last entry
    is the density itself.  Their array form, built once here, is what the
    sampler and conditional_cdf evaluate.
    """

    domain: Domain
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
        return float(_horner(t, np.array(self.coeffs)))


@dataclass(frozen=True, eq=False)
class SampleBatch:
    points: np.ndarray  # (count, n)
    seed: int
    values: np.ndarray | None = None  # objective evaluated at points, if requested

    def __eq__(self, other):
        # content, not identity: the generated == would ask an array for a bool;
        # defining __eq__ here leaves __hash__ None, so a batch is unhashable
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
    h = hstar * (1 / mass)  # exact renormalization
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
    return ConditionalChain(domain=dom, marginals=tuple(marginals))


def _coordinate_range(dom: Domain, i: int, prefix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of (lo, hi) for coordinate i (0-based) given (N, i) prefixes."""
    rows = len(prefix)
    if dom.kind == "box":
        lo, hi = dom.bounds[i]
        return np.full(rows, float(lo)), np.full(rows, float(hi))
    used = np.zeros(rows)
    for col in prefix.T:  # ((0 + x_1) + x_2) + ..., the order of Python's sum
        used = used + col
    return np.zeros(rows), 1.0 - used


def _horner(x, cols: np.ndarray):
    """Horner value at x of the polynomials whose ascending coefficients run
    down the columns of cols (one column per entry of x).

    cols[-1] + x * 0, then times x plus the next lower coefficient: in order
    the IEEE operations of numpy.polynomial's evaluation with tensor=False,
    on one array updated in place.
    """
    c0 = cols[-1] + x * 0
    for col in cols[-2::-1]:
        c0 *= x
        c0 += col
    return c0


def _term_powers(prefix: np.ndarray, uniq: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """(N, terms, i) powers x_j ** e of (N, i) prefixes, bit for bit the
    per-term array prefix[:, None, :] ** exps: each coordinate goes to each
    distinct exponent once, by the same array-exponent power, and is
    gathered per term.
    """
    table = (prefix[:, :, None] ** uniq).reshape(len(prefix), prefix.shape[1] * uniq.size)
    # take, not table[:, gather], whose result runs down the rows: the products
    # and weights must be C-ordered for w.ravel() in _univariate to be a view
    return np.take(table, gather, axis=1)


def _univariate(chain: ConditionalChain, i: int, prefix: np.ndarray) -> np.ndarray:
    """Columns of coefficients (ascending) of f_{1..i+1}(prefix, x_{i+1}) as a
    polynomial in x_{i+1}, one column per (N, i) prefix row.
    """
    uniq, gather, own, coefs, deg = chain.arrays[i]
    rows = len(prefix)
    w = coefs * np.prod(_term_powers(prefix, uniq, gather), axis=2)
    # one bincount adds each row's terms into that row's bins, in term order
    bins = (own * rows + np.arange(rows)[:, None]).ravel()
    return np.bincount(bins, weights=w.ravel(), minlength=(deg + 1) * rows).reshape(deg + 1, rows)


def _cdf_coeffs(dens: np.ndarray, lo: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Columns of coefficients of t -> (integral of dens from lo to t) / denom."""
    anti = np.zeros((dens.shape[0] + 1, dens.shape[1]))
    anti[1:] = dens / np.arange(1, dens.shape[0] + 1)[:, None]
    coeffs = anti / denom
    coeffs[0] -= _horner(lo, anti) / denom
    return coeffs


def _conditional(chain: ConditionalChain, i: int, prefix: np.ndarray, denom: np.ndarray):
    """Columns of CDF coefficients, range and columns of density coefficients of
    coordinate i (0-based) given (N, i) prefixes; denom = f_{1..i}(prefix) is
    each row's mass.
    """
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
    row = prefix[None, :]
    denom = np.ones(1) if i == 1 else _horner(row[:, -1], _univariate(chain, i - 2, row[:, :-1]))
    if denom[0] < DENOMINATOR_FLOOR:
        raise DegeneratePrefixError(f"conditional density mass {denom[0]:.3e} at prefix {list(prefix)}")
    coeffs, lo, hi, _ = _conditional(chain, i - 1, row, denom)
    return CdfSlice(coeffs=tuple(coeffs[:, 0].tolist()), lo=float(lo[0]), hi=float(hi[0]))


def _invert(coeffs: np.ndarray, lo: np.ndarray, hi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Column-wise min{y : F(y) >= u}: bisection to width 1e-12, then one guarded
    Newton step.  coeffs holds one CDF per column, so each bisection step
    gathers the columns still active.
    """
    at_lo = u <= _horner(lo, coeffs)
    x = np.where(at_lo, lo, hi)
    inner = np.flatnonzero(~at_lo & ~(u >= _horner(hi, coeffs)))
    coeffs, a, b, u = coeffs[:, inner], lo[inner], hi[inner], u[inner]
    active = np.flatnonzero(b - a > 1e-12)
    while active.size:
        mid = 0.5 * (a[active] + b[active])
        up = _horner(mid, coeffs[:, active]) >= u[active]
        b[active[up]] = mid[up]
        a[active[~up]] = mid[~up]
        active = active[b[active] - a[active] > 1e-12]
    mid = 0.5 * (a + b)
    d = _horner(mid, np.polynomial.polynomial.polyder(coeffs))
    # columns with d <= 0 (or NaN) keep the midpoint and never use their step
    with np.errstate(divide="ignore", invalid="ignore"):
        y = mid - (_horner(mid, coeffs) - u) / d
    x[inner] = np.where((d > 0) & (a <= y) & (y <= b), y, mid)
    return x


def invert_cdf(F: CdfSlice, u: float) -> float:
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    return float(_invert(np.array(F.coeffs)[:, None], np.array([F.lo]), np.array([F.hi]), np.array([u]))[0])


def _draw_block(chain: ConditionalChain, rngs: list[np.random.Generator]) -> np.ndarray:
    """One point per generator, each the point its generator gives when drawn alone.

    A row whose conditional mass falls below DENOMINATOR_FLOOR leaves the
    attempt before it draws its next uniform and starts again in the next
    round, from where its own generator stands.
    """
    n = chain.domain.n
    points = np.empty((len(rngs), n))
    todo = np.arange(len(rngs))
    for _ in range(MAX_PREFIX_RETRIES):
        rows, x, denom = todo, np.empty((len(todo), n)), np.ones(len(todo))
        for i in range(n):
            keep = ~(denom < DENOMINATOR_FLOOR)  # NaN is not below the floor
            rows, x, denom = rows[keep], x[keep], denom[keep]
            u = np.array([rngs[j].random() for j in rows])
            coeffs, lo, hi, dens = _conditional(chain, i, x[:, :i], denom)
            x[:, i] = _invert(coeffs, lo, hi, u)
            denom = _horner(x[:, i], dens)
        points[rows] = x
        todo = np.setdiff1d(todo, rows, assume_unique=True)
        if not todo.size:
            return points
    raise DegeneratePrefixError(f"no usable prefix after {MAX_PREFIX_RETRIES} attempts")


def sample(chain: ConditionalChain, count: int, seed: int, f: Polynomial | None = None) -> SampleBatch:
    """Deterministic batch of `count` points; per-point RNG streams are derived
    from (seed, point index), so the batch is independent of generation order
    and of the blocks of BLOCK_SIZE points it is drawn in.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    points = np.empty((count, chain.domain.n))
    for start in range(0, count, BLOCK_SIZE):
        stop = min(start + BLOCK_SIZE, count)
        rngs = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j,)))
                for j in range(start, stop)]
        points[start:stop] = _draw_block(chain, rngs)
    values = None if f is None else f.evaluate(points)
    return SampleBatch(points=points, seed=seed, values=values)


def markov_check(f: Polynomial, batch: SampleBatch, bound: float, f_min: float, eps: float) -> float:
    """Observed frequency of f(x) >= bound + eps*(bound - f_min).

    The tail bound 1/(1+eps) is the caller's assertion, with statistical slack.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, not {eps}")
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
