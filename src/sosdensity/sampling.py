"""Draw feasible points distributed with a polynomial density on a box or simplex.

Coordinates are generated one at a time via the method of conditional
distributions; each univariate conditional CDF is a polynomial, inverted by
bracketed bisection with a safeguarded Newton polish.  The bisection steps
every column of a block in place and masks the columns that reached the
width; no column is gathered, copied out or dropped.

Point j of a batch with seed s draws the uniforms that
`default_rng(SeedSequence(s, spawn_key=(j,))).random()` gives.  `sample`
computes the streams of a whole block of points as uint64 arrays
(`_pcg64.streams`) and steps them together (`_pcg64.uniforms`), with no
generator object per point.

The draw is batched.  `sample` takes its points in blocks of BLOCK_SIZE and,
coordinate by coordinate, builds and inverts the conditional CDFs of the
whole block at once.  Each point draws from its own stream and retries on
its own, and it gets the bits it would get if it were drawn alone: every
batched step is the elementwise operation one point does (one in-place
Horner kernel over columns of coefficients, powers of the prefix by numpy's
array-exponent pow, each row's terms multiplied out and summed in term
order, and hi - (((0 + x_1) + x_2) + ...) for a shrinking range), never a
matmul or `einsum`, whose sums run in another order.
`conditional_cdf` and `invert_cdf` run the same helpers on one column.
Blocks bound the memory: a block's streams, power table and coefficient
columns live only while that block is drawn, and only one coordinate's
columns at a time; the first coordinate, which has no prefix, is one
column that broadcasts over the block.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _pcg64
from .moments import Domain, integrate_poly_exact
from .polynomials import Polynomial, _integer

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

DENOMINATOR_FLOOR = 1e-12
MAX_PREFIX_RETRIES = 100
# Points drawn together: a wider block spreads numpy's per-call overhead
# over more points but holds memory in proportion, so this is the largest
# power of two whose one-block traced peak (motzkin r = 12) stays within
# 1.25 MiB.  Drawing 4000 motzkin r = 12 points on a 2-vCPU x86-64 host
# (medians of 7 draws, two rounds; memory is the tracemalloc peak of one
# block): blocks of 256 take 0.09-0.16 s (0.19 MiB), 512 take 0.06-0.10 s
# (0.34 MiB), 1024 take 0.038 s (0.62 MiB), 2048 take 0.029-0.030 s
# (1.17 MiB) and one block of 4000 takes 0.025-0.026 s (4096: 2.27 MiB).
BLOCK_SIZE = 2048


class DegeneratePrefixError(RuntimeError):
    """The conditional density vanishes at the given prefix."""


def _marginal_arrays(marg: Polynomial, i: int):
    """Array form of f_{1..i+1}: the distinct prefix exponents, one
    (power-table rows, own exponent, float coefficient) triple per term in
    term order (see _power_table and _univariate), and the degree.
    """
    exps = np.array([[e[j] for j in range(i)] for e in marg.terms], dtype=float).reshape(len(marg.terms), i)
    # numpy's float power squares (x * x, which pow rounds differently) when
    # its exponent operand repeats one value along the inner loop.  The
    # per-term array prefix ** exps does so only when exps has one entry, a
    # table with one distinct exponent always would; so a larger exps also
    # puts exponent 0 in the table (pow(x, 0) is 1 either way).
    # (a sorted set, not np.unique, which imports numpy.ma on its first call)
    distinct = set(exps.ravel().tolist())
    if exps.size > 1:
        distinct.add(0.0)
    uniq = np.array(sorted(distinct), dtype=float)
    gather = np.arange(i) * uniq.size + np.searchsorted(uniq, exps)
    terms = tuple(zip(map(tuple, gather.tolist()), (e[i] for e in marg.terms),
                      (float(c) for c in marg.terms.values())))
    return uniq, terms, marg.degree


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


def _sides(dom: Domain) -> tuple:
    """(lo, hi, shrinks) per coordinate: coordinate i + 1 (0-based i) runs
    from lo to hi, less x_1 + ... + x_i when shrinks.  Only the box and the
    simplex have such polynomial ranges."""
    if dom.kind == "box":
        return tuple((lo, hi, False) for lo, hi in dom.bounds)
    if dom.kind == "simplex":
        return ((0, 1, True),) * dom.n
    raise ValueError(f"sampling is supported on boxes and the simplex, not {dom.kind!r}")


def build_chain(hstar: Polynomial, dom: Domain) -> ConditionalChain:
    """Exact nested marginals of hstar; hstar must integrate to 1 within 1e-6."""
    sides = _sides(dom)
    dom.check_vars(hstar)
    mass = integrate_poly_exact(dom, hstar)
    if abs(float(mass) - 1.0) > 1e-6:
        raise ValueError(f"density integrates to {float(mass)}, not 1")
    h = hstar * (1 / mass)  # exact renormalization
    marginals = [h]
    for i in range(dom.n - 1, 0, -1):
        # integrate out coordinate i (0-based) from f_{1..i+1}
        lo, hi, shrinks = sides[i]
        upper = Polynomial.constant(dom.n, hi)
        if shrinks:
            for j in range(i):
                upper = upper - Polynomial.variable(dom.n, j)
        marginals.append(marginals[-1].definite_integrate(i, Polynomial.constant(dom.n, lo), upper))
    marginals.reverse()
    return ConditionalChain(domain=dom, marginals=tuple(marginals))


def _coordinate_range(dom: Domain, i: int, prefix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of (lo, hi) for coordinate i (0-based) given (N, i) prefixes."""
    lo, hi, shrinks = _sides(dom)[i]
    used = np.zeros(len(prefix))
    if shrinks:
        for col in prefix.T:  # ((0 + x_1) + x_2) + ..., the order of Python's sum
            used = used + col
    return np.full(len(prefix), float(lo)), float(hi) - used


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


def _power_table(prefix: np.ndarray, uniq: np.ndarray) -> np.ndarray:
    """Row j * len(uniq) + k holds x_j ** uniq[k] for each of the (N, i)
    prefix rows, bit for bit the per-term array prefix[:, None, :] ** exps:
    each coordinate goes to each distinct exponent once, by the same
    array-exponent power, and the result is laid out one row per power.
    """
    table = (prefix[:, :, None] ** uniq).reshape(len(prefix), prefix.shape[1] * uniq.size)
    return table.T.copy()


def _univariate(chain: ConditionalChain, i: int, prefix: np.ndarray) -> np.ndarray:
    """Columns of coefficients (ascending) of f_{1..i+1}(prefix, x_{i+1}) as a
    polynomial in x_{i+1}, one column per (N, i) prefix row.

    One loop over the terms, in term order, adds coef * (x_a ** e_a * x_b **
    e_b * ...), its factors in coordinate order, into the row of the term's
    own exponent: on vectors of row length, the products and sums of one point.
    """
    uniq, terms, deg = chain.arrays[i]
    powers = list(_power_table(prefix, uniq))
    out = np.zeros((deg + 1, len(prefix)))
    bins, w = list(out), np.empty(len(prefix))
    for cols, own, coef in terms:
        prod = powers[cols[0]] if cols else 1.0
        for col in cols[1:]:
            prod = prod * powers[col]
        bins[own] += np.multiply(coef, prod, out=w)
    return out


def _cdf_coeffs(dens: np.ndarray, lo: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Columns of coefficients of t -> (integral of dens from lo to t) / denom."""
    anti = np.zeros((dens.shape[0] + 1, dens.shape[1]))
    np.divide(dens, np.arange(1, dens.shape[0] + 1)[:, None], out=anti[1:])
    at_lo = _horner(lo, anti) / denom
    anti /= denom
    anti[0] -= at_lo
    return anti


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
    rest = [float(lo) for lo, _, _ in _sides(dom)[len(prefix):]]
    if not dom.contains(list(prefix) + rest):
        raise ValueError(f"prefix {list(prefix)} lies outside the domain")


def conditional_cdf(chain: ConditionalChain, i: int, prefix: Sequence[float]) -> CdfSlice:
    """CDF of coordinate i (1-based) given values for coordinates 1..i-1."""
    i = _integer(i, "coordinate index", 1)
    if i > chain.domain.n:
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


def _derivative(cols: np.ndarray) -> np.ndarray:
    """The derivatives of the columns' polynomials, with the bits of
    numpy.polynomial's polyder (der[j-1] = j * c[j], and c[:1] * 0 for a
    constant), which would import numpy.polynomial on its first call."""
    if len(cols) == 1:
        return cols * 0
    return cols[1:] * np.arange(1, len(cols))[:, None]


def _invert(coeffs: np.ndarray, lo: np.ndarray, hi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Column-wise min{y : F(y) >= u}: bisection to width 1e-12, then one guarded
    Newton step.  coeffs holds one CDF per entry of u, or one column (with
    one lo and hi) that broadcasts over every u.  Every column is stepped
    on every round, and a mask of the columns still live decides which
    brackets move; each column does the operations it would do alone, in
    the same order.  A column with u at or past an end of its range is that end.
    """
    at_lo = u <= _horner(lo, coeffs)
    inner = ~at_lo & ~(u >= _horner(hi, coeffs))
    a, b = np.broadcast_to(lo, u.shape).copy(), np.broadcast_to(hi, u.shape).copy()
    live = inner & (b - a > 1e-12)
    while live.any():
        mid = 0.5 * (a + b)
        up = _horner(mid, coeffs) >= u
        np.copyto(b, mid, where=up & live)
        np.copyto(a, mid, where=~up & live)
        live &= b - a > 1e-12
    mid = 0.5 * (a + b)
    d = _horner(mid, _derivative(coeffs))
    # columns with d <= 0 (or NaN) keep the midpoint and never use their step
    with np.errstate(divide="ignore", invalid="ignore"):
        y = mid - (_horner(mid, coeffs) - u) / d
    newton = np.where((d > 0) & (a <= y) & (y <= b), y, mid)
    return np.where(inner, newton, np.where(at_lo, lo, hi))


def invert_cdf(F: CdfSlice, u: float) -> float:
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    return float(_invert(np.array(F.coeffs)[:, None], np.array([F.lo]), np.array([F.hi]), np.array([u]))[0])


def _draw_block(chain: ConditionalChain, streams: np.ndarray) -> np.ndarray:
    """One point per stream (a column of _pcg64.streams), each the point
    that stream gives when drawn alone.

    Only the rows that draw step their streams.  A row whose conditional
    mass falls below DENOMINATOR_FLOOR leaves the attempt before it draws its
    next uniform and starts again in the next round, from where its own
    stream stands.

    The first coordinate has no prefix, so its conditional is built once,
    as one column that broadcasts over every row.  A coordinate's columns
    are dropped before the next coordinate's are built, and the last
    coordinate drops its density before it inverts: no mass follows it.
    """
    n = chain.domain.n
    points = np.empty((streams.shape[1], n))
    todo = np.arange(streams.shape[1])
    first = _conditional(chain, 0, np.empty((1, 0)), np.ones(1))
    for _ in range(MAX_PREFIX_RETRIES):
        rows, x, denom = todo, np.empty((len(todo), n)), np.ones(len(todo))
        for i in range(n):
            keep = ~(denom < DENOMINATOR_FLOOR)  # NaN is not below the floor
            rows, x, denom = rows[keep], x[keep], denom[keep]
            u = _pcg64.uniforms(streams, rows)
            coeffs, lo, hi, dens = first if i == 0 else _conditional(chain, i, x[:, :i], denom)
            if i == n - 1:
                del dens  # no coordinate follows to read this one's mass
            x[:, i] = _invert(coeffs, lo, hi, u)
            del coeffs, lo, hi
            if i < n - 1:
                denom = _horner(x[:, i], dens)
                del dens
        points[rows] = x
        todo = np.setdiff1d(todo, rows, assume_unique=True)
        if not todo.size:
            return points
    raise DegeneratePrefixError(f"no usable prefix after {MAX_PREFIX_RETRIES} attempts")


def sample(chain: ConditionalChain, count: int, seed: int, f: Polynomial | None = None) -> SampleBatch:
    """Deterministic batch of `count` points.  Point j draws from the stream
    of (seed, j) that numpy's default_rng(SeedSequence(seed, spawn_key=(j,)))
    has, so the batch is independent of generation order and of the blocks
    of BLOCK_SIZE points it is drawn in.  A spawn key of one 32-bit word
    indexes at most 2**32 points.  An f in another number of variables than
    the chain's domain is refused before any point is drawn.
    """
    count = _integer(count, "count", 1)
    if count > 2**32:
        raise ValueError(f"count must be <= 2**32 (one 32-bit stream index per point), not {count}")
    seed = _integer(seed, "seed", 0)
    if f is not None:
        chain.domain.check_vars(f)
    points = np.empty((count, chain.domain.n))
    for start in range(0, count, BLOCK_SIZE):
        stop = min(start + BLOCK_SIZE, count)
        points[start:stop] = _draw_block(chain, _pcg64.streams(seed, np.arange(start, stop)))
    values = None if f is None else f.evaluate(points)
    return SampleBatch(points=points, seed=seed, values=values)


def _check_finite(**values: float):
    """Refuse a NaN or infinite value, which no comparison or JSON would catch."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, not {value}")


def markov_check(f: Polynomial, batch: SampleBatch, bound: float, f_min: float, eps: float) -> float:
    """Observed frequency of f(x) >= bound + eps*(bound - f_min).

    The tail bound 1/(1+eps) is the caller's assertion, with statistical slack.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, not {eps}")
    _check_finite(bound=bound, f_min=f_min)
    if bound < f_min:
        raise ValueError("bound must be >= f_min")
    values = f.evaluate(batch.points) if batch.values is None else batch.values
    threshold = bound + eps * (bound - f_min)
    return float(np.mean(values >= threshold))


def write_batch_csv(batch: SampleBatch, path: str, dom: Domain, bound: float | None = None):
    """CSV with header x1,...,xn,f plus a JSON sidecar describing the run."""
    if bound is not None:
        _check_finite(bound=bound)
    points = np.asarray(batch.points, dtype=float)
    n = points.shape[1]
    if n != dom.n:
        raise ValueError(f"the points have {n} coordinates, domain has {dom.n}")
    header = ",".join(f"x{i + 1}" for i in range(n)) + ",f"
    values = np.full(len(points), np.nan) if batch.values is None else np.asarray(batch.values, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        # %r of the Python floats of .tolist() is repr(float(c)) without one numpy
        # scalar per entry; each block of up to 1024 rows is one % format, written
        # as it is formatted
        rows = np.column_stack([points, values])
        fmt = ",".join(["%r"] * (n + 1)) + "\n"
        for start in range(0, len(rows), 1024):
            block = rows[start : start + 1024]
            fh.write(fmt * len(block) % tuple(block.ravel().tolist()))
    sidecar = {
        "seed": batch.seed,
        "count": int(batch.points.shape[0]),
        "bound": bound,
        "domain": dom.to_json(),
    }
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
