"""Degree-2r sum-of-squares density upper bounds via a generalized eigenproblem.

The order-r bound is the smallest generalized eigenvalue of A v = lambda B v,
where A and B are moment matrices indexed by the basis of all monomials
x^a with |a| <= r.  Every entry depends on the sum a+b alone:

    B[a, b] = m_{a+b},    A[a, b] = sum_d f_d m_{a+b+d}.

The basis and the distinct sums gamma = a+b (all |gamma| <= 2r) come from one
integer enumeration, each gamma gets its values mB[gamma] and mA[gamma] once,
and both matrices are gathered as mB[idx] and mA[idx] with idx[i, j] the
position of a_i + a_j among the sums.  The table stores each nonzero moment as
an integer numerator over a common denominator, keyed by a linear code of the
multi-index; codes add like multi-indices, so idx and every m_{gamma+d} are
found by searchsorted on codes (a missing code is a zero moment and adds no
term), and mA[gamma] = sum_d (f_d F) num_{gamma+d} / (den F), with F the lcm of
f's denominators, is one exact integer sum and one int/int division (none for 0).
That division rounds the exact rational correctly, as float(Fraction) does,
so A and B have the bits of summing Fraction moments and rounding once.
A value past the largest float becomes +-inf there, and a nonzero one below
the smallest normal float NaN.
The eigensolve is LAPACK's dsygvd (a Cholesky factor of B reduces the
pencil to a dense symmetric problem), from scipy's compiled LAPACK wrapper.
That extension is loaded from its file, so neither scipy's nor scipy.linalg's
Python package is imported (scipy.linalg's import takes longer than most
bound sweeps).  The call is the one scipy.linalg.eigh(As, Bs) makes with its
defaults, on the diagonally equilibrated pencil.  An order that cannot be
solved in floats is a ConditioningError naming its cause: Pencil.solve
refuses an order whose block holds a bad entry, and
smallest_generalized_eigenpair one whose B is unusable or that dsygvd fails.

The bound does not move when K and f are translated together, but
monomials lose digits fast on an off-centre box, so a Pencil is assembled
for f(y + c) on K - c, c the box centre, exactly, and Pencil.solve returns
the bound with that shift.

The grlex basis of order r is a prefix of the basis of any higher order, and
no entry depends on r, so the order-r pencil is the leading m_r x m_r block
of the order-R pencil for every R >= r.  Pencil.solve(r) solves that block.
The equilibration is elementwise and D_r is the head of D_R, so a Pencil
equilibrates once, when it is built, and the leading block of its
equilibrated copy is, bit for bit, the equilibrated order-r pencil.
compute_bound assembles the pencil of its own order; a sweep (bound_sweep,
the CLI's bound --r a..b) assembles one at its top order and solves each
order on it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .moments import Domain, _enumerate, moment_table
from .polynomials import Polynomial, _integer, _over_lcm

__all__ = [
    "BoundResult",
    "ConditioningError",
    "assemble_AB",
    "smallest_generalized_eigenpair",
    "compute_bound",
    "bound_sweep",
]

# Hard guard against returning garbage from a numerically indefinite B.
# Equilibrated eigh keeps ~7 correct digits up to roughly 1e15; beyond 1e16
# the Cholesky step is no longer trustworthy.
COND_LIMIT = 1e16

# Largest pencil size m = C(n+r, r) taken on.  Assembly and the eigensolve
# hold several m x m arrays of 8-byte entries at once (the code sums and
# index, A and B and the equilibrated copies the Pencil keeps, the copies of
# a block that its solve makes, the eigenvectors): one bound at
# m = 1001 (rosenbrock, n = 10, r = 4) raises peak memory by ~60 MB over its
# moment table and takes ~0.7 s with one BLAS thread, so m = 3500 needs
# ~0.75 GB and ~30 s.  The table limit does not bound m at small n: motzkin
# (n = 2) at r = 243 has a 121,771-entry table but m = 29,890 (~7 GB a matrix).
MAX_PENCIL_SIZE = 3500


def _load_flapack():
    """scipy.linalg._flapack, loaded from its file: neither scipy's nor
    scipy.linalg's __init__ runs.  The module is left out of sys.modules,
    so a later import of scipy.linalg loads it as its own submodule; once
    scipy.linalg has loaded it, that module is the one used."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")  # locates scipy without importing it
    for where in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(where, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
                loader.exec_module(module)
                sys.modules.pop(name, None)  # a single-phase extension puts itself there
                return module
    raise ImportError("scipy's LAPACK extension scipy/linalg/_flapack was not found")


_dsygvd = _load_flapack().dsygvd


class ConditioningError(RuntimeError):
    """An order whose pencil the floats cannot solve; the message is the cause,
    and cond_B is B's equilibrated condition number, inf where none was measured."""

    def __init__(self, cause: str, cond_B: float = math.inf):
        super().__init__(cause)
        self.cond_B = cond_B


# what a refusal adds when a value, not B's conditioning, is past the floats
_OUT_OF_RANGE = "; K's extent or f's coefficients leave the float range"


@dataclass(frozen=True, eq=False)  # == is identity: the generated one would ask an array for a bool
class BoundResult:
    r: int
    value: float
    eigvec: np.ndarray
    cond_B: float
    residual: float
    basis: tuple[tuple[int, ...], ...]  # exponents of the monomial basis, grlex
    shift: tuple[Fraction, ...] | None  # the box centre c; eigvec and basis are in powers of x - c

    @property
    def density(self) -> Polynomial:
        """The optimal density g*g in x, g = sum_i eigvec_i (x - shift)^{basis_i},
        squared exactly each time it is read (only the sampler needs it)."""
        terms = {exp: Fraction(float(c)) for exp, c in zip(self.basis, self.eigvec) if c != 0}
        g = Polynomial(len(self.basis[0]), terms)
        if self.shift is not None:
            g = g.substitute_affine([1] * len(self.shift), [-c for c in self.shift])
        return g * g


def _check_pencil_size(n: int, r: int) -> None:
    """Refuse an order whose m x m pencil would exceed MAX_PENCIL_SIZE."""
    m = math.comb(n + r, r)
    if m > MAX_PENCIL_SIZE:
        raise ValueError(
            f"order r = {r} in n = {n} variables needs m x m moment matrices with "
            f"m = {m} (limit {MAX_PENCIL_SIZE}); reduce r"
        )


@dataclass(frozen=True, eq=False)  # == is identity, as for BoundResult
class Pencil:
    """The moment pencil of a top order, whose leading blocks are the lower
    orders', and its equilibrated copy, made once when the pencil is built."""

    A: np.ndarray
    B: np.ndarray
    basis: tuple[tuple[int, ...], ...]
    shift: tuple[Fraction, ...] | None  # the box centre c, as in BoundResult
    D: np.ndarray = field(init=False)  # 1 / sqrt(diag B)
    As: np.ndarray = field(init=False)  # D A D, symmetrized
    Bs: np.ndarray = field(init=False)  # D B D, symmetrized
    # (size of the first leading block that holds the cause, cause), in the order decided
    refusals: tuple[tuple[int, str], ...] = field(init=False)

    def __post_init__(self):
        for name, value in zip(("D", "As", "Bs", "refusals"), _equilibrate(self.A, self.B)):
            object.__setattr__(self, name, value)

    def solve(self, r: int) -> BoundResult:
        """The order-r bound from the leading block of order r, whose entries,
        raw and equilibrated, are those of the order-r assembly bit for bit.

        An order whose block holds an infinite or NaN entry, a nonpositive
        diagonal in B or an equilibrated entry past the largest float is a
        ConditioningError naming that cause (in this order of precedence)."""
        r = _integer(r, "the order", 0)
        top = sum(self.basis[-1])  # the grlex basis ends with a monomial of the top order
        if r > top:
            raise ValueError(f"the pencil solves orders 0..{top}, not {r}")
        m = math.comb(len(self.basis[0]) + r, r)
        for size, cause in self.refusals:
            if m >= size:
                raise ConditioningError(cause)
        lam, u, cond_B = smallest_generalized_eigenpair(self.As[:m, :m], self.Bs[:m, :m])
        A, B = np.ascontiguousarray(self.A[:m, :m]), np.ascontiguousarray(self.B[:m, :m])
        v = self.D[:m] * u
        # normalize v^T B v = 1, first nonzero coordinate positive
        v = v / math.sqrt(float(v @ B @ v))
        nz = np.flatnonzero(np.abs(v) > 1e-14 * np.max(np.abs(v)))
        if nz.size and v[nz[0]] < 0:
            v = -v
        bv = B @ v
        res = A @ v - lam * bv
        # each vector over its largest |entry|, whose square in a norm can pass the largest float
        s, t = np.abs(res).max(), np.abs(bv).max()
        residual = float(s / t * np.linalg.norm(res / s) / np.linalg.norm(bv / t)) if s else 0.0
        return BoundResult(r=r, value=lam, eigvec=v, cond_B=cond_B, residual=residual, basis=self.basis[:m], shift=self.shift)


def assemble_AB(f: Polynomial, dom: Domain, r: int):
    """Exact assembly of the moment matrices A (f-weighted) and B.

    A[a, b] = sum_d f_d m_{a+b+d}(K),  B[a, b] = m_{a+b}(K), for the basis
    {a : |a| <= r} in grlex order, which is returned with A and B.  The
    moments are those of moment_table(dom, 2r + deg f).  Each distinct sum
    gets its exact rational value as one integer numerator over the table's
    denominator (times F, the lcm of f's denominators, for A), divided once,
    and +-inf if it passes the largest float; on the ball the pi power is
    the table's float scale.
    """
    dom.check_vars(f)
    r = _integer(r, "the order", 0)
    _check_pencil_size(dom.n, r)
    table = moment_table(dom, 2 * r + f.degree)
    # every gamma with |gamma| <= 2r in the table's radix: the basis is its part
    # with |gamma| <= r, and the distinct sums a_i + a_j are all of it, so since
    # c(a_i + a_j) = c(a_i) + c(a_j), idx[i, j] = position of a_i + a_j among them
    sums, degrees, _ = _enumerate(2 * r, table.max_degree + 1, [np.arange(2 * r + 1)] * dom.n)
    sel = np.flatnonzero(degrees <= r)
    E = table.decode(sums[sel])
    order = np.lexsort([E[:, i] for i in reversed(range(dom.n))] + [degrees[sel]])  # grlex
    basis = tuple(map(tuple, E[order].tolist()))
    cb = sums[sel]  # ascending, so each row of queries is too, which searchsorted is quicker on
    idx = np.searchsorted(sums, cb[:, None] + cb[None, :])[np.ix_(order, order)]
    F, fnums = _over_lcm(f.terms.values())
    numsB, acc = np.zeros(len(sums), dtype=object), np.zeros(len(sums), dtype=object)
    hit, at = table.find(sums)
    numsB[hit] = table.nums[at]
    for dc, fn in zip(table.encode(list(f.terms)), fnums):
        hit, at = table.find(sums + dc)
        acc[hit] += fn * table.nums[at]
    mB = _quotients(numsB, table.den)
    mA = _quotients(acc, table.den * F)
    return (mA * table.scale)[idx], (mB * table.scale)[idx], basis


def _quotients(nums: np.ndarray, den: int) -> np.ndarray:
    """The floats nums / den (Python ints, den > 0): +0.0 where nums is 0, and
    each nonzero quotient correctly rounded by _quotient, +-inf where it passes
    the largest float and NaN where it falls below the smallest normal one."""
    q = np.zeros(len(nums))
    nz = np.flatnonzero(nums)
    q[nz] = [_quotient(k, den) for k in nums[nz].tolist()]
    # a nonzero moment that rounds to 0 or to a subnormal has lost its digits
    q[nz[np.abs(q[nz]) < sys.float_info.min]] = np.nan
    return q


def _quotient(num: int, den: int) -> float:
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _equilibrate(A: np.ndarray, B: np.ndarray):
    """D = 1 / sqrt(diag B), the equilibrated pencil As = D A D and
    Bs = D B D (an exact congruence, so the eigenvalues are unchanged; this is
    what makes high orders on wide boxes tractable in double precision), each
    symmetrized, and the refusals of Pencil.solve.

    Every step is elementwise, so each leading block of As and Bs has the
    bits of equilibrating that block alone.  A refusal is (the size of the
    first leading block that holds the cause, the cause), in the order they
    are decided: an infinite entry, a NaN entry, a nonpositive diagonal in B,
    an equilibrated entry past the largest float.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # Pencil.solve refuses what these flag
        D = 1.0 / np.sqrt(np.diag(B))
        Bs = B * D[:, None] * D[None, :]
        As = A * D[:, None] * D[None, :]
        # enforce exact symmetry against float roundoff
        Bs = 0.5 * (Bs + Bs.T)
        As = 0.5 * (As + As.T)
    bad = ~(np.isfinite(As) & np.isfinite(Bs))
    if not bad.any():  # every cause leaves a non-finite equilibrated entry
        return D, As, Bs, ()
    # a pencil's block of order r holds the values of exactly the sums |gamma| <= 2r
    # that an order-r assembly rounds, so an infinite entry is an overflow of order
    # r's own and a NaN (see _quotients) an underflow of its own
    causes = [
        (np.isinf(A) | np.isinf(B), "a moment overflows a float" + _OUT_OF_RANGE),
        (np.isnan(A) | np.isnan(B), "a moment underflows a float" + _OUT_OF_RANGE),
        (np.diag(np.diag(B) <= 0), "nonpositive diagonal in B"),
        (bad, "an equilibrated entry passes the largest float" + _OUT_OF_RANGE),
    ]
    return D, As, Bs, tuple((_first_block(mask), cause) for mask, cause in causes if mask.any())


def _first_block(mask: np.ndarray) -> int:
    """The size of the smallest leading block that holds a True of mask."""
    i, j = np.nonzero(mask)
    return int(np.maximum(i, j).min()) + 1


def smallest_generalized_eigenpair(As: np.ndarray, Bs: np.ndarray):
    """Smallest eigenvalue of As u = lambda Bs u, an equilibrated pencil with
    finite, symmetric entries, its dsygvd eigenvector u and B's condition
    number cond_B.

    An indefinite or over-COND_LIMIT Bs, and a nonzero dsygvd info, is a
    ConditioningError; the entries are Pencil.solve's to refuse.
    """
    bw = np.linalg.eigvalsh(Bs)
    cond_B = float(bw[-1] / bw[0]) if bw[0] > 0 else np.inf
    unusable = f"moment matrix B is numerically unusable (cond ~ {cond_B:.3e}); reduce r"
    if bw[0] <= 0 or cond_B > COND_LIMIT:
        raise ConditioningError(unusable, cond_B)

    # dsygvd reads the lower triangles of copies of As and Bs, as scipy.linalg.eigh(As, Bs) does
    w, V, info = _dsygvd(As, Bs, itype=1, jobz="V", uplo="L")
    if info != 0:
        raise ConditioningError(f"{unusable} [LAPACK dsygvd failed with info = {info}]", cond_B)
    return float(w[0]), V[:, 0], cond_B


def _centre(dom: Domain) -> tuple[Fraction, ...] | None:
    """The centre c of a box, None for c = 0 and on the simplex and the ball."""
    c = tuple((lo + hi) / 2 for lo, hi in dom.bounds) if dom.kind == "box" else ()
    return c if any(c) else None


def _sweep_pencil(f: Polynomial, dom: Domain, r_max: int) -> Pencil:
    """The pencil of order r_max on the centred domain."""
    dom.check_vars(f)  # before the centring, which would refuse a mismatch in its own words
    c = _centre(dom)
    g, K = f, dom
    if c is not None:
        g = f.substitute_affine([1] * dom.n, c)
        K = Domain.box([(lo - ci, hi - ci) for (lo, hi), ci in zip(dom.bounds, c)])
    return Pencil(*assemble_AB(g, K, r_max), c)


def compute_bound(f: Polynomial, dom: Domain, r: int) -> BoundResult:
    """Order-r upper bound, on a centred box; its optimal SOS density is .density."""
    return _sweep_pencil(f, dom, r).solve(r)


def bound_sweep(f: Polynomial, dom: Domain, r_max: int) -> list[BoundResult]:
    """Bounds for r = 1..r_max, each solved on its leading block of one
    pencil assembled at r_max.

    Stops at the first conditioning failure (the remaining orders would only
    be less trustworthy).
    """
    r_max = _integer(r_max, "the order", 1)
    pencil = _sweep_pencil(f, dom, r_max)
    results = []
    for r in range(1, r_max + 1):
        try:
            results.append(pencil.solve(r))
        except ConditioningError:
            break
    return results
