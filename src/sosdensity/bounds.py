"""Degree-2r sum-of-squares density upper bounds via a generalized eigenproblem.

The order-r bound is the smallest generalized eigenvalue of A v = lambda B v,
where A and B are moment matrices indexed by the basis of all monomials
x^a with |a| <= r.  Every entry depends on the sum a+b alone:

    B[a, b] = m_{a+b},    A[a, b] = sum_d f_d m_{a+b+d}.

The basis is read off the moment table, each distinct sum gamma = a+b gets
its two values mB[gamma] and mA[gamma] once (an exact rational sum, rounded
to float once), and both matrices are gathered as mB[idx] and mA[idx] with
idx[i, j] the position of a_i + a_j among the distinct sums.  The eigensolve
reduces to a standard dense symmetric problem after factoring B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh

from .moments import Domain, ball_pi_power, moment_table
from .polynomials import Polynomial, grlex_key

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


class ConditioningError(RuntimeError):
    """B is numerically indefinite or too ill-conditioned to trust."""

    def __init__(self, cond_B: float, detail: str = ""):
        msg = (
            f"moment matrix B is numerically unusable (cond ~ {cond_B:.3e}); "
            "reduce r or rescale the domain"
        )
        if detail:
            msg += f" [{detail}]"
        super().__init__(msg)
        self.cond_B = cond_B


@dataclass(frozen=True, eq=False)  # == is identity: the generated one would ask an array for a bool
class BoundResult:
    r: int
    value: float
    eigvec: np.ndarray
    cond_B: float
    residual: float
    basis: tuple[tuple[int, ...], ...]  # exponents of the monomial basis, grlex

    @property
    def density(self) -> Polynomial:
        """The optimal density g*g, g = sum_i eigvec_i x^{basis_i}, squared
        exactly each time it is read (only the sampler needs it)."""
        terms = {exp: Fraction(float(c)) for exp, c in zip(self.basis, self.eigvec) if c != 0}
        g = Polynomial(len(self.basis[0]), terms)
        return g * g


def assemble_AB(f: Polynomial, dom: Domain, r: int, table=None):
    """Exact assembly of the moment matrices A (f-weighted) and B.

    A[a, b] = sum_d f_d m_{a+b+d}(K),  B[a, b] = m_{a+b}(K), for the basis
    {a in table : |a| <= r} in grlex order, which is returned with A and B.
    For the ball the common pi power is reinstated as a single float factor
    at conversion time.
    """
    if f.n_vars != dom.n:
        raise ValueError(f"polynomial has {f.n_vars} variables, domain has {dom.n}")
    if r < 0:
        raise ValueError("order r must be >= 0")
    if table is None:
        table = moment_table(dom, 2 * r + f.degree)
    if dom.kind == "ball":
        rat = {alpha: m.coef for alpha, m in table.items()}
        scale = math.pi ** ball_pi_power(dom.n)
    else:
        rat = table
        scale = 1.0

    basis = tuple(sorted((a for a in table if sum(a) <= r), key=grlex_key))
    m = len(basis)
    E = np.array(basis, dtype=np.min_scalar_type(2 * r))  # a_i + a_j <= 2r: no overflow
    # the distinct sums a_i + a_j, and idx[i, j] = position of a_i + a_j among them
    sums, idx = np.unique((E[:, None, :] + E[None, :, :]).reshape(m * m, dom.n), axis=0, return_inverse=True)
    fterms = list(f.terms.items())
    mB, mA = [], []
    for gamma in map(tuple, sums.tolist()):
        mB.append(float(rat[gamma]) * scale)
        acc = Fraction(0)
        for d, coef in fterms:
            acc += coef * rat[tuple(x + y for x, y in zip(gamma, d))]
        mA.append(float(acc) * scale)
    idx = idx.reshape(m, m)
    return np.array(mA)[idx], np.array(mB)[idx], basis


def smallest_generalized_eigenpair(A: np.ndarray, B: np.ndarray):
    """Smallest eigenvalue of A v = lambda B v with symmetric A, s.p.d. B.

    The pencil is diagonally equilibrated first (an exact congruence, so the
    eigenvalues are unchanged); this is what makes high orders on wide boxes
    tractable in double precision.
    """
    diag = np.diag(B)
    if not np.all(np.isfinite(diag)) or np.any(diag <= 0):
        raise ConditioningError(np.inf, "nonpositive diagonal in B")
    D = 1.0 / np.sqrt(diag)
    Bs = B * D[:, None] * D[None, :]
    As = A * D[:, None] * D[None, :]
    # enforce exact symmetry against float roundoff
    Bs = 0.5 * (Bs + Bs.T)
    As = 0.5 * (As + As.T)

    bw = np.linalg.eigvalsh(Bs)
    cond_B = float(bw[-1] / bw[0]) if bw[0] > 0 else np.inf
    if bw[0] <= 0 or cond_B > COND_LIMIT:
        raise ConditioningError(cond_B)

    w, V = eigh(As, Bs)
    lam = float(w[0])
    v = D * V[:, 0]
    # normalize v^T B v = 1, first nonzero coordinate positive
    v = v / math.sqrt(float(v @ B @ v))
    nz = np.flatnonzero(np.abs(v) > 1e-14 * np.max(np.abs(v)))
    if nz.size and v[nz[0]] < 0:
        v = -v
    return lam, v, cond_B


def compute_bound(f: Polynomial, dom: Domain, r: int, table=None) -> BoundResult:
    """Order-r upper bound; its optimal degree-2r SOS density is .density."""
    A, B, basis = assemble_AB(f, dom, r, table=table)
    lam, v, cond_B = smallest_generalized_eigenpair(A, B)
    bv = B @ v
    residual = float(np.linalg.norm(A @ v - lam * bv) / np.linalg.norm(bv))
    return BoundResult(r=r, value=lam, eigvec=v, cond_B=cond_B, residual=residual, basis=basis)


def bound_sweep(f: Polynomial, dom: Domain, r_max: int, r_min: int = 1) -> list[BoundResult]:
    """Bounds for r = r_min..r_max, sharing one moment table.

    Stops at the first conditioning failure (the remaining orders would only
    be less trustworthy).
    """
    if r_max < r_min:
        raise ValueError("empty order range")
    table = moment_table(dom, 2 * r_max + f.degree)
    results = []
    for r in range(r_min, r_max + 1):
        try:
            results.append(compute_bound(f, dom, r, table=table))
        except ConditioningError:
            break
    return results

