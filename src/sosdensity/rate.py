"""Machine-checkable O(1/sqrt(r)) rate certificates from a truncated Gaussian.

The density H_{r,a}(x) = (2*pi*sigma^2)^{-n/2} * phi_{2r}(||x-a||^2 / (2*sigma^2))
is a globally nonnegative polynomial (phi_{2r} is an even-degree Taylor
truncation of exp(-t)); normalized over K it is feasible for the order-2r
density program, so its expectation upper-bounds the hierarchy value.  The
certificate evaluates that expectation together with the explicit constant
zeta(K) and checks the rate inequality

    f^{(r)}_{K,a} - f_min  <=  zeta(K) * M_f / sqrt(2r + 1)    for r >= r_K / 2.

The integrals of H and f * H over K are exact, and neither is formed: with
the factored moments, the integral of each power of ||x-a||^2 is a binomial
convolution of one short integer sequence per axis, the powers of
(x_i - a_i)^2 against that axis's moments, shifted by each term of f
(_ladder); the partial sums of the same terms bracket the Gaussian mass.
taylor_density gives H as a Polynomial.

The Gaussian mass of K, whose inverse is the constant C_{K,a}, is an
enclosure with no random quantity: an erf product on the box, and on the
simplex and the ball the exact integrals of the partial sums of e^{-t},
intersected with erf products over boxes inside and around K.

The Lipschitz constant M_f is bounded from the coefficients of the gradient
of f on the bounding box of K, exactly, with no grid and no random number.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from operator import add
from typing import Sequence

from .moments import Domain, _double_factorial, _pi_scale, _scaled_factors
from .polynomials import Polynomial, _over_lcm

__all__ = [
    "GeomParams",
    "CertificateReport",
    "geom_params",
    "p_constant",
    "phi_coeffs",
    "taylor_density",
    "gaussian_mass",
    "lipschitz_bound",
    "certificate",
]

# Largest _ladder_size of the Gaussian-mass bracket: the integer products its
# top rung sums plus the factored moments it reads.  The limit admits every
# order the old limit of 2000 terms of (||x - a||^2)^K did (K = 999 at n = 1,
# 29 at n = 2, 9 at n = 3), K = 205 at n = 9 from the origin (the 2^-20
# bracket there needs K <= 29) and K = 41 at n = 2 off the axes; it refuses
# n = 9, K = 29 off the axes (~130,000 products) and the 10-simplex at r = 1,
# whose bracket needs K ~ 320 from a vertex and ~ 290 from the centroid.
MAX_LADDER_TERMS = 6000
_WIDEN = 2.0**-40  # outward rounding of a float enclosure, per dimension


# ---- geometry constants ----------------------------------------------


@dataclass(frozen=True)
class GeomParams:
    """Geometric constants of the domain entering the rate bound.

    D: squared diameter; eta/eps_K: the ball-density constants (every ball
    of radius <= eps_K around a point of K captures at least an eta
    fraction of its volume); r_K: order threshold for the rate inequality;
    gamma_n: volume of the n-dimensional unit ball.
    """

    D: float
    eta: float
    eps_K: float
    r_K: float
    gamma_n: float


def _cone_eta(n: int, theta: float) -> float:
    s = math.sin(theta)
    return (s / (1.0 + s)) ** n


def _threshold_order(D: float, eps_K: float, n: int) -> float:
    if eps_K <= 1.0:
        return max(D * math.e / (2.0 * eps_K**3), float(n))
    return D * math.e / 2.0


def geom_params(dom: Domain) -> GeomParams:
    """Constants for boxes (star-shaped w.r.t. the inscribed ball), the
    standard simplex, and the unit ball.

    Boxes and the simplex use the interior-cone construction: a convex body
    star-shaped with respect to a ball of radius rho satisfies the cone
    condition with angle theta = 2*arcsin(rho / (2*sqrt(D))), giving
    eta = (sin(theta)/(1+sin(theta)))^n and eps_K = rho.  The unit ball
    satisfies it directly with theta = pi/3.
    """
    n = dom.n
    try:
        gamma_n = math.pi ** (n / 2) / math.gamma(1 + n / 2)
    except OverflowError:  # Gamma(1 + n/2) passes the largest float from n = 342
        gamma_n = math.exp(n / 2 * math.log(math.pi) - math.lgamma(1 + n / 2))
    if dom.kind == "ball":
        D, rho, theta = 4.0, 1.0, math.pi / 3.0
    else:
        if dom.kind == "box":
            sides = [float(hi - lo) for lo, hi in dom.bounds]
            D, rho = sum(s * s for s in sides), min(sides) / 2.0
        else:  # the standard simplex
            D, rho = 2.0, 1.0 / (n + math.sqrt(n))
        theta = 2.0 * math.asin(rho / (2.0 * math.sqrt(D)))
    return GeomParams(
        D=D,
        eta=_cone_eta(n, theta),
        eps_K=rho,
        r_K=_threshold_order(D, rho, n),
        gamma_n=gamma_n,
    )


def p_constant(n: int) -> float:
    """p(n) = integral over t >= 0 of t^n * exp(-t^2/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % 2 == 0:
        return math.sqrt(math.pi / 2.0) * _double_factorial(n - 1)
    return float(_double_factorial(n - 1))


# ---- the truncated-Gaussian density ----------------------------------


def phi_coeffs(r: int) -> Polynomial:
    """phi_{2r}(t) = sum_{k=0}^{2r} (-t)^k / k!, a univariate Polynomial.

    Even-order truncation of exp(-t); nonnegative on the whole real line.
    """
    if r < 0:
        raise ValueError("order r must be >= 0")
    terms = {(k,): Fraction((-1) ** k, math.factorial(k)) for k in range(2 * r + 1)}
    return Polynomial(1, terms)


def _check_gaussian(a: Sequence[float], sigma: float, n: int) -> None:
    """Refuse a sigma that is not finite and positive, and a center that is
    not n finite numbers."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, not {sigma}")
    if len(a) != n:
        raise ValueError(f"center has length {len(a)}, expected {n}")
    if not all(math.isfinite(x) for x in a):
        raise ValueError(f"center {list(a)} must be finite")


def taylor_density(a: Sequence[float], sigma: float, r: int, n: int) -> Polynomial:
    """H_{r,a}(x) = (2*pi*sigma^2)^{-n/2} * phi_{2r}(||x-a||^2 / (2*sigma^2)).

    sigma, a and the prefactor are exactified at their binary float values,
    so the returned degree-4r Polynomial can be integrated exactly by the
    moment oracle.  It is prefactor * phi_{2r}(x1) with x1 replaced by t
    (Polynomial.substitute_var): the terms and their order of summing the
    Fractions prefactor * phi_k * t^k term by term.
    """
    _check_gaussian(a, sigma, n)
    sig2 = Fraction(float(sigma)) ** 2
    t = Polynomial.zero(n)  # ||x - a||^2 / (2*sigma^2)
    for i in range(n):
        d = Polynomial.variable(n, i) - Polynomial.constant(n, Fraction(float(a[i])))
        t = t + d * d
    t = t * (1 / (2 * sig2))
    prefactor = Fraction((2.0 * math.pi * float(sig2)) ** (-n / 2.0))
    phi = {(k,) + (0,) * (n - 1): c * prefactor for (k,), c in phi_coeffs(r).terms.items()}
    return Polynomial(n, phi).substitute_var(0, t)


def _erf_factors(bounds, a: Sequence[float], sigma: float) -> list[float]:
    """The Gaussian mass of each side [lo, hi] of a box: 0.5 * (erf(u) - erf(l))."""
    root2 = math.sqrt(2.0)
    return [
        0.5 * (math.erf((float(hi) - ai) / (sigma * root2)) - math.erf((float(lo) - ai) / (sigma * root2)))
        for (lo, hi), ai in zip(bounds, a)
    ]


def _bounding_box(dom: Domain) -> tuple[tuple, ...]:
    """The smallest box around K: the box itself, [0, 1]^n around the
    standard simplex and [-1, 1]^n around the unit ball."""
    if dom.kind == "box":
        return dom.bounds
    return ((0, 1) if dom.kind == "simplex" else (-1, 1),) * dom.n


def _box_enclosure(dom: Domain, a: Sequence[float], sigma: float) -> tuple[float, float]:
    """Masses of a cube inside K and of a box around it, rounded outwards.

    The cube is centred at a with half-side dist(a, boundary of K) / sqrt(n),
    so it lies in the ball of that radius around a; the box is the bounding
    box of K.  Widening by n * 2^-40 (relative, and absolute for the erf
    differences) covers the rounding of erf and of the products.
    """
    n = dom.n
    w = n * _WIDEN
    exact = [Fraction(x) for x in a]
    if dom.kind == "simplex":
        # distances to the facets x_i = 0 and sum(x) = 1
        dist = min(min(a), float(1 - sum(exact)) / math.sqrt(n))
    else:
        s = sum(x * x for x in exact)  # 1 - |a| = (1 - |a|^2) / (1 + |a|)
        dist = float(1 - s) / (1.0 + math.sqrt(s))
    lo = 0.0
    if dist > 0:
        lo = math.erf(dist / math.sqrt(n) / (sigma * math.sqrt(2.0))) ** n * (1 - w)
    hi = math.prod(_erf_factors(_bounding_box(dom), a, sigma)) * (1 + w) + w
    return lo, min(hi, 1.0)


def _ladder_size(dense: Sequence[bool], K: int) -> int:
    """The integer products _ladder sums at rung K for the Gaussian mass
    (f = 0) on the simplex or the ball, plus the 2K + 1 entries of each of
    the n + 1 factored-moment tables it reads; dense[i] says a_i != 0.

    Axis i's row (L x_i - p_i)^(2j) has 2j + 1 terms, one where p_i = 0, and
    the sum carried over the first m axes has one entry per degree it
    reaches: none past rung 0 for m = 0, 2k + 1 at rung k once a row is
    dense, one while all are sparse.  Each axis before the last is convolved
    into the carried sum, and the fold pairs the carried sum with the last
    row against G, at most two new degrees per row and rung.  Every lower
    rung sums fewer products.
    """
    n = len(dense)

    def row(i, j):
        return 2 * j + 1 if dense[i] else 1

    def size(m, k):
        if m == 0:
            return int(k == 0)
        return 2 * k + 1 if any(dense[:m]) else 1

    products = sum(
        sum(size(m, K - j) * row(m, j) for m in range(n - 1))
        + size(n - 1, K - j)
        + row(n - 1, j) * min(2, size(n - 1, K - j))
        for j in range(K + 1)
    )
    return products + (n + 1) * (2 * K + 1)


def _ladder_order(dom: Domain, a: Sequence[float], sigma: float) -> int | None:
    """The odd order K at which the Taylor bracket has closed to 2^-20, or
    None when _ladder_size would pass MAX_LADDER_TERMS first.

    With t_max the largest t = ||x - a||^2 / (2 sigma^2) on K (at the farthest
    vertex of the simplex, at most (1 + |a|)^2 / (2 sigma^2) on the ball), the
    bracket's width at order K is at most t_max^K e^{t_max} / K! of the mass;
    K is the first odd order where that is <= 2^-21, which makes the width
    <= 2^-20 of the lower end.
    """
    if dom.kind == "simplex":
        d2 = sum(x * x for x in a)
        q_max = max([d2] + [d2 - 2.0 * x + 1.0 for x in a])
    else:
        q_max = (1.0 + math.sqrt(sum(x * x for x in a))) ** 2
    t_max = q_max * (1 + _WIDEN) / (2.0 * sigma) / sigma
    K = 1  # _ladder_size grows with K and counts the tables' (n + 1)(2K + 1) entries
    while K * math.log(t_max) - math.lgamma(K + 1) + t_max > -21 * math.log(2.0):
        if (dom.n + 1) * (2 * K + 1) > MAX_LADDER_TERMS:
            return None
        K += 2
    return K if _ladder_size([x != 0 for x in a], K) <= MAX_LADDER_TERMS else None


def _ladder(dom: Domain, a: Sequence[float], sigma: float, K: int, f: Polynomial):
    """For k = 0..K, the exact rational parts of the integrals over K of
    (-t)^k / k! and of f * (-t)^k / k!, t = ||x - a||^2 / (2 sigma^2).

    With L the lcm of the denominators of a and p = L a, L^2 ||x - a||^2 is
    the sum of q_i = (L x_i - p_i)^2, so by the binomial theorem, axis by
    axis, q^k sums C(k, j) (q_1 + ... + q_{m-1})^(k-j) q_m^j over j.  Each
    axis gives one short sequence, the integer row of q_i^j met with its
    factored moments W_i shifted by the exponent d_i of a term of f, and
    rung k convolves them, the last axis folded against G[|d| + s] first.
    An entry is keyed by the degree s it has reached, or by 0 when G is
    constant (the box, or D = 0), where each entry is one integer.  No
    power of ||x - a||^2 is expanded; (2 sigma^2)^-k is applied to the sums.
    """
    n = dom.n
    L, p = _over_lcm(Fraction(x) for x in a)
    Lf, coefs = _over_lcm(f.terms.values())
    den, G, W = _scaled_factors(dom, 2 * K + f.degree)
    scale = Fraction(float(sigma)) ** 2 * 2 * L * L  # t^k = (L^2 ||x - a||^2)^k / scale^k
    graded = G.count(G[0]) < len(G)  # G constant (the box, or D = 0): every degree is keyed 0
    terms = [((0,) * n, 1), *zip(f.terms, coefs)]
    L_pow, p_pow = [1], [[1] for _ in p]
    axes = {}  # (i, d_i, j) -> axis i's row j against W_i shifted by d_i, by degree key
    carried = {(): []}  # exponents of the first m axes -> their convolution, rung by rung
    folded = {}  # (d_n, |d|, j, s) -> the last axis's row j against G shifted by |d| + s

    def axis(i, e, j):
        if (i, e, j) not in axes:
            entries = axes[i, e, j] = {}
            for s in range(2 * j + 1) if p[i] else [2 * j]:  # where p_i = 0 only s = 2j is nonzero
                if W[i][e + s]:
                    c = math.comb(2 * j, s) * L_pow[s] * p_pow[i][2 * j - s] * W[i][e + s]
                    entries[s * graded] = entries.get(s * graded, 0) + c
        return axes[i, e, j]

    def fold(d, j, s):
        key = (d[-1], sum(d), j, s)
        if key not in folded:
            folded[key] = sum(c * G[key[1] + s + s2] for s2, c in axis(n - 1, d[-1], j).items())
        return folded[key]

    for k in range(K + 1):
        for _ in range(2):
            L_pow.append(L_pow[-1] * L)
            for pw, pi in zip(p_pow, p):
                pw.append(-pw[-1] * pi)
        binom = [1, *map(add, binom, binom[1:]), 1] if k else [1]  # C(k, j), j = 0..k
        carried[()].append({0: 1} if k == 0 else {})
        sums = []
        for d, c in terms:
            for m in range(1, n):
                seq = carried.setdefault(d[:m], [])
                if len(seq) > k:
                    continue
                prev = carried[d[: m - 1]]
                acc = {}
                for j, b in enumerate(binom):
                    if prev[k - j]:
                        for s2, e in axis(m - 1, d[m - 1], j).items():
                            e *= b
                            for s1, v in prev[k - j].items():
                                acc[s1 + s2] = acc.get(s1 + s2, 0) + v * e
                seq.append(acc)
            prev = carried[d[:-1]]
            sums.append(c * sum(b * v * fold(d, j, s) for j, b in enumerate(binom) for s, v in prev[k - j].items()))
        if n == 1:  # one folded axis: no later rung reads this rung's rows
            axes.clear()
            folded.clear()
        over = (-1) ** k * den * math.factorial(k) * scale**k
        yield sums[0] / over, sum(sums[1:]) / (Lf * over)


def _taylor_enclosure(dom: Domain, a: Sequence[float], sigma: float, K: int) -> tuple[float, float]:
    """Enclosure of the mass from the partial sums of e^{-t} = sum (-t)^k / k!.

    For t >= 0 the odd partial sums lie below e^{-t} and the even ones above,
    so their integrals bracket the mass; _ladder gives each term exactly.
    Stops at the first odd k where the bracket is within 2^-20, at k = K at
    the latest.
    """
    n = dom.n
    total = Fraction(0)
    lo, hi = -math.inf, math.inf
    for k, (term, _) in enumerate(_ladder(dom, a, sigma, K, Polynomial.zero(n))):
        total += term
        if k % 2:
            lo = max(lo, total)
            if (hi - lo) * 2**20 <= lo:
                break
        else:
            hi = min(hi, total)
    prefactor = (2.0 * math.pi * sigma**2) ** (-n / 2.0) * _pi_scale(dom)
    w = n * _WIDEN  # the rounding of the floats, of the prefactor and its power
    return max(float(lo), 0.0) * prefactor * (1 - w), float(hi) * prefactor * (1 + w)


def gaussian_mass(dom: Domain, a: Sequence[float], sigma: float) -> tuple[float, float]:
    """Enclosure (lo, hi) of the integral over K of the Gaussian G_a (this
    is 1/C_{K,a}), 0 <= lo <= hi <= 1.

    On a box it is the exact product of 1-D cumulative differences, lo = hi.
    On the simplex and the ball it intersects the erf masses of a cube
    inside K and of a box around it (tight for small sigma) with the exact
    Taylor bracket (tight for larger sigma), whose order is bounded before
    any work; past MAX_LADDER_TERMS the bracket is skipped.  No random
    number is drawn.
    """
    n = dom.n
    _check_gaussian(a, sigma, n)
    if dom.kind == "box":
        mass = math.prod(_erf_factors(dom.bounds, a, sigma))
        return mass, mass
    lo, hi = _box_enclosure(dom, a, sigma)
    K = _ladder_order(dom, a, sigma)
    if K is not None and (hi - lo) * 2**20 > lo:
        t_lo, t_hi = _taylor_enclosure(dom, a, sigma, K)
        lo, hi = max(lo, t_lo), min(hi, t_hi)
    return lo, hi


# ---- Lipschitz bound --------------------------------------------------


def lipschitz_bound(f: Polynomial, dom: Domain) -> float:
    """Upper bound on the Lipschitz constant of f on K, sqrt(sum_i s_i^2).

    K is convex, so sup_K ||grad f|| is a Lipschitz constant, and it is at
    most sqrt(sum_i s_i^2) for any s_i >= sup_K |d_i f|.  With c and R the
    centre and half-sides of K's bounding box and g(y) = f(c + y), every
    |y^beta| <= R^beta on the box, so s_i = sum |coef| R^beta over the terms
    of d_i g.  The sum of squares is exact, and its square root is rounded
    up to the smallest float whose square is not below it.
    """
    dom.check_vars(f)
    box = _bounding_box(dom)
    R = [Fraction(hi - lo) / 2 for lo, hi in box]
    g = f.substitute_affine([1] * dom.n, [Fraction(lo + hi) / 2 for lo, hi in box])
    total = Fraction(0)
    for i in range(dom.n):
        s = sum(abs(coef) * math.prod(r**e for r, e in zip(R, exp)) for exp, coef in g.partial(i).terms.items())
        total += s * s
    root = math.sqrt(float(total))
    return root if Fraction(root) ** 2 >= total else math.nextafter(root, math.inf)


# ---- the certificate --------------------------------------------------


@dataclass(frozen=True)
class CertificateReport:
    """All quantities of the rate certificate at order r around center a.

    holds is tri-state: "true" / "false" are the literal inequality when
    its preconditions (r >= r_K/2, scale eps within eps_K) are met;
    "false-precondition" means the inequality was not applicable.  mass is
    gaussian_mass's enclosure (lo, hi) of the Gaussian mass of K, and
    C_Ka = 1/lo an upper bound on C_{K,a}, None when lo = 0.
    """

    a: tuple[float, ...]
    r: int
    sigma: float
    eps: float
    eps_capped: bool
    C_Ka: float | None
    c_rKa: float
    f_rKa: float
    f_min: float
    M_f: float
    zeta: float
    rhs: float
    holds: str
    geom: GeomParams
    mass: tuple[float, float]

    def to_json(self) -> dict:
        return {**asdict(self), "a": list(self.a)}


def zeta_constant(gp: GeomParams, n: int) -> float:
    """zeta(K) = 6n * (mu1 * max(1, sqrt(D e / 2)) + mu2 / sqrt(2 pi)).

    OverflowError when zeta(K) is not a finite float: in high dimension p(n)
    and D^((n+1)/2) overflow and eta underflows to 0.
    """
    try:
        mu1 = 1.0 + n * p_constant(n) * math.sqrt(math.e) / gp.eta
        mu2 = n * math.sqrt(math.e) * gp.D ** ((n + 1) / 2.0) / gp.eta
        zeta = 6.0 * n * (mu1 * max(1.0, math.sqrt(gp.D * math.e / 2.0)) + mu2 / math.sqrt(2.0 * math.pi))
    except (OverflowError, ZeroDivisionError):
        zeta = math.inf
    if not math.isfinite(zeta):
        raise OverflowError(f"zeta(K) does not fit a float at n = {n}")
    return zeta


def certificate(
    f: Polynomial,
    dom: Domain,
    a: Sequence[float],
    r: int,
    f_min: float,
) -> CertificateReport:
    """Evaluate the rate certificate for f on the domain at order r.

    a is a known (or estimated) minimizer; f_min the known minimum.  The
    scale eps is chosen as (D e / (2(2r+1)))^((2r+1)/(2(2r+1)+n)), capped
    at eps_K, and sigma = eps.  M_f is lipschitz_bound's exact bound and
    C_Ka = 1/lo from gaussian_mass's enclosure, so no quantity in the report
    is sampled.
    """
    if r < 1:
        raise ValueError("order r must be >= 1")
    if not math.isfinite(f_min):
        raise ValueError(f"f_min must be finite, not {f_min}")
    dom.check_vars(f)
    if len(a) != dom.n:
        raise ValueError(f"center has length {len(a)}, expected {dom.n}")
    if not dom.contains(a, slack=1e-9):
        raise ValueError(f"center {list(a)} lies outside the domain")
    n = dom.n
    gp = geom_params(dom)
    zeta = zeta_constant(gp, n)

    m = 2 * r + 1
    eps_raw = (gp.D * math.e / (2.0 * m)) ** (m / (2.0 * m + n))
    eps_capped = eps_raw > gp.eps_K
    eps = min(eps_raw, gp.eps_K)
    sigma = eps

    # the integrals of H and f * H: the ladder's sums to 2r times H's exact prefactor
    prefactor = Fraction((2.0 * math.pi * float(Fraction(float(sigma)) ** 2)) ** (-n / 2.0))
    inv_cr, int_fH = (float(prefactor * sum(s)) * _pi_scale(dom) for s in zip(*_ladder(dom, a, sigma, 2 * r, f)))
    if inv_cr <= 0:
        raise ValueError("truncated Gaussian has nonpositive mass on the domain")
    c_rKa = 1.0 / inv_cr
    f_rKa = c_rKa * int_fH

    mass = gaussian_mass(dom, a, sigma)
    C_Ka = 1.0 / mass[0] if mass[0] > 0 else None

    M_f = lipschitz_bound(f, dom)
    rhs = zeta * M_f / math.sqrt(m)

    if eps_capped or r < gp.r_K / 2.0:
        holds = "false-precondition"
    else:
        holds = "true" if f_rKa - f_min <= rhs else "false"

    return CertificateReport(
        a=tuple(float(x) for x in a),
        r=r,
        sigma=sigma,
        eps=eps,
        eps_capped=eps_capped,
        C_Ka=C_Ka,
        c_rKa=c_rKa,
        f_rKa=f_rKa,
        f_min=float(f_min),
        M_f=M_f,
        zeta=zeta,
        rhs=rhs,
        holds=holds,
        geom=gp,
        mass=mass,
    )
