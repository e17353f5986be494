import hashlib
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc

from sosdensity import benchmarks, rate
from sosdensity.bounds import compute_bound
from sosdensity.moments import Domain, integrate_poly, integrate_poly_exact
from sosdensity.polynomials import Polynomial, parse_polynomial
from sosdensity.rate import (
    certificate,
    gaussian_mass,
    geom_params,
    lipschitz_bound,
    p_constant,
    phi_coeffs,
    taylor_density,
    zeta_constant,
)


class TestPhi:
    def test_small_cases(self):
        p1 = phi_coeffs(1)  # 1 - t + t^2/2
        assert p1.degree == 2
        assert p1.evaluate([2.0]) == pytest.approx(1.0)
        assert phi_coeffs(0).evaluate([7.0]) == 1.0
        for r in range(5):
            assert phi_coeffs(r).evaluate([0.0]) == 1.0

    def test_nonnegative_on_grid(self):
        ts = np.linspace(-50.0, 50.0, 2001)
        for r in range(0, 11, 2):
            ph = phi_coeffs(r)
            assert min(ph.evaluate(ts[:, None])) >= -1e-12

    def test_sandwich_above_exponential(self):
        ts = np.linspace(0.0, 30.0, 301)
        for r in (1, 4, 7, 10):
            values = phi_coeffs(r).evaluate(ts[:, None])
            for t, v in zip(ts, values):
                gap = v - math.exp(-t)
                assert gap >= -1e-12
                assert gap <= t ** (2 * r + 1) / math.factorial(2 * r + 1) + 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            phi_coeffs(-1)


class TestPConstant:
    def test_closed_forms(self):
        assert p_constant(1) == 1.0
        assert p_constant(2) == pytest.approx(math.sqrt(math.pi / 2))
        assert p_constant(3) == pytest.approx(2.0)
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be >= 1"):
                p_constant(n)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_against_quadrature(self, n):
        val, _ = quad(lambda t: t**n * math.exp(-t * t / 2), 0, 60)
        assert p_constant(n) == pytest.approx(val, rel=1e-8)


def _fraction_product(p: Polynomial, q: Polynomial) -> Polynomial:
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, Fraction(0)) + c1 * c2
    return Polynomial(p.n_vars, terms)


def _fraction_taylor(a, sigma, r, n) -> Polynomial:
    """H_{r,a} summed term by term in Fractions: the reference for taylor_density."""
    sig2 = Fraction(float(sigma)) ** 2
    t = Polynomial.zero(n)
    for i in range(n):
        d = Polynomial.variable(n, i) - Polynomial.constant(n, Fraction(float(a[i])))
        t = t + _fraction_product(d, d)
    t = t * (1 / (2 * sig2))
    phi = phi_coeffs(r)
    h = Polynomial.zero(n)
    tpow = Polynomial.constant(n, 1)
    for k in range(phi.degree + 1):
        h = h + tpow * phi.coefficient((k,))
        if k < phi.degree:
            tpow = _fraction_product(tpow, t)
    return h * Fraction((2.0 * math.pi * float(sig2)) ** (-n / 2.0))


class TestTaylorDensity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_fraction_expansion(self, n):
        # same Fractions in the same term order, at the centre 0 (no overlap
        # between the powers of t) and off it; r stops at 7 for n = 3 and at 5
        # for n = 4 because the Fraction reference alone takes ~4 s off the
        # centre at n = 3, r = 8 and ~8 s at n = 4, r = 6 (2-vCPU x86-64)
        rng = random.Random(n)
        for r in range({1: 9, 2: 9, 3: 8, 4: 6}[n]):
            for a in ([0.0] * n, [rng.uniform(-2, 2) for _ in range(n)]):
                sigma = rng.uniform(0.05, 2.0)
                H = taylor_density(a, sigma, r, n)
                assert list(H.terms.items()) == list(_fraction_taylor(a, sigma, r, n).terms.items())

    def test_cancelled_term_keeps_fraction_order(self):
        # a = (s, s), sigma = s: t(0) = 1, so the constant of 1 - t cancels and
        # comes back with t^2 / 2, after the terms of 1 - t, as in the Fraction sums
        H = taylor_density([0.5, 0.5], 0.5, 1, 2)
        assert list(H.terms.items()) == list(_fraction_taylor([0.5, 0.5], 0.5, 1, 2).terms.items())
        assert list(H.terms).index((0, 0)) > 0


    def test_degree_and_peak(self):
        H = taylor_density([0.3, -0.2], 0.7, 3, 2)
        assert H.degree == 12  # 4r
        assert H.evaluate([0.3, -0.2]) == pytest.approx((2 * math.pi * 0.49) ** -1)

    def test_r0_is_constant(self):
        H = taylor_density([1.0], 2.0, 0, 1)
        assert H.degree == 0
        assert H.evaluate([5.0]) == pytest.approx((2 * math.pi * 4.0) ** -0.5)

    def test_dominates_gaussian_on_grid(self):
        sigma = 0.8
        H = taylor_density([0.5], sigma, 2, 1)
        for t in np.linspace(-2.0, 3.0, 101):
            g = (2 * math.pi * sigma**2) ** -0.5 * math.exp(-((t - 0.5) ** 2) / (2 * sigma**2))
            assert H.evaluate([t]) >= g - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            taylor_density([0.0], 0.0, 1, 1)
        with pytest.raises(ValueError):
            taylor_density([0.0], 1.0, 1, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_or_center_refused(self, bad):
        with pytest.raises(ValueError, match=f"sigma .*{bad}"):
            taylor_density([0.0, 0.5], bad, 2, 2)
        with pytest.raises(ValueError, match=rf"center \[0.0, {bad}\]"):
            taylor_density([0.0, bad], 0.5, 2, 2)


class TestGaussianLadder:
    """rate._ladder integrates (-t)^k / k! and f * (-t)^k / k! without forming them."""

    DOMAINS = {
        "box": lambda n: Domain.box(
            [(Fraction(-3, 4), Fraction(5, 3)), (Fraction(-2), Fraction(1, 7)), (0, 1), (Fraction(-1, 2), 2)][:n]
        ),
        "simplex": Domain.simplex,
        "ball": Domain.ball,
    }

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(DOMAINS))
    def test_equals_taylor_density_reference(self, kind, n):
        # the sums to 2r times H's prefactor are the integrals of H and f * H,
        # as Fractions, from centres such as 0.1 whose binary expansions are
        # long; f = 0, the mass bracket's f, gives 0
        dom = self.DOMAINS[kind](n)
        rng = random.Random(7 * n + len(kind))
        f = Polynomial(n, {
            tuple(rng.randint(0, 3) for _ in range(n)): Fraction(rng.randint(-9, 9), rng.choice([1, 3, 7]))
            for _ in range(4)
        }) + Fraction(0.3)
        a = [0.1, 1 / 3, 0.2][:n]
        for r in range(4):
            sigma = rng.uniform(0.2, 1.5)
            prefactor = Fraction((2.0 * math.pi * float(Fraction(sigma) ** 2)) ** (-n / 2.0))
            H = taylor_density(a, sigma, r, n)
            for g in (f, Polynomial.zero(n)):
                mass, gH = (prefactor * sum(s) for s in zip(*rate._ladder(dom, a, sigma, 2 * r, g)))
                assert mass == integrate_poly_exact(dom, H)
                assert gH == integrate_poly_exact(dom, g * H)

    @pytest.mark.parametrize("kind", sorted(DOMAINS))
    def test_each_rung(self, kind):
        # term k against the integral of (-t)^k / k!, t built as a Polynomial,
        # at n = 2..4 off the axes, with zero coordinates (one-term rows) and
        # at the origin (only such rows)
        sigma = 0.7
        for n in (2, 3, 4):
            dom = self.DOMAINS[kind](n)
            f = parse_polynomial(f"x1^2*x2 - 0.5*x2 + 3 + 0.25*x{n}^3", n)
            for a in ([0.1, -0.3, 0.2, 1 / 3][:n], [0.1, 0.0, -0.3, 0.0][:n], [0.0] * n):
                t = sum(((Polynomial.variable(n, i) - a[i]) ** 2 for i in range(n)), Polynomial.zero(n))
                t = t * (1 / (2 * Fraction(sigma) ** 2))
                for k, (h, fh) in enumerate(rate._ladder(dom, a, sigma, 5, f)):
                    term = (-t) ** k * Fraction(1, math.factorial(k))
                    assert (h, fh) == (integrate_poly_exact(dom, term), integrate_poly_exact(dom, f * term)), (n, a, k)

    @pytest.mark.parametrize("name", ["motzkin", "three-hump-camel-modified-s", "three-hump-camel-modified-b"])
    def test_certificate_has_the_bits_of_integrating_H(self, name):
        tc = benchmarks.get(name)
        for r in (1, 3):
            rep = certificate(tc.f, tc.domain, tc.minimizers[0], r, tc.f_min)
            H = taylor_density(tc.minimizers[0], rep.sigma, r, 2)
            c_rKa = 1.0 / integrate_poly(tc.domain, H)
            assert (rep.c_rKa, rep.f_rKa) == (c_rKa, c_rKa * integrate_poly(tc.domain, tc.f * H))


def _check_enclosure(lo, hi, reference):
    assert 0.0 <= lo <= reference <= hi <= 1.0


class TestGaussianMass:
    def test_wide_box_is_total(self):
        lo, hi = gaussian_mass(Domain.box([(-10, 10)]), [0.0], 1.0)
        assert lo == hi
        assert lo == pytest.approx(1.0, abs=1e-12)

    def test_corner_orthant(self):
        lo, hi = gaussian_mass(Domain.box([(0, 10), (0, 10)]), [0.0, 0.0], 1.0)
        assert lo == hi
        assert lo == pytest.approx(0.25, abs=1e-12)

    def test_ball_against_closed_form(self):
        # standard 2-D Gaussian mass of the unit disk is 1 - exp(-1/2)
        lo, hi = gaussian_mass(Domain.ball(2), [0.0, 0.0], 1.0)
        _check_enclosure(lo, hi, 1 - math.exp(-0.5))
        assert hi - lo <= 2**-20 * lo

    def test_simplex_against_box_decomposition(self):
        # small sigma well inside the simplex: mass approaches 1; the Taylor
        # bracket alone is ~1e124 wide here, the cube inside K closes it
        lo, hi = gaussian_mass(Domain.simplex(2), [0.3, 0.3], 0.01)
        assert 0.98 <= lo <= hi <= 1.02

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("sigma", [0.3, 0.5, 1.0])
    def test_ball_at_origin_against_chi_square(self, sigma, n):
        # |x|^2 / sigma^2 is chi-square with n degrees of freedom
        lo, hi = gaussian_mass(Domain.ball(n), [0.0] * n, sigma)
        _check_enclosure(lo, hi, gammainc(n / 2, 1 / (2 * sigma**2)))
        assert hi - lo <= 2**-20 * lo

    @pytest.mark.parametrize("kind,lower", [("simplex", 0.0), ("ball", -1.0)])
    def test_interval_against_erf(self, kind, lower):
        dom = Domain(kind, 1)
        for a in (lower, lower / 2 + 0.25, 0.5, 0.9, 1.0):
            for sigma in (0.02, 0.3, 1.0, 3.0):
                lo, hi = gaussian_mass(dom, [a], sigma)
                root = sigma * math.sqrt(2)
                reference = 0.5 * (math.erf((1 - a) / root) - math.erf((lower - a) / root))
                _check_enclosure(lo, hi, reference)

    def test_catalog_camels_closed(self):
        # the two non-box certificates of the benchmark, at their first minimizer
        for name, sigma in [("three-hump-camel-modified-s", 1 / (2 + math.sqrt(2))), ("three-hump-camel-modified-b", 1.0)]:
            tc = benchmarks.get(name)
            lo, hi = gaussian_mass(tc.domain, tc.minimizers[0], sigma)
            assert 0 < hi - lo <= 2**-20 * lo

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_mass(Domain.cube(1), [0.0], -1.0)

    @pytest.mark.parametrize("dom", [Domain.cube(2), Domain.simplex(2), Domain.ball(2)], ids=["box", "simplex", "ball"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_or_center_refused_before_drawing(self, dom, bad, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("random draw before the argument check")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match=f"sigma .*{bad}"):
            gaussian_mass(dom, [0.2, 0.3], bad)
        with pytest.raises(ValueError, match=rf"center \[{bad}, 0.3\]"):
            gaussian_mass(dom, [bad, 0.3], 0.5)

    def test_draws_no_random_number(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("random draw in a certificate")

        # numpy's generator, and every name a package module binds to it
        rng = np.random.default_rng
        for module in [np.random] + [m for name, m in sys.modules.items() if name.startswith("sosdensity")]:
            for attr, value in list(vars(module).items()):
                if value is rng:
                    monkeypatch.setattr(module, attr, no_draws)
        for n in (1, 2, 3):
            for dom in (Domain.simplex(n), Domain.ball(n)):
                for sigma in (0.01, 0.3, 2.0):
                    lo, hi = gaussian_mass(dom, [0.2] * n, sigma)
                    assert 0 <= lo <= hi <= 1
        for name in ("motzkin", "three-hump-camel-modified-s", "three-hump-camel-modified-b"):
            tc = benchmarks.get(name)
            rep = certificate(tc.f, tc.domain, tc.minimizers[0], 1, tc.f_min)
            assert rep.C_Ka is not None and rep.M_f > 0

    def test_gives_up_past_the_ladder_limit(self, monkeypatch):
        # the 10-simplex at r = 1 (sigma ~ 0.076): t_max ~ 78 from the centroid
        # and ~ 87 from the vertex 0, a bracket of order ~ 250
        def no_ladder(*args):
            raise AssertionError("the Taylor ladder was entered")

        monkeypatch.setattr(rate, "_taylor_enclosure", no_ladder)
        f, dom = parse_polynomial("x1", 10), Domain.simplex(10)
        assert rate._ladder_order(dom, [1 / 11] * 10, 0.076) is None
        # the cube around the centroid still gives a (loose) positive lower end
        rep = certificate(f, dom, [1 / 11] * 10, 1, 0.0)
        assert 0 < rep.mass[0] < rep.mass[1] and rep.C_Ka == 1 / rep.mass[0]
        # from a vertex no cube fits inside K: lo = 0 and C_Ka is null
        rep = certificate(f, dom, [0.0] * 10, 1, 0.0)
        assert rep.mass[0] == 0.0 < rep.mass[1]
        assert rep.C_Ka is None and rep.to_json()["C_Ka"] is None


class TestGeomParams:
    def test_unit_cube(self):
        gp = geom_params(Domain.cube(2))
        assert gp.D == pytest.approx(2.0)
        assert gp.eps_K == pytest.approx(0.5)
        assert gp.eta == pytest.approx((math.sqrt(31) / (16 + math.sqrt(31))) ** 2)
        assert gp.r_K == pytest.approx(8 * math.e)
        assert gp.gamma_n == pytest.approx(math.pi)

    def test_unit_ball_volume_past_gamma_overflow(self):
        # math.gamma(1 + n/2) overflows from n = 342; below, gamma_n keeps the
        # bits of pi^(n/2) / Gamma(1 + n/2), and from there it follows the
        # recurrence V_n = V_(n-2) * 2 pi / n
        volumes = {n: geom_params(Domain.ball(n)).gamma_n for n in range(1, 401)}
        for n in range(1, 342):
            assert volumes[n] == math.pi ** (n / 2) / math.gamma(1 + n / 2)
        for n in range(342, 401):
            assert 0 < volumes[n] == pytest.approx(volumes[n - 2] * 2 * math.pi / n, rel=1e-12)
        assert volumes[342] == pytest.approx(8.2956e-225, rel=1e-4)

    def test_simplex(self):
        gp = geom_params(Domain.simplex(2))
        m = 2 + math.sqrt(2)
        assert gp.D == pytest.approx(2.0)
        assert gp.eps_K == pytest.approx(1 / m)
        assert gp.eta == pytest.approx(
            (math.sqrt(8 * m**2 - 1) / (4 * m**2 + math.sqrt(8 * m**2 - 1))) ** 2
        )
        assert gp.r_K == pytest.approx(math.e * m**3)

    def test_ball(self):
        gp = geom_params(Domain.ball(3))
        assert gp.D == pytest.approx(4.0)
        assert gp.eps_K == 1.0
        assert gp.eta == pytest.approx((math.sqrt(3) / (2 + math.sqrt(3))) ** 3)
        assert gp.r_K == pytest.approx(max(2 * math.e, 3))


class TestLipschitz:
    def test_linear_on_square(self):
        assert lipschitz_bound(parse_polynomial("x1", 2), Domain.cube(2)) == 1.0

    def test_linear_on_ball(self):
        assert lipschitz_bound(parse_polynomial("x1", 2), Domain.ball(2)) == 1.0

    def test_constant_is_zero(self):
        assert lipschitz_bound(parse_polynomial("42", 1), Domain.cube(1)) == 0.0

    def test_dominates_gradient_samples(self):
        f = parse_polynomial("x1^2*x2 - x2^3", 2)
        dom = Domain.box([(-1, 1), (-1, 1)])
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, size=(500, 2))
        grad = [f.partial(i) for i in range(2)]
        true_lip = max(math.hypot(*(g.evaluate(p) for g in grad)) for p in pts)
        assert lipschitz_bound(f, dom) >= true_lip

    @pytest.mark.parametrize(
        "f,dom,total",
        [
            # d1 f = 4x^3y^2 + 2xy^4 - 6xy^2 on R = 2: 128 + 64 + 48, and d2 alike
            (benchmarks.get("motzkin").f, benchmarks.get("motzkin").domain, 2 * 240**2),
            # centre (1/2, 1/2), R = 1/2: d1 = 3y1^2 + 3y1 - 2y2^2 - 2y2 + 1/4 and
            # d2 = -4y1y2 - 2y1 - 2y2 - 1 give s = 4 each
            (parse_polynomial("x1^3 - 2*x1*x2^2", 2), Domain.simplex(2), 4**2 + 4**2),
            # R = 1: d1 = 3x1^2 - 2x2^2 and d2 = -4x1x2 give s = 5 and 4
            (parse_polynomial("x1^3 - 2*x1*x2^2", 2), Domain.ball(2), 5**2 + 4**2),
            # an off-centre box, centre 1 and R = 1: d1 = 2y + 2 gives s = 4,
            # the sup at x = 2
            (parse_polynomial("x1^2", 1), Domain.cube(1, 0, 2), 4**2),
        ],
        ids=["box", "simplex", "ball", "off-centre"],
    )
    def test_matches_hand_bound(self, f, dom, total):
        # the smallest float whose square is not below the exact sum
        m = lipschitz_bound(f, dom)
        assert Fraction(m) ** 2 >= total > Fraction(math.nextafter(m, 0.0)) ** 2

    @staticmethod
    def _points(dom: Domain, k: int) -> np.ndarray:
        """k values per axis over K's bounding box, every corner among them,
        kept where they lie in K; on the disc, 720 points of its circle too."""
        axes = [np.linspace(float(lo), float(hi), k) for lo, hi in rate._bounding_box(dom)]
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        pts = pts[[dom.contains(p) for p in pts]]
        if dom.kind == "ball":
            t = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
            pts = np.vstack([pts, np.stack([np.cos(t), np.sin(t)], axis=1)])
        return pts

    @pytest.mark.parametrize(
        "name,n",
        [(name, None) for name in benchmarks.list_names() if name not in ("rosenbrock", "styblinski-tang")]
        + [(name, n) for name in ("rosenbrock", "styblinski-tang") for n in (2, 4)],
    )
    def test_dominates_gradient_on_grid(self, name, n):
        # a sampled max of ||grad f|| over K is a lower bound on its sup
        tc = benchmarks.get(name, n)
        pts = self._points(tc.domain, 101 if tc.domain.n == 2 else 11)
        if name == "styblinski-tang" and n == 4:  # the corner a grid of |f| missed
            assert (pts == 5.0).all(axis=1).any()
        partials = [tc.f.partial(i) for i in range(tc.domain.n)]
        norms = np.sqrt((np.stack([p.evaluate(pts) for p in partials], axis=1) ** 2).sum(axis=1))
        m = lipschitz_bound(tc.f, tc.domain)
        # rosenbrock attains the bound at the corners, where float(2.048) lies
        # outside K; the largest one is checked exactly, moved into K's box
        assert norms.max() <= m * (1 + 1e-12)
        box = rate._bounding_box(tc.domain)
        top = [min(max(Fraction(x), lo), hi) for x, (lo, hi) in zip(pts[norms.argmax()], box)]
        assert sum(p.evaluate_exact(top) ** 2 for p in partials) <= Fraction(m) ** 2


class TestCertificate:
    def test_n1_report_fields_and_holds(self):
        f = parse_polynomial("x1", 1)
        rep = certificate(f, Domain.cube(1), [0.0], 8, 0.0)
        assert rep.sigma == rep.eps
        assert not rep.eps_capped
        assert rep.c_rKa <= rep.C_Ka + 1e-12
        assert rep.holds == "true"
        assert rep.rhs == pytest.approx(rep.zeta * rep.M_f / math.sqrt(17))
        j = rep.to_json()
        assert j["holds"] == "true"
        assert j["geom"]["r_K"] == pytest.approx(4 * math.e)

    def test_precondition_below_threshold(self):
        f = parse_polynomial("x1", 1)
        rep = certificate(f, Domain.cube(1), [0.0], 2, 0.0)
        assert rep.holds == "false-precondition"

    def test_sandwich_against_hierarchy(self):
        f = parse_polynomial("x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2 + 1", 2)
        dom = Domain.box([(-2, 2), (-2, 2)])
        rep = certificate(f, dom, [1.0, 1.0], 6, 0.0)
        b = compute_bound(f, dom, 12)
        assert rep.f_rKa >= b.value - 1e-7
        assert rep.c_rKa <= rep.C_Ka + 1e-9

    def test_zeta_positive_and_scaling(self):
        gp = geom_params(Domain.cube(1))
        assert zeta_constant(gp, 1) > 0

    @pytest.mark.parametrize("make, first", [
        (lambda n: Domain.cube(n, -1, 1), 113),
        (Domain.cube, 126),
        (Domain.simplex, 102),
        (Domain.ball, 233),
    ], ids=["box[-1,1]", "box[0,1]", "simplex", "ball"])
    def test_zeta_that_does_not_fit_a_float_is_refused(self, make, first):
        # from `first` on, zeta(K) does not fit a float (p(n) or D^((n+1)/2)
        # overflows, or eta underflows to 0): one OverflowError, never inf
        # or a ZeroDivisionError
        refused = []
        for n in range(1, 401):
            gp = geom_params(make(n))
            try:
                assert math.isfinite(zeta_constant(gp, n))
            except OverflowError as exc:
                assert str(exc) == f"zeta(K) does not fit a float at n = {n}"
                refused.append(n)
        assert refused == list(range(first, 401))

    # sha256 of json.dumps(report.to_json(), sort_keys=True) at the first
    # catalog minimizer.  f_rKa, c_rKa, zeta and holds have the bits of the
    # certificate that built the Taylor density, f * H and the exact integrals
    # in per-term Fraction arithmetic; mass is the exact enclosure and M_f the
    # exact bound from the gradient's coefficients
    @pytest.mark.parametrize("name,n,r,digest", [
        ("motzkin", None, 4, "763627cefe45c25040734d1a37f21ce06a3ed1abaf300c54ccbe8d1f823f65dd"),
        ("motzkin", None, 8, "1d5b3376334985ff6451a94bd0619a57060ae7ed013bca74b7e3122ece756140"),
        ("booth", None, 2, "52d872a2d831b4f510da745637a700105620a3fb8173d0ff1df300886f446438"),
        ("three-hump-camel-modified-s", None, 1, "7014e766e6dc4eaef3ce714f5c82555a61195646c34d7a37a6df41dfd46e772b"),
        ("three-hump-camel-modified-b", None, 1, "7d2b9d297cc6d907fc93b796e14abd86bfd33e2b5542e8c79778132f4f282549"),
        ("styblinski-tang", 4, 2, "bb44fc733db20e4a107084b8043d22187be78fc879756fe200069fed6aa03410"),
        ("styblinski-tang", 10, 2, "945e09ecc1a0c72cc01c7d0b3454626e7a8a4975d503327b11f0dcdea99063d6"),
        ("motzkin", None, 20, "8a46f4f84f08959d8236486b9d97e5b83db8473309742e382cca7020e5c01554"),
        ("styblinski-tang", 1, 3, "36a3a6c97f8c234af2c353d9955c1a5d620fff5d5bb27c253d800f3a46b630e8"),
    ], ids=lambda v: str(v)[:12] if isinstance(v, str) else str(v))
    def test_report_digests(self, name, n, r, digest):
        tc = benchmarks.get(name, n)
        rep = certificate(tc.f, tc.domain, tc.minimizers[0], r, tc.f_min)
        assert hashlib.sha256(json.dumps(rep.to_json(), sort_keys=True).encode()).hexdigest() == digest

    @pytest.mark.parametrize("f_min", [math.nan, math.inf, -math.inf])
    def test_non_finite_f_min_refused(self, f_min):
        tc = benchmarks.get("motzkin")
        with pytest.raises(ValueError, match="f_min"):
            certificate(tc.f, tc.domain, (0.0, 0.0), 30, f_min)

    def test_center_of_the_wrong_length(self):
        # a centre of another length is named as such, not as lying outside K
        f = parse_polynomial("x1", 1)
        with pytest.raises(ValueError) as exc:
            certificate(f, Domain.cube(1), [0.5, 0.5], 1, 0.0)
        assert str(exc.value) == "center has length 2, expected 1"

    def test_validation(self):
        f = parse_polynomial("x1", 1)
        with pytest.raises(ValueError):
            certificate(f, Domain.cube(1), [2.0], 3, 0.0)  # center outside
        with pytest.raises(ValueError):
            certificate(f, Domain.cube(1), [0.0], 0, 0.0)
