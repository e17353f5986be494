"""Acceptance gate: the seven shipping criteria, each with pinned tolerances.

Reference values are restated literally here (independent of the golden
module) so this file is a self-contained oracle.  Seven reference cells in the
simplex/ball table are numerically defective in the original prints; for
those cells this suite asserts the high-precision recomputed values and
carries the defective prints as strict xfails so the disagreement stays
visible.  See the decisions ledger for the full analysis.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sosdensity.benchmarks import get, list_names
from sosdensity.bounds import bound_sweep, compute_bound
from sosdensity.rate import certificate, p_constant, phi_coeffs
from sosdensity.moments import Domain, integrate_poly
from sosdensity.polynomials import Polynomial, parse_polynomial
from sosdensity.sampling import build_chain, markov_check, sample, write_batch_csv

# ---------------------------------------------------------------- references

TABLE2 = {  # bivariate functions over boxes, r = 1..12, printed to 5-6 digits
    "booth": [244.680, 162.486, 118.383, 97.6473, 69.8174, 63.5454,
              47.0467, 41.6727, 34.2140, 28.7248, 25.6050, 21.1869],
    "matyas": [8.26667, 5.32223, 4.28172, 3.89427, 3.68942, 2.99563,
               2.54698, 2.04307, 1.83356, 1.47840, 1.37644, 1.11785],
    "three-hump-camel": [265.774, 29.0005, 29.0005, 9.58064, 9.58064, 4.43983,
                         4.43983, 2.55032, 2.55032, 1.71275, 1.71275, 1.2775],
    "motzkin": [4.2, 1.06147, 1.06147, 0.829415, 0.801069, 0.801069,
                0.708889, 0.565553, 0.565553, 0.507829, 0.406076, 0.406076],
}

# Simplex/ball table, r = 1..10.  Cells replaced after high-precision
# verification are noted alongside; the defective prints live in TABLE5_DEFECTIVE.
TABLE5 = {
    "matyas-modified-s": [7.2243, 4.6536, 3.9404, 3.7067, 3.2317,
                          2.7328, 2.2985, 1.9536, 1.6639, 1.4261983],
    "three-hump-camel-modified-s": [84.354, 22.398, 12.353, 3.9153, 2.9782,
                                    1.3303, 1.1773, 0.7769995, 0.72801373, 0.59456838],
    "matyas-modified-b": [18.000, 6.3995, 6.3995, 4.4091, 4.4091,
                          3.9652, 3.9652, 3.8536, 3.8314425, 3.4943],
    "three-hump-camel-modified-b": [146.41927, 138.91927, 48.508, 39.673, 18.045,
                                    13.881, 7.7876, 5.7685, 3.8699, 2.8359],
}

# (function, r) -> the defective reference print for that cell.
TABLE5_DEFECTIVE = {
    ("matyas-modified-s", 10): 1.4293,
    ("three-hump-camel-modified-s", 8): 0.77992,
    ("three-hump-camel-modified-s", 9): 0.73202,
    ("three-hump-camel-modified-s", 10): 0.60846,
    ("matyas-modified-b", 9): 3.8536,
    ("three-hump-camel-modified-b", 1): 146.41,
    ("three-hump-camel-modified-b", 2): 138.91,
}

TABLE3_N10 = {  # n = 10, r = 1..3, relative tolerance 1e-2
    "styblinski-tang": [-57.1688, -94.5572, -108.873],
    "rosenbrock": [3649.85, 2813.66, 2393.63],
}

ABS_TOL = 1e-3


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def box_sweeps():
    out = {}
    for name in TABLE2:
        tc = get(name)
        out[name] = bound_sweep(tc.f, tc.domain, 12)
    return out


@pytest.fixture(scope="module")
def sb_sweeps():
    out = {}
    for name in TABLE5:
        tc = get(name)
        out[name] = bound_sweep(tc.f, tc.domain, 10)
    return out


# ------------------------------------------------- criterion 1: box table

class TestCriterion1BoxTable:
    def test_table2_reproduction(self, box_sweeps):
        t0 = time.perf_counter()
        worst = 0.0
        for name, expected in TABLE2.items():
            results = box_sweeps[name]
            assert len(results) == 12, f"{name}: sweep truncated at r={len(results)}"
            for b, ref in zip(results, expected):
                dev = abs(b.value - ref)
                worst = max(worst, dev)
                assert dev <= ABS_TOL, f"{name} r={b.r}: {b.value} vs {ref}"
        print(f"\n[criterion 1] PASS: 48 box cells within {ABS_TOL} (max dev {worst:.2e})")
        assert time.perf_counter() - t0 < 5.0

    def test_spot_values(self, box_sweeps):
        assert box_sweeps["motzkin"][11].value == pytest.approx(0.406076, abs=1e-3)
        assert box_sweeps["booth"][0].value == pytest.approx(244.680, abs=1e-3)
        assert box_sweeps["three-hump-camel"][5].value == pytest.approx(4.43983, abs=1e-3)


# ------------------------------------------ criterion 2: simplex/ball table

class TestCriterion2SimplexBallTable:
    def test_table5_reproduction(self, sb_sweeps):
        t0 = time.perf_counter()
        worst = 0.0
        for name, expected in TABLE5.items():
            results = sb_sweeps[name]
            assert len(results) == 10, f"{name}: sweep truncated at r={len(results)}"
            for b, ref in zip(results, expected):
                dev = abs(b.value - ref)
                worst = max(worst, dev)
                assert dev <= ABS_TOL, f"{name} r={b.r}: {b.value} vs {ref}"
        print(f"\n[criterion 2] PASS: 40 simplex/ball cells within {ABS_TOL} (max dev {worst:.2e})")
        assert time.perf_counter() - t0 < 5.0

    @pytest.mark.parametrize("name,r", sorted(TABLE5_DEFECTIVE))
    @pytest.mark.xfail(strict=True, reason="reference print disagrees with high-precision recomputation")
    def test_defective_reference_prints(self, sb_sweeps, name, r):
        printed = TABLE5_DEFECTIVE[(name, r)]
        assert abs(sb_sweeps[name][r - 1].value - printed) <= ABS_TOL


# ------------------------------------------------ criterion 3: n=10 table

class TestCriterion3HighDimension:
    def test_n10_spot_check(self):
        t0 = time.perf_counter()
        for name, expected in TABLE3_N10.items():
            tc = get(name, 10)
            results = bound_sweep(tc.f, tc.domain, 3)
            assert len(results) == 3
            for b, ref in zip(results, expected):
                assert b.value == pytest.approx(ref, rel=1e-2), f"{name} r={b.r}"
        elapsed = time.perf_counter() - t0
        print(f"\n[criterion 3] PASS: n=10 r<=3 within 1e-2 relative ({elapsed:.1f}s)")
        assert elapsed < 60.0


# ----------------------------------------- criterion 4: closed-form oracle

class TestCriterion4ClosedForm:
    def test_linear_r1_exact(self):
        # basis {1, x}: det(A - t B) = 0 with A, B the 2x2 Hankel slices of
        # 1/(i+j+1); smallest root is (3 - sqrt(3)) / 6
        b = compute_bound(parse_polynomial("x1", 1), Domain.cube(1), 1)
        assert b.value == pytest.approx((3 - math.sqrt(3)) / 6, abs=1e-12)

    def test_linear_r0_is_mean(self):
        b = compute_bound(parse_polynomial("x1", 1), Domain.cube(1), 0)
        assert b.value == pytest.approx(0.5, abs=1e-12)
        print("\n[criterion 4] PASS: closed-form oracle (3-sqrt(3))/6 and 1/2 within 1e-12")


# ------------------------------------------- criterion 5: property suite

class TestCriterion5Properties:
    def test_a_monotone_sweeps(self, box_sweeps, sb_sweeps):
        corpus = list(box_sweeps.values()) + list(sb_sweeps.values())
        for name in ("styblinski-tang", "rosenbrock"):
            tc = get(name, 3)
            corpus.append(bound_sweep(tc.f, tc.domain, 3))
        for results in corpus:
            vals = [b.value for b in results]
            assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(len(vals) - 1))
        print(f"\n[criterion 5a] PASS: {len(corpus)} sweeps monotone nonincreasing")

    def test_b_bounds_above_minimum(self, box_sweeps, sb_sweeps):
        for name, results in {**box_sweeps, **sb_sweeps}.items():
            f_min = get(name).f_min
            for b in results:
                assert b.value >= f_min - 1e-6, f"{name} r={b.r}"
        print("\n[criterion 5b] PASS: every bound >= f_min - 1e-6")

    @pytest.mark.parametrize("name,r", [("booth", 4), ("motzkin", 5), ("three-hump-camel", 4)])
    def test_c_affine_invariance(self, name, r):
        tc = get(name)
        rng = np.random.default_rng(sum(map(ord, name)))
        base = compute_bound(tc.f, tc.domain, r).value
        for _ in range(3):
            scale = [Fraction(int(rng.integers(1, 8)), int(rng.integers(1, 8))) for _ in range(2)]
            shift = [Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for _ in range(2)]
            # x = scale*y + shift maps dom2 onto the original box
            dom2 = Domain.box(
                [((lo - t) / s, (hi - t) / s) for (lo, hi), s, t in zip(tc.domain.bounds, scale, shift)]
            )
            f2 = tc.f.substitute_affine(scale, shift)
            mapped = compute_bound(f2, dom2, r).value
            assert mapped == pytest.approx(base, rel=1e-6)
        print(f"\n[criterion 5c] PASS: affine invariance for {name} at r={r}")

    @pytest.mark.parametrize(
        "dom",
        [Domain.box([(-1, 2)]), Domain.box([(0, 1), (-2, 1)]), Domain.simplex(3), Domain.ball(3)],
        ids=["box1", "box2", "simplex3", "ball3"],
    )
    def test_d_moments_vs_monte_carlo(self, dom):
        n = dom.n
        rng = np.random.default_rng(17)
        N = 10**6
        if dom.kind == "box":
            lo = np.array([float(l) for l, _ in dom.bounds])
            hi = np.array([float(h) for _, h in dom.bounds])
            pts = rng.uniform(lo, hi, size=(N, n))
            vol = float(np.prod(hi - lo))
        elif dom.kind == "simplex":
            pts = rng.dirichlet(np.ones(n + 1), size=N)[:, :n]
            vol = 1.0 / math.factorial(n)
        else:
            z = rng.standard_normal((N, n))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            pts = z * (rng.random(N) ** (1.0 / n))[:, None]
            vol = math.pi ** (n / 2) / math.gamma(1 + n / 2)
        checked = 0
        for _ in range(6):
            alpha = rng.multinomial(int(rng.integers(0, 11)), np.ones(n) / n)
            vals = np.prod(pts ** alpha, axis=1)
            mc = vol * float(np.mean(vals))
            se = vol * float(np.std(vals)) / math.sqrt(N)
            exact = integrate_poly(dom, Polynomial.monomial(n, alpha.tolist()))
            assert abs(mc - exact) <= max(3 * se, 1e-12), (alpha, mc, exact, se)
            checked += 1
        print(f"\n[criterion 5d] PASS: {checked} moments on {dom.kind} within 3 standard errors")


# -------------------------------------------- criterion 6: sampling suite

@pytest.fixture(scope="module", params=[("motzkin", 12), ("three-hump-camel", 8)],
                ids=["motzkin-r12", "three-hump-r8"])
def batch(request):
    name, r = request.param
    tc = get(name)
    b = compute_bound(tc.f, tc.domain, r)
    chain = build_chain(b.density, tc.domain)
    return tc, b, sample(chain, 10**4, seed=2024, f=tc.f)


class TestCriterion6Sampling:
    def test_mean_within_three_stderr(self, batch):
        tc, b, s = batch
        se = float(np.std(s.values)) / 100.0
        dev = abs(float(np.mean(s.values)) - b.value)
        assert dev <= 3 * se
        print(f"\n[criterion 6] {tc.name}: sample mean within {dev / se:.2f} stderr of bound")

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
    def test_markov_tail(self, batch, eps):
        tc, b, s = batch
        freq = markov_check(tc.f, s, b.value, tc.f_min, eps)
        p = 1.0 / (1.0 + eps)
        assert freq <= p + 3 * math.sqrt(p * (1 - p) / 10**4)

    def test_membership(self, batch):
        tc, _, s = batch
        assert all(tc.domain.contains(pt) for pt in s.points)

    def test_byte_identical_output(self, batch, tmp_path):
        tc, b, _ = batch
        chain = build_chain(b.density, tc.domain)
        paths = []
        for tag in ("x", "y"):
            s = sample(chain, 200, seed=77, f=tc.f)
            path = tmp_path / f"{tag}.csv"
            write_batch_csv(s, str(path), tc.domain, bound=b.value)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


# ----------------------------------------- criterion 7: certificate suite

class TestCriterion7Certificate:
    def test_a_phi_grids(self):
        ts_all = np.linspace(-50.0, 50.0, 10**4)
        ts_pos = np.linspace(0.0, 30.0, 1001)
        for r in range(11):
            coeffs = np.array(
                [float(phi_coeffs(r).coefficient((k,))) for k in range(2 * r + 1)]
            )
            pv = np.polynomial.polynomial.polyval
            assert pv(ts_all, coeffs).min() >= -1e-12
            gaps = pv(ts_pos, coeffs) - np.exp(-ts_pos)
            caps = ts_pos ** (2 * r + 1) / math.factorial(2 * r + 1)
            assert gaps.min() >= -1e-12
            assert np.all(gaps <= caps + 1e-12)
        print("\n[criterion 7a] PASS: phi nonnegativity and sandwich, r<=10, slack 1e-12")

    def test_b_p_constant(self):
        from scipy.integrate import quad

        for n in range(1, 11):
            val, _ = quad(lambda t: t**n * math.exp(-t * t / 2), 0, 60)
            assert p_constant(n) == pytest.approx(val, rel=1e-8)
        print("\n[criterion 7b] PASS: p(n) vs quadrature, 1e-8 relative, n<=10")

    def test_c_normalization_and_sandwich(self, box_sweeps, sb_sweeps):
        checked = 0
        for name in TABLE2:
            tc = get(name)
            for r in range(1, 7):
                rep = certificate(tc.f, tc.domain, tc.minimizers[0], r, tc.f_min)
                assert rep.c_rKa <= rep.C_Ka + 1e-9
                assert rep.mass[1] - rep.mass[0] <= 2**-20 * rep.mass[0]
                lower = box_sweeps[name][2 * r - 1].value  # order-2r hierarchy bound
                assert rep.f_rKa >= lower - 1e-7, f"{name} r={r}"
                checked += 1
        # modified entries: hierarchy comparison capped at order 10 (2r <= 10)
        for name in TABLE5:
            tc = get(name)
            for r in range(1, 7):
                rep = certificate(tc.f, tc.domain, tc.minimizers[0], r, tc.f_min)
                assert rep.c_rKa <= rep.C_Ka + 1e-9
                assert rep.mass[1] - rep.mass[0] <= 2**-20 * rep.mass[0]
                if 2 * r <= 10:
                    lower = sb_sweeps[name][2 * r - 1].value
                    assert rep.f_rKa >= lower - 1e-7, f"{name} r={r}"
                checked += 1
        print(f"\n[criterion 7c] PASS: c_rKa <= C_Ka and hierarchy sandwich on {checked} instances")

    def test_d_rate_inequality_n1(self):
        f = parse_polynomial("x1", 1)
        dom = Domain.cube(1)
        threshold = 4 * math.e / 2  # r_K / 2 ~ 5.44
        for r in range(1, 13):
            rep = certificate(f, dom, [0.0], r, 0.0)
            if r >= threshold:
                assert rep.holds == "true", f"r={r}: {rep.holds}"
            else:
                assert rep.holds == "false-precondition"
        print("\n[criterion 7d] PASS: rate inequality holds for all r >= r_K/2 up to 12")

    def test_slope_diagnostic_reported(self, box_sweeps):
        # log-log slope of (bound - f_min) vs r for Motzkin; reported, not asserted
        vals = np.array([b.value for b in box_sweeps["motzkin"]])
        rs = np.arange(1, 13)
        slope = np.polyfit(np.log(rs), np.log(vals), 1)[0]
        print(f"\n[criterion 7 diagnostic] motzkin log-log slope over r=1..12: {slope:.3f} "
              "(theory guarantees at least -0.5 asymptotically; not asserted)")
