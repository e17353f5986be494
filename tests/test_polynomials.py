import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosdensity import benchmarks
from sosdensity.moments import Domain
from sosdensity.polynomials import ParseError, Polynomial, grlex_key, parse_polynomial

x = Polynomial.variable(2, 0)
y = Polynomial.variable(2, 1)


class TestConstruction:
    def test_zero_merging_and_degree(self):
        p = Polynomial(2, {(1, 0): 1, (0, 0): Fraction(1, 2)})
        q = p + Polynomial(2, {(1, 0): -1})
        assert q.terms == {(0, 0): Fraction(1, 2)}
        assert q.degree == 0
        assert p - p == Polynomial.zero(2)

    def test_string_coefficient_parses_exactly(self):
        # a string coefficient parses exactly
        p = Polynomial(1, {(2,): "1/3"})
        assert p.coefficient((2,)) == Fraction(1, 3)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            x.degree = 5

    @pytest.mark.parametrize("bad", [(1.5,), ("1",), (np.float64(2.0),)])
    def test_non_integer_exponent_rejected(self, bad):
        with pytest.raises(ValueError, match="non-integer exponent"):
            Polynomial(1, {bad: 1})

    def test_integer_like_exponents_accepted(self):
        p = Polynomial(np.int64(2), {(True, np.int64(3)): 1, (np.uint8(2), 0): 2})
        assert type(p.n_vars) is int and p.n_vars == 2
        assert list(p.terms) == [(1, 3), (2, 0)]
        assert all(type(e) is int for exp in p.terms for e in exp)

    def test_validation(self):
        with pytest.raises(ValueError):
            Polynomial(0, {})
        for n in (True, 2.0):
            with pytest.raises(ValueError, match=rf"^n_vars must be an integer, not {n!r}$"):
                Polynomial(n, {})
        with pytest.raises(ValueError):
            Polynomial(2, {(1,): 1})
        with pytest.raises(ValueError):
            Polynomial(1, {(-1,): 1})
        with pytest.raises(ValueError):
            Polynomial.variable(2, 2)
        for make in (lambda: Polynomial.constant(2.0, 1), lambda: Polynomial.variable(2.0, 0),
                     lambda: Polynomial.zero(2.0), lambda: Polynomial.monomial(2.0, (1, 0))):
            with pytest.raises(ValueError, match=r"^n_vars must be an integer, not 2\.0$"):
                make()
        with pytest.raises(TypeError, match="unsupported coefficient type: list"):
            Polynomial(1, {(1,): [1]})

    def test_equal_polynomials_hash_equal(self):
        # the same terms reached by arithmetic and by the constructor, in another order
        p = (x + 1) * (y - 1)
        q = Polynomial(2, {(0, 0): -1, (0, 1): 1, (1, 1): 1, (1, 0): -1})
        assert p == q and hash(p) == hash(q)


class TestArithmetic:
    def test_ring_identities(self):
        p = x * x + 2 * y - 3
        q = y * y - x
        assert (p + q) - q == p
        assert p * q == q * p
        assert p * (q + 1) == p * q + p
        assert (-p) + p == Polynomial.zero(2)

    def test_pow(self):
        p = (x + y) ** 3
        assert p.coefficient((2, 1)) == 3
        assert p.coefficient((0, 3)) == 1
        assert (x + y) ** 0 == Polynomial.constant(2, 1)
        with pytest.raises(ValueError):
            (x + y) ** -1
        assert (x + y) ** np.int64(3) == (x + y) ** 3
        for k in (True, 2.0):
            with pytest.raises(ValueError, match=rf"^exponent must be an integer, not {k!r}$"):
                (x + y) ** k

    def test_scalar_ops(self):
        p = Fraction(1, 2) * x + 1
        assert p.evaluate([3.0, 0.0]) == 2.5
        assert (1 - x).coefficient((0, 0)) == 1

    def test_float_scalars_are_exact(self):
        p = x + y
        assert p * 0.5 == Fraction(1, 2) * p
        assert 0.5 * p == p * 0.5
        assert (p + 0.5).constant_term() == Fraction(1, 2)
        assert (0.5 + p) == p + 0.5
        assert (0.25 - p) == Fraction(1, 4) - p
        # the float's binary value, as the constructors take it, not 1/10
        assert (p - 0.1).constant_term() == -Fraction(0.1)
        assert (p - 0.1).constant_term() != Fraction(-1, 10)

    @pytest.mark.parametrize("bad", ["2", None, [1]])
    def test_unsupported_operands(self, bad):
        with pytest.raises(TypeError):
            x + bad
        with pytest.raises(TypeError):
            x - bad
        with pytest.raises(TypeError):
            x * bad

    def test_dimension_mismatch(self):
        z = Polynomial.variable(3, 0)
        for op in (lambda: x + z, lambda: x - z, lambda: x * z):
            with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
                op()


def _fraction_product(p: Polynomial, q: Polynomial) -> Polynomial:
    """p * q summed term by term in Fractions: the reference for the integer product."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, Fraction(0)) + c1 * c2
    return Polynomial(p.n_vars, terms)


def _random_polynomial(rng: random.Random, n: int, size: int, deg: int) -> Polynomial:
    """Coefficients over 2^k, 10^k, 3 and 7, and binary floats taken exactly."""
    terms = {}
    for _ in range(size):
        e = tuple(rng.randint(0, deg) for _ in range(n))
        den = rng.choice([2 ** rng.randint(0, 60), 10 ** rng.randint(0, 20), 3, 7, 21])
        terms[e] = rng.choice([Fraction(rng.randint(-10**6, 10**6), den), Fraction(rng.uniform(-5, 5))])
    return Polynomial(n, terms)


class TestExactProduct:
    """p * q sums integer numerators over one denominator per operand; its
    Fractions and their order are those of the per-term Fraction loop."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_against_fraction_loop(self, n):
        rng = random.Random(n)
        for _ in range(20):
            p = _random_polynomial(rng, n, rng.randint(1, 12), 4)
            q = _random_polynomial(rng, n, rng.randint(1, 12), 4)
            assert list((p * q).terms.items()) == list(_fraction_product(p, q).terms.items())

    def test_zero_polynomial(self):
        p = _random_polynomial(random.Random(0), 2, 8, 3)
        for a, b in ((p, Polynomial.zero(2)), (Polynomial.zero(2), p), (Polynomial.zero(2), Polynomial.zero(2))):
            assert (a * b).terms == {}

    def test_cancellation_to_zero(self):
        third, tenth = Fraction(1, 3), Fraction(0.1)
        p = x * third + y * tenth
        q = x * third - y * tenth
        prod = p * q  # the x*y terms cancel
        assert list(prod.terms.items()) == list(_fraction_product(p, q).terms.items())
        assert prod.terms == {(2, 0): third**2, (0, 2): -(tenth**2)}
        # (1 + x/7 + x^2/49)(1 - x/7) = 1 - x^3/343: both middle sums cancel
        t = Polynomial(1, {(1,): Fraction(1, 7)})
        u, v = 1 + t + t * t, 1 - t
        assert list((u * v).terms.items()) == [((0,), Fraction(1)), ((3,), Fraction(-1, 343))]

    def test_float_coefficients_keep_their_bits(self):
        p = Polynomial(1, {(0,): 0.1, (1,): 1 / 3})
        q = Polynomial(1, {(0,): 2.5e-300, (2,): math.pi})
        prod = p * q
        assert list(prod.terms.items()) == list(_fraction_product(p, q).terms.items())
        assert float(prod.coefficient((3,))) == float(Fraction(1 / 3) * Fraction(math.pi))

    def test_exponents_past_any_fixed_radix(self):
        # x1^300 * x2 times x1^5 + x2^400 in six variables, and exponents
        # past 2^64: the products keep their exponents and their order
        p = Polynomial(6, {(300, 1, 0, 0, 0, 0): Fraction(1, 3)})
        q = Polynomial(6, {(5, 0, 0, 0, 0, 0): 2, (0, 400, 0, 0, 0, 0): Fraction(-5, 7)})
        assert list((p * q).terms.items()) == list(_fraction_product(p, q).terms.items())
        assert list((p * q).terms) == [(305, 1, 0, 0, 0, 0), (300, 401, 0, 0, 0, 0)]
        big = 2**70
        u = Polynomial(6, {(big, 0, 0, 0, 0, 1): 3, (0, 0, 0, 0, 0, 0): Fraction(1, 2)})
        v = Polynomial(6, {(1, 0, 0, 0, 0, big): -1, (big, 0, 0, 0, 0, 1): Fraction(1, 9)})
        assert list((u * v).terms.items()) == list(_fraction_product(u, v).terms.items())
        assert (2 * big, 0, 0, 0, 0, 2) in (u * v).terms

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pow_equals_repeated_product(self, n):
        rng = random.Random(10 + n)
        for _ in range(10):
            p = _random_polynomial(rng, n, rng.randint(1, 6), 3)
            q = Polynomial.constant(n, 1)
            for k in range(7):
                assert list((p**k).terms.items()) == list(q.terms.items())
                q = q * p


def _fraction_substitute(p: Polynomial, i: int, value: Polynomial) -> Polynomial:
    """p with value for x_i, adding term * value^k term by term in Fractions:
    the reference for the integer substitute_var."""
    result = Polynomial.zero(p.n_vars)
    powers = [Polynomial.constant(p.n_vars, 1)]
    for exp, coef in p.terms.items():
        while len(powers) <= exp[i]:
            powers.append(_fraction_product(powers[-1], value))
        rest = exp[:i] + (0,) + exp[i + 1 :]
        result = result + _fraction_product(Polynomial.monomial(p.n_vars, rest, coef), powers[exp[i]])
    return result


class TestSubstitution:
    """substitute_var sums integers over one denominator; its Fractions and
    their order are those of the per-term Fraction sums."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_against_fraction_loop(self, n):
        rng = random.Random(20 + n)
        for _ in range(15):
            p = _random_polynomial(rng, n, rng.randint(1, 10), 4)
            i = rng.randrange(n)
            others = [j for j in range(n) if j != i]
            values = [
                _random_polynomial(rng, n, 1, 0),  # a constant
                Polynomial.zero(n),
                _random_polynomial(rng, n, rng.randint(1, 4), 2),  # depends on x_i too
            ]
            if others:  # free of x_i, as integration bounds are
                v = _random_polynomial(rng, n, rng.randint(1, 4), 2)
                values.append(Polynomial(n, {e: c for e, c in v.terms.items() if e[i] == 0}))
            for value in values:
                got = p.substitute_var(i, value)
                assert list(got.terms.items()) == list(_fraction_substitute(p, i, value).terms.items())

    def test_zero_polynomial(self):
        assert Polynomial.zero(2).substitute_var(0, 1 + y).terms == {}

    def test_cancelled_sum_reappears_last(self):
        # x1 -> x2 + 1 in x2 - x1 + x1^2: the x2 sum cancels at -x1 and comes
        # back with x1^2, after x2^2, while the constant cancels for good
        p = Polynomial(2, {(0, 1): 1, (1, 0): -1, (2, 0): 1})
        got = p.substitute_var(0, y + 1)
        assert list(got.terms.items()) == list(_fraction_substitute(p, 0, y + 1).terms.items())
        assert list(got.terms.items()) == [((0, 2), Fraction(1)), ((0, 1), Fraction(2))]


class TestScalarProduct:
    """p * c and c * p hold the Fractions coef * c of p's terms, in p's order."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_per_term_fractions(self, n):
        rng = random.Random(30 + n)
        scalars = [0, 1, -3, 10**30, Fraction(2, 3), Fraction(-7, 10**12), 0.1, -2.5e-300, 1e300]
        for _ in range(10):
            p = _random_polynomial(rng, n, rng.randint(0, 10), 4)
            for c in scalars:
                want = [(e, coef * Fraction(c)) for e, coef in p.terms.items() if coef * Fraction(c) != 0]
                assert list((p * c).terms.items()) == want
                assert list((c * p).terms.items()) == want

    def test_reduced_fractions(self):
        p = Polynomial(2, {(1, 0): Fraction(3, 4), (0, 1): Fraction(5, 6), (0, 0): 2})
        assert list((p * Fraction(4, 3)).terms.items()) == [
            ((1, 0), Fraction(1)), ((0, 1), Fraction(10, 9)), ((0, 0), Fraction(8, 3))]
        assert all(type(c) is Fraction for c in (p * 2).terms.values())


class TestEvaluation:
    def test_float_vs_exact(self):
        p = x**3 * y - 7 * y + Fraction(2, 3)
        pt = [Fraction(1, 2), Fraction(3, 4)]
        assert p.evaluate_exact(pt) == Fraction(1, 8) * Fraction(3, 4) - 7 * Fraction(3, 4) + Fraction(2, 3)
        assert abs(p.evaluate([0.5, 0.75]) - float(p.evaluate_exact(pt))) < 1e-15

    def test_length_check(self):
        with pytest.raises(ValueError):
            x.evaluate([1.0])
        with pytest.raises(ValueError):
            x.evaluate(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="point has length 3, expected 2"):
            x.evaluate_exact([1, 2, 3])

    def test_point_and_batch_shapes(self):
        p = x**2 * y + 3
        v = p.evaluate([1.5, 2.0])
        assert type(v) is float and v == 7.5
        assert np.array_equal(p.evaluate(np.array([[1.5, 2.0], [0.0, 1.0]])), [7.5, 3.0])


def _pointwise(f, pts):
    """The per-point float loop that evaluate() must reproduce, on Python floats."""
    out = []
    for point in pts.tolist():
        total = 0.0
        for exp, coef in f.terms.items():
            m = float(coef)
            for xi, e in zip(point, exp):
                if e:
                    m *= xi**e
            total += m
        out.append(total)
    return np.array(out)


def _grid(dom: Domain) -> np.ndarray:
    """Points of a 2-D catalog domain: a 101 x 101 mesh of a box; seeded
    Dirichlet draws and the vertices of the simplex; seeded points of the
    disc and of its boundary."""
    if dom.kind == "box":
        axes = [np.linspace(float(lo), float(hi), 101) for lo, hi in dom.bounds]
        return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    rng = np.random.default_rng(0)
    if dom.kind == "simplex":
        pts = rng.dirichlet(np.ones(dom.n + 1), size=10**5)[:, : dom.n]
        return np.vstack([pts, np.zeros(dom.n), np.eye(dom.n)])
    z = rng.standard_normal((10**5, dom.n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return np.vstack([z * rng.random(10**5)[:, None] ** (1.0 / dom.n), z[:1000]])


class TestBatchEvaluation:
    """A batch gives every row the bits of evaluating that row on its own."""

    @pytest.mark.parametrize("name", benchmarks.list_names())
    def test_catalog_grids(self, name):
        try:
            tc = benchmarks.get(name)
        except ValueError:  # a parametric family
            tc = benchmarks.get(name, 2)
        grid = _grid(tc.domain)
        values = tc.f.evaluate(grid)
        assert np.array_equal(values, _pointwise(tc.f, grid))
        # one-point calls on every 25th row (a full loop would take seconds per grid)
        assert np.array_equal(values[::25], [tc.f.evaluate(p) for p in grid[::25]])

    def test_powers_are_cpython_pow(self):
        # numpy's array ** rounds differently from CPython's float pow at some
        # simplex grid points, so switching evaluate to it must fail here
        grid = _grid(Domain.simplex(2))
        X = grid[:, 0]
        cube = (X.astype(object) ** 3).astype(float)
        assert not np.array_equal(X**3, cube)
        assert np.array_equal(parse_polynomial("x1^3", 2).evaluate(grid), cube)

    def test_powers_match_object_pow(self):
        # bit for bit the powers of CPython floats, signed zeros, tiny and
        # subnormal values and the non-finite ones included
        rng = np.random.default_rng(40)
        X = np.concatenate([
            rng.uniform(-3.0, 3.0, 4000), rng.normal(0.0, 1e-200, 500),
            [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan],
        ])
        for e in range(1, 41):
            want = np.zeros(len(X)) + (X.astype(object) ** e).astype(float)
            got = parse_polynomial(f"x1^{e}", 1).evaluate(X[:, None])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            parse_polynomial("x1^3 + x2", 2).evaluate(np.array([[1.0, 0.0], [1e300, 1.0]]))


    def test_overflow_in_a_later_column_raises(self):
        p = parse_polynomial("x1^2 + x2^5 + x3", 3)
        with pytest.raises(OverflowError):
            p.evaluate(np.array([[1.0, 2.0, 0.0], [3.0, 1e100, 1.0]]))
        with pytest.raises(OverflowError):
            p.evaluate([0.5, -1e70, 2.0])

    def test_non_finite_inputs_warn_nothing(self):
        # inf - inf, 0 * inf and nan arithmetic run quietly, as on Python floats
        p = parse_polynomial("x1^2 - x1 + x1*x2^3 - 2*x2", 2)
        X = np.array([
            [np.inf, 1.0], [-np.inf, 2.0], [np.nan, 0.5], [1.0, np.inf],
            [np.inf, -np.inf], [5e-324, np.inf], [0.0, np.nan], [-0.0, -np.inf],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = p.evaluate(X)
            single = [p.evaluate(row) for row in X]
        want = _pointwise(p, X)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(single, want, equal_nan=True)


class TestCalculus:
    def test_partial_antiderivative_roundtrip(self):
        p = x**3 * y**2 + 5 * x
        assert p.antiderivative(0).partial(0) == p
        assert p.partial(1) == 2 * x**3 * y

    def test_definite_integrate_constant_bounds(self):
        p = x * y
        lo = Polynomial.constant(2, 0)
        hi = Polynomial.constant(2, 1)
        q = p.definite_integrate(1, lo, hi)  # integral of x*y dy on [0,1] = x/2
        assert q == Fraction(1, 2) * x

    def test_definite_integrate_polynomial_bound(self):
        # integral of 1 dy from 0 to 1-x
        one = Polynomial.constant(2, 1)
        q = one.definite_integrate(1, Polynomial.constant(2, 0), 1 - x)
        assert q == 1 - x

    def test_bound_must_not_involve_variable(self):
        with pytest.raises(ValueError):
            (x * y).definite_integrate(1, Polynomial.constant(2, 0), y)

    def test_substitute_affine_against_fraction_reference(self):
        rng = random.Random(50)
        for n in (1, 2, 3):
            for _ in range(6):
                p = _random_polynomial(rng, n, rng.randint(1, 8), 4)
                scale = [rng.choice([1, -2, Fraction(1, 3), 0.75]) for _ in range(n)]
                shift = [rng.choice([0, Fraction(-1, 2), 0.1, 5]) for _ in range(n)]
                want = p
                for i in range(n):
                    e = tuple(int(j == i) for j in range(n))
                    want = _fraction_substitute(want, i, Polynomial(n, {e: scale[i], (0,) * n: shift[i]}))
                assert list(p.substitute_affine(scale, shift).terms.items()) == list(want.terms.items())

    def test_substitute_affine(self):
        p = x**2 + y
        q = p.substitute_affine([Fraction(1, 2), 2], [1, -1])  # x -> z/2+1, y -> 2w-1
        assert q.evaluate([2.0, 3.0]) == p.evaluate([2.0, 5.0])
        with pytest.raises(ValueError):
            p.substitute_affine([0, 1], [0, 0])
        with pytest.raises(ValueError, match="scale/shift length must equal n_vars"):
            p.substitute_affine([1], [0])
        with pytest.raises(ValueError, match="scale/shift length must equal n_vars"):
            p.substitute_affine([1, 1], [0, 0, 0])


def _fraction_integrate(p: Polynomial, var: int, lower: Polynomial, upper: Polynomial) -> Polynomial:
    """The antiderivative, each bound put in by _fraction_substitute, then the
    difference of the two, all in Fractions: the reference for definite_integrate."""
    anti = p.antiderivative(var)
    return _fraction_substitute(anti, var, upper) - _fraction_substitute(anti, var, lower)


def _free_of(p: Polynomial, i: int) -> Polynomial:
    return Polynomial(p.n_vars, {e: c for e, c in p.terms.items() if e[i] == 0})


class TestDefiniteIntegrate:
    """definite_integrate sums integers over one denominator; its Fractions and
    their order are those of the Fraction antiderivative, substitutions and
    difference."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_against_fraction_reference(self, n):
        rng = random.Random(40 + n)
        for _ in range(12):
            p = _random_polynomial(rng, n, rng.randint(1, 10), 4)
            var = rng.randrange(n)
            shrinking = Polynomial.constant(n, 1)  # 1 - x_1 - ... - x_var, a simplex side
            for j in range(var):
                shrinking = shrinking - Polynomial.variable(n, j)
            pairs = [
                (Polynomial.constant(n, 0), Polynomial.constant(n, 1)),
                (Polynomial.constant(n, Fraction(-1, 3)), Polynomial.constant(n, Fraction(5, 7))),
                (Polynomial.constant(n, Fraction(0.1)), Polynomial.constant(n, 2**-40)),
                (Polynomial.constant(n, 0), shrinking),
                (Polynomial.zero(n), Polynomial.zero(n)),
                (_free_of(_random_polynomial(rng, n, rng.randint(1, 4), 2), var),
                 _free_of(_random_polynomial(rng, n, rng.randint(1, 4), 2), var)),
            ]
            for lower, upper in pairs:
                got = p.definite_integrate(var, lower, upper)
                assert list(got.terms.items()) == list(_fraction_integrate(p, var, lower, upper).terms.items())

    def test_zero_polynomial(self):
        assert Polynomial.zero(2).definite_integrate(1, Polynomial.constant(2, 0), 1 - x).terms == {}

    def test_sums_that_cancel(self):
        # x*y + y over y in [-1, 1] is 0; with y in [x, x + 1], the x terms of
        # the two bounds cancel and 1/2 + x is left
        lo, hi = Polynomial.constant(2, -1), Polynomial.constant(2, 1)
        assert (x * y + y).definite_integrate(1, lo, hi).terms == {}
        for p, lower, upper in ((x * y + y, lo, hi), (y + 1, x, x + 1), (y * y - x, x - Fraction(1, 3), x + 2)):
            got = p.definite_integrate(1, lower, upper)
            assert list(got.terms.items()) == list(_fraction_integrate(p, 1, lower, upper).terms.items())
        got = (y + 1).definite_integrate(1, x, x + 1)
        assert list(got.terms.items()) == [((1, 0), Fraction(1)), ((0, 0), Fraction(3, 2))]

    @pytest.mark.parametrize("name, r", [("motzkin", 12), ("three-hump-camel-modified-s", 6)])
    def test_sampler_marginals(self, name, r):
        # the chain's renormalized density and each marginal are the Fraction
        # references', term by term and in order, on a box and on the simplex
        from sosdensity.bounds import compute_bound
        from sosdensity.moments import integrate_poly_exact
        from sosdensity.sampling import _sides, build_chain

        tc = benchmarks.get(name)
        hstar = compute_bound(tc.f, tc.domain, r).density
        n = tc.domain.n
        scale = 1 / integrate_poly_exact(tc.domain, hstar)
        want = [Polynomial(n, {e: c * scale for e, c in hstar.terms.items()})]
        for i in range(n - 1, 0, -1):
            lo, hi, shrinks = _sides(tc.domain)[i]
            upper = Polynomial.constant(n, hi)
            for j in range(i if shrinks else 0):
                upper = upper - Polynomial.variable(n, j)
            want.append(_fraction_integrate(want[-1], i, Polynomial.constant(n, lo), upper))
        want.reverse()
        chain = build_chain(hstar, tc.domain)
        assert [list(m.terms.items()) for m in chain.marginals] == [list(m.terms.items()) for m in want]


class TestParser:
    def test_catalog_style_expression(self):
        p = parse_polynomial("2*x1^2 - 1.05*x1^4 + x1^6/6 + x1*x2 + x2^2", 2)
        assert p.coefficient((4, 0)) == Fraction(-21, 20)
        assert p.coefficient((6, 0)) == Fraction(1, 6)
        assert p.degree == 6

    def test_decimal_literals_exact(self):
        p = parse_polynomial("0.26*x1 - 0.48", 1)
        assert p.coefficient((1,)) == Fraction(26, 100)
        assert p.constant_term() == Fraction(-48, 100)

    def test_parentheses_and_unary_minus(self):
        p = parse_polynomial("-(x1 - 2)^2", 1)
        assert p == -(Polynomial.variable(1, 0) - 2) ** 2

    def test_division_chains(self):
        assert parse_polynomial("x1/2/3", 1).coefficient((1,)) == Fraction(1, 6)

    @pytest.mark.parametrize(
        "bad",
        ["x1/x2", "1/0", "x1/(x2+1)", "x3", "x1^-1", "x1^2.5", "x1 +", "(x1", "x1 $ 2"],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_polynomial(bad, 2)

    @pytest.mark.parametrize("text, position", [("x1 +", 4), ("", 0), ("2*", 2), ("(x1 - ", 6)])
    def test_text_that_ends_too_early(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text, 2)
        assert str(exc.value) == f"unexpected end of text (at position {position})"
        assert exc.value.position == position

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("x1 + x9", 2)
        assert "position" in str(exc.value)
        # juxtaposition is not a product: the second factor is left over
        with pytest.raises(ParseError, match=r"^unexpected token 'x2' \(at position 3\)$"):
            parse_polynomial("x1 x2", 2)

    def test_deep_nesting_is_a_parse_error(self):
        # the recursive descent gives up at ~250 levels: a ParseError, not a RecursionError
        assert parse_polynomial("(" * 100 + "x1" + ")" * 100, 1) == Polynomial.variable(1, 0)
        for depth in (400, 5000):
            with pytest.raises(ParseError, match="nested too deeply"):
                parse_polynomial("(" * depth + "x1" + ")" * depth, 1)


class TestSerialization:
    def test_str_grlex_order(self):
        p = y**2 + x + 1
        assert str(p) == "1 + x1 + x2^2"
        assert str(Polynomial.zero(2)) == "0"

    def test_grlex_key(self):
        exps = [(0, 2), (1, 0), (2, 0), (0, 0), (1, 1)]
        assert sorted(exps, key=grlex_key) == [(0, 0), (1, 0), (0, 2), (1, 1), (2, 0)]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            st.fractions(min_value=-5, max_value=5),
        ),
        max_size=6,
    ),
    st.tuples(st.fractions(min_value=-2, max_value=2), st.fractions(min_value=-2, max_value=2)),
)
def test_product_evaluation_homomorphism(terms, pt):
    p = Polynomial(2, dict())
    for exp, c in terms:
        p = p + Polynomial.monomial(2, exp, c)
    q = p * p - p + 3
    lhs = q.evaluate_exact(pt)
    v = p.evaluate_exact(pt)
    assert lhs == v * v - v + 3
