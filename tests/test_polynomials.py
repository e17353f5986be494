import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosdensity import benchmarks
from sosdensity.certificate import _domain_grid
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
        p = Polynomial(2, {(True, np.int64(3)): 1, (np.uint8(2), 0): 2})
        assert list(p.terms) == [(1, 3), (2, 0)]
        assert all(type(e) is int for exp in p.terms for e in exp)

    def test_validation(self):
        with pytest.raises(ValueError):
            Polynomial(0, {})
        with pytest.raises(ValueError):
            Polynomial(2, {(1,): 1})
        with pytest.raises(ValueError):
            Polynomial(1, {(-1,): 1})
        with pytest.raises(ValueError):
            Polynomial.variable(2, 2)


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


class TestBatchEvaluation:
    """A batch gives every row the bits of evaluating that row on its own."""

    @pytest.mark.parametrize("name", benchmarks.list_names())
    def test_catalog_grids(self, name):
        try:
            tc = benchmarks.get(name)
        except ValueError:  # a parametric family
            tc = benchmarks.get(name, 2)
        grid = _domain_grid(tc.domain)
        values = tc.f.evaluate(grid)
        assert np.array_equal(values, _pointwise(tc.f, grid))
        # one-point calls on every 25th row (a full loop would take seconds per grid)
        assert np.array_equal(values[::25], [tc.f.evaluate(p) for p in grid[::25]])

    def test_powers_are_cpython_pow(self):
        # numpy's array ** rounds differently from CPython's float pow at some
        # simplex grid points, so switching evaluate to it must fail here
        grid = _domain_grid(Domain.simplex(2))
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

    def test_substitute_affine(self):
        p = x**2 + y
        q = p.substitute_affine([Fraction(1, 2), 2], [1, -1])  # x -> z/2+1, y -> 2w-1
        assert q.evaluate([2.0, 3.0]) == p.evaluate([2.0, 5.0])
        with pytest.raises(ValueError):
            p.substitute_affine([0, 1], [0, 0])


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

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("x1 + x9", 2)
        assert "position" in str(exc.value)


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
