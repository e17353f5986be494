import gc
import itertools
import json
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from sosdensity import moments
from sosdensity.moments import (
    MAX_TABLE_ENTRIES,
    Domain,
    domain_from_json,
    integrate_poly,
    integrate_poly_exact,
    moment_rational,
    moment_table,
)
from sosdensity.polynomials import Polynomial, parse_polynomial


def _ball_moment(n: int, alpha) -> float:
    """m_alpha of the unit ball as a float: the integral of the monomial."""
    return integrate_poly(Domain.ball(n), Polynomial.monomial(n, alpha))


class TestDomain:
    def test_box_validation(self):
        with pytest.raises(ValueError):
            Domain.box([(1, 1)])
        with pytest.raises(ValueError):
            Domain("box", 2, None)
        with pytest.raises(ValueError):
            Domain("simplex", 2, ((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            Domain("pyramid", 2)

    @pytest.mark.parametrize("n", [True, 2.5, "3"])
    def test_non_integer_dimension(self, n):
        for kind in ("simplex", "ball"):
            with pytest.raises(ValueError, match="non-integer dimension"):
                Domain(kind, n)

    def test_integer_like_dimension(self):
        dom = Domain.simplex(np.int64(3))
        assert dom.n == 3 and type(dom.n) is int

    def test_contains(self):
        box = Domain.box([(0, 1), (-1, 1)])
        assert box.contains([0.5, 0.0])
        assert not box.contains([1.5, 0.0])
        s = Domain.simplex(2)
        assert s.contains([0.3, 0.7])
        assert not s.contains([0.6, 0.6])
        b = Domain.ball(2)
        assert b.contains([0.6, 0.6])
        assert not b.contains([0.8, 0.8])
        # a point of another length is not in K, whatever its entries
        for dom in (box, s, b):
            assert not dom.contains([0.1])
            assert not dom.contains([0.1, 0.1, 0.1])

    def test_volume(self):
        assert Domain.cube(3).volume() == 1.0
        assert Domain.simplex(3).volume() == pytest.approx(1 / 6)
        assert Domain.ball(2).volume() == pytest.approx(math.pi)
        assert Domain.ball(3).volume() == pytest.approx(4 * math.pi / 3)

    def test_json_roundtrip(self):
        for dom in [Domain.box([(Fraction(-21, 10), 2)]), Domain.simplex(3), Domain.ball(4)]:
            assert domain_from_json(json.dumps(dom.to_json())) == dom
            assert domain_from_json(dom.to_json()) == dom

    @pytest.mark.parametrize("text", [
        '[0,1]',
        '"box"',
        '{"kind":"box"}',
        '{"kind":"box","bounds":[[0]]}',
        '{"kind":"box","bounds":[[0,1,2]]}',
        '{"kind":"box","bounds":[0,1]}',
        '{"kind":"box","bounds":{"0":1}}',
        '{"kind":"simplex","n":1,"bounds":[["0","5"]]}',
        '{"kind":"box","bounds":[["0","1"]],"n":1}',
        '{"n":2}',
    ])
    def test_json_names_the_wire_forms(self, text):
        with pytest.raises(ValueError) as exc:
            domain_from_json(text)
        assert str(exc.value) == 'a domain is {"kind":"box","bounds":[[lo,hi],...]} or {"kind":"simplex"|"ball","n":n}'

    @pytest.mark.parametrize("text, message", [
        ('{"kind":"simplex"}', "non-integer dimension None"),
        ('{"kind":"ball","n":0}', "dimension must be >= 1"),
        ('{"kind":"cone","n":2}', "unknown domain kind 'cone'"),
    ])
    def test_json_leaves_checks_to_domain(self, text, message):
        # the wire form leaves the kind and n checks to Domain itself
        with pytest.raises(ValueError) as exc:
            domain_from_json(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("dom", [Domain.cube(2), Domain.simplex(2), Domain.ball(2)], ids=["box", "simplex", "ball"])
    def test_one_variables_rule_for_every_caller(self, dom):
        # f in one variable on a two-dimensional K: every entry point refuses it
        # in Domain.check_vars's words, before any centring or integration
        from sosdensity.bounds import assemble_AB, bound_sweep, compute_bound
        from sosdensity.rate import certificate, lipschitz_bound
        from sosdensity.sampling import build_chain

        f = parse_polynomial("x1", 1)
        calls = [
            lambda: compute_bound(f, dom, 1),
            lambda: bound_sweep(f, dom, 2),
            lambda: assemble_AB(f, dom, 1),
            lambda: lipschitz_bound(f, dom),
            lambda: certificate(f, dom, [0.25, 0.25], 1, 0.0),
            lambda: integrate_poly_exact(dom, f),
            lambda: dom.check_vars(parse_polynomial("x2", 2), f),
        ]
        if dom.kind != "ball":  # the sampler refuses the ball first
            calls.append(lambda: build_chain(f, dom))
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == "polynomial has 1 variables, domain has 2"
        dom.check_vars(parse_polynomial("x2", 2), parse_polynomial("x1", 2))


class TestBoxMoments:
    def test_closed_form(self):
        dom = Domain.box([(0, 1), (-1, 1)])
        assert moment_rational(dom, (2, 0)) == Fraction(2, 3)  # 1/3 * 2
        assert moment_rational(dom, (0, 1)) == 0
        assert moment_rational(dom, (3, 2)) == Fraction(1, 4) * Fraction(2, 3)

    def test_rational_bounds(self):
        dom = Domain.box([(Fraction(-2048, 1000), Fraction(2048, 1000))])
        assert moment_rational(dom, (1,)) == 0
        assert moment_rational(dom, (2,)) == 2 * Fraction(2048, 1000) ** 3 / 3


class TestSimplexMoments:
    def test_closed_form(self):
        dom = Domain.simplex(2)
        # m_alpha = prod(alpha_i!) / (|alpha| + n)!
        assert moment_rational(dom, (0, 0)) == Fraction(1, 2)
        assert moment_rational(dom, (1, 0)) == Fraction(1, 6)
        assert moment_rational(dom, (1, 1)) == Fraction(1, 24)
        assert moment_rational(dom, (2, 0)) == Fraction(2, 24)


class TestBallMoments:
    def test_odd_vanishes(self):
        assert _ball_moment(3, (1, 0, 0)) == 0.0
        assert _ball_moment(2, (2, 3)) == 0.0

    def test_even_closed_form(self):
        # n=2: volume pi; m_{(2,0)} = pi/4
        assert _ball_moment(2, (0, 0)) == pytest.approx(math.pi)
        assert _ball_moment(2, (2, 0)) == pytest.approx(math.pi / 4)
        assert _ball_moment(2, (2, 2)) == pytest.approx(math.pi / 24)
        # n=3: m_{(2,0,0)} = 4*pi/15
        assert _ball_moment(3, (2, 0, 0)) == pytest.approx(4 * math.pi / 15)

    def test_pi_multiple_structure(self):
        # the rational part times pi^(n//2), rounded as float(rational) * pi^2
        rational = moment_rational(Domain.ball(4), (2, 0, 0, 0))
        assert rational == Fraction(1, 12)
        assert _ball_moment(4, (2, 0, 0, 0)) == float(rational) * math.pi**2


def _entries(table) -> dict:
    """{alpha: rational part of m_alpha} read off a table: num / den."""
    alphas = map(tuple, table.decode(table.codes).tolist())
    return {alpha: Fraction(num, table.den) for alpha, num in zip(alphas, table.nums)}


class TestMomentTable:
    @pytest.mark.parametrize("dom", [Domain.box([(-2, 2), (0, 1)]), Domain.simplex(3), Domain.ball(2)])
    def test_matches_pointwise_oracle(self, dom):
        table = moment_table(dom, 6)
        n = dom.n
        # the nonzero moments: even alpha_1 on [-2, 2] x [0, 1], all on the
        # simplex, even alpha on the ball
        count = {"box": 16, "simplex": 84, "ball": 10}[dom.kind]
        assert len(table) == count
        assert table.codes.dtype == np.int64
        assert np.all(np.diff(table.codes) > 0)  # sorted, distinct
        assert np.array_equal(table.encode(table.decode(table.codes)), table.codes)
        assert table.scale == (math.pi ** (n // 2) if dom.kind == "ball" else 1.0)
        entries = _entries(table)
        assert len(entries) == count
        for alpha, val in entries.items():  # each alpha decoded from its code
            assert sum(alpha) <= 6
            assert val != 0 and val == moment_rational(dom, alpha)
        # a multi-index missing from the table has moment 0
        for alpha in itertools.product(range(7), repeat=n):
            if sum(alpha) <= 6 and alpha not in entries:
                assert moment_rational(dom, alpha) == 0

    @pytest.mark.parametrize("n,D", [(1, 0), (1, 7), (2, 5), (3, 6), (4, 9)])
    def test_holds_only_nonzero_moments(self, n, D):
        # odd exponents vanish on [-1, 1]^n and the ball, no moment on [0, 1]^n or the simplex
        half, full = math.comb(n + D // 2, n), math.comb(n + D, n)
        for dom, count in [(Domain.cube(n, -1, 1), half), (Domain.ball(n), half),
                           (Domain.cube(n), full), (Domain.simplex(n), full)]:
            assert len(moment_table(dom, D)) == count

    def test_caller_owns_the_table(self):
        table = moment_table(Domain.cube(2), 6)
        ref = weakref.ref(table)
        del table
        gc.collect()
        assert ref() is None

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            moment_table(Domain.cube(1), -1)

    def test_refuses_oversized_table(self):
        count = math.comb(10 + 64, 10)
        assert count > MAX_TABLE_ENTRIES
        with pytest.raises(ValueError, match=f"n = 10, degree 64 would hold {count} entries"):
            moment_table(Domain.cube(10), 64)

    def test_wide_codes(self):
        # (D+1)^n = 2^64 codes do not fit int64: the same path runs on Python ints
        dom = Domain.cube(64)
        table = moment_table(dom, 1)
        assert table.codes.dtype == object
        assert len(table) == 65
        entries = _entries(table)
        for alpha in [(0,) * 64, (1,) + (0,) * 63, (0,) * 63 + (1,)]:
            assert entries[alpha] == moment_rational(dom, alpha)


BOX_SIDES = [(Fraction(-3, 2), Fraction(7, 3)), (Fraction(1, 4), 2), (-2, Fraction(-1, 2)), (0, 5)]


def _closed_form(dom: Domain, alpha) -> float:
    """m_alpha(K) in floating point, written independently of the moment kernel."""
    if dom.kind == "box":
        return math.prod(
            (float(hi) ** (a + 1) - float(lo) ** (a + 1)) / (a + 1) for (lo, hi), a in zip(dom.bounds, alpha)
        )
    if dom.kind == "simplex":
        # Dirichlet's integral
        return math.prod(math.factorial(a) for a in alpha) / math.factorial(sum(alpha) + dom.n)
    if any(a % 2 for a in alpha):
        return 0.0
    return math.prod(math.gamma((a + 1) / 2) for a in alpha) / math.gamma(1 + (dom.n + sum(alpha)) / 2)


class TestClosedFormOracle:
    @pytest.mark.parametrize(
        "dom",
        [Domain.box(BOX_SIDES[:n]) for n in range(1, 5)]
        + [Domain.simplex(n) for n in range(1, 5)]
        + [Domain.ball(n) for n in range(1, 5)],
        ids=lambda d: f"{d.kind}-n{d.n}",
    )
    def test_every_moment_up_to_degree_6(self, dom):
        table = moment_table(dom, 6)
        entries = _entries(table)
        for alpha in itertools.product(range(7), repeat=dom.n):
            if sum(alpha) > 6:
                continue
            want = _closed_form(dom, alpha)
            got = integrate_poly(dom, Polynomial.monomial(dom.n, alpha))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            # a multi-index missing from the table reads as 0
            assert float(entries.get(alpha, 0)) * table.scale == pytest.approx(want, rel=1e-12, abs=0.0)


class TestIntegratePoly:
    def test_exact_box(self):
        f = parse_polynomial("x1^2*x2 + 1/2", 2)
        dom = Domain.cube(2)
        assert integrate_poly_exact(dom, f) == Fraction(1, 6) + Fraction(1, 2)

    def test_ball_carries_pi(self):
        # the exact value is the rational part; the float carries pi^(n//2)
        f = parse_polynomial("x1^2 + x2^2", 2)
        assert integrate_poly_exact(Domain.ball(2), f) == Fraction(1, 2)
        assert integrate_poly(Domain.ball(2), f) == pytest.approx(math.pi / 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            integrate_poly(Domain.cube(3), parse_polynomial("x1", 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["box", "simplex", "ball"])
    def test_equals_sum_of_moment_oracle(self, kind, n):
        # the one integer sum over a common denominator is the Fraction sum
        rng = random.Random(10 * n + len(kind))
        if kind == "box":
            dom = Domain.box([(Fraction(-rng.randint(1, 9), 4), Fraction(rng.randint(1, 9), 3)) for _ in range(n)])
        else:
            dom = Domain(kind, n)
        for _ in range(5):
            terms = {
                tuple(rng.randint(0, 5) for _ in range(n)): rng.choice(
                    [Fraction(rng.randint(-99, 99), rng.choice([1, 3, 7, 2**40, 10**9])), Fraction(rng.uniform(-2, 2))]
                )
                for _ in range(10)
            }
            p = Polynomial(n, terms)
            assert integrate_poly_exact(dom, p) == sum(c * moment_rational(dom, e) for e, c in p.terms.items())
        assert integrate_poly_exact(dom, Polynomial.zero(n)) == 0

    def test_sparse_high_dimension_builds_no_table(self, monkeypatch):
        # degree 28 in 10 variables: a table would hold C(38, 10) > 4e8 entries
        def no_table(*_):
            raise AssertionError("integrate_poly_exact built a moment table")

        monkeypatch.setattr(moments, "moment_table", no_table)
        dom = Domain.box([(Fraction(-1, 2), Fraction(3, 2))] * 10)
        p = Polynomial(10, {(28,) + (0,) * 9: Fraction(1, 3), (2,) * 10: 0.25, (0,) * 9 + (7,): -1, (0,) * 10: 5})
        assert p.degree == 28
        want = sum(c * moment_rational(dom, e) for e, c in p.terms.items())
        assert integrate_poly_exact(dom, p) == want


class TestAlphaValidation:
    def test_bad_multi_index(self):
        with pytest.raises(ValueError):
            moment_rational(Domain.cube(2), (1,))
        with pytest.raises(ValueError):
            moment_rational(Domain.cube(2), (-1, 0))
        for alpha in [(1.5, 0), ("2", 0)]:
            with pytest.raises(ValueError, match="non-integer multi-index"):
                moment_rational(Domain.cube(2), alpha)
