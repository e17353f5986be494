import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from sosdensity.moments import (
    MAX_TABLE_ENTRIES,
    Domain,
    PiMultiple,
    domain_from_json,
    integrate_poly,
    integrate_poly_exact,
    moment,
    moment_rational,
    moment_table,
)
from sosdensity.polynomials import parse_polynomial


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

    def test_volume(self):
        assert Domain.cube(3).volume() == 1.0
        assert Domain.simplex(3).volume() == pytest.approx(1 / 6)
        assert Domain.ball(2).volume() == pytest.approx(math.pi)
        assert Domain.ball(3).volume() == pytest.approx(4 * math.pi / 3)

    def test_json_roundtrip(self):
        for dom in [Domain.box([(Fraction(-21, 10), 2)]), Domain.simplex(3), Domain.ball(4)]:
            assert domain_from_json(json.dumps(dom.to_json())) == dom


class TestBoxMoments:
    def test_closed_form(self):
        dom = Domain.box([(0, 1), (-1, 1)])
        assert moment(dom, (2, 0)) == Fraction(2, 3)  # 1/3 * 2
        assert moment(dom, (0, 1)) == 0
        assert moment(dom, (3, 2)) == Fraction(1, 4) * Fraction(2, 3)

    def test_rational_bounds(self):
        dom = Domain.box([(Fraction(-2048, 1000), Fraction(2048, 1000))])
        assert moment(dom, (1,)) == 0
        assert moment(dom, (2,)) == 2 * Fraction(2048, 1000) ** 3 / 3


class TestSimplexMoments:
    def test_closed_form(self):
        dom = Domain.simplex(2)
        # m_alpha = prod(alpha_i!) / (|alpha| + n)!
        assert moment(dom, (0, 0)) == Fraction(1, 2)
        assert moment(dom, (1, 0)) == Fraction(1, 6)
        assert moment(dom, (1, 1)) == Fraction(1, 24)
        assert moment(dom, (2, 0)) == Fraction(2, 24)


class TestBallMoments:
    def test_odd_vanishes(self):
        assert float(moment(Domain.ball(3), (1, 0, 0))) == 0.0
        assert float(moment(Domain.ball(2), (2, 3))) == 0.0

    def test_even_closed_form(self):
        # n=2: volume pi; m_{(2,0)} = pi/4
        assert float(moment(Domain.ball(2), (0, 0))) == pytest.approx(math.pi)
        assert float(moment(Domain.ball(2), (2, 0))) == pytest.approx(math.pi / 4)
        assert float(moment(Domain.ball(2), (2, 2))) == pytest.approx(math.pi / 24)
        # n=3: m_{(2,0,0)} = 4*pi/15
        assert float(moment(Domain.ball(3), (2, 0, 0))) == pytest.approx(4 * math.pi / 15)

    def test_pi_multiple_structure(self):
        m = moment(Domain.ball(4), (2, 0, 0, 0))
        assert isinstance(m, PiMultiple)
        assert m.pi_power == 2
        assert moment_rational(Domain.ball(4), (2, 0, 0, 0)) == m.coef


def _entries(table) -> dict:
    """{alpha: rational part of m_alpha} read off a table: num / den."""
    alphas = map(tuple, table.decode(table.codes).tolist())
    return {alpha: Fraction(num, table.den) for alpha, num in zip(alphas, table.nums)}


class TestMomentTable:
    @pytest.mark.parametrize("dom", [Domain.box([(-2, 2), (0, 1)]), Domain.simplex(3), Domain.ball(2)])
    def test_matches_pointwise_oracle(self, dom):
        table = moment_table(dom, 6)
        n = dom.n
        count = math.comb(n + 6, 6)
        assert len(table) == count
        assert table.codes.dtype == np.int64
        assert np.all(np.diff(table.codes) > 0)  # sorted, distinct
        assert np.array_equal(table.encode(table.decode(table.codes)), table.codes)
        assert table.scale == (math.pi ** (n // 2) if dom.kind == "ball" else 1.0)
        entries = _entries(table)
        assert len(entries) == count
        for (alpha, val), deg in zip(entries.items(), table.degrees):
            assert sum(alpha) == deg <= 6
            assert val == moment_rational(dom, alpha)

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
            assert float(moment(dom, alpha)) == pytest.approx(want, rel=1e-12, abs=0.0)
            assert float(entries[alpha]) * table.scale == pytest.approx(want, rel=1e-12, abs=0.0)


class TestIntegratePoly:
    def test_exact_box(self):
        f = parse_polynomial("x1^2*x2 + 1/2", 2)
        dom = Domain.cube(2)
        assert integrate_poly_exact(dom, f) == Fraction(1, 6) + Fraction(1, 2)

    def test_ball_carries_pi(self):
        f = parse_polynomial("x1^2 + x2^2", 2)
        val = integrate_poly_exact(Domain.ball(2), f)
        assert isinstance(val, PiMultiple)
        assert float(val) == pytest.approx(math.pi / 2)
        assert integrate_poly(Domain.ball(2), f) == pytest.approx(math.pi / 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            integrate_poly(Domain.cube(3), parse_polynomial("x1", 2))


class TestAlphaValidation:
    def test_bad_multi_index(self):
        with pytest.raises(ValueError):
            moment(Domain.cube(2), (1,))
        with pytest.raises(ValueError):
            moment(Domain.cube(2), (-1, 0))
