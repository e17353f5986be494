"""The benchmark corpus: ten standard global-optimization test functions.

Four bivariate functions over boxes, two parametric families over boxes,
two affinely rescaled variants over the standard simplex ("-modified-s"),
and two quadratically rescaled variants over the unit ball ("-modified-b").
Every entry carries its ground-truth minimum and minimizer list, checked by
direct evaluation in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index

from .moments import Domain
from .polynomials import Polynomial, parse_polynomial

__all__ = ["TestCase", "get", "list_names"]

# Minimizer of x^4/2 - 8x^2 + 5x/2 per coordinate (root of 2x^3 - 16x + 5/2),
# and the corresponding per-coordinate minimum value.  Benchmark listings
# often truncate these; the values below are correct to the digits shown.
_ST_ROOT = -2.9035340277711771
_ST_MIN_PER_DIM = -39.166165703771415


@dataclass(frozen=True)
class TestCase:
    """A benchmark instance: formula (source text + parsed form), domain,
    and ground truth."""

    name: str
    source: str
    f: Polynomial
    domain: Domain
    f_min: float
    minimizers: tuple[tuple[float, ...], ...]

    @property
    def n(self) -> int:
        return self.domain.n


def _sum_source(template: str, n: int, joiner: str = " + ") -> str:
    return joiner.join(template.format(i=i + 1, j=i + 2) for i in range(n))


def _booth() -> TestCase:
    src = "(x1 + 2*x2 - 7)^2 + (2*x1 + x2 - 5)^2"
    return TestCase("booth", src, parse_polynomial(src, 2), Domain.box([(-10, 10)] * 2), 0.0, ((1.0, 3.0),))


def _matyas() -> TestCase:
    src = "0.26*(x1^2 + x2^2) - 0.48*x1*x2"
    return TestCase("matyas", src, parse_polynomial(src, 2), Domain.box([(-10, 10)] * 2), 0.0, ((0.0, 0.0),))


def _three_hump() -> TestCase:
    src = "2*x1^2 - 1.05*x1^4 + x1^6/6 + x1*x2 + x2^2"
    return TestCase(
        "three-hump-camel", src, parse_polynomial(src, 2), Domain.box([(-5, 5)] * 2), 0.0, ((0.0, 0.0),)
    )


def _motzkin() -> TestCase:
    src = "x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2 + 1"
    mins = tuple((float(s1), float(s2)) for s1 in (-1, 1) for s2 in (-1, 1))
    return TestCase("motzkin", src, parse_polynomial(src, 2), Domain.box([(-2, 2)] * 2), 0.0, mins)


def _styblinski_tang(n: int) -> TestCase:
    src = _sum_source("x{i}^4/2 - 8*x{i}^2 + 5*x{i}/2", n)
    return TestCase(
        "styblinski-tang",
        src,
        parse_polynomial(src, n),
        Domain.box([(-5, 5)] * n),
        _ST_MIN_PER_DIM * n,
        ((_ST_ROOT,) * n,),
    )


def _rosenbrock(n: int) -> TestCase:
    if n < 2:
        raise ValueError("rosenbrock needs n >= 2")
    src = _sum_source("100*(x{j} - x{i}^2)^2 + (x{i} - 1)^2", n - 1)
    side = Fraction(2048, 1000)
    return TestCase(
        "rosenbrock",
        src,
        parse_polynomial(src, n),
        Domain.box([(-side, side)] * n),
        0.0,
        ((1.0,) * n,),
    )


def _matyas_mod_s() -> TestCase:
    src = "0.26*((20*x1 - 10)^2 + (20*x2 - 10)^2) - 0.48*(20*x1 - 10)*(20*x2 - 10)"
    return TestCase("matyas-modified-s", src, parse_polynomial(src, 2), Domain.simplex(2), 0.0, ((0.5, 0.5),))


def _three_hump_mod_s() -> TestCase:
    src = (
        "2*(10*x1 - 5)^2 - 1.05*(10*x1 - 5)^4 + (10*x1 - 5)^6/6"
        " + (10*x1 - 5)*(10*x2 - 5) + (10*x2 - 5)^2"
    )
    return TestCase(
        "three-hump-camel-modified-s", src, parse_polynomial(src, 2), Domain.simplex(2), 0.0, ((0.5, 0.5),)
    )


def _matyas_mod_b() -> TestCase:
    src = "0.26*((20*x1^2 - 10)^2 + (20*x2^2 - 10)^2) - 0.48*(20*x1^2 - 10)*(20*x2^2 - 10)"
    h = 0.5**0.5
    mins = tuple((s1 * h, s2 * h) for s1 in (-1, 1) for s2 in (-1, 1))
    return TestCase("matyas-modified-b", src, parse_polynomial(src, 2), Domain.ball(2), 0.0, mins)


def _three_hump_mod_b() -> TestCase:
    src = (
        "2*(10*x1^2 - 5)^2 - 1.05*(10*x1^2 - 5)^4 + (10*x1^2 - 5)^6/6"
        " + (10*x1^2 - 5)*(10*x2^2 - 5) + (10*x2^2 - 5)^2"
    )
    h = 0.5**0.5
    mins = tuple((s1 * h, s2 * h) for s1 in (-1, 1) for s2 in (-1, 1))
    return TestCase("three-hump-camel-modified-b", src, parse_polynomial(src, 2), Domain.ball(2), 0.0, mins)


_FIXED = {
    "booth": _booth,
    "matyas": _matyas,
    "three-hump-camel": _three_hump,
    "motzkin": _motzkin,
    "matyas-modified-s": _matyas_mod_s,
    "three-hump-camel-modified-s": _three_hump_mod_s,
    "matyas-modified-b": _matyas_mod_b,
    "three-hump-camel-modified-b": _three_hump_mod_b,
}

_PARAMETRIC = {
    "styblinski-tang": _styblinski_tang,
    "rosenbrock": _rosenbrock,
}


def list_names() -> list[str]:
    """All catalog names, sorted."""
    return sorted(list(_FIXED) + list(_PARAMETRIC))


def get(name: str, n: int | None = None) -> TestCase:
    """Look up a benchmark by name; n is required for the parametric families."""
    if name in _FIXED:
        if n is not None and n != 2:
            raise ValueError(f"{name!r} is bivariate; n={n} is not available")
        return _FIXED[name]()
    if name in _PARAMETRIC:
        if n is None:
            raise ValueError(f"{name!r} is parametric; pass n")
        try:
            k = index(n)
        except TypeError:
            k = None
        if isinstance(n, bool) or k is None or k < 1:
            raise ValueError(f"n must be an integer >= 1, not {n!r}")
        return _PARAMETRIC[name](k)
    raise KeyError(f"unknown benchmark {name!r}; known: {', '.join(list_names())}")
