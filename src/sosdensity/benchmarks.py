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

from .moments import Domain
from .polynomials import Polynomial, _integer, parse_polynomial

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


def _sum_source(template: str, n: int) -> str:
    return " + ".join(template.format(i=i + 1, j=i + 2) for i in range(n))


def _sign_grid(h: float) -> tuple[tuple[float, float], ...]:
    """The four points (+-h, +-h)."""
    return tuple((s1 * h, s2 * h) for s1 in (-1, 1) for s2 in (-1, 1))


def _styblinski_tang(n: int) -> TestCase:
    src = _sum_source("x{i}^4/2 - 8*x{i}^2 + 5*x{i}/2", n)
    box = Domain.box([(-5, 5)] * n)
    return TestCase("styblinski-tang", src, parse_polynomial(src, n), box, _ST_MIN_PER_DIM * n, ((_ST_ROOT,) * n,))


def _rosenbrock(n: int) -> TestCase:
    if n < 2:
        raise ValueError("rosenbrock needs n >= 2")
    src = _sum_source("100*(x{j} - x{i}^2)^2 + (x{i} - 1)^2", n - 1)
    side = Fraction(2048, 1000)
    return TestCase("rosenbrock", src, parse_polynomial(src, n), Domain.box([(-side, side)] * n), 0.0, ((1.0,) * n,))


# The bivariate entries, name -> (source, domain, minimizers); each has minimum 0.
_FIXED = {
    "booth": ("(x1 + 2*x2 - 7)^2 + (2*x1 + x2 - 5)^2", Domain.box([(-10, 10)] * 2), ((1.0, 3.0),)),
    "matyas": ("0.26*(x1^2 + x2^2) - 0.48*x1*x2", Domain.box([(-10, 10)] * 2), ((0.0, 0.0),)),
    "three-hump-camel": ("2*x1^2 - 1.05*x1^4 + x1^6/6 + x1*x2 + x2^2", Domain.box([(-5, 5)] * 2), ((0.0, 0.0),)),
    "motzkin": ("x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2 + 1", Domain.box([(-2, 2)] * 2), _sign_grid(1.0)),
    "matyas-modified-s": (
        "0.26*((20*x1 - 10)^2 + (20*x2 - 10)^2) - 0.48*(20*x1 - 10)*(20*x2 - 10)",
        Domain.simplex(2),
        ((0.5, 0.5),),
    ),
    "three-hump-camel-modified-s": (
        "2*(10*x1 - 5)^2 - 1.05*(10*x1 - 5)^4 + (10*x1 - 5)^6/6 + (10*x1 - 5)*(10*x2 - 5) + (10*x2 - 5)^2",
        Domain.simplex(2),
        ((0.5, 0.5),),
    ),
    "matyas-modified-b": (
        "0.26*((20*x1^2 - 10)^2 + (20*x2^2 - 10)^2) - 0.48*(20*x1^2 - 10)*(20*x2^2 - 10)",
        Domain.ball(2),
        _sign_grid(0.5**0.5),
    ),
    "three-hump-camel-modified-b": (
        "2*(10*x1^2 - 5)^2 - 1.05*(10*x1^2 - 5)^4 + (10*x1^2 - 5)^6/6 + (10*x1^2 - 5)*(10*x2^2 - 5) + (10*x2^2 - 5)^2",
        Domain.ball(2),
        _sign_grid(0.5**0.5),
    ),
}

_PARAMETRIC = {
    "styblinski-tang": _styblinski_tang,
    "rosenbrock": _rosenbrock,
}


def list_names() -> list[str]:
    """All catalog names, sorted."""
    return sorted(list(_FIXED) + list(_PARAMETRIC))


def get(name: str, n: int | None = None) -> TestCase:
    """Look up a benchmark by name; n is required for the parametric families
    and, when given, must be 2 for the bivariate ones."""
    if name not in _FIXED and name not in _PARAMETRIC:
        raise KeyError(f"unknown benchmark {name!r}; known: {', '.join(list_names())}")
    if n is not None:
        n = _integer(n, "n", 1)
    if name in _PARAMETRIC:
        if n is None:
            raise ValueError(f"{name!r} is parametric; pass n")
        return _PARAMETRIC[name](n)
    if n not in (None, 2):
        raise ValueError(f"{name!r} is bivariate; n={n} is not available")
    src, dom, mins = _FIXED[name]
    return TestCase(name, src, parse_polynomial(src, 2), dom, 0.0, mins)
