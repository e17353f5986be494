"""Measure-based sum-of-squares upper bounds for polynomial minimization.

The order-r bound is the smallest expected value of the polynomial under a
degree-2r sum-of-squares probability density on the domain (a box, the
standard simplex, or the unit ball).  It is computed exactly as the smallest
generalized eigenvalue of a pair of moment matrices; the optimal density is
recovered from the eigenvector, feasible points can be sampled from it, and
an explicit O(1/sqrt(r)) rate certificate can be evaluated.
"""

from . import benchmarks, bounds, moments, polynomials, rate, sampling
from .benchmarks import *
from .bounds import *
from .moments import *
from .polynomials import *
from .rate import *
from .sampling import *

__version__ = "0.1.0"

__all__ = [
    *benchmarks.__all__,
    *bounds.__all__,
    *moments.__all__,
    *polynomials.__all__,
    *rate.__all__,
    *sampling.__all__,
    "__version__",
]
