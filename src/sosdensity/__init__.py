"""Measure-based sum-of-squares upper bounds for polynomial minimization.

The order-r bound is the smallest expected value of the polynomial under a
degree-2r sum-of-squares probability density on the domain (a box, the
standard simplex, or the unit ball).  It is computed exactly as the smallest
generalized eigenvalue of a pair of moment matrices; the optimal density is
recovered from the eigenvector, feasible points can be sampled from it, and
an explicit O(1/sqrt(r)) rate certificate can be evaluated.
"""

from .benchmarks import TestCase, get, list_names
from .bounds import (
    BoundResult,
    ConditioningError,
    assemble_AB,
    bound_sweep,
    compute_bound,
    smallest_generalized_eigenpair,
)
from .certificate import (
    CertificateReport,
    GeomParams,
    certificate,
    gaussian_mass,
    geom_params,
    lipschitz_bound,
    p_constant,
    phi_coeffs,
    taylor_density,
)
from .moments import (
    Domain,
    MomentTable,
    domain_from_json,
    integrate_poly,
    integrate_poly_exact,
    moment_rational,
    moment_table,
)
from .polynomials import ParseError, Polynomial, parse_polynomial
from .sampling import (
    CdfSlice,
    ConditionalChain,
    DegeneratePrefixError,
    SampleBatch,
    build_chain,
    conditional_cdf,
    invert_cdf,
    markov_check,
    sample,
    write_batch_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "ParseError",
    "parse_polynomial",
    "Domain",
    "domain_from_json",
    "moment_rational",
    "moment_table",
    "MomentTable",
    "integrate_poly",
    "integrate_poly_exact",
    "BoundResult",
    "ConditioningError",
    "assemble_AB",
    "smallest_generalized_eigenpair",
    "compute_bound",
    "bound_sweep",
    "ConditionalChain",
    "CdfSlice",
    "SampleBatch",
    "DegeneratePrefixError",
    "build_chain",
    "conditional_cdf",
    "invert_cdf",
    "sample",
    "markov_check",
    "write_batch_csv",
    "GeomParams",
    "CertificateReport",
    "geom_params",
    "p_constant",
    "phi_coeffs",
    "taylor_density",
    "gaussian_mass",
    "lipschitz_bound",
    "certificate",
    "TestCase",
    "get",
    "list_names",
    "__version__",
]
