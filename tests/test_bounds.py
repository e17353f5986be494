import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sosdensity.bounds import (
    ConditioningError,
    assemble_AB,
    bound_sweep,
    compute_bound,
    smallest_generalized_eigenpair,
)
from sosdensity.moments import Domain, integrate_poly, moment_rational
from sosdensity.polynomials import Polynomial, grlex_key, parse_polynomial


class TestMonomialBasis:
    """The basis assemble_AB reads off the moment table."""

    @pytest.mark.parametrize("n,r", [(1, 0), (2, 3), (3, 4)])
    def test_size_and_order(self, n, r):
        _, _, basis = assemble_AB(Polynomial.constant(n, 1), Domain.cube(n), r)
        assert len(basis) == math.comb(n + r, r)
        assert list(basis) == sorted(basis, key=grlex_key)
        assert basis[0] == (0,) * n

    def test_vector_to_polynomial(self):
        # the density is g^2 with g = sum_i v_i x^{basis_i}
        f = parse_polynomial("x1^2 - x1*x2", 2)
        b = compute_bound(f, Domain.cube(2), 1)
        assert b.basis == ((0, 0), (0, 1), (1, 0))  # grlex
        g = Polynomial(2, {exp: Fraction(float(c)) for exp, c in zip(b.basis, b.eigvec)})
        assert b.density == g * g

    def test_negative_order(self):
        with pytest.raises(ValueError):
            assemble_AB(parse_polynomial("x1", 2), Domain.cube(2), -1)


def _reference_AB(f, dom, r):
    """Plain per-entry assembly: every (a, b) pair gets its own exact sums."""
    basis = sorted((a for a in itertools.product(range(r + 1), repeat=dom.n) if sum(a) <= r), key=grlex_key)
    scale = math.pi ** (dom.n // 2) if dom.kind == "ball" else 1.0
    m = len(basis)
    A, B = np.empty((m, m)), np.empty((m, m))
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            ab = tuple(x + y for x, y in zip(a, b))
            B[i, j] = float(moment_rational(dom, ab)) * scale
            acc = sum(
                (c * moment_rational(dom, tuple(x + y for x, y in zip(ab, d))) for d, c in f.terms.items()),
                Fraction(0),
            )
            A[i, j] = float(acc) * scale
    return A, B, tuple(basis)


_OBJECTIVES = {1: "x1^3 - 2*x1 + 1/3", 2: "x1^2*x2 - 3/7*x2^2 + x1", 3: "x1*x2*x3 - x1^2 + 5/2*x3 - 1"}
_DOMAINS = {
    "box": lambda n: Domain.box([(-1, 2), (Fraction(1, 3), 3), (-2, Fraction(-1, 2))][:n]),
    "simplex": Domain.simplex,
    "ball": Domain.ball,
}


@pytest.mark.parametrize("r", range(4))
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(_DOMAINS))
def test_assembly_exact_against_per_entry_reference(kind, n, r):
    f, dom = parse_polynomial(_OBJECTIVES[n], n), _DOMAINS[kind](n)
    A, B, basis = assemble_AB(f, dom, r)
    A_ref, B_ref, basis_ref = _reference_AB(f, dom, r)
    assert basis == basis_ref
    assert np.array_equal(A, A_ref)
    assert np.array_equal(B, B_ref)


class TestAssembly:
    def test_matrices_against_hand_computation(self):
        # f = x on [0,1], r=1: basis {1, x};
        # B = [[1, 1/2], [1/2, 1/3]], A = [[1/2, 1/3], [1/3, 1/4]]
        f = parse_polynomial("x1", 1)
        A, B, basis = assemble_AB(f, Domain.cube(1), 1)
        assert np.allclose(B, [[1, 0.5], [0.5, 1 / 3]])
        assert np.allclose(A, [[0.5, 1 / 3], [1 / 3, 0.25]])

    def test_symmetry(self):
        f = parse_polynomial("x1^2*x2 - x2 + 1", 2)
        A, B, _ = assemble_AB(f, Domain.box([(-2, 2), (0, 3)]), 3)
        assert np.array_equal(A, A.T)
        assert np.array_equal(B, B.T)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            assemble_AB(parse_polynomial("x1", 1), Domain.cube(2), 1)


class TestEigenpair:
    def test_rejects_indefinite(self):
        A = np.eye(2)
        B = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(ConditioningError):
            smallest_generalized_eigenpair(A, B)

    def test_diagonal_pencil(self):
        A = np.diag([3.0, 1.0, 2.0])
        B = np.eye(3)
        lam, v, cond = smallest_generalized_eigenpair(A, B)
        assert lam == pytest.approx(1.0)
        assert cond == pytest.approx(1.0)
        assert abs(v[1]) == pytest.approx(1.0)


class TestComputeBound:
    def test_r0_gives_mean_value(self):
        # constant density: bound = average of f over the domain
        f = parse_polynomial("x1", 1)
        b = compute_bound(f, Domain.cube(1), 0)
        assert b.value == pytest.approx(0.5, abs=1e-12)

    def test_density_normalized_and_sos(self):
        f = parse_polynomial("x1^2 - x1*x2", 2)
        dom = Domain.box([(-1, 2), (0, 1)])
        b = compute_bound(f, dom, 3)
        assert integrate_poly(dom, b.density) == pytest.approx(1.0, abs=1e-9)
        # density is an explicit square, hence nonnegative everywhere
        rng = np.random.default_rng(0)
        pts = rng.uniform([-1, 0], [2, 1], size=(200, 2))
        assert min(b.density.evaluate(pts)) >= 0.0
        # bound equals the expectation of f under the density
        fh = f * b.density
        assert integrate_poly(dom, fh) == pytest.approx(b.value, rel=1e-9)

    def test_residual_small(self):
        f = parse_polynomial("x1^4 - x1^2", 1)
        b = compute_bound(f, Domain.box([(-2, 2)]), 6)
        assert b.residual < 1e-8

    def test_constant_objective(self):
        b = compute_bound(parse_polynomial("5", 1), Domain.cube(1), 3)
        assert b.value == pytest.approx(5.0, abs=1e-9)

    def test_equality_is_identity_and_hashable(self):
        x1 = parse_polynomial("x1", 1)
        a = compute_bound(x1, Domain.box([(0, 1)]), 1)
        b = compute_bound(x1, Domain.box([(0, 1)]), 1)
        assert a == a
        assert a != b  # identity, not content: eigvec is an array
        assert isinstance(hash(a), int)


class TestSweep:
    def test_monotone_and_shared_table(self):
        f = parse_polynomial("x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2 + 1", 2)
        res = bound_sweep(f, Domain.box([(-2, 2), (-2, 2)]), 6)
        vals = [b.value for b in res]
        assert len(vals) == 6
        assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(len(vals) - 1))

    def test_empty_range(self):
        with pytest.raises(ValueError):
            bound_sweep(parse_polynomial("x1", 1), Domain.cube(1), 1, r_min=2)

    def test_stops_on_conditioning(self):
        # wide 1-D box at high order overruns double precision even after
        # equilibration; the sweep truncates instead of returning noise
        f = parse_polynomial("x1", 1)
        res = bound_sweep(f, Domain.box([(0, 1000)]), 40)
        assert 0 < len(res) < 40
        with pytest.raises(ConditioningError) as exc:
            compute_bound(f, Domain.box([(0, 1000)]), 40)
        assert "reduce r or rescale" in str(exc.value)

