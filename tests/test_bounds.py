import hashlib
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
from sosdensity.benchmarks import get
from sosdensity.moments import Domain, integrate_poly, moment_rational, moment_table
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


_OBJECTIVES = {
    1: "x1^3 - 2*x1 + 1/3",
    2: "x1^2*x2 - 3/7*x2^2 + x1",
    3: "x1*x2*x3 - x1^2 + 5/2*x3 - 1",
    4: "x1*x4^2 - 2/3*x2*x3 + x4 - 1/5",
}
_DOMAINS = {
    "box": lambda n: Domain.box([(-1, 2), (Fraction(1, 3), 3), (-2, Fraction(-1, 2))][:n]),
    "box_frac": lambda n: Domain.box([(Fraction(-7, 3), Fraction(5, 4)), (Fraction(1, 6), Fraction(11, 5))][:n]),
    "simplex": Domain.simplex,
    "ball": Domain.ball,
}
_CASES = [(kind, n) for kind in ("ball", "box", "simplex") for n in (1, 2, 3)] + [("box_frac", 2), ("ball", 4)]


@pytest.mark.parametrize("r", range(4))
@pytest.mark.parametrize("kind,n", _CASES)
def test_assembly_exact_against_per_entry_reference(kind, n, r):
    f, dom = parse_polynomial(_OBJECTIVES[n], n), _DOMAINS[kind](n)
    A, B, basis = assemble_AB(f, dom, r)
    A_ref, B_ref, basis_ref = _reference_AB(f, dom, r)
    assert basis == basis_ref
    assert np.array_equal(A, A_ref)
    assert np.array_equal(B, B_ref)


# sha256 of A.tobytes() and B.tobytes() from the assembly that summed a
# Fraction moment table entry by entry, which the integer gather replaced
@pytest.mark.parametrize("name,n,r,digests", [
    ("styblinski-tang", 10, 3, (
        "fcec79d55d46be54089e22fd7d0ff96e82ddf1ef7d2fe8d1b91c8407de5349f3",
        "de5c7d67303afaa51ef8e3af27189b39dbe60bdac8197e36911b5b261211b470",
    )),
    ("motzkin", None, 12, (
        "de94e107ea5ea9b00e0ceedd0b5360a7bf980dd5c6324a7474b8557b64182174",
        "c7140c8c0ae7432c2937f215040625db7a5022624f825a99b90c9e1bcdd25cee",
    )),
    ("matyas-modified-s", None, 10, (
        "12697547be4bd7320fa424351f924bd2f00b359a968be7afc8cae642b7c25709",
        "8a1e51ffc5f7470298ed42de1be2caf829194473770000d3e3f90dbc88ad2a06",
    )),
    ("three-hump-camel-modified-b", None, 10, (
        "f16ff842ad9dde65f2c239cc2b88d2e6b2ada645c78d81c79812c283a91d1419",
        "319aeaa1779ef8787c61fafb823a580ad6b2518b921b9db1ba94cd0440447ed1",
    )),
], ids=["styblinski-tang-n10", "motzkin", "matyas-modified-s", "three-hump-camel-modified-b"])
def test_assembly_digests(name, n, r, digests):
    tc = get(name, n) if n else get(name)
    A, B, _ = assemble_AB(tc.f, tc.domain, r)
    assert hashlib.sha256(A.tobytes()).hexdigest() == digests[0]
    assert hashlib.sha256(B.tobytes()).hexdigest() == digests[1]


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

    def test_table_must_cover_the_order(self):
        f = parse_polynomial("x1^2", 2)
        with pytest.raises(ValueError):
            assemble_AB(f, Domain.cube(2), 2, table=moment_table(Domain.cube(2), 5))
        with pytest.raises(ValueError):
            assemble_AB(f, Domain.cube(2), 2, table=moment_table(Domain.simplex(2), 6))

    def test_wide_codes(self):
        # 2^64 codes: the table keeps Python-int codes, the gather is the same
        dom = Domain.cube(64)
        f = Polynomial(64, {(1,) + (0,) * 63: Fraction(1)})
        A, B, basis = assemble_AB(f, dom, 0)
        assert basis == ((0,) * 64,)
        assert A.tolist() == [[float(moment_rational(dom, (1,) + (0,) * 63))]]
        assert B.tolist() == [[float(moment_rational(dom, (0,) * 64))]]


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



def _smallest_node(r: int) -> float:
    return float(np.polynomial.legendre.leggauss(r + 1)[0][0])


class TestLegendreOracle:
    """For f = x1 on [-1, 1]^n the order-r bound is the smallest zero of the
    Legendre polynomial of degree r+1 (the smallest eigenvalue of its
    (r+1)x(r+1) Jacobi matrix); for -x1 it is minus the largest, the same
    number by symmetry, and an affine image [a, b] maps the nodes."""

    TOL = 1e-10

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("r", range(14))
    def test_interval(self, r, sign):
        f = Polynomial(1, {(1,): Fraction(sign)})
        assert abs(compute_bound(f, Domain.cube(1, -1, 1), r).value - _smallest_node(r)) <= self.TOL

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("r", [3, 6, 9])
    def test_square(self, r, sign):
        f = Polynomial(2, {(1, 0): Fraction(sign)})
        assert abs(compute_bound(f, Domain.cube(2, -1, 1), r).value - _smallest_node(r)) <= self.TOL

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("r", range(7))
    def test_affine_interval(self, r, sign):
        a, b = Fraction(-1, 2), Fraction(5, 2)
        f = Polynomial(1, {(1,): Fraction(sign)})
        # min of sign*x over the nodes mapped to [a, b]
        want = (float(a) + float(b - a) * (_smallest_node(r) + 1) / 2) if sign > 0 else \
            -(float(b) - float(b - a) * (_smallest_node(r) + 1) / 2)
        assert abs(compute_bound(f, Domain.box([(a, b)]), r).value - want) <= self.TOL

    # double precision on the monomial basis loses the oracle from r ~ 14 on
    # (r = 14..17 sit near the tolerance and are left out); from r = 23 on B
    # is refused as too ill-conditioned
    @pytest.mark.xfail(strict=True, raises=(AssertionError, ConditioningError))
    @pytest.mark.parametrize("r", range(18, 41))
    def test_interval_high_order(self, r):
        f = parse_polynomial("x1", 1)
        assert abs(compute_bound(f, Domain.cube(1, -1, 1), r).value - _smallest_node(r)) <= self.TOL
