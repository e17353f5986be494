import functools
import hashlib
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sosdensity import bounds, golden
from sosdensity.bounds import (
    ConditioningError,
    _check_pencil_size,
    _quotients,
    _sweep_pencil,
    assemble_AB,
    bound_sweep,
    compute_bound,
    smallest_generalized_eigenpair,
)
from sosdensity.benchmarks import get
from sosdensity.moments import Domain, integrate_poly, moment_rational
from sosdensity.polynomials import Polynomial, grlex_key, parse_polynomial

# what a refusal for a value past the floats says after its cause; it names no
# condition number and advises no lower order
OUT_OF_RANGE = "; K's extent or f's coefficients leave the float range"


class TestMonomialBasis:
    """The grlex basis assemble_AB enumerates."""

    @pytest.mark.parametrize("n,r", [(1, 0), (2, 3), (3, 4)])
    def test_size_and_order(self, n, r):
        _, _, basis = assemble_AB(Polynomial.constant(n, 1), Domain.cube(n), r)
        assert len(basis) == math.comb(n + r, r)
        assert list(basis) == sorted(basis, key=grlex_key)
        assert basis[0] == (0,) * n

    def test_vector_to_polynomial(self):
        # the density is g^2 with g = sum_i v_i (x - shift)^{basis_i}, shift
        # the centre of [0, 1]^2
        f = parse_polynomial("x1^2 - x1*x2", 2)
        b = compute_bound(f, Domain.cube(2), 1)
        assert b.basis == ((0, 0), (0, 1), (1, 0))  # grlex
        assert b.shift == (Fraction(1, 2), Fraction(1, 2))
        y = [Polynomial.variable(2, i) - c for i, c in enumerate(b.shift)]
        g = Polynomial.zero(2)
        for a, v in zip(b.basis, b.eigvec):
            g = g + Fraction(float(v)) * y[0] ** a[0] * y[1] ** a[1]
        assert b.density == g * g

    def test_centred_box_keeps_monomials_in_x(self):
        f = parse_polynomial("x1^2 - x1*x2", 2)
        b = compute_bound(f, Domain.cube(2, -1, 1), 2)
        assert b.shift is None
        g = Polynomial(2, {exp: Fraction(float(c)) for exp, c in zip(b.basis, b.eigvec)})
        assert b.density == g * g

    def test_negative_order(self):
        with pytest.raises(ValueError):
            assemble_AB(parse_polynomial("x1", 2), Domain.cube(2), -1)


def _reference_AB(f, dom, r):
    """Plain per-entry assembly: every (a, b) pair gets its own exact sums."""
    # a multiset of k <= r coordinates is the monomial of degree k that takes them
    picks = (c for k in range(r + 1) for c in itertools.combinations_with_replacement(range(dom.n), k))
    basis = sorted((tuple(map(c.count, range(dom.n))) for c in picks), key=grlex_key)
    scale = math.pi ** (dom.n // 2) if dom.kind == "ball" else 1.0
    m = len(basis)
    A, B = np.empty((m, m)), np.empty((m, m))
    moment = functools.cache(lambda alpha: moment_rational(dom, alpha))  # each pair still sums its own
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            ab = tuple(x + y for x, y in zip(a, b))
            B[i, j] = float(moment(ab)) * scale
            acc = sum(
                (c * moment(tuple(x + y for x, y in zip(ab, d))) for d, c in f.terms.items()),
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
    ("rosenbrock", 10, 3, (
        "076b730eeca4d98f50b6ae2ee39fae83488cdf2416e7bf6ff39371f4b6ad724c",
        "c0491cfa24d23f941d1a44d524bf543a86520aa1907654ff0774ab4b924029c7",
    )),
], ids=["styblinski-tang-n10", "motzkin", "matyas-modified-s", "three-hump-camel-modified-b", "rosenbrock-n10"])
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

    def test_pencil_solves_only_its_orders(self):
        # a sweep's pencil solves the orders 0..top on their leading blocks,
        # with the bits of assembling that order alone, and refuses any other
        f = parse_polynomial("x1*x2", 2)
        dom = Domain.box([(0, 3), (-1, 2)])
        with pytest.raises(ValueError, match=r"solves orders 0\.\.1, not 2"):
            _sweep_pencil(f, dom, 1).solve(2)
        with pytest.raises(ValueError, match=r"solves orders 0\.\.1, not -1"):
            _sweep_pencil(f, dom, 1).solve(-1)
        pencil = _sweep_pencil(f, dom, 2)
        with pytest.raises(TypeError):
            iter(pencil)  # a record, not a tuple to unpack
        swept, one = pencil.solve(2), compute_bound(f, dom, 2)
        assert (swept.value, swept.cond_B, swept.residual) == (one.value, one.cond_B, one.residual)
        assert swept.eigvec.tobytes() == one.eigvec.tobytes()

    def test_wide_codes_against_per_entry_reference(self):
        # 4^64 codes on [-1, 1]^64: the sums, the basis and every look-up run
        # on Python-int codes, and each odd moment is missing from the table
        f = parse_polynomial("x1 + x64", 64)
        dom = Domain.cube(64, -1, 1)
        A, B, basis = assemble_AB(f, dom, 1)
        A_ref, B_ref, basis_ref = _reference_AB(f, dom, 1)
        assert basis == basis_ref
        assert np.array_equal(A, A_ref)
        assert np.array_equal(B, B_ref)

    def test_wide_codes(self):
        # 2^64 codes: the table keeps Python-int codes, the gather is the same
        dom = Domain.cube(64)
        f = Polynomial(64, {(1,) + (0,) * 63: Fraction(1)})
        A, B, basis = assemble_AB(f, dom, 0)
        assert basis == ((0,) * 64,)
        assert A.tolist() == [[float(moment_rational(dom, (1,) + (0,) * 63))]]
        assert B.tolist() == [[float(moment_rational(dom, (0,) * 64))]]


class TestQuotients:
    """_quotients rounds every sum through one int/int division."""

    MID = 2**1024 - 2**970  # halfway between the largest float and 2^1024

    @staticmethod
    def _neighbours(x: float) -> list[Fraction]:
        # the floats on both sides of x, with 2^1024 one step past the largest
        out = []
        for toward in (-math.inf, math.inf):
            y = math.nextafter(x, toward)
            out.append(Fraction(y) if math.isfinite(y) else Fraction(2**1024 if y > 0 else -(2**1024)))
        return out

    @pytest.mark.parametrize("den", [1, 3, 7**40])
    def test_each_entry_is_the_nearest_float_or_inf(self, den):
        top = int(sys.float_info.max)
        quotients = [0, 1, Fraction(1, 3), Fraction(2, 7) * 10**300, top, self.MID - 1,
                     self.MID - Fraction(1, 2), self.MID, self.MID + 1, 2**1024, 10**400]
        nums = []
        for q in quotients:
            k = q * den
            nums += [math.floor(k), -math.floor(k), math.ceil(k), -math.ceil(k)]
        got = _quotients(np.array(nums, dtype=object), den)
        assert got.dtype == np.float64 and got.shape == (len(nums),)
        for num, x in zip(nums, got.tolist()):
            q = Fraction(num, den)
            if abs(q) >= self.MID:  # the nearest float, ties to even, is 2^1024
                assert x == (math.inf if q > 0 else -math.inf), (num, den)
                continue
            assert math.isfinite(x), (num, den)
            assert all(abs(Fraction(x) - q) <= abs(y - q) for y in self._neighbours(x)), (num, den)
        assert got[nums.index(top * den)] == sys.float_info.max

    @pytest.mark.parametrize("num, den", [
        (1, 2**1023),  # half the smallest normal float: a subnormal
        (-3, 10**310),  # -3e-310, a subnormal
        (1, 10**400),  # rounds to 0.0
        (-(10**20), 10**350),  # rounds to -0.0
    ], ids=["subnormal", "negative-subnormal", "zero-rounded", "negative-zero-rounded"])
    def test_nonzero_quotient_below_the_normal_floats_is_nan(self, num, den):
        assert math.isnan(_quotients(np.array([num], dtype=object), den)[0])

    def test_smallest_normal_and_zero_are_kept(self):
        got = _quotients(np.array([1, -1, 0], dtype=object), 2**1022)
        assert got.tolist() == [sys.float_info.min, -sys.float_info.min, 0.0]

    def test_negative_overflow_is_minus_inf(self):
        # at r = 39 on [-10^4, 10^4], -x1 weights m_78 ~ 2.5e314 by -1 in A's
        # entries (38, 39) and (39, 38); B holds m_78 itself at (39, 39)
        f = parse_polynomial("-x1", 1)
        dom = Domain.box([(-10000, 10000)])
        A, B, _ = assemble_AB(f, dom, 39)
        assert np.argwhere(~np.isfinite(A)).tolist() == [[38, 39], [39, 38]]
        assert A[38, 39] == A[39, 38] == -math.inf
        assert np.argwhere(~np.isfinite(B)).tolist() == [[39, 39]] and B[39, 39] == math.inf
        with pytest.raises(ConditioningError, match="a moment overflows a float"):
            compute_bound(f, dom, 39)


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

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["A", "B"])
    def test_non_finite_entry_is_a_value_error_wherever_it_sits(self, where, bad, m):
        # off the diagonal next to it, two places off it, and on it, each is
        # refused before B's eigenvalues are taken, as an overflow (inf) or an
        # underflow (NaN, see _quotients)
        cause = "a moment underflows a float" if math.isnan(bad) else "a moment overflows a float"
        for i, j in [(0, 1), (0, 2), (0, 0), (m - 1, m - 1)]:
            if j >= m:
                continue
            A, B = np.diag(np.arange(1.0, m + 1)), np.eye(m)
            M = A if where == "A" else B
            M[i, j] = M[j, i] = bad
            with pytest.raises(ConditioningError, match=rf"^{cause}{OUT_OF_RANGE}$") as got:
                smallest_generalized_eigenpair(A, B)
            assert got.value.cond_B == math.inf

    def test_no_lower_order_is_advised_at_r0(self):
        # every entry is finite, but A's equilibrated (0, 0) entry 5e303 / 1e-5
        # passes the largest float: the cause is the float range, not the order
        f, dom = parse_polynomial("10^314*x1", 1), Domain.box([(0, "0.00001")])
        with pytest.raises(ConditioningError, match=rf"^an equilibrated entry passes the largest float{OUT_OF_RANGE}$"):
            compute_bound(f, dom, 0)


# the 8 golden sweeps: each box function to r = 12, each simplex and ball one to r = 10
GOLDEN_SWEEPS = [(name, golden.TABLE_BOX_ASSERT_MAX_R) for name in golden.TABLE_BOX] + [
    (name, max(cells)) for name, cells in golden.TABLE_SB.items()
]


# Run in a fresh interpreter, after the import given as argv[1] (or none):
# whether bounds took dsygvd from an imported scipy.linalg, whether
# scipy.linalg is loaded, and the motzkin r = 12 value and eigenvector bits.
_MOTZKIN_R12 = """
import importlib, json, sys
if sys.argv[1:]:
    importlib.import_module(sys.argv[1])
import sosdensity
from sosdensity import bounds
tc = sosdensity.get("motzkin")
b = bounds.compute_bound(tc.f, tc.domain, 12)
flapack = sys.modules.get("scipy.linalg._flapack")
print(json.dumps([flapack is not None and bounds._dsygvd is flapack.dsygvd, "scipy.linalg" in sys.modules,
                  b.value.hex(), b.eigvec.tobytes().hex()]))
"""


class TestLapackCall:
    """The eigensolve calls LAPACK dsygvd directly; it must give what
    scipy.linalg.eigh(As, Bs) gave, bit for bit.  A pencil eigh refused is a
    ConditioningError naming its cause, raised before or by that call."""

    @pytest.mark.parametrize("name,r_max", GOLDEN_SWEEPS, ids=[name for name, _ in GOLDEN_SWEEPS])
    def test_golden_blocks_match_scipy_eigh(self, name, r_max, monkeypatch):
        from scipy.linalg import eigh

        tc = get(name)
        pencil = _sweep_pencil(tc.f, tc.domain, r_max)
        for r in range(r_max + 1):
            m = math.comb(tc.domain.n + r, r)
            Ar, Br = np.ascontiguousarray(pencil.A[:m, :m]), np.ascontiguousarray(pencil.B[:m, :m])
            solved = []

            def scipy_eigh(a, b, **kwargs):
                solved.append((a, b))
                return *eigh(a, b), 0

            with monkeypatch.context() as patched:
                patched.setattr(bounds, "_dsygvd", scipy_eigh)
                want = smallest_generalized_eigenpair(Ar, Br)
            (As, Bs), = solved
            w, V, info = bounds._dsygvd(As, Bs, itype=1, jobz="V", uplo="L")
            assert info == 0
            w_ref, V_ref = eigh(As, Bs)
            assert w.tobytes() == w_ref.tobytes() and V.tobytes() == V_ref.tobytes()
            lam, v, cond_B = smallest_generalized_eigenpair(Ar, Br)
            assert (lam, cond_B) == (want[0], want[2]) and v.tobytes() == want[1].tobytes()

    @staticmethod
    def _bad_pencils():
        """Four pencils with a NaN or an infinity in A, then one with an
        off-diagonal infinity in B."""
        A = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 3.0]])
        B = np.array([[1.0, 0.1, 0.0], [0.1, 1.0, 0.2], [0.0, 0.2, 1.0]])
        for i, j, x in [(1, 1, np.nan), (0, 2, np.inf), (2, 0, -np.inf), (0, 1, np.nan)]:
            a = A.copy()
            a[i, j] = a[j, i] = x
            yield a, B
        b = B.copy()
        b[0, 2] = b[2, 0] = np.inf
        yield A, b

    def test_non_finite_entries_are_refused_as_scipy_did(self):
        from scipy.linalg import eigh

        for a, b in self._bad_pencils():
            with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
                eigh(a, b)
            with pytest.raises(ConditioningError, match=rf"^a moment (overflows|underflows) a float{OUT_OF_RANGE}$") as got:
                smallest_generalized_eigenpair(a, b)
            assert got.value.cond_B == math.inf

    def test_non_finite_A_is_an_overflow_or_underflow(self):
        for (a, b), cause in zip(list(self._bad_pencils())[:-1], ["underflows", "overflows", "overflows", "underflows"]):
            with pytest.raises(ConditioningError, match=rf"^a moment {cause} a float{OUT_OF_RANGE}$"):
                smallest_generalized_eigenpair(a, b)

    @pytest.mark.parametrize("spec", [None, SimpleNamespace(submodule_search_locations=[])], ids=["no-scipy", "no-file"])
    def test_missing_extension_is_an_import_error(self, spec, tmp_path, monkeypatch):
        if spec is not None:
            spec.submodule_search_locations.append(str(tmp_path))  # a scipy directory without linalg/_flapack
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
        with pytest.raises(ImportError, match="_flapack was not found"):
            bounds._load_flapack()

    def test_reuses_an_imported_scipy_linalg(self):
        # with scipy.linalg imported first, bounds takes its _flapack rather
        # than loading the file again, and solves with the same bits
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

        def fresh(*first):
            out = subprocess.run([sys.executable, "-c", _MOTZKIN_R12, *first], env=env, capture_output=True,
                                 text=True, check=True).stdout
            return json.loads(out.splitlines()[-1])

        reused, loaded, *bits = fresh("scipy.linalg")
        assert reused and loaded
        reused, loaded, *alone = fresh()
        assert not reused and not loaded
        assert bits == alone
        assert float.fromhex(bits[0]) == 0.40607565619235314

    def test_indefinite_B_is_a_lapack_error(self):
        # dsygvd reports this B by its info, eigh by a LinAlgError; the pencil
        # is refused before the call, by B's diagonal
        from scipy.linalg import eigh

        A, B = np.eye(2), np.diag([1.0, -1.0])
        with pytest.raises(np.linalg.LinAlgError):
            eigh(A, B)
        assert bounds._dsygvd(A, B, itype=1, jobz="V", uplo="L")[2] != 0
        with pytest.raises(ConditioningError, match=r"^nonpositive diagonal in B$"):
            smallest_generalized_eigenpair(A, B)

    def test_nonzero_info_is_a_conditioning_error(self, monkeypatch):
        # a dsygvd failure is refused like every other float failure of an
        # order: compute_bound raises it, a sweep stops at that order
        f, dom = parse_polynomial("x1", 1), Domain.cube(1)
        solve = bounds._dsygvd

        def fail_at_m3(a, b, **kwargs):
            w, V, info = solve(a, b, **kwargs)
            return w, V, 1 if len(a) == 3 else info

        monkeypatch.setattr(bounds, "_dsygvd", fail_at_m3)
        with pytest.raises(ConditioningError, match=r"\[LAPACK dsygvd failed with info = 1\]$") as exc:
            compute_bound(f, dom, 2)
        assert math.isfinite(exc.value.cond_B)
        assert [b.r for b in bound_sweep(f, dom, 4)] == [1]


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

    @pytest.mark.parametrize("e", [150, 200])
    def test_residual_of_a_huge_f_is_finite(self, e):
        # |A v| ~ 10^e: squared in the norms, 10^200 passed the largest float
        b = compute_bound(parse_polynomial(f"10^{e}*x1", 1), Domain.box([(0, "0.00001")]), 1)
        assert b.value == pytest.approx(2.1132486540518714 * 10.0 ** (e - 6), rel=1e-12)
        assert 0 < b.residual < 1e-15 * b.value

    def test_constant_objective(self):
        b = compute_bound(parse_polynomial("5", 1), Domain.cube(1), 3)
        assert b.value == pytest.approx(5.0, abs=1e-9)

    def test_translation_gives_the_same_bits(self):
        # f on K and f(y + t) on K - t centre to the same instance exactly
        tc = get("booth")
        t = (Fraction(7, 3), Fraction(-5, 2))
        moved = Domain.box([(lo - ti, hi - ti) for (lo, hi), ti in zip(tc.domain.bounds, t)])
        for r in (2, 6, 10):
            b = compute_bound(tc.f.substitute_affine([1, 1], t), moved, r)
            assert b.shift == tuple(-ti for ti in t)
            assert b.value == compute_bound(tc.f, tc.domain, r).value

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

    def test_refuses_oversized_pencil(self):
        # checked from n and r alone: nothing of size m is built
        f = parse_polynomial("x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2 + 1", 2)
        dom = Domain.box([(-2, 2), (-2, 2)])
        for call in (lambda: bound_sweep(f, dom, 243), lambda: assemble_AB(f, dom, 243)):
            with pytest.raises(ValueError, match="n = 2 variables .* m = 29890"):
                call()

    def test_pencil_limit_admits_largest_golden_row(self):
        _check_pencil_size(10, 5)  # m = C(15, 5) = 3003: n = 10, r = 5

    @pytest.mark.parametrize("instance,r_max", [
        (lambda: (parse_polynomial("x1^2 - x1*x2 + x2", 2), Domain.box([(0, 3), (-1, 2)])), 8),
        (lambda: (get("matyas-modified-s").f, get("matyas-modified-s").domain), 10),
        (lambda: (get("three-hump-camel-modified-b").f, get("three-hump-camel-modified-b").domain), 10),
        (lambda: (get("styblinski-tang", 10).f, get("styblinski-tang", 10).domain), 3),
        (lambda: (parse_polynomial("x1", 1), Domain.box([(-10000, 10000)])), 40),
    ], ids=["off-centre-box", "simplex", "ball", "styblinski-tang-n10", "overflow-box"])
    def test_sweep_matches_single_orders(self, instance, r_max):
        # each order of the sweep is solved on its leading block of the top
        # order's pencil, and must give the bits of assembling that order alone
        f, dom = instance()
        swept = bound_sweep(f, dom, r_max)
        assert swept
        pencil = _sweep_pencil(f, dom, r_max)
        fields = ("r", "value", "cond_B", "residual", "basis", "shift")
        for r in range(1, r_max + 1):
            try:
                one = compute_bound(f, dom, r)
            except ConditioningError as exc:
                with pytest.raises(ConditioningError) as err:
                    pencil.solve(r)
                assert str(err.value) == str(exc)
                assert r > len(swept)
                continue
            b = swept[r - 1]
            assert [getattr(b, k) for k in fields] == [getattr(one, k) for k in fields]
            assert b.eigvec.tobytes() == one.eigvec.tobytes()

    def test_empty_range(self):
        with pytest.raises(ValueError):
            bound_sweep(parse_polynomial("x1", 1), Domain.cube(1), 0)

    def test_overflowing_moment_is_a_conditioning_error(self):
        # from r = 39 the pencil needs m_78 ~ 2.5e314 on [-10^4, 10^4], past the largest float
        f = parse_polynomial("x1", 1)
        dom = Domain.box([(-10000, 10000)])
        for r in (39, 40):
            with pytest.raises(ConditioningError, match="a moment overflows a float"):
                compute_bound(f, dom, r)
        assert len(bound_sweep(f, dom, 40)) == 22

    def test_stops_on_conditioning(self):
        # wide 1-D box at high order overruns double precision even after
        # equilibration; the sweep truncates instead of returning noise
        f = parse_polynomial("x1", 1)
        res = bound_sweep(f, Domain.box([(0, 1000)]), 40)
        assert 0 < len(res) < 40
        with pytest.raises(ConditioningError) as exc:
            compute_bound(f, Domain.box([(0, 1000)]), 40)
        assert str(exc.value).endswith("; reduce r")



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

    def _affine_error(self, r, sign, a=Fraction(-1, 2), b=Fraction(5, 2)):
        """|bound - oracle| for sign*x1 on the off-centre interval [a, b]."""
        f = Polynomial(1, {(1,): Fraction(sign)})
        # min of sign*x over the nodes mapped to [a, b]
        want = (float(a) + float(b - a) * (_smallest_node(r) + 1) / 2) if sign > 0 else \
            -(float(b) - float(b - a) * (_smallest_node(r) + 1) / 2)
        return abs(compute_bound(f, Domain.box([(a, b)]), r).value - want)

    # compute_bound centres the box, so [-1/2, 5/2] is solved on [-3/2, 3/2]
    # and keeps the oracle as [-1, 1] does: r = 13 is within 4.0e-11; r = 14
    # (8e-11 for x1, 2.0e-10 for -x1) is left out
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("r", range(14))
    def test_affine_interval(self, r, sign):
        assert self._affine_error(r, sign) <= self.TOL

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("r", range(14))
    def test_unit_interval(self, r, sign):
        assert self._affine_error(r, sign, Fraction(0), Fraction(1)) <= self.TOL

    def test_unit_interval_conditioning(self):
        # centred, B is the [-1/2, 1/2] matrix: cond_B 1.4e7 (6.2e15 on [0, 1] uncentred)
        b = compute_bound(parse_polynomial("x1", 1), Domain.cube(1), 11)
        assert b.cond_B < 1e9

    # double precision on the monomial basis loses the oracle from r ~ 14 on
    # (r = 14..17 sit near the tolerance and are left out); from r = 23 on B
    # is refused as too ill-conditioned
    @pytest.mark.xfail(strict=True, raises=(AssertionError, ConditioningError))
    @pytest.mark.parametrize("r", range(18, 41))
    def test_interval_high_order(self, r):
        f = parse_polynomial("x1", 1)
        assert abs(compute_bound(f, Domain.cube(1, -1, 1), r).value - _smallest_node(r)) <= self.TOL
