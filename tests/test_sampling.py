import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from sosdensity import sampling
from sosdensity.benchmarks import get
from sosdensity.bounds import compute_bound
from sosdensity.moments import Domain, integrate_poly_exact
from sosdensity.polynomials import Polynomial, parse_polynomial
from sosdensity.sampling import (
    BLOCK_SIZE,
    DegeneratePrefixError,
    build_chain,
    conditional_cdf,
    invert_cdf,
    markov_check,
    sample,
    write_batch_csv,
)


def uniform_density(dom: Domain) -> Polynomial:
    return Polynomial.constant(dom.n, Fraction(1) / Fraction(dom.volume()))


def exact_chain(dom: Domain, source: str):
    """Chain of the density proportional to a hand-written polynomial, normalized exactly."""
    g = parse_polynomial(source, dom.n)
    return build_chain(g * (1 / integrate_poly_exact(dom, g)), dom)


# Exact densities: no eigensolve, so BLAS cannot move their samples.
BOX3 = Domain.box([(0, 2), (-1, 1), (0, 1)])
BOX3_DENSITY = "1 + x1 + x1*x2 + x2^2*x3 + x3^3"
SIMPLEX3 = Domain.simplex(3)
SIMPLEX3_DENSITY = "1 + 2*x1^2 - x1*x2 + x2*x3 + x3^3"


def reference_sample(chain, count: int, seed: int):
    """Point by point: conditional_cdf and invert_cdf on each point's own
    generator, starting the point again when its prefix is degenerate.
    Returns the points and the number of restarts.
    """
    points, restarts = [], 0
    for j in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j,)))
        for _ in range(sampling.MAX_PREFIX_RETRIES):
            x = []
            try:
                for i in range(1, chain.domain.n + 1):
                    x.append(invert_cdf(conditional_cdf(chain, i, x), rng.random()))
            except DegeneratePrefixError:
                restarts += 1
                continue
            break
        else:
            raise DegeneratePrefixError(f"point {j}")
        points.append(x)
    return np.array(points), restarts


class TestBuildChain:
    def test_rejects_ball(self):
        with pytest.raises(ValueError):
            build_chain(Polynomial.constant(2, 1), Domain.ball(2))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            build_chain(Polynomial.constant(2, 3), Domain.cube(2))

    def test_marginals_uniform_box(self):
        dom = Domain.box([(0, 2), (0, 1)])
        chain = build_chain(uniform_density(dom), dom)
        # f_1(x1) = 1/2 on [0,2]
        assert chain.marginals[0].evaluate([1.0, 0.0]) == pytest.approx(0.5)

    def test_marginals_uniform_simplex(self):
        dom = Domain.simplex(2)
        chain = build_chain(uniform_density(dom), dom)
        # f_1(x1) = 2*(1-x1)
        assert chain.marginals[0].evaluate([0.25, 0.0]) == pytest.approx(1.5)


class TestConditionalCdf:
    def test_uniform_box_cdf_is_linear(self):
        dom = Domain.box([(0, 2), (0, 1)])
        chain = build_chain(uniform_density(dom), dom)
        F = conditional_cdf(chain, 1, [])
        assert F(0.0) == pytest.approx(0.0, abs=1e-12)
        assert F(1.0) == pytest.approx(0.5)
        assert F(2.0) == pytest.approx(1.0)
        F2 = conditional_cdf(chain, 2, [0.7])
        assert F2(0.25) == pytest.approx(0.25)
        assert conditional_cdf(chain, 2, [0.7]) == F2

    def test_uniform_simplex_cdf(self):
        dom = Domain.simplex(2)
        chain = build_chain(uniform_density(dom), dom)
        F = conditional_cdf(chain, 1, [])
        # F1(t) = 1 - (1-t)^2
        assert F(0.5) == pytest.approx(0.75)
        F2 = conditional_cdf(chain, 2, [0.5])
        assert F2.hi == pytest.approx(0.5)
        assert F2(0.25) == pytest.approx(0.5)

    def test_index_validation(self):
        dom = Domain.cube(2)
        chain = build_chain(uniform_density(dom), dom)
        with pytest.raises(ValueError):
            conditional_cdf(chain, 3, [0.5, 0.5])
        with pytest.raises(ValueError):
            conditional_cdf(chain, 2, [])

    def test_prefix_outside_domain(self):
        simplex = Domain.simplex(2)
        chain = build_chain(uniform_density(simplex), simplex)
        for bad in ([-0.5], [1.5]):
            with pytest.raises(ValueError, match="outside the domain"):
                conditional_cdf(chain, 2, bad)
        box = Domain.box([(0, 2), (-1, 1), (0, 1)])
        chain = build_chain(uniform_density(box), box)
        for bad in ([2.5], [-0.1]):
            with pytest.raises(ValueError, match="outside the domain"):
                conditional_cdf(chain, 2, bad)
        with pytest.raises(ValueError, match="outside the domain"):
            conditional_cdf(chain, 3, [1.0, -1.5])
        # the boundary belongs to the domain
        assert conditional_cdf(chain, 3, [2.0, -1.0]).hi == 1.0

    def test_same_path_as_sampler(self):
        # conditional_cdf + invert_cdf on a point's own uniforms reproduce the
        # sampler's point bit for bit
        f = parse_polynomial("(x1 - 0.3)^2 + x1*x2", 2)
        dom = Domain.simplex(2)
        chain = build_chain(compute_bound(f, dom, 3).density, dom)
        batch = sample(chain, 20, seed=9)
        for j, point in enumerate(batch.points):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=9, spawn_key=(j,)))
            x = []
            for i in range(1, dom.n + 1):
                x.append(invert_cdf(conditional_cdf(chain, i, x), rng.random()))
            assert x == list(point)


class TestInvertCdf:
    def test_cubic_inversion(self):
        dom = Domain.cube(1)
        h = Polynomial(1, {(2,): 3})  # density 3x^2, CDF x^3
        chain = build_chain(h, dom)
        F = conditional_cdf(chain, 1, [])
        assert invert_cdf(F, 0.125) == pytest.approx(0.5, abs=1e-10)
        assert invert_cdf(F, 0.0) == pytest.approx(0.0, abs=1e-10)
        assert invert_cdf(F, 1.0) == pytest.approx(1.0, abs=1e-10)
        with pytest.raises(ValueError):
            invert_cdf(F, 1.5)


class TestSample:
    def test_uniform_box_moments(self):
        dom = Domain.box([(0, 2), (-1, 1)])
        chain = build_chain(uniform_density(dom), dom)
        batch = sample(chain, 4000, seed=3)
        assert batch.points.shape == (4000, 2)
        assert np.mean(batch.points[:, 0]) == pytest.approx(1.0, abs=0.05)
        assert np.mean(batch.points[:, 1]) == pytest.approx(0.0, abs=0.05)
        assert all(dom.contains(p) for p in batch.points)

    def test_uniform_simplex_moments(self):
        dom = Domain.simplex(2)
        chain = build_chain(uniform_density(dom), dom)
        batch = sample(chain, 4000, seed=4)
        assert np.mean(batch.points[:, 0]) == pytest.approx(1 / 3, abs=0.02)
        assert all(dom.contains(p) for p in batch.points)

    def test_deterministic_and_order_independent(self):
        dom = Domain.cube(2)
        chain = build_chain(uniform_density(dom), dom)
        b1 = sample(chain, 50, seed=11)
        b2 = sample(chain, 50, seed=11)
        assert np.array_equal(b1.points, b2.points)
        # per-point streams: a shorter run is a prefix of a longer one
        b3 = sample(chain, 10, seed=11)
        assert np.array_equal(b3.points, b1.points[:10])
        b4 = sample(chain, 50, seed=12)
        assert not np.array_equal(b1.points, b4.points)

    def test_equality_compares_content(self):
        dom = Domain.cube(2)
        chain = build_chain(uniform_density(dom), dom)
        assert sample(chain, 3, seed=1) == sample(chain, 3, seed=1)
        assert sample(chain, 3, seed=1) != sample(chain, 3, seed=2)
        f = parse_polynomial("x1 + x2", 2)
        assert sample(chain, 3, seed=1, f=f) == sample(chain, 3, seed=1, f=f)
        assert sample(chain, 3, seed=1, f=f) != sample(chain, 3, seed=1)

    def test_unhashable(self):
        dom = Domain.cube(2)
        chain = build_chain(uniform_density(dom), dom)
        with pytest.raises(TypeError, match="SampleBatch"):
            hash(sample(chain, 3, seed=1))

    def test_values_attached(self):
        dom = Domain.cube(1)
        f = parse_polynomial("x1", 1)
        chain = build_chain(uniform_density(dom), dom)
        batch = sample(chain, 100, seed=0, f=f)
        assert batch.values == pytest.approx(batch.points[:, 0])

    def test_count_validation(self):
        dom = Domain.cube(1)
        chain = build_chain(uniform_density(dom), dom)
        with pytest.raises(ValueError):
            sample(chain, 0, seed=1)


class TestPinnedBits:
    # sha256 of points.tobytes() and values.tobytes() from the per-point
    # sampler the batched draw replaced; 300 points cross a block boundary,
    # and the 4-D simplex pins the order of the sum in its range 1 - x1 - x2 - x3
    @pytest.mark.parametrize("dom,density,objective,digests", [
        (BOX3, BOX3_DENSITY, "x1^2 - x2*x3 + x3", (
            "6f3057c0a481665d5dbea1ee32cac6ec2061491c1a6216384f34e1e1f1ecc32e",
            "33b389ab1e21760acfcd785a55395ef4eab0fbb5daeef408b430674076f05787",
        )),
        (SIMPLEX3, SIMPLEX3_DENSITY, "x1^2 - x2*x3 + x3", (
            "b964af1e6edcbd46bd97e79986c884910881c35b61338374a7f60649544026c1",
            "119f6e2f43955762c456b185c90e12603b06f31f95bdb51b6bea3c7c4374709f",
        )),
        (Domain.simplex(4), "1 + x1^2*x4 + x2*x3 + x3^3 + x4^4", "x1^2 - x2*x3 + x3*x4", (
            "96f3d45a5906b668e847eed170fdf5a0274f77a130ebebca224c2c593ff81731",
            "04ebba2285f387f031e5032f5920af5e16940525ea92dcd771253f1dacbaa070",
        )),
    ], ids=["box3", "simplex3", "simplex4"])
    def test_digests(self, dom, density, objective, digests):
        assert 300 > BLOCK_SIZE
        batch = sample(exact_chain(dom, density), 300, seed=2024, f=parse_polynomial(objective, dom.n))
        assert hashlib.sha256(batch.points.tobytes()).hexdigest() == digests[0]
        assert hashlib.sha256(batch.values.tobytes()).hexdigest() == digests[1]

    @pytest.mark.parametrize("dom,density", [(BOX3, BOX3_DENSITY), (SIMPLEX3, SIMPLEX3_DENSITY)],
                             ids=["box3", "simplex3"])
    def test_block_independent(self, dom, density):
        chain = exact_chain(dom, density)
        longer = sample(chain, BLOCK_SIZE + 7, seed=6)
        assert np.array_equal(sample(chain, 5, seed=6).points, longer.points[:5])


@pytest.fixture(scope="module")
def motzkin_chain():
    tc = get("motzkin")
    return build_chain(compute_bound(tc.f, tc.domain, 12).density, tc.domain)


class TestRetries:
    def test_matches_reference_with_raised_floor(self, monkeypatch, motzkin_chain):
        monkeypatch.setattr(sampling, "DENOMINATOR_FLOOR", 0.5)
        for chain, count in ((exact_chain(SIMPLEX3, SIMPLEX3_DENSITY), 300), (motzkin_chain, 40)):
            expected, restarts = reference_sample(chain, count, seed=5)
            assert restarts > 0
            assert np.array_equal(sample(chain, count, seed=5).points, expected)

    def test_exhausted_retries_raise(self, monkeypatch, motzkin_chain):
        monkeypatch.setattr(sampling, "DENOMINATOR_FLOOR", 1.0)
        with pytest.raises(DegeneratePrefixError, match="no usable prefix"):
            sample(motzkin_chain, 3, seed=0)


class TestOptimalDensitySampling:
    def test_mean_matches_bound(self):
        f = parse_polynomial("x1^4 - x1^2", 1)
        dom = Domain.box([(-2, 2)])
        b = compute_bound(f, dom, 5)
        chain = build_chain(b.density, dom)
        batch = sample(chain, 3000, seed=7, f=f)
        se = float(np.std(batch.values)) / math.sqrt(len(batch.values))
        assert abs(float(np.mean(batch.values)) - b.value) <= 3 * se

    def test_off_centre_box(self):
        # the bound is solved on the centred box; .density is back in x
        f = parse_polynomial("x1^2 - x1*x2 + x2", 2)
        dom = Domain.box([(0, 3), (-1, 2)])
        b = compute_bound(f, dom, 8)
        density = b.density
        assert abs(float(integrate_poly_exact(dom, density)) - 1.0) <= 1e-9
        batch = sample(build_chain(density, dom), 2000, seed=0, f=f)
        assert all(dom.contains(p, slack=0.0) for p in batch.points)
        se = float(np.std(batch.values)) / math.sqrt(len(batch.values))
        assert abs(float(np.mean(batch.values)) - b.value) <= 4 * se


class TestKernels:
    """The batched kernels reproduce the numpy expressions they replace, bit for bit."""

    @staticmethod
    def _bits(a):
        return np.asarray(a, dtype=float).view(np.uint64)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
    def test_horner_matches_polyval(self):
        rng = np.random.default_rng(12)
        x = np.concatenate([rng.uniform(-3.0, 3.0, 60), [0.0, -0.0, np.inf, -np.inf, np.nan]])
        for deg in range(25):
            cols = rng.normal(size=(deg + 1, len(x)))
            cols[-1, ::2] = -0.0  # a signed-zero leading coefficient on every other column
            want = np.polynomial.polynomial.polyval(x, cols, tensor=False)
            assert np.array_equal(self._bits(sampling._horner(x, cols)), self._bits(want))
            # one polynomial at a scalar, as CdfSlice evaluates it
            for t in (0.7, -np.inf, np.nan):
                got = sampling._horner(t, cols[:, 0])
                assert self._bits(got) == self._bits(np.polynomial.polynomial.polyval(t, cols[:, 0]))

    @pytest.mark.parametrize("dom,density", [
        (BOX3, BOX3_DENSITY),
        (Domain.simplex(4), "1 + x1^2*x4 + x2*x3 + x3^3 + x4^4"),
        # one distinct prefix exponent, 2, in several terms, and in a single term
        (Domain.box([(0, 2), (0, 1)]), "x1^2 + x1^2*x2"),
        (Domain.box([(0, 2), (0, 1)]), "x1^2*x2"),
    ], ids=["box3", "simplex4", "shared-square", "single-square"])
    def test_power_table_matches_broadcast(self, dom, density):
        chain = exact_chain(dom, density)
        rng = np.random.default_rng(3)
        for i in range(1, dom.n):
            exps = np.array([e[:i] for e in chain.marginals[i].terms], dtype=float).reshape(-1, i)
            prefix = rng.uniform(0.0, 2.0 / dom.n, (1000, i))
            uniq, gather = chain.arrays[i][:2]
            got = sampling._term_powers(prefix, uniq, gather)
            assert np.array_equal(self._bits(got), self._bits(prefix[:, None, :] ** exps))


class TestMarkov:
    def test_frequency_and_validation(self):
        f = parse_polynomial("x1", 1)
        dom = Domain.cube(1)
        chain = build_chain(uniform_density(dom), dom)
        batch = sample(chain, 2000, seed=5, f=f)
        freq = markov_check(f, batch, bound=0.5, f_min=0.0, eps=1.0)
        # threshold 1.0: only the endpoint can exceed
        assert freq <= 0.01
        for eps in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="eps"):
                markov_check(f, batch, bound=0.5, f_min=0.0, eps=eps)
        with pytest.raises(ValueError):
            markov_check(f, batch, bound=-1.0, f_min=0.0, eps=1.0)


class TestCsvOutput:
    def test_csv_and_sidecar(self, tmp_path):
        dom = Domain.cube(2)
        f = parse_polynomial("x1 + x2", 2)
        chain = build_chain(uniform_density(dom), dom)
        batch = sample(chain, 5, seed=2, f=f)
        path = tmp_path / "batch.csv"
        write_batch_csv(batch, str(path), dom, bound=1.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,f"
        assert len(lines) == 6
        x1, x2, v = (float(t) for t in lines[1].split(","))
        assert v == pytest.approx(x1 + x2)
        sidecar = (tmp_path / "batch.csv.json").read_text()
        assert '"seed": 2' in sidecar and '"count": 5' in sidecar
