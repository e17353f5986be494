import hashlib
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sosdensity import _pcg64, sampling
from sosdensity.benchmarks import get
from sosdensity.bounds import compute_bound
from sosdensity.moments import Domain, integrate_poly_exact
from sosdensity.polynomials import Polynomial, parse_polynomial
from sosdensity.rate import certificate
from sosdensity.sampling import (
    BLOCK_SIZE,
    DegeneratePrefixError,
    SampleBatch,
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
        for i in (True, 1.0):
            with pytest.raises(ValueError, match=rf"^coordinate index must be an integer, not {i!r}$"):
                conditional_cdf(chain, i, [])

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


def gathering_invert(coeffs, lo, hi, u):
    """The bisection that gathers the columns still active on every step,
    which sampling._invert replaced; the reference for its bits."""
    horner = sampling._horner
    at_lo = u <= horner(lo, coeffs)
    x = np.where(at_lo, lo, hi)
    inner = np.flatnonzero(~at_lo & ~(u >= horner(hi, coeffs)))
    coeffs, a, b, u = coeffs[:, inner], lo[inner], hi[inner], u[inner]
    active = np.flatnonzero(b - a > 1e-12)
    while active.size:
        mid = 0.5 * (a[active] + b[active])
        up = horner(mid, coeffs[:, active]) >= u[active]
        b[active[up]] = mid[up]
        a[active[~up]] = mid[~up]
        active = active[b[active] - a[active] > 1e-12]
    mid = 0.5 * (a + b)
    d = horner(mid, np.polynomial.polynomial.polyder(coeffs))
    with np.errstate(divide="ignore", invalid="ignore"):
        y = mid - (horner(mid, coeffs) - u) / d
    x[inner] = np.where((d > 0) & (a <= y) & (y <= b), y, mid)
    return x


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

    def test_block_matches_each_column_alone(self):
        # the simplex's second coordinate runs over [0, 1 - x1], so the columns
        # reach the bisection width on different steps and leave the live mask
        # while others still bisect; the last column starts below the width
        chain = exact_chain(SIMPLEX3, SIMPLEX3_DENSITY)
        rng = np.random.default_rng(8)
        prefixes = np.concatenate([[0.0, 0.5, 0.9, 0.99, 0.9999], rng.uniform(0.0, 0.99, 200)])
        slices = [conditional_cdf(chain, 2, [x1]) for x1 in prefixes]
        slices.append(sampling.CdfSlice(slices[1].coeffs, 0.25, 0.25 + 1e-13))
        u = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, len(slices) - 2)])
        widths = np.array([F.hi - F.lo for F in slices])
        assert len(set(np.ceil(np.log2(widths[widths > 1e-12] / 1e-12)).tolist())) >= 8
        coeffs, lo, hi = np.array([F.coeffs for F in slices]).T, [F.lo for F in slices], [F.hi for F in slices]
        got = sampling._invert(coeffs, np.array(lo), np.array(hi), u)
        want = gathering_invert(coeffs, np.array(lo), np.array(hi), u)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        alone = np.array([invert_cdf(F, ui) for F, ui in zip(slices, u.tolist())])
        assert np.array_equal(got.view(np.uint64), alone.view(np.uint64))


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
        # another type is not equal (NotImplemented on both sides), and no error
        assert (sample(chain, 3, seed=1) == 3) is False

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

    def test_objective_checked_before_drawing(self, monkeypatch):
        # f in three variables on a 2-D chain: refused in
        # Domain.check_vars's words before a point is drawn
        chain = build_chain(uniform_density(Domain.cube(2)), Domain.cube(2))

        def no_draw(*_, **__):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(sampling, "_draw_block", no_draw)
        with pytest.raises(ValueError, match="^polynomial has 3 variables, domain has 2$"):
            sample(chain, 20000, 1, f=parse_polynomial("x1+x2+x3", 3))

    def test_negative_seed_refused_before_any_generator(self, monkeypatch):
        chain = build_chain(uniform_density(Domain.cube(2)), Domain.cube(2))

        def no_generator(*_, **__):
            raise AssertionError("a stream was derived")

        monkeypatch.setattr(sampling._pcg64, "streams", no_generator)
        with pytest.raises(ValueError, match="seed"):
            sample(chain, 5, -1)

    def test_count_validation(self):
        dom = Domain.cube(1)
        chain = build_chain(uniform_density(dom), dom)
        with pytest.raises(ValueError):
            sample(chain, 0, seed=1)

    def test_count_beyond_stream_indices_refused_before_allocating(self, monkeypatch):
        chain = build_chain(uniform_density(Domain.cube(2)), Domain.cube(2))

        def no_allocation(*_, **__):
            raise AssertionError("the points were allocated")

        monkeypatch.setattr(sampling.np, "empty", no_allocation)
        with pytest.raises(ValueError, match=str(2**32 + 1)):
            sample(chain, 2**32 + 1, seed=0)

    def test_numpy_integer_seed(self):
        chain = exact_chain(BOX3, BOX3_DENSITY)
        batch = sample(chain, np.int64(20), seed=np.uint64(7))
        assert type(batch.seed) is int
        assert batch == sample(chain, 20, seed=7)
        with pytest.raises(ValueError, match=r"^seed must be an integer, not 7\.0$"):
            sample(chain, 20, seed=7.0)
        for count in (True, 2.0):
            with pytest.raises(ValueError, match=rf"^count must be an integer, not {count!r}$"):
                sample(chain, count, seed=7)
        # a numpy order is reported as an int, so the report is JSON
        tc = get("motzkin")
        report = certificate(tc.f, tc.domain, tc.minimizers[0], np.int64(2), tc.f_min)
        assert json.loads(json.dumps(report.to_json()))["r"] == 2


class TestPinnedBits:
    # sha256 of points.tobytes() and values.tobytes() from the per-point
    # sampler the batched draw replaced; 300 points cross a block boundary,
    # the 4-D simplex pins the order of the sum in its range 1 - x1 - x2 - x3,
    # and the last box has negative and non-dyadic sides, read as float(lo)
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
        (Domain.box([(Fraction(-1, 3), Fraction(2, 7)), (Fraction(1, 10), 5)]), "1 + x1^2 + x1*x2 + x2^3",
         "x1^2 - x1*x2 + x2", (
            "58123f9d754d373d4226c899e80588f521b11823505e646fe4c51902ab603bfa",
            "423daa8a4076d1e006d850da483a05dc0c5939fe1f7ee4ef636f451834462a55",
        )),
    ], ids=["box3", "simplex3", "simplex4", "box2-non-dyadic"])
    def test_digests(self, dom, density, objective, digests, monkeypatch):
        monkeypatch.setattr(sampling, "BLOCK_SIZE", 128)
        batch = sample(exact_chain(dom, density), 300, seed=2024, f=parse_polynomial(objective, dom.n))
        assert hashlib.sha256(batch.points.tobytes()).hexdigest() == digests[0]
        assert hashlib.sha256(batch.values.tobytes()).hexdigest() == digests[1]

    @pytest.mark.parametrize("dom,density", [(BOX3, BOX3_DENSITY), (SIMPLEX3, SIMPLEX3_DENSITY)],
                             ids=["box3", "simplex3"])
    def test_block_independent(self, dom, density):
        chain = exact_chain(dom, density)
        longer = sample(chain, BLOCK_SIZE + 7, seed=6)
        assert np.array_equal(sample(chain, 5, seed=6).points, longer.points[:5])

    def test_benchmark_csv(self, tmp_path):
        # the sample-motzkin benchmark's pipeline at its recorded seed and
        # count must write the CSV whose digest perfbench/spec.json records
        recorded = json.loads((Path(__file__).parents[1] / "perfbench" / "spec.json").read_text(encoding="utf-8"))["sample_csv"]
        tc = get("motzkin")
        b = compute_bound(tc.f, tc.domain, 12)
        batch = sample(build_chain(b.density, tc.domain), recorded["count"], seed=recorded["seed"], f=tc.f)
        path = tmp_path / "sample-motzkin.csv"
        write_batch_csv(batch, str(path), tc.domain, bound=b.value)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == recorded["sha256"]

    def test_same_points_for_any_block_size(self, monkeypatch):
        # on the 3-simplex the middle coordinate keeps its density for the
        # last one's mass, and the first broadcasts one column over the block
        chain = exact_chain(SIMPLEX3, SIMPLEX3_DENSITY)
        want = sample(chain, 300, seed=2024).points
        for size in (1, 128):
            monkeypatch.setattr(sampling, "BLOCK_SIZE", size)
            assert np.array_equal(sample(chain, 300, seed=2024).points, want)
        monkeypatch.undo()
        count = 2 * BLOCK_SIZE + 3
        want = sample(chain, count, seed=2024).points
        for size in (BLOCK_SIZE - 1, BLOCK_SIZE):
            monkeypatch.setattr(sampling, "BLOCK_SIZE", size)
            assert np.array_equal(sample(chain, count, seed=2024).points, want)


class TestBlockMemory:
    def test_one_block_peak(self, motzkin_chain):
        # a block of motzkin r = 12 points holds no more traced memory than a
        # block of 1024 points did before the first coordinate was shared
        # and the CDF columns were built in place (1.21 MiB)
        sample(motzkin_chain, BLOCK_SIZE, seed=0)
        tracemalloc.start()
        try:
            sample(motzkin_chain, BLOCK_SIZE, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2**20


class TestStreams:
    """The array streams are numpy's default_rng(SeedSequence(seed, spawn_key=(j,))), bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 11, 2**200 + 99])
    def test_first_uniforms_match_numpy(self, seed):
        js = np.array([0, 1, 255, 256, 2**31, 2**32 - 1])
        state = _pcg64.streams(seed, js)
        got = np.array([_pcg64.uniforms(state, np.arange(len(js))) for _ in range(5)]).T
        for j, row in zip(js.tolist(), got):
            want = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j,))).random(5)
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64)), (seed, j)

    def test_only_the_given_rows_step(self):
        state = _pcg64.streams(3, np.arange(4))
        before = state.copy()
        first = _pcg64.uniforms(state, np.array([1, 3]))
        assert np.array_equal(state[:, [0, 2]], before[:, [0, 2]])
        again = _pcg64.uniforms(_pcg64.streams(3, np.arange(4)), np.arange(4))
        assert np.array_equal(first, again[[1, 3]])


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

    def test_motzkin_mean_within_exact_standard_errors(self, motzkin_chain):
        # reads no bits: the mean of f over 50,000 draws from the motzkin
        # r = 12 density lies within 4 exact standard errors of its integral
        # against that density (mean 0.406, SD 0.875, skewness 47)
        tc = get("motzkin")
        h = motzkin_chain.marginals[-1]
        mass = integrate_poly_exact(tc.domain, h)
        mean = integrate_poly_exact(tc.domain, tc.f * h) / mass
        second = integrate_poly_exact(tc.domain, tc.f * tc.f * h) / mass
        count = 50_000
        se = math.sqrt(second - mean * mean) / math.sqrt(count)
        batch = sample(motzkin_chain, count, seed=0, f=tc.f)
        assert abs(float(np.mean(batch.values)) - float(mean)) <= 4 * se

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
            uniq, terms = chain.arrays[i][:2]
            gather = np.array([cols for cols, _, _ in terms]).reshape(-1, i)
            got = sampling._power_table(prefix, uniq)[gather].transpose(2, 0, 1)
            assert np.array_equal(self._bits(got), self._bits(prefix[:, None, :] ** exps))

    @pytest.mark.parametrize("dom,density", [
        (BOX3, BOX3_DENSITY),
        (Domain.simplex(4), "1 + x1^2*x4 + x2*x3 + x3^3 + x4^4 - 3*x1*x2*x3 + x1^3*x2^2*x3"),
    ], ids=["box3", "simplex4"])
    def test_term_order_sums_match_bincount(self, dom, density):
        # the per-term broadcast, product over coordinates and per-row
        # bincount in term order that the loop over terms replaced
        chain = exact_chain(dom, density)
        rng = np.random.default_rng(5)
        for i in range(dom.n):
            marg = chain.marginals[i]
            exps = np.array([e[:i] for e in marg.terms], dtype=float).reshape(len(marg.terms), i)
            own = np.array([e[i] for e in marg.terms])
            coefs = np.array([float(c) for c in marg.terms.values()])
            prefix = rng.uniform(0.0, 2.0 / dom.n, (257, i))
            w = coefs * np.prod(prefix[:, None, :] ** exps, axis=2)
            bins = (own * len(prefix) + np.arange(len(prefix))[:, None]).ravel()
            want = np.bincount(bins, weights=w.ravel(), minlength=(marg.degree + 1) * len(prefix))
            got = sampling._univariate(chain, i, prefix)
            assert np.array_equal(self._bits(got), self._bits(want.reshape(marg.degree + 1, len(prefix))))


    def test_derivative_matches_polyder(self, monkeypatch, motzkin_chain):
        # every CDF column that a block of motzkin r = 12 points inverts, and a constant
        seen = []
        original = sampling._invert

        def recording(coeffs, lo, hi, u):
            seen.append(coeffs.copy())
            return original(coeffs, lo, hi, u)

        monkeypatch.setattr(sampling, "_invert", recording)
        sample(motzkin_chain, BLOCK_SIZE, seed=0)
        # the first coordinate inverts one column shared by every row
        assert [c.shape[1] for c in seen] == [1] + [BLOCK_SIZE] * (motzkin_chain.domain.n - 1)
        for coeffs in seen + [np.array([[0.5, np.nan, -0.0]])]:
            want = np.polynomial.polynomial.polyder(coeffs)
            assert np.array_equal(self._bits(sampling._derivative(coeffs)), self._bits(want))

    def test_distinct_exponents_match_unique(self, motzkin_chain):
        simplex4 = exact_chain(Domain.simplex(4), "1 + x1^2*x4 + x2*x3 + x3^3 + x4^4")
        for chain in (motzkin_chain, exact_chain(SIMPLEX3, SIMPLEX3_DENSITY), simplex4):
            for i, marg in enumerate(chain.marginals):
                exps = np.array([e[:i] for e in marg.terms], dtype=float).reshape(len(marg.terms), i)
                want = np.unique(np.append(exps, 0.0) if exps.size > 1 else exps)
                got = chain.arrays[i][0]
                assert got.dtype == want.dtype == np.float64
                assert np.array_equal(self._bits(got), self._bits(want))


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["bound", "f_min"])
    def test_non_finite_refused(self, name, value):
        # a NaN compares False and an infinity makes the threshold infinite:
        # either would pass the check vacuously
        f = parse_polynomial("x1", 1)
        batch = sample(build_chain(uniform_density(Domain.cube(1)), Domain.cube(1)), 20, seed=5, f=f)
        args = dict(bound=0.5, f_min=0.0, eps=1.0) | {name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            markov_check(f, batch, **args)


class TestCsvOutput:
    def test_csv_and_sidecar(self, tmp_path):
        dom = Domain.cube(2)
        f = parse_polynomial("x1 + x2", 2)
        chain = build_chain(uniform_density(dom), dom)
        batch = sample(chain, 5, seed=2, f=f)
        path = tmp_path / "batch.csv"
        write_batch_csv(batch, str(path), dom, bound=1.0)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x1,x2,f"
        assert len(lines) == 6
        x1, x2, v = (float(t) for t in lines[1].split(","))
        assert v == pytest.approx(x1 + x2)
        sidecar = (tmp_path / "batch.csv.json").read_text(encoding="utf-8")
        assert '"seed": 2' in sidecar and '"count": 5' in sidecar

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    def test_non_finite_bound_refused_before_writing(self, tmp_path, bound):
        dom = Domain.cube(2)
        batch = sample(build_chain(uniform_density(dom), dom), 5, seed=2)
        with pytest.raises(ValueError, match="bound must be finite"):
            write_batch_csv(batch, str(tmp_path / "batch.csv"), dom, bound=bound)
        assert list(tmp_path.iterdir()) == []

    def test_domain_of_another_dimension_refused_before_writing(self, tmp_path):
        dom = Domain.cube(2)
        batch = sample(build_chain(uniform_density(dom), dom), 5, seed=2)
        path = tmp_path / "batch.csv"
        with pytest.raises(ValueError, match="^the points have 2 coordinates, domain has 3$"):
            write_batch_csv(batch, str(path), Domain.simplex(3), bound=1.0)
        assert not path.exists() and not (tmp_path / "batch.csv.json").exists()

    @pytest.mark.parametrize("with_values", [True, False], ids=["values", "no-values"])
    def test_rows_are_repr_of_each_float(self, tmp_path, with_values):
        # the row format, one repr(float(c)) per numpy scalar, as the reference
        dom = SIMPLEX3
        f = parse_polynomial("x1^2 - x2*x3 + x3", 3) if with_values else None
        batch = sample(exact_chain(dom, SIMPLEX3_DENSITY), 50, seed=7, f=f)
        path = tmp_path / "batch.csv"
        write_batch_csv(batch, str(path), dom)
        values = batch.values if with_values else [float("nan")] * 50
        rows = [",".join(repr(float(c)) for c in p) + f",{float(v)!r}" for p, v in zip(batch.points, values)]
        assert path.read_text(encoding="utf-8") == "\n".join(["x1,x2,x3,f", *rows]) + "\n"
        # signed zeros, subnormals, large integral floats and the non-finite
        # values, over 2500 rows: more than one block of formatted rows
        edge = [-0.0, 0.0, 5e-324, -1e-310, 1e16, -1e22, 1e22 + 2**22, math.inf, -math.inf, math.nan, 0.1, 1 / 3]
        rng = np.random.default_rng(3)
        points = np.array([[edge[(3 * k + j) % len(edge)] for j in range(3)] for k in range(2500)])
        points[::7] = rng.standard_normal((len(points[::7]), 3)) * 10.0 ** rng.integers(-300, 300, (len(points[::7]), 3))
        values = np.array([edge[k % len(edge)] for k in range(2500)]) if with_values else None
        write_batch_csv(SampleBatch(points=points, seed=0, values=values), str(path), dom)
        values = values if with_values else [float("nan")] * 2500
        rows = [",".join(repr(float(c)) for c in p) + f",{float(v)!r}" for p, v in zip(points, values)]
        assert path.read_text(encoding="utf-8") == "\n".join(["x1,x2,x3,f", *rows]) + "\n"
