import math
from fractions import Fraction

import numpy as np
import pytest

from sosdensity.bounds import compute_bound
from sosdensity.moments import Domain
from sosdensity.polynomials import Polynomial, parse_polynomial
from sosdensity.sampling import (
    build_chain,
    conditional_cdf,
    invert_cdf,
    markov_check,
    sample,
    write_batch_csv,
)


def uniform_density(dom: Domain) -> Polynomial:
    return Polynomial.constant(dom.n, Fraction(1) / Fraction(dom.volume()))


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


class TestOptimalDensitySampling:
    def test_mean_matches_bound(self):
        f = parse_polynomial("x1^4 - x1^2", 1)
        dom = Domain.box([(-2, 2)])
        b = compute_bound(f, dom, 5)
        chain = build_chain(b.density, dom)
        batch = sample(chain, 3000, seed=7, f=f)
        se = float(np.std(batch.values)) / math.sqrt(len(batch.values))
        assert abs(float(np.mean(batch.values)) - b.value) <= 3 * se


class TestMarkov:
    def test_frequency_and_validation(self):
        f = parse_polynomial("x1", 1)
        dom = Domain.cube(1)
        chain = build_chain(uniform_density(dom), dom)
        batch = sample(chain, 2000, seed=5, f=f)
        freq = markov_check(f, batch, bound=0.5, f_min=0.0, eps=1.0)
        # threshold 1.0: only the endpoint can exceed
        assert freq <= 0.01
        with pytest.raises(ValueError):
            markov_check(f, batch, bound=0.5, f_min=0.0, eps=0.0)
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
