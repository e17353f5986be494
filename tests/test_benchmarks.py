import hashlib

import numpy as np
import pytest

from sosdensity.benchmarks import get, list_names
from sosdensity.polynomials import parse_polynomial


class TestCatalog:
    def test_ten_entries_sorted_stable(self):
        names = list_names()
        assert len(names) == 10
        assert names == sorted(names)
        assert "motzkin" in names
        assert list_names() == names

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get("rastrigin")

    def test_parametric_requires_n(self):
        with pytest.raises(ValueError):
            get("styblinski-tang")
        with pytest.raises(ValueError):
            get("rosenbrock", 1)

    @pytest.mark.parametrize("n", [0, -1, True, 2.0, 1.5, "3"])
    def test_parametric_rejects_bad_n(self, n):
        for name in ("styblinski-tang", "rosenbrock"):
            with pytest.raises(ValueError, match="n must be"):
                get(name, n)

    def test_parametric_reads_integer_like_n(self):
        assert get("styblinski-tang", np.int64(3)).n == 3

    def test_fixed_rejects_other_n(self):
        for n in (3, 2.0, True):
            with pytest.raises(ValueError):
                get("booth", n)
        assert get("booth", 2).name == "booth"

    def test_same_corpus_bits(self):
        # every entry's source, parsed terms in order, domain, minimum and
        # minimizers, pinned by one digest
        fixed = [name for name in list_names() if name not in ("styblinski-tang", "rosenbrock")]
        cases = [get(name) for name in fixed]
        cases += [get(name, n) for name in ("styblinski-tang", "rosenbrock") for n in (2, 3, 10)]
        dump = "\n".join(
            repr((tc.name, tc.source, [(e, str(c)) for e, c in tc.f.terms.items()], tc.domain.to_json(),
                  repr(tc.f_min), repr(tc.minimizers)))
            for tc in cases
        )
        assert len(fixed) == 8
        assert hashlib.sha256(dump.encode()).hexdigest() == (
            "dce532c2d9db8159d64439d19a28e50f8edd9086bffb3e2346ae073c9f2bcfcd"
        )


class TestGroundTruth:
    @pytest.mark.parametrize("name", list_names())
    def test_minimizer_invariant(self, name):
        tc = get(name, 3) if name in ("styblinski-tang", "rosenbrock") else get(name)
        tol = 1e-4 if name == "styblinski-tang" else 1e-9
        for m in tc.minimizers:
            assert abs(tc.f.evaluate(m) - tc.f_min) <= tol

    @pytest.mark.parametrize("name", list_names())
    def test_source_parses_to_stored_polynomial(self, name):
        tc = get(name, 4) if name in ("styblinski-tang", "rosenbrock") else get(name)
        assert parse_polynomial(tc.source, tc.n) == tc.f

    @pytest.mark.parametrize("name", list_names())
    def test_minimizers_inside_domain(self, name):
        tc = get(name, 2) if name in ("styblinski-tang", "rosenbrock") else get(name)
        for m in tc.minimizers:
            assert tc.domain.contains(m, slack=1e-9)

    def test_supported_domain_kinds(self):
        kinds = {get(n, 2).domain.kind if n in ("styblinski-tang", "rosenbrock") else get(n).domain.kind
                 for n in list_names()}
        assert kinds == {"box", "simplex", "ball"}


class TestSpecificEntries:
    def test_booth(self):
        tc = get("booth")
        assert tc.f.evaluate([1.0, 3.0]) == 0.0
        assert tc.f.evaluate([0.0, 0.0]) == 74.0
        assert float(tc.domain.bounds[0][0]) == -10.0

    def test_rosenbrock_rational_domain(self):
        tc = get("rosenbrock", 2)
        lo, hi = tc.domain.bounds[0]
        assert hi.numerator == 256 and hi.denominator == 125
        assert tc.f.evaluate([1.0, 1.0]) == 0.0

    def test_styblinski_tang_scales_with_n(self):
        t2, t5 = get("styblinski-tang", 2), get("styblinski-tang", 5)
        assert t5.f_min == pytest.approx(2.5 * t2.f_min)

    def test_modified_b_degree(self):
        assert get("three-hump-camel-modified-b").f.degree == 12

