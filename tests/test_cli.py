import json
import math
import time

import numpy as np
import pytest

from sosdensity import ConditioningError, Domain, cli, compute_bound, parse_polynomial

UNIT = '{"kind":"box","bounds":[["0","1"]]}'
WIDE = '{"kind":"box","bounds":[["0","1000"]]}'
WIDEST = '{"kind":"box","bounds":[["-10000","10000"]]}'

def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def untimed_csv(text, column):
    """The lines of a CSV with its time_sec column (0-based) removed."""
    return [",".join(line.split(",")[:column] + line.split(",")[column + 1:]) for line in text.strip().splitlines()]


def untimed_json(text):
    """The rows of a JSON output without their time_sec."""
    return [{k: v for k, v in row.items() if k != "time_sec"} for row in json.loads(text)]


class TestBound:
    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "bound", "--fn", "motzkin", "--r", "1..6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,value,cond_B,time_sec,status"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        expected = [4.2, 1.06147, 1.06147, 0.829415, 0.801069, 0.801069]
        assert values == pytest.approx(expected, abs=1e-3)

    def test_inline_polynomial(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--poly", "5", "--domain", '{"kind":"box","bounds":[["0","1"]]}', "--r", "3"
        )
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[1]) == pytest.approx(5.0, abs=1e-9)

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "bound", "--fn", "matyas-modified-s", "--r", "1", "--json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["value"] == pytest.approx(7.2243, abs=1e-3)
        assert rows[0]["cause"] is None

    def test_off_centre_box_is_centred(self, capsys):
        # x1 on [0, 1000] at r = 11 is 1000 (1 + node) / 2, with node the smallest
        # Gauss-Legendre node of order 12; solved uncentred it came out as 7.345
        code, out, _ = run(capsys, "bound", "--poly", "x1", "--domain", WIDE, "--r", "11")
        assert code == 0
        node = float(np.polynomial.legendre.leggauss(12)[0][0])
        assert abs(float(out.strip().splitlines()[1].split(",")[1]) - 1000 * (1 + node) / 2) <= 1e-9

    def test_unit_interval_runs_every_order(self, capsys):
        code, out, _ = run(capsys, "bound", "--poly", "x1", "--domain", UNIT, "--r", "1..22")
        assert code == 0
        assert [line.split(",")[-1] for line in out.strip().splitlines()[1:]] == ["ok"] * 22

    def test_no_rescale_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bound", "--fn", "booth", "--r", "4", "--rescale"])
        assert exc.value.code == 2

    def test_certificate_has_no_json_option(self, capsys):
        # certificate always prints JSON
        with pytest.raises(SystemExit) as exc:
            cli.main(["certificate", "--fn", "motzkin", "--r", "1", "--json"])
        assert exc.value.code == 2

    def test_oversized_table_refused_up_front(self, capsys):
        # n = 20, r = 3 needs the C(30, 10) ~ 3e7 moments of degree <= 10,
        # with a pencil of m = C(23, 3) = 1771 the pencil guard admits
        t0 = time.perf_counter()
        code, out, err = run(capsys, "bound", "--fn", "rosenbrock", "--n", "20", "--r", "3")
        assert time.perf_counter() - t0 < 5.0
        assert code == 2
        assert out == ""
        assert "n = 20, degree 10" in err

    @pytest.mark.parametrize("orders", ["243", "1..243"])
    def test_oversized_pencil_refused_up_front(self, capsys, orders):
        # motzkin's table at r = 243 is small (121,771 entries), but each
        # m x m matrix of its pencil would take ~7 GB
        t0 = time.perf_counter()
        code, out, err = run(capsys, "bound", "--fn", "motzkin", "--r", orders)
        assert time.perf_counter() - t0 < 5.0
        assert code == 2
        assert out == ""
        assert "m = 29890" in err

    def test_conditioning_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--poly", "x1", "--domain", '{"kind":"box","bounds":[["0","1000"]]}',
            "--r", "40",
        )
        assert code == 3
        assert "conditioning-error" in out

    def test_row_level_status_in_sweep(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--poly", "x1", "--domain", '{"kind":"box","bounds":[["0","1000"]]}',
            "--r", "1..40",
        )
        assert code == 0  # some rows succeeded
        assert "conditioning-error" in out

    def test_rows_are_lone_solves(self, capsys):
        # each row of a range that starts above 1 has the bits of a lone
        # compute_bound of its order; rows 23 and 24 are conditioning errors
        # with the lone call's cond_B (1.6959e16, then inf)
        code, out, _ = run(capsys, "bound", "--poly", "x1", "--domain", WIDE, "--r", "20..24")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == list(range(20, 25))
        f, dom = parse_polynomial("x1", 1), Domain.box([(0, 1000)])
        for r, value, cond_B, _, status in rows:
            try:
                one = compute_bound(f, dom, int(r))
                want = (repr(one.value), repr(one.cond_B), "ok")
            except ConditioningError as exc:
                want = ("", repr(exc.cond_B), "conditioning-error")
            assert (value, cond_B, status) == want
        assert [row[4] for row in rows] == ["ok"] * 3 + ["conditioning-error"] * 2
        assert float(rows[3][2]) == pytest.approx(1.6959e16, rel=1e-4) and rows[4][2] == "inf"


class TestOverflow:
    def test_overflowing_moments_are_conditioning_rows(self, capsys):
        # from r = 39 a moment of [-10^4, 10^4] passes the largest float
        code, out, err = run(capsys, "bound", "--poly", "x1", "--domain", WIDEST, "--r", "1..40")
        assert (code, err) == (0, "")
        statuses = [line.split(",")[-1] for line in out.strip().splitlines()[1:]]
        assert statuses[:22] == ["ok"] * 22
        assert statuses[22:] == ["conditioning-error"] * 18
        code, out, err = run(capsys, "bound", "--poly", "x1", "--domain", WIDEST, "--r", "40")
        assert (code, err) == (3, "")
        assert out.strip().endswith("conditioning-error")

    def test_underflowing_moments_are_conditioning_rows(self, capsys):
        # on [0, w] the moment of degree k is w^(k+1)/(k+1); an order whose
        # pencil needs one below the normal floats is refused, not printed ok
        def box(width):
            return json.dumps({"kind": "box", "bounds": [["0", width]]})

        code, out, err = run(capsys, "bound", "--poly", "x1", "--domain", box("1e-100"), "--r", "1..3")
        assert (code, err) == (3, "")
        assert [line.split(",")[-1] for line in out.strip().splitlines()[1:]] == ["conditioning-error"] * 3
        # r = 1 needs m_3 = 2.5e-181; r = 2 needs m_5 ~ 1.7e-361
        code, out, err = run(capsys, "bound", "--poly", "x1", "--domain", box("1e-60"), "--r", "1..2")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert (rows[0][1], rows[0][-1]) == ("2.1132486540518714e-61", "ok")
        assert rows[1][-1] == "conditioning-error"
        with pytest.raises(ConditioningError, match="a moment underflows a float"):
            compute_bound(parse_polynomial("x1", 1), Domain.box([(0, "1e-60")]), 2)

    def test_equilibration_overflow_is_a_conditioning_row(self, capsys):
        # every entry of A and B is finite, but A's equilibrated and symmetrized
        # (0, 0) entry, 2 * 5e303 / 1e-5, passes the largest float
        domain = '{"kind":"box","bounds":[["0","0.00001"]]}'
        code, out, err = run(capsys, "bound", "--poly", "10^314*x1", "--domain", domain, "--r", "1..3")
        assert (code, err) == (3, "")
        assert [line.split(",")[-1] for line in out.strip().splitlines()[1:]] == ["conditioning-error"] * 3
        # the --json rows name the cause, which the CSV has no column for
        code, out, err = run(capsys, "bound", "--poly", "10^314*x1", "--domain", domain, "--r", "1..3", "--json")
        assert (code, err) == (3, "")
        cause = "an equilibrated entry passes the largest float; K's extent or f's coefficients leave the float range"
        assert [(row["status"], row["cause"]) for row in json.loads(out)] == [("conditioning-error", cause)] * 3

    def test_lapack_failure_is_a_conditioning_row(self, capsys, monkeypatch):
        from sosdensity import bounds

        solve = bounds._dsygvd
        monkeypatch.setattr(bounds, "_dsygvd", lambda a, b, **kwargs: (*solve(a, b, **kwargs)[:2], 1))
        code, out, err = run(capsys, "bound", "--poly", "x1", "--domain", UNIT, "--r", "1..3")
        assert (code, err) == (3, "")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [(row[0], row[-1]) for row in rows] == [(str(r), "conditioning-error") for r in (1, 2, 3)]

    @pytest.mark.parametrize("command, expected", [("certificate", 2), ("bound", 3), ("sample", 3)])
    def test_huge_coefficient(self, capsys, command, expected):
        argv = [command, "--poly", "10^400*x1", "--domain", UNIT, "--r", "1"]
        if command == "certificate":
            argv += ["--a", "0.5", "--f-min", "0"]
        code, _, err = run(capsys, *argv)
        assert code == expected
        if command != "bound":  # bound reports the failure in its row
            assert err.startswith("error: ") and "Traceback" not in err
        if command == "certificate":  # the refusal names the quantity
            assert err == (
                "error: the integral of f * H passes the largest float; "
                "K's extent or f's coefficients leave the float range\n"
            )

    def test_rate_bound_past_the_largest_float(self, capsys):
        # zeta(K) ~ 1.04e299 on [-1, 1]^110 times M_f = 1e100: named, not
        # printed as Infinity nor refused by the JSON writer
        box = json.dumps({"kind": "box", "bounds": [["-1", "1"]] * 110})
        code, out, err = run(
            capsys, "certificate", "--poly", "10^100*x1", "--domain", box, "--a", ",".join(["0"] * 110),
            "--f-min", "-1", "--r", "1",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: rhs = zeta(K) * M_f / sqrt(2r + 1) passes the largest float; "
            "K's extent or f's coefficients leave the float range\n"
        )

    def test_lipschitz_bound_whose_square_passes_the_floats(self, capsys):
        code, out, err = run(capsys, "certificate", "--poly", "10^200*x1", "--domain", UNIT, "--r", "1",
                             "--a", "0.5", "--f-min", "0")
        assert (code, err) == (0, "")
        assert json.loads(out)["M_f"] == math.nextafter(1e200, math.inf)

    @pytest.mark.parametrize("side", ["1e-100", "1e-120", "1e-160", "1e-200"])
    def test_small_box(self, capsys, side):
        # eps_K^3 is a normal float at side 1e-100; it underflows at 1e-120,
        # D is subnormal at 1e-160 and 0 at 1e-200: one error line, no traceback
        box = json.dumps({"kind": "box", "bounds": [["0", side]]})
        code, out, err = run(capsys, "certificate", "--poly", "x1", "--domain", box, "--r", "1",
                             "--a", "0", "--f-min", "0")
        if side == "1e-100":
            assert (code, err) == (0, "")
            assert json.loads(out)["geom"]["eps_K"] == 5e-101
        else:
            assert (code, out) == (2, "")
            assert err.startswith("error: K's extent leaves the float range: D = ") and err.count("\n") == 1

    def test_json_is_strict(self, capsys):
        # RFC 8259 has no Infinity: a cond_B past the largest float is null
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        code, out, _ = run(capsys, "bound", "--poly", "x1", "--domain", WIDEST, "--r", "39..40", "--json")
        assert code == 3
        assert [row["cond_B"] for row in json.loads(out, parse_constant=refuse)] == [None, None]
        code, out, _ = run(capsys, "bound", "--poly", "x1", "--domain", WIDEST, "--r", "39..40")
        assert [line.split(",")[2] for line in out.strip().splitlines()[1:]] == ["inf", "inf"]

    def test_zeta_past_the_largest_float(self, capsys):
        # on [-1, 1]^113 zeta(K) is past the largest float: refused, not printed as Infinity
        box = json.dumps({"kind": "box", "bounds": [["-1", "1"]] * 113})
        code, out, err = run(
            capsys, "certificate", "--poly", "x1", "--domain", box, "--a", ",".join(["0"] * 113),
            "--f-min", "-1", "--r", "1",
        )
        assert (code, out) == (2, "")
        assert err == "error: zeta(K) does not fit a float at n = 113\n"

    @pytest.mark.parametrize("kind", ["ball", "box"])
    def test_zeta_where_gamma_overflows(self, capsys, kind):
        # from n = 342 Gamma(1 + n/2) passes the largest float; zeta(K) is
        # still the quantity that is refused, by name
        n = 342
        dom = {"kind": "ball", "n": n} if kind == "ball" else {"kind": "box", "bounds": [["-1", "1"]] * n}
        code, out, err = run(
            capsys, "certificate", "--poly", "x1", "--domain", json.dumps(dom), "--a", ",".join(["0"] * n),
            "--f-min", "-1", "--r", "1",
        )
        assert (code, out) == (2, "")
        assert err == f"error: zeta(K) does not fit a float at n = {n}\n"


class TestConfigErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "--fn", "nosuch", "--r", "1"),
            ("bound", "--fn", "booth", "--poly", "x1", "--r", "1"),
            ("bound", "--poly", "x1", "--r", "1"),
            ("bound", "--fn", "booth", "--r", "0"),
            ("bound", "--fn", "booth", "--r", "3..1"),
            ("bound", "--fn", "styblinski-tang", "--r", "1"),
            ("bound", "--poly", "x1 $", "--domain", '{"kind":"box","bounds":[["0","1"]]}', "--r", "1"),
            ("bound", "--poly", "x1", "--domain", "notjson", "--r", "1"),
            ("sample", "--fn", "matyas-modified-b", "--r", "2"),
            ("sample", "--fn", "booth", "--r", "1..3"),
            ("sample", "--fn", "booth", "--r", "2", "--count", "0"),
            ("certificate", "--fn", "booth", "--r", "2", "--a", "20,20"),
            ("certificate", "--poly", "x1", "--domain", '{"kind":"box","bounds":[["0","1"]]}', "--r", "2"),
            ("bound", "--poly", "(" * 400 + "x1" + ")" * 400, "--domain", UNIT, "--r", "1"),  # nested too deeply
            ("bound", "--fn", "motzkin", "--domain", '{"kind":"ball","n":2}', "--r", "1"),
            ("bound", "--poly", "x1", "--domain", UNIT, "--n", "3", "--r", "1"),
        ],
    )
    def test_exit_code_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (("bound", "--r", "1"), "pass --fn NAME or --poly EXPR --domain JSON"),
        (("certificate", "--fn", "booth", "--r", "2", "--a", "x,y"), "bad --a: could not convert string to float: 'x'"),
        (("certificate", "--poly", "x1", "--domain", UNIT, "--r", "1", "--a", "0.5"), "pass --f-min for inline polynomials"),
        (("certificate", "--poly", "x1", "--domain", UNIT, "--r", "1", "--a", "0.5,0.5", "--f-min", "0"),
         "center has length 2, expected 1"),
        (("bound", "--fn", "motzkin", "--domain", '{"kind":"ball","n":2}', "--r", "1"),
         "--domain goes with --poly; a catalog function has its own domain"),
        (("certificate", "--poly", "x1", "--domain", UNIT, "--n", "1", "--r", "1", "--a", "0.5", "--f-min", "0"),
         "--n goes with --fn; --poly takes its dimension from --domain"),
    ], ids=["no-instance", "bad-a", "no-f-min", "a-length", "fn-with-domain", "poly-with-n"])
    def test_names_the_input(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "domain",
        [
            '[1]',
            '"box"',
            '{"kind":"box","bounds":5}',
            '{"kind":"simplex","n":null}',
            '{"kind":"simplex","n":1e400}',
            '{"kind":"ball","n":1.5}',
            '{"kind":"simplex","n":true}',
        ],
    )
    def test_malformed_domain(self, capsys, domain):
        code, out, err = run(capsys, "bound", "--poly", "x1", "--domain", domain, "--r", "1")
        assert code == 2
        assert "bad --domain" in err
        assert out == ""


class TestRefusedUpFront:
    """Bad --eps and --out values exit 2 with an error line."""

    @pytest.mark.parametrize("argv", [
        ("--fn", "motzkin", "--eps", "nan"),
        ("--fn", "motzkin", "--eps", "inf"),
        ("--fn", "motzkin", "--eps", "0"),
        ("--poly", "x1", "--domain", UNIT, "--eps", "1"),
    ], ids=["nan", "inf", "zero", "poly"])
    def test_bad_eps_before_the_bound(self, capsys, monkeypatch, argv):
        def no_bound(*_):
            raise AssertionError("compute_bound ran")

        monkeypatch.setattr(cli, "compute_bound", no_bound)
        code, out, err = run(capsys, "sample", "--r", "4", "--count", "50", *argv)
        assert code == 2
        assert "error:" in err and "--eps" in err
        assert out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_f_min(self, capsys, monkeypatch, value):
        def no_certificate(*_):
            raise AssertionError("certificate ran")

        monkeypatch.setattr(cli, "certificate", no_certificate)
        code, out, err = run(capsys, "certificate", "--fn", "motzkin", "--r", "12", "--a", "0,0", f"--f-min={value}")
        assert code == 2
        assert "error:" in err and "--f-min" in err
        assert out == ""

    def test_ball_sample_before_the_bound(self, capsys, monkeypatch):
        # the library's refusal, from the one statement of where the sampler draws
        def no_bound(*_):
            raise AssertionError("compute_bound ran")

        monkeypatch.setattr(cli, "compute_bound", no_bound)
        code, out, err = run(capsys, "sample", "--poly", "x1", "--domain", '{"kind":"ball","n":2}', "--r", "1")
        assert (code, out) == (2, "")
        assert err == "error: sampling is supported on boxes and the simplex, not 'ball'\n"

    def test_negative_seed_before_the_bound(self, capsys, monkeypatch):
        def no_bound(*_):
            raise AssertionError("compute_bound ran")

        monkeypatch.setattr(cli, "compute_bound", no_bound)
        code, out, err = run(capsys, "sample", "--fn", "motzkin", "--r", "12", "--count", "5", "--seed", "-1")
        assert code == 2
        assert "error:" in err and "--seed" in err
        assert out == ""

    def test_count_beyond_stream_indices_before_the_bound(self, capsys, monkeypatch):
        def no_bound(*_):
            raise AssertionError("compute_bound ran")

        monkeypatch.setattr(cli, "compute_bound", no_bound)
        code, out, err = run(capsys, "sample", "--fn", "motzkin", "--r", "12", "--count", str(2**32 + 1))
        assert code == 2
        assert "error:" in err and "--count" in err and str(2**32 + 1) in err
        assert out == ""

    @pytest.mark.parametrize("orders", ["1..", "..3", "abc", "1..x", ""])
    def test_malformed_orders(self, capsys, orders):
        code, out, err = run(capsys, "bound", "--fn", "booth", "--r", orders)
        assert code == 2
        assert f"invalid order range {orders!r}" in err
        assert out == ""

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_bad_family_dimension(self, capsys, n):
        code, out, err = run(capsys, "bound", "--fn", "styblinski-tang", "--n", n, "--r", "1")
        assert code == 2
        assert err.startswith("error:") and "n must be" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["sample", "bound"])
    def test_unwritable_out(self, capsys, tmp_path, command):
        path = tmp_path / "missing" / "x.csv"
        argv = [command, "--fn", "motzkin", "--r", "4", "--out", str(path)]
        code, _, err = run(capsys, *argv, *(["--count", "50"] if command == "sample" else []))
        assert code == 2
        assert err.startswith("error:") and "cannot write --out" in err
        assert not path.parent.exists()


class TestOutFile:
    """--out writes to the file what stdout shows without it."""

    def test_bound(self, capsys, tmp_path):
        path = tmp_path / "bound.csv"
        code, shown, _ = run(capsys, "bound", "--fn", "motzkin", "--r", "1..4")
        assert run(capsys, "bound", "--fn", "motzkin", "--r", "1..4", "--out", str(path)) == (code, "", "")
        assert code == 0 and len(shown.splitlines()) == 5
        assert untimed_csv(path.read_text(encoding="utf-8"), 3) == untimed_csv(shown, 3)

    def test_certificate(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, shown, _ = run(capsys, "certificate", "--fn", "booth", "--r", "2")
        assert run(capsys, "certificate", "--fn", "booth", "--r", "2", "--out", str(path)) == (code, "", "")
        assert code == 0 and path.read_text(encoding="utf-8") == shown

    def test_bench_json(self, capsys, tmp_path, monkeypatch):
        from sosdensity import golden

        monkeypatch.setattr(golden, "TABLE_BOX", {"motzkin": {r: v for r, v in golden.TABLE_BOX["motzkin"].items() if r <= 4}})
        monkeypatch.setattr(golden, "TABLE_SB", {})
        monkeypatch.setattr(golden, "TABLE_N10", {})
        path = tmp_path / "bench.json"
        code, shown, _ = run(capsys, "bench", "--json")
        assert run(capsys, "bench", "--json", "--out", str(path)) == (code, "", "")
        assert code == 0 and len(json.loads(shown)) == 4
        assert untimed_json(path.read_text(encoding="utf-8")) == untimed_json(shown)


class TestSample:
    def test_summary_and_determinism(self, capsys, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        for path in (p1, p2):
            code, out, _ = run(
                capsys, "sample", "--fn", "three-hump-camel", "--r", "4", "--count", "200",
                "--seed", "9", "--eps", "1", "--out", str(path),
            )
            assert code == 0
            row = out.strip().splitlines()[1].split(",")
            assert float(row[8]) <= 0.5 + 0.2  # markov freq within cap + slack
        assert p1.read_bytes() == p2.read_bytes()

    def test_mean_near_bound(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--fn", "matyas-modified-s", "--r", "3", "--count", "2000",
            "--seed", "0", "--json",
        )
        assert code == 0
        s = json.loads(out)[0]
        se = (s["variance"] / s["count"]) ** 0.5
        assert abs(s["mean"] - s["bound"]) <= 3 * se

    def test_degenerate_prefix_is_exit_3(self, capsys, monkeypatch):
        # no prefix clears the floor: a conditioning failure with a message, not a traceback
        from sosdensity import sampling

        monkeypatch.setattr(sampling, "DENOMINATOR_FLOOR", math.inf)
        code, out, err = run(capsys, "sample", "--fn", "motzkin", "--r", "2", "--count", "3")
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_points_in_the_given_box(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        domain = '{"kind":"box","bounds":[["0","3"],["-1","2"]]}'
        code, _, _ = run(
            capsys, "sample", "--poly", "x1^2 - x1*x2 + x2", "--domain", domain, "--r", "4",
            "--count", "300", "--out", str(path),
        )
        assert code == 0
        pts = np.loadtxt(path, delimiter=",", skiprows=1, encoding="utf-8")[:, :2]
        assert np.all(pts >= [0, -1]) and np.all(pts <= [3, 2])
        assert pts[:, 0].max() > 1.5  # in the box, not in its centred copy [-3/2, 3/2]^2


class TestCertificate:
    def test_motzkin_report(self, capsys):
        code, out, _ = run(capsys, "certificate", "--fn", "motzkin", "--a", "1,1", "--r", "6")
        assert code == 0
        rep = json.loads(out)
        assert rep["c_rKa"] <= rep["C_Ka"] + 1e-9
        assert rep["f_rKa"] >= 0.406076 - 1e-6
        assert rep["holds"] in ("true", "false", "false-precondition")

    def test_defaults_from_catalog(self, capsys):
        code, out, _ = run(capsys, "certificate", "--fn", "booth", "--r", "2")
        assert code == 0
        rep = json.loads(out)
        assert rep["a"] == [1.0, 3.0]
        assert rep["f_min"] == 0.0

    def test_inline_with_fmin(self, capsys):
        code, out, _ = run(
            capsys, "certificate", "--poly", "x1", "--domain", '{"kind":"box","bounds":[["0","1"]]}',
            "--r", "8", "--a", "0", "--f-min", "0",
        )
        assert code == 0
        assert json.loads(out)["holds"] == "true"

    def test_null_C_Ka_when_no_mass_bound(self, capsys):
        # from the vertex 0 of the 10-simplex no cube fits inside K and the
        # Taylor bracket would need order ~ 250: the mass has lower end 0
        code, out, _ = run(
            capsys, "certificate", "--poly", "x1", "--domain", '{"kind":"simplex","n":10}',
            "--r", "1", "--a", ",".join(["0"] * 10), "--f-min", "0",
        )
        assert code == 0
        assert '"C_Ka": null' in out
        rep = json.loads(out)
        assert rep["C_Ka"] is None and rep["mass"][0] == 0.0 < rep["mass"][1]


class TestBench:
    def test_golden_mismatch_exit_code(self, capsys, monkeypatch):
        from sosdensity import golden

        tampered = {k: dict(v) for k, v in golden.TABLE_BOX.items()}
        tampered["motzkin"][2] = 99.0
        monkeypatch.setattr(golden, "TABLE_BOX", tampered)
        monkeypatch.setattr(golden, "TABLE_SB", {})
        monkeypatch.setattr(golden, "TABLE_N10", {})
        code, out, _ = run(capsys, "bench")
        assert code == 4
        assert "FAIL" in out

    def test_passing_subset(self, capsys, monkeypatch):
        from sosdensity import golden

        monkeypatch.setattr(golden, "TABLE_BOX", {"motzkin": {r: v for r, v in golden.TABLE_BOX["motzkin"].items() if r <= 4}})
        monkeypatch.setattr(golden, "TABLE_SB", {})
        monkeypatch.setattr(golden, "TABLE_N10", {})
        code, out, _ = run(capsys, "bench")
        assert code == 0
        assert out.count("ok") >= 4

    def test_conditioning_error_row(self, capsys, monkeypatch):
        # an order the floats refuse is a conditioning-error row with no value
        # and no delta, and the orders around it keep their rows
        from sosdensity import bounds, golden

        cells = {r: v for r, v in golden.TABLE_BOX["motzkin"].items() if r <= 4}
        monkeypatch.setattr(golden, "TABLE_BOX", {"motzkin": cells})
        monkeypatch.setattr(golden, "TABLE_SB", {})
        monkeypatch.setattr(golden, "TABLE_N10", {})
        solve = bounds.smallest_generalized_eigenpair

        def refuse_above_m6(A, B):  # m = 10 at r = 3 in n = 2
            if len(A) > 6:
                raise ConditioningError("refused")
            return solve(A, B)

        monkeypatch.setattr(bounds, "smallest_generalized_eigenpair", refuse_above_m6)
        code, out, _ = run(capsys, "bench")
        assert code == 4
        lines = untimed_csv(out, 5)
        assert lines[0] == "function,r,value,golden,abs_delta,status,reference_print"
        assert [line.split(",")[5] for line in lines[1:]] == ["ok", "ok", "conditioning-error", "conditioning-error"]
        for r, line in zip((3, 4), lines[3:]):
            assert line == f"motzkin,{r},,{cells[r]},,conditioning-error,"
        code, out, _ = run(capsys, "bench", "--json")
        assert code == 4
        assert [row["cause"] for row in json.loads(out)] == [None, None, "refused", "refused"]

    def test_rows_are_bound_rows(self, capsys, monkeypatch):
        # a bench row is the bound row of its order, timed the same way
        from sosdensity import golden

        monkeypatch.setattr(golden, "TABLE_BOX", {"motzkin": {r: v for r, v in golden.TABLE_BOX["motzkin"].items() if r <= 4}})
        monkeypatch.setattr(golden, "TABLE_SB", {})
        monkeypatch.setattr(golden, "TABLE_N10", {})
        code, out, _ = run(capsys, "bench", "--json")
        assert code == 0
        benched = json.loads(out)
        code, out, _ = run(capsys, "bound", "--fn", "motzkin", "--r", "1..4", "--json")
        assert code == 0
        bound = json.loads(out)
        assert [row["r"] for row in benched] == [row["r"] for row in bound] == [1, 2, 3, 4]
        for mine, theirs in zip(benched, bound):
            assert [mine[k] for k in ("value", "cond_B", "status")] == [theirs[k] for k in ("value", "cond_B", "status")]
            assert isinstance(mine["time_sec"], float) and mine["time_sec"] >= 0
