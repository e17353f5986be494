import json
import time

import numpy as np
import pytest

from sosdensity import cli

UNIT = '{"kind":"box","bounds":[["0","1"]]}'
WIDE = '{"kind":"box","bounds":[["0","1000"]]}'

def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        ],
    )
    def test_exit_code_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "domain",
        [
            '[1]',
            '"box"',
            '{"kind":"box","bounds":5}',
            '{"kind":"simplex","n":null}',
            '{"kind":"simplex","n":1e400}',
            '{"kind":"ball","n":1.5}',
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

    @pytest.mark.parametrize("command", ["sample", "bound"])
    def test_unwritable_out(self, capsys, tmp_path, command):
        path = tmp_path / "missing" / "x.csv"
        argv = [command, "--fn", "motzkin", "--r", "4", "--out", str(path)]
        code, _, err = run(capsys, *argv, *(["--count", "50"] if command == "sample" else []))
        assert code == 2
        assert err.startswith("error:") and "cannot write --out" in err
        assert not path.parent.exists()


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

    def test_points_in_the_given_box(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        domain = '{"kind":"box","bounds":[["0","3"],["-1","2"]]}'
        code, _, _ = run(
            capsys, "sample", "--poly", "x1^2 - x1*x2 + x2", "--domain", domain, "--r", "4",
            "--count", "300", "--out", str(path),
        )
        assert code == 0
        pts = np.loadtxt(path, delimiter=",", skiprows=1)[:, :2]
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
