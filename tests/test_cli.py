import json
import time

import pytest

from sosdensity import cli


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

    def test_rescale_affine_invariance(self, capsys):
        code, out1, _ = run(capsys, "bound", "--fn", "booth", "--r", "4")
        code2, out2, _ = run(capsys, "bound", "--fn", "booth", "--r", "4", "--rescale")
        assert code == code2 == 0
        v1 = float(out1.strip().splitlines()[1].split(",")[1])
        v2 = float(out2.strip().splitlines()[1].split(",")[1])
        assert v2 == pytest.approx(v1, rel=1e-6)

    def test_oversized_table_refused_up_front(self, capsys):
        # n = 10, r = 30 needs the C(74, 10) ~ 7e11 moments of degree <= 64
        t0 = time.perf_counter()
        code, out, err = run(capsys, "bound", "--fn", "rosenbrock", "--n", "10", "--r", "30")
        assert time.perf_counter() - t0 < 5.0
        assert code == 2
        assert out == ""
        assert "n = 10, degree 64" in err

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
