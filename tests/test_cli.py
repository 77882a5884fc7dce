import json
from pathlib import Path

import pytest

from srk import cli, genus2
from srk.pants import EU_MINUS1, EU_PLUS1, PantsCase


@pytest.fixture
def rep_file(tmp_path):
    rep = genus2.build_glued(EU_PLUS1, EU_MINUS1, (1.0, 1.1, 1.2),
                             (0.3, -0.2, 0.5))
    path = tmp_path / "rep.json"
    path.write_text(rep.to_json())
    return str(path)


class TestClassify:
    def test_report(self, rep_file, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["classify", rep_file, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["euler"] == 0
        assert data["sign"] == "Minus"
        assert data["worst_agreement"] < 1e-9
        assert set(data["traces"]) == set(genus2.CURVE_TAGS)

    def test_sign_plus_sample(self, tmp_path):
        rep = genus2.build_glued(PantsCase("tri", 1), PantsCase("tri", 1),
                                 (1.0, 1.1, 1.2), (0.3, 0.4, 0.5))
        path = tmp_path / "p.json"
        path.write_text(rep.to_json())
        out = tmp_path / "report.json"
        assert cli.main(["classify", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["sign"] == "Plus"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["classify", str(path)]) == 64

    def test_wide_twist_agreement_is_relative(self, tmp_path):
        # tr delta_1 ~ 1.4e27 here: the absolute gap to the closed form is
        # ~1e12, a relative 1e-15
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"eps": ["EuPlus1", "EuMinus1"],
                                    "a": [1.0, 1.1, 1.2], "t": [60, 0, 0]}))
        out = tmp_path / "report.json"
        assert cli.main(["classify", str(path), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["traces"]["delta1"]["matrix"] > 1e26
        assert data["worst_agreement"] < 1e-9

    @pytest.mark.parametrize("t", [[800, 0, 0], [0, 0, -2000]])
    def test_trace_overflow_exit(self, tmp_path, capsys, t):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"eps": ["EuPlus1", "EuMinus1"],
                                    "a": [1.0, 1.1, 1.2], "t": t}))
        assert cli.main(["classify", str(path)]) == 3
        assert "overflows" in capsys.readouterr().err


BAD_RECORDS = [
    {"eps": ["EuPlus1", "EuMinus1"], "a": [1.0, 1.1], "t": [0, 0, 0]},
    {"eps": ["EuPlus1", "EuMinus1"], "a": [1.0, 1.1, 1.2], "t": [0, 0]},
    {"eps": ["EuPlus1"], "a": [1.0, 1.1, 1.2], "t": [0, 0, 0]},
    {"eps": ["EuPlus1", "EuMinus1"], "a": [1.0, "x", 1.2], "t": [0, 0, 0]},
    {"eps": ["EuPlus1", "EuMinus1"], "a": [1.0, 1.1, 1.2],
     "t": [0, float("nan"), 0]},
    {"eps": ["EuPlus1", "EuMinus1"], "a": 1.0, "t": [0, 0, 0]},
    ["EuPlus1", "EuMinus1"],
]


@pytest.mark.parametrize("command", ["classify", "search"])
@pytest.mark.parametrize("record", BAD_RECORDS)
def test_bad_coordinate_record_is_usage_error(tmp_path, capsys, command,
                                              record):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    assert cli.main([command, str(path)]) == 64
    assert "bad input" in capsys.readouterr().err


CERTIFICATE = Path(__file__).resolve().parent / "data" / \
    "certificate_two_rounds.json"


def _cut_matrix(d):
    d["initial"]["X"][0] = d["initial"]["X"][0][:3]


def _rename_curve(d):
    d["curve"][0][0] = "zeta1"


def _twist_index(d):
    next(mv for mv in d["moves"] if mv["kind"] == "twist")["i"] = 7


def _string_length(d):
    d["initial"]["a"] = ["x", 1, 1]


@pytest.mark.parametrize("spoil", [_cut_matrix, _rename_curve, _twist_index,
                                   _string_length])
def test_malformed_certificate_is_usage_error(tmp_path, capsys, spoil):
    data = json.loads(CERTIFICATE.read_text())
    spoil(data)
    path = tmp_path / "bad_cert.json"
    path.write_text(json.dumps(data))
    assert cli.main(["replay", str(path)]) == 64
    assert "bad certificate" in capsys.readouterr().err


def _twists_of(k):
    def spoil(d):
        for mv in d["moves"]:
            if mv["kind"] == "twist":
                mv["k"] = k
    return spoil


def _huge_length(d):
    d["initial"]["a"] = [1e300, 1, 1]


@pytest.mark.parametrize("spoil", [
    # a link trace overflows to inf; a translation's exp reaches 0; cosh
    # overflows
    pytest.param(_twists_of(200), id="k200"),
    pytest.param(_twists_of(1000000), id="k1e6"),
    pytest.param(_huge_length, id="a1e300")])
def test_overflowing_certificate_is_out_of_scope(tmp_path, capsys, spoil):
    data = json.loads(CERTIFICATE.read_text())
    spoil(data)
    path = tmp_path / "huge_cert.json"
    path.write_text(json.dumps(data))
    assert cli.main(["replay", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "overflows" in err


class TestSearch:
    def test_certificate_file(self, rep_file, tmp_path):
        out = tmp_path / "cert.json"
        assert cli.main(["search", rep_file, "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        assert cert["replay"]["ok"]
        assert abs(cert["trace"]) <= 2.0 + 1e-9

    def test_replay_roundtrip(self, rep_file, tmp_path):
        cert = tmp_path / "cert.json"
        cli.main(["search", rep_file, "--out", str(cert)])
        data = json.loads(cert.read_text())
        data.pop("replay")
        cert.write_text(json.dumps(data))
        out = tmp_path / "replay.json"
        assert cli.main(["replay", str(cert), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ok"]

    def test_out_of_scope_exit(self, tmp_path):
        rep = genus2.build_glued(PantsCase("tri", 1), PantsCase("tri", 1),
                                 (1.0, 1.1, 1.2), (0.3, 0.4, 0.5))
        path = tmp_path / "plus.json"
        path.write_text(rep.to_json())
        assert cli.main(["search", str(path)]) == 3


class TestOrbitStats:
    def test_csv_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["orbit-stats", "--seed", "11", "--n", "6", "--length", "8"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert lines[0].startswith("seed,index,step")
        assert len(lines) == 1 + 6 * 9

    def test_sign_constant_along_orbits(self, tmp_path):
        out = tmp_path / "orbits.csv"
        cli.main(["orbit-stats", "--seed", "3", "--n", "10", "--length",
                  "20", "--out", str(out)])
        lines = out.read_text().strip().split("\n")[1:]
        per_orbit = {}
        for line in lines:
            parts = line.split(",")
            per_orbit.setdefault(parts[1], set()).add(parts[-1])
        for orbit, signs in per_orbit.items():
            assert len(signs) == 1, orbit

    def test_gamma_traces_constant(self, tmp_path):
        out = tmp_path / "orbits.csv"
        cli.main(["orbit-stats", "--seed", "3", "--n", "5", "--length",
                  "12", "--out", str(out)])
        lines = out.read_text().strip().split("\n")[1:]
        per_orbit = {}
        for line in lines:
            parts = line.split(",")
            per_orbit.setdefault(parts[1], set()).add(tuple(parts[5:8]))
        for orbit, a_values in per_orbit.items():
            assert len(a_values) == 1

    def test_threads_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SRK_THREADS", "2")
        out = tmp_path / "o.csv"
        assert cli.main(["orbit-stats", "--seed", "7", "--n", "3",
                         "--length", "4", "--out", str(out)]) == 0


class TestVerify:
    def test_report_table(self, tmp_path):
        out = tmp_path / "verify.json"
        assert cli.main(["verify", "--scale", "0.05", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert all(row["ok"] for row in rows)
        assert any(row["claim"] == "phi_crossing_near_1459" for row in rows)

    def test_csv_format(self, tmp_path):
        out = tmp_path / "verify.csv"
        assert cli.main(["verify", "--scale", "0.05", "--format", "csv",
                         "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("claim,margin")


def test_usage_exit():
    assert cli.main([]) == 64
