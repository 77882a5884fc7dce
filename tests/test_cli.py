import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import classify_digests
import numpy as np
import pytest
from bench_corpus import corpus

import srk
from srk import cli, genus2, hyptrig, inequalities, search, torus
from srk.pants import EU_MINUS1, EU_PLUS1, PantsCase


@pytest.fixture
def rep_file(tmp_path):
    rep = genus2.build_glued(EU_PLUS1, EU_MINUS1, (1.0, 1.1, 1.2),
                             (0.3, -0.2, 0.5))
    path = tmp_path / "rep.json"
    path.write_text(rep.to_json())
    return str(path)


class TestClassify:
    def test_outputs_match_golden(self, tmp_path):
        """`srk classify` answers every record of `classify_digests.CORPORA`
        as `tests/data/classify_sha256.json` pins: the same exit code,
        report and stderr.  A failure names the first record that
        differs."""
        golden = json.loads(classify_digests.GOLDEN.read_text())
        assert sorted(golden) == sorted(classify_digests.CORPORA)
        path = tmp_path / "record.json"
        for name, make in classify_digests.CORPORA.items():
            records = make()
            assert len(records) == len(golden[name]), name
            for index, (rec, want) in enumerate(zip(records, golden[name])):
                assert classify_digests.digest(rec["text"], path) == want, \
                    f"{name}[{index}] differs: {rec['text']}"

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

    def test_euler_relator_lost_exit(self, tmp_path, capsys):
        # a = 20 (1, 1.1, 1.2) builds, but its Euler class relator drowns
        # in rounding
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"eps": ["EuPlus1", "EuMinus1"],
                                    "a": [20.0, 22.0, 24.0], "t": [0, 0, 0]}))
        assert cli.main(["classify", str(path)]) == 3
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [
        {"eps": ["Eu0LowerFlat(+1)", "Eu0DiagonalFlat"],
         "a": [2.7736871024401544, 4.35969620988864, 7.133383312328794],
         "t": [-55.992219455184, 30.475245757058445, -16.105772258698877]},
        {"eps": ["EuPlus1", "EuMinus1"],
         "a": [11.44967107379082, 11.839110446527727, 11.407274038077015],
         "t": [42.891993419819414, 39.17687610093613, -36.22884388689101]},
    ])
    def test_euler_class_drift_exit(self, tmp_path, capsys, record):
        # the boundary-circle Milnor sum drifted to class 1 here with both
        # of its checks passing; the angle model reads the nominal class 0
        path = tmp_path / "drift.json"
        path.write_text(json.dumps(record))
        rep = genus2.GluedRep.from_json(path.read_text())
        assert genus2.euler_class(rep) == rep.euler_nominal == 0
        assert cli.main(["classify", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["euler"] == 0

    def test_euler_refusal_names_its_margins(self, tmp_path, capsys):
        path = tmp_path / "refused.json"
        path.write_text(json.dumps({"eps": ["EuPlus1", "EuMinus1"],
                                    "a": [15, 16.5, 18],
                                    "t": [0.3, -0.2, 0.1]}))
        assert cli.main(["classify", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(
            r"classify: out of range: relator moves the boundary by up to "
            r"\S+ rad and the smallest wrap clearance is \S+ rad, against a "
            r"bound of 0\.5 rad\n", err)


OVERFLOW = dict.fromkeys(["classify", "search"],
                         "out of range: half-lengths overflow")
UNDERFLOW = dict.fromkeys(["classify", "search"],
                          "out of range: half-lengths outside the float "
                          "build's range (a polygon side overflows a float")

# each record with the start of the stderr line of each command
HUGE_RECORDS = [
    # cosh(800) overflows a float
    ({"eps": ["EuPlus1", "EuMinus1"], "a": [800, 1, 1], "t": [0, 0, 0]},
     OVERFLOW),
    # cosh(711) overflows a float
    ({"eps": ["Eu0PlusTriangle", "Eu0MinusTriangle"], "a": [711] * 3,
      "t": [0, 0, 0]}, OVERFLOW),
    # cosh(700) is finite, but its products overflow: the delta invariant
    # is inf - inf
    ({"eps": ["Eu0PlusTriangle", "Eu0MinusTriangle"], "a": [700] * 3,
      "t": [0, 0, 0]}, OVERFLOW),
    # classify reads the traces at t_3 = 1e20, where they overflow; the
    # search normalises t_3 first, and it rounds to -16384, far outside
    # [-a_3, a_3]
    ({"eps": ["EuPlus1", "EuMinus1"], "a": [1, 1.1, 1.2], "t": [0, 0, 1e20]},
     {"classify": "out of range: trace of beta1 overflows",
      "search": "out of scope: twists (0.0, 0.0, 1e+20) are too large"}),
    # t_3 = 1e16 and 1.2e29 normalise to 0.0, where the exact remainders
    # of the floats are -0.43 and -0.17: refused as off their orbits
    ({"eps": ["EuPlus1", "EuMinus1"], "a": [1, 1.1, 1.2], "t": [0, 0, 1e16]},
     {"classify": "out of range: trace of beta1 overflows",
      "search": "out of scope: twists (0.0, 0.0, 1e+16) are too large"}),
    ({"eps": ["EuPlus1", "EuMinus1"], "a": [1, 1.1, 1.2],
      "t": [0, 0, 1.2e29]},
     {"classify": "out of range: trace of beta1 overflows",
      "search": "out of scope: twists (0.0, 0.0, 1.2e+29) are too large"}),
    # t_1 normalises to -2.0: on its orbit, but a period outside [-a_1, a_1]
    ({"eps": ["EuPlus1", "EuMinus1"], "a": [1.5, 1.1, 1.2], "t": [1e16, 0, 0]},
     {"classify": "out of range: trace of beta2 overflows",
      "search": "out of scope: twists (1e+16, 0.0, 0.0) are too large"}),
    # t_1 / (2 a_1) overflows a float
    ({"eps": ["EuPlus1", "EuMinus1"], "a": [0.05, 0.06, 0.07],
      "t": [1e308, 0, 0]},
     {"classify": "out of range: trace of beta2 overflows",
      "search": "out of scope: twists (1e+308, 0.0, 0.0) are too large"}),
    # sinh(1e-310) is subnormal: the hexagon sides b_2, b_3 solve to inf
    ({"eps": ["EuPlus1", "EuMinus1"], "a": [1e-310, 1.0, 1.0],
      "t": [0, 0, 0]}, UNDERFLOW),
    # sinh(5e-324)^2 rounds to 0: the hexagon and the self-hexagon
    # solvers divide by it
    ({"eps": ["EuPlus1", "EuMinus1"], "a": [5e-324] * 3, "t": [0, 0, 0]},
     UNDERFLOW),
    ({"eps": ["Eu0PlusSelfHex", "Eu0PlusSelfHex"], "a": [5e-324, 5e-324, 1.0],
      "t": [0, 0, 0]}, UNDERFLOW),
]


@pytest.mark.parametrize("command", ["classify", "search"])
@pytest.mark.parametrize("record,why", [
    pytest.param(record, why, id=f"record{i}")
    for i, (record, why) in enumerate(HUGE_RECORDS)])
def test_overflowing_half_lengths_are_out_of_scope(tmp_path, capsys, command,
                                                   record, why):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(record))
    assert cli.main([command, str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"{command}: {why[command]}")


@pytest.mark.parametrize("a", [100, 150, 200, 236])
def test_long_hexagon_sides_are_out_of_scope(tmp_path, capsys, a):
    # a = 100: the relator scale of the Euler class overflows a float; a =
    # 150..236: the pants' cocycle residuals exceed their rounding bound
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"eps": ["EuPlus1", "EuMinus1"],
                                "a": [a] * 3, "t": [0, 0, 0]}))
    assert cli.main(["classify", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("classify: out of range: ")


def test_short_hexagon_sides_are_out_of_range(tmp_path, capsys):
    # a = 1e-3 (1, 1.1, 1.2): the cocycle residuals (5.7e-8) exceed their
    # rounding bound; the message must not call the half-lengths too long
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"eps": ["EuPlus1", "EuMinus1"],
                                "a": [1e-3, 1.1e-3, 1.2e-3],
                                "t": [0, 0, 0]}))
    assert cli.main(["classify", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("classify: out of range: half-lengths outside "
                          "the float build's range (cocycle residuals")


@pytest.mark.parametrize("record", [
    # the two tags live on different delta strata
    {"eps": ["Eu0PlusTriangle", "Eu0PlusSelfHex"], "a": [1.0, 1.1, 1.2],
     "t": [0, 0, 0]},
    # a triangle tag on sides that violate the triangle inequality
    {"eps": ["Eu0PlusTriangle", "EuMinus1"], "a": [0.3, 0.4, 1.5],
     "t": [0, 0, 0]},
], ids=["strata", "tag"])
def test_tag_mismatch_is_usage_error(tmp_path, capsys, record):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    assert cli.main(["classify", str(path)]) == 64
    assert "bad input" in capsys.readouterr().err


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


# a search's certificate: one twist move, then a word in the generators
CERTIFICATE = Path(__file__).resolve().parent / "data" / \
    "certificate_beta_twist.json"

# a JSON integer that converts to no float: malformed, as 1e400 is
HUGE_INT = 10 ** 400


def _huge_int_input(tmp_path, where):
    """(argv, stderr prefix) of a command given HUGE_INT at `where`."""
    record = {"eps": ["EuPlus1", "EuMinus1"], "a": [1.0, 1.1, 1.2],
              "t": [0.3, -0.2, 0.5]}
    data = search.search_nonhyperbolic(genus2.GluedRep.from_json(
        json.dumps(record))).certificate._asdict()
    command, key = where.split(":")
    if command in ("classify", "search"):
        record[key][1] = HUGE_INT
    elif key == "a":
        data["initial"]["a"][1] = HUGE_INT
    elif key == "trace":
        data["trace"] = HUGE_INT
    else:                          # the --record
        record["t"][1] = HUGE_INT
    rec, cert = tmp_path / "rec.json", tmp_path / "cert.json"
    rec.write_text(json.dumps(record))
    cert.write_text(json.dumps(data))
    if command != "replay":
        return [command, str(rec)], f"{command}: bad input: "
    if key == "record":
        return (["replay", str(cert), "--record", str(rec)],
                "replay: bad record: ")
    return ["replay", str(cert)], "replay: bad certificate: "


@pytest.mark.parametrize("where", ["classify:t", "search:t", "replay:a",
                                   "replay:trace", "replay:record"])
def test_an_integer_too_large_for_a_float_is_usage_error(tmp_path, capsys,
                                                         where):
    argv, prefix = _huge_int_input(tmp_path, where)
    assert cli.main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(prefix)


@pytest.mark.parametrize("where", ["classify", "search", "replay",
                                   "replay --record"])
def test_json_too_deep_to_decode_is_usage_error(tmp_path, capsys, where):
    """A record, certificate or --record nested past the JSON decoder's
    recursion limit is malformed input: exit 64 with one stderr line."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    command = where.split()[0]
    if where.endswith("--record"):
        argv, prefix = ["replay", str(CERTIFICATE), "--record", str(deep)], \
            "replay: bad record: "
    else:
        argv = [command, str(deep)]
        prefix = ("replay: bad certificate: " if command == "replay"
                  else f"{command}: bad input: ")
    assert cli.main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(prefix)


def _cut_matrix(d):
    # an older-format pants matrix, and cut short at that
    d["initial"]["X"] = [[1.0, 0.0, 0.0]] * 3


def _rename_curve(d):
    d["curve"][0][0] = "zeta1"


def _twist_index(d):
    next(mv for mv in d["moves"] if mv["kind"] == "twist")["i"] = 7


def _string_length(d):
    d["initial"]["a"] = ["x", 1, 1]


def _no_initial_eps(d):
    del d["initial"]["eps"]


def _huge_exponent(d):
    # srk writes curve words of +-1 letters only; a power would cost one
    # product per unit of exponent
    d["curve"] = [["gamma1", 1000000000]]


@pytest.mark.parametrize("spoil", [_cut_matrix, _rename_curve, _twist_index,
                                   _string_length, _huge_exponent,
                                   _no_initial_eps])
def test_malformed_certificate_is_usage_error(tmp_path, capsys, spoil):
    data = json.loads(CERTIFICATE.read_text())
    spoil(data)
    path = tmp_path / "bad_cert.json"
    path.write_text(json.dumps(data))
    assert cli.main(["replay", str(path)]) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bad certificate" in err


def _twists_of(k):
    def spoil(d):
        for mv in d["moves"]:
            if mv["kind"] == "twist":
                mv["k"] = k
    return spoil


def _huge_length(d):
    d["initial"]["a"] = [1e300, 1, 1]


@pytest.mark.parametrize("spoil", [
    # the curve's trace overflows to inf; a translation's exp reaches 0; a
    # twist reaches +-inf; cosh overflows
    pytest.param(_twists_of(200), id="k200"),
    pytest.param(_twists_of(1000000), id="k1e6"),
    pytest.param(_twists_of(10 ** 308), id="k1e308"),
    pytest.param(_twists_of(-10 ** 308), id="k-1e308"),
    pytest.param(_huge_length, id="a1e300")])
def test_overflowing_certificate_is_out_of_scope(tmp_path, capsys, spoil):
    data = json.loads(CERTIFICATE.read_text())
    spoil(data)
    path = tmp_path / "huge_cert.json"
    path.write_text(json.dumps(data))
    assert cli.main(["replay", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "overflows" in err


def _broken_trace(d):
    """The certificate with 0.5 taken from its recorded trace: the
    replayed trace is 0.5 off it."""
    data = json.loads(CERTIFICATE.read_text())
    data["trace"] -= 0.5
    path = d / "broken_trace.json"
    path.write_text(json.dumps(data))
    return path


def test_broken_trace_fails_replay(tmp_path, capsys):
    path = _broken_trace(tmp_path)
    assert cli.main(["replay", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["trace"] - json.loads(path.read_text())["trace"] == \
        pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_replay_fails_closed_on_a_bad_tol(tmp_path, tol):
    # `gap > tol` is False for a NaN tol; the replay must not pass then
    cert = search.Certificate.from_json(_broken_trace(tmp_path).read_text())
    assert search.replay_certificate(cert, tol=tol)["ok"] is False
    good = search.Certificate.from_json(CERTIFICATE.read_text())
    assert search.replay_certificate(good)["ok"] is True
    assert search.replay_certificate(good, tol=tol)["ok"] is False


# the two records the CLI tests search: one found at round 0, one that
# twists once along beta_3 in round 1 (hence the ids "beta_twist")
SEARCH_RECORDS = [
    {"eps": ["EuPlus1", "EuMinus1"], "a": [1.0, 1.1, 1.2],
     "t": [0.3, -0.2, 0.5]},
    {"eps": ["Eu0PlusTriangle", "EuMinus1"],
     "a": [2.177271425843055, 2.0216335715832017, 2.2096542923498688],
     "t": [1.1546330313413034, 0.7929074417928108, 1.2030657845188415]}]


def _searched(tmp_path, record):
    """(record path, certificate path, the search's stdout) of `srk search`
    on `record`; the certificate file holds no "replay" field."""
    rec = tmp_path / "rec.json"
    rec.write_text(json.dumps(record))
    proc = _python_m_srk(["search", str(rec)], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    del data["replay"]
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(data))
    return rec, cert, proc.stdout


@pytest.mark.parametrize("record", SEARCH_RECORDS,
                         ids=["round0", "beta_twist"])
def test_search_output_is_the_certificate_and_its_replay(tmp_path, record):
    """`srk search` prints the certificate's JSON with the replay report
    added, as it did when it parsed the certificate's JSON back for it."""
    rec, _, stdout = _searched(tmp_path, record)
    out = search.search_nonhyperbolic(genus2.GluedRep.from_json(
        rec.read_text()))
    old = json.loads(out.certificate.to_json())
    old["replay"] = search.replay_certificate(out.certificate)
    assert stdout == json.dumps(old, default=float) + "\n"


def _set_eps(eps):
    def spoil(d):
        d["initial"]["eps"] = eps
    return spoil


def _set_a(d):
    d["initial"]["a"][1] = 1.2


def _initial_eps(d):
    d["initial"]["eps"] = ["Eu0PlusTriangle", "Eu0PlusTriangle"]


def _initial_a(d):
    d["initial"]["a"][0] += 1e-3


@pytest.mark.parametrize("spoil, reason", [
    (_set_eps(["EuPlus1", "EuPlus1"]), None),
    (_set_eps(["Eu0PlusTriangle", "Eu0MinusTriangle"]), None),
    (_set_a, None),
    (_set_eps(["Eu0PlusSelfHex", "Eu0MinusSelfHex"]),
     "snapshot coordinates name no representation")])
def test_tampered_certificate_fails_replay(tmp_path, capsys, spoil, reason):
    _, cert, _ = _searched(tmp_path, SEARCH_RECORDS[0])
    data = json.loads(cert.read_text())
    spoil(data)
    cert.write_text(json.dumps(data))
    assert cli.main(["replay", str(cert)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["ok"] is False
    if reason:
        assert report["reason"].startswith(reason)


@pytest.mark.parametrize("spoil", [_initial_eps, _initial_a])
def test_tampered_committed_certificate_fails_replay(tmp_path, capsys,
                                                     spoil):
    """A relabelled initial snapshot, or an initial a moved by 1e-3, is
    rebuilt as another rep, on which the word's trace is not the recorded
    one."""
    data = json.loads(CERTIFICATE.read_text())
    spoil(data)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    assert cli.main(["replay", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert abs(report["trace"] - data["trace"]) > 1e-6


@pytest.mark.parametrize("a", [
    # the cocycle residuals exceed their rounding bound
    [1e-3, 1.1e-3, 1.2e-3],
    # a polygon side solves to inf
    [1e-310, 1.0, 1.0],
    # sinh a_j sinh a_k rounds to 0
    [5e-324] * 3], ids=["1e-3", "1e-310", "5e-324"])
def test_snapshot_outside_the_float_range_is_out_of_scope(tmp_path, capsys,
                                                          a):
    _, cert, _ = _searched(tmp_path, SEARCH_RECORDS[0])
    data = json.loads(cert.read_text())
    data["initial"]["a"] = a
    cert.write_text(json.dumps(data))
    assert cli.main(["replay", str(cert)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "float build's range" in err


class TestReplayRecord:
    def test_the_record_of_the_search(self, tmp_path, capsys):
        rec, cert, _ = _searched(tmp_path, SEARCH_RECORDS[1])
        assert cli.main(["replay", str(cert), "--record", str(rec)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    @pytest.mark.parametrize("key, value", [
        ("eps", ["EuMinus1", "EuPlus1"]),
        ("a", [1.0, 1.1, 1.25]),
        ("t", [0.3, -0.2, 0.5000000000000001])])
    def test_another_record_fails(self, tmp_path, capsys, key, value):
        rec, cert, _ = _searched(tmp_path, SEARCH_RECORDS[0])
        other = dict(SEARCH_RECORDS[0], **{key: value})
        rec.write_text(json.dumps(other))
        assert cli.main(["replay", str(cert), "--record", str(rec)]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "ok": False,
            "reason": f"initial snapshot is not the record: {key} differ"}

    def test_the_mirrored_labelling_needs_the_record(self, tmp_path, capsys):
        """(EuMinus1, EuPlus1) names the mirror image of the record's rep,
        whose beta_1 has the same trace: only the record rejects it."""
        rec, cert, _ = _searched(tmp_path, SEARCH_RECORDS[0])
        data = json.loads(cert.read_text())
        data["initial"]["eps"] = ["EuMinus1", "EuPlus1"]
        cert.write_text(json.dumps(data))
        assert cli.main(["replay", str(cert)]) == 0
        capsys.readouterr()
        assert cli.main(["replay", str(cert), "--record", str(rec)]) == 1
        assert "eps differ" in json.loads(capsys.readouterr().out)["reason"]

    @pytest.mark.parametrize("curve, trace", [
        ([], 2.0), ([["beta1", 1], ["beta1", -1]], 1.9999999999999982)])
    def test_a_trivial_word_fails(self, tmp_path, capsys, curve, trace):
        """The record matches, but a word that reduces freely to the
        identity is no closed curve."""
        rec, cert, _ = _searched(tmp_path, SEARCH_RECORDS[0])
        data = json.loads(cert.read_text())
        data.update(moves=[], curve=curve, trace=trace)
        cert.write_text(json.dumps(data))
        assert cli.main(["replay", str(cert), "--record", str(rec)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out) == {
            "ok": False, "reason": "curve word reduces to the identity"}

    def test_integer_coordinates_match(self, tmp_path, capsys):
        rec, cert, _ = _searched(tmp_path, {"eps": ["EuPlus1", "EuMinus1"],
                                            "a": [1, 1.1, 1.2],
                                            "t": [0, 0, 1]})
        assert cli.main(["replay", str(cert), "--record", str(rec)]) == 0

    @pytest.mark.parametrize("text", [
        "{", "[]", json.dumps({"eps": ["EuPlus1"], "a": [1, 1, 1],
                               "t": [0, 0, 0]}),
        json.dumps({"eps": ["EuPlus1", "EuPlus3"], "a": [1, 1, 1],
                    "t": [0, 0, 0]}),
        json.dumps({"eps": ["EuPlus1", "EuMinus1"], "a": [1, 1, "x"],
                    "t": [0, 0, 0]}),
        None])
    def test_a_malformed_record_is_usage_error(self, tmp_path, capsys, text):
        _, cert, _ = _searched(tmp_path, SEARCH_RECORDS[0])
        rec = tmp_path / "bad_rec.json"
        if text is not None:
            rec.write_text(text)
        assert cli.main(["replay", str(cert), "--record", str(rec)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "bad record" in captured.err


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

    @pytest.mark.parametrize("t3", [-1.1999999999999995, -1.19999999999999])
    def test_twist_on_the_lower_edge(self, tmp_path, t3):
        # t_3 + a_3 < TWIST_EDGE: t_3 moves to +a_3, where it rounds just
        # above a_3, and stays on its orbit
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"eps": ["EuPlus1", "EuMinus1"],
                                    "a": [1, 1.1, 1.2], "t": [0, 0, t3]}))
        cert = tmp_path / "cert.json"
        assert cli.main(["search", str(path), "--out", str(cert)]) == 0
        data = json.loads(cert.read_text())
        assert data.pop("replay")["ok"]
        cert.write_text(json.dumps(data))
        out = tmp_path / "replay.json"
        assert cli.main(["replay", str(cert), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ok"]


class TestStall:
    """A stalled search writes its certificate, which has no curve, and
    then fails with one stderr line.  `search_nonhyperbolic` is replaced by
    a stall, so that these tests do not depend on a record the search
    stalls on."""

    DIAGNOSTIC = "no twist along beta_3 opens a torus window"

    @pytest.fixture(autouse=True)
    def stall(self, rep_file, monkeypatch):
        record = json.loads(Path(rep_file).read_text())
        stalled = search.Stalled(diagnostic=self.DIAGNOSTIC,
                                 certificate=search.Certificate(
                                     record, [], None, None),
                                 rounds=0, history=[])
        monkeypatch.setattr(search, "search_nonhyperbolic",
                            lambda rep: stalled)

    def test_certificate_without_a_curve(self, rep_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert cli.main(["search", rep_file, "--out", str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"search: stalled: {self.DIAGNOSTIC}\n"
        assert json.loads(cert.read_text())["curve"] is None
        assert cli.main(["replay", str(cert)]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "ok": False, "reason": "certificate has no curve"}
        assert captured.err == ""

    def test_unwritable_out_is_the_one_line(self, rep_file, tmp_path,
                                            capsys):
        out = tmp_path / "missing" / "x.json"
        assert cli.main(["search", rep_file, "--out", str(out)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"search: cannot write {out}: " \
            "No such file or directory\n"


def test_a_failed_torus_reduction_is_a_stall(rep_file, tmp_path, capsys,
                                             monkeypatch):
    """A torus reduction that raises ReductionError stalls the search: exit
    2 with one stderr line, and the certificate, with no curve, is still
    written.  The record's dispatch takes the route across delta_3."""
    def fail(x, y, z):
        raise torus.ReductionError("greedy descent stalled")

    monkeypatch.setattr(torus, "reduce_triple", fail)
    cert = tmp_path / "cert.json"
    assert cli.main(["search", rep_file, "--out", str(cert)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("search: stalled: torus reduction failed: "
                            "greedy descent stalled\n")
    data = json.loads(cert.read_text())
    assert data["curve"] is None and data["trace"] is None


# Euler +-1 records with two half-lengths below 3e-3, where a handle's
# found word fails its matrix check
SHORT_HALF_LENGTHS = [
    {"eps": ["Eu0PlusSelfHex", "EuMinus1"],
     "a": [1.0824526870326485, 0.00014426749673446157, 0.002758207967464769],
     "t": [-0.0021447783875142646, 1.8076058916929159, 0.08483057690419055]},
    {"eps": ["Eu0MinusSelfHex", "EuPlus1"],
     "a": [0.0019298413425307638, 0.0004988181711067675, 2.0799749614031215],
     "t": [0.7450706003999766, -0.0007096180930537718,
           -0.0011158502291825577]}]


def _fuzz_records(seed, n):
    """Records over all valid case pairs, cycled: every other cycle draws
    half-lengths from `corpus.sample_a` at amax ~ U(0.5, 3), the others
    each a_i log-uniform on [1e-4, 40]; each t_i is U(-1, 1) 10^U(-3, 3)."""
    rng = np.random.default_rng(seed)
    pairs = corpus.valid_pairs()
    for r in range(n):
        eps = pairs[r % len(pairs)]
        if r // len(pairs) % 2 == 0:
            anchor = eps[0] if corpus.kind(eps[0]) != "hex" else eps[1]
            a = corpus.sample_a(anchor, rng, rng.uniform(0.5, 3.0))
        else:
            a = np.exp(rng.uniform(math.log(1e-4), math.log(40.0), 3))
        t = rng.uniform(-1.0, 1.0, 3) * 10.0 ** rng.uniform(-3.0, 3.0, 3)
        yield {"eps": list(eps), "a": [float(x) for x in a],
               "t": [float(x) for x in t]}


class TestNoTraceback:
    """A valid record ends in an exit code, never in a traceback: `main`
    is driven in process, so an exception would fail the test."""

    @pytest.mark.parametrize("record", SHORT_HALF_LENGTHS,
                             ids=["plus_selfhex", "minus_selfhex"])
    def test_short_half_lengths_stall(self, tmp_path, capsys, record):
        rec, cert = tmp_path / "rec.json", tmp_path / "cert.json"
        rec.write_text(json.dumps(record))
        assert cli.main(["search", str(rec), "--out", str(cert)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("search: stalled: found curve fails its "
                              "matrix check: |tr| = ")
        data = json.loads(cert.read_text())
        assert data["curve"] is None and data["trace"] is None
        assert cli.main(["classify", str(rec)]) == 3

    @pytest.mark.parametrize("t1", [1e308, 1.7e308, -1.7e308])
    def test_a_twist_near_the_float_limit(self, tmp_path, t1):
        """The count's twist moves t_1 back into [-a_1, a_1], and the
        replay's twist move does so again."""
        rec, cert = tmp_path / "rec.json", tmp_path / "cert.json"
        rec.write_text(json.dumps({"eps": ["EuPlus1", "EuMinus1"],
                                   "a": [0.5, 1, 1], "t": [t1, 0, 0]}))
        assert cli.main(["search", str(rec), "--out", str(cert)]) == 0
        assert cli.main(["replay", str(cert), "--record", str(rec),
                         "--out", os.devnull]) == 0

    def test_seeded_sweep(self, tmp_path, capsys):
        rec, cert = tmp_path / "rec.json", tmp_path / "cert.json"
        found = 0
        for record in _fuzz_records(41, 500):
            rec.write_text(json.dumps(record))
            code = cli.main(["search", str(rec), "--out", str(cert)])
            assert code in (0, 2, 3, 64), record
            if code == 0:
                found += 1
                assert cli.main(["replay", str(cert), "--record", str(rec),
                                 "--out", os.devnull]) == 0, record
        capsys.readouterr()
        assert found > 100


def _python_m_srk(argv, text=True, extra_env=None, **kwargs):
    """Run `python -W error -m srk argv` in a fresh interpreter, its stdout
    block-buffered (Python's default) whatever PYTHONUNBUFFERED says, and
    `extra_env` added to its environment."""
    src = str(Path(srk.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    env.update(extra_env or {})
    return subprocess.run([sys.executable, "-W", "error", "-m", "srk",
                           *argv], text=text, env=env, timeout=120, **kwargs)


def _numpy_finds_avx512():
    found = set(np.show_config(mode="dicts")["SIMD Extensions"]["found"])
    return bool(found & {"X86_V4", "AVX512_SKX"})


def _verify_golden(scale):
    """The committed verify table for numpy's SIMD target: its AVX-512
    kernels (SVML) round some float64 functions differently from the libm
    that numpy calls without them."""
    kernels = "" if _numpy_finds_avx512() else ".no_avx512"
    return CERTIFICATE.parent / f"verify_scale{scale}{kernels}.csv"


def _replayed(out):
    """Whether a replay report is ok, with its trace and nothing more."""
    return json.loads(out).keys() == {"ok", "trace"} and \
        json.loads(out)["ok"] is True


# each success command of the CLI with a check of what it writes (stdout,
# or the --out file): RECi is SEARCH_RECORDS[i] and CERTi the certificate
# `srk search RECi --out CERTi` writes
@pytest.mark.parametrize("argv, check", [
    pytest.param(["classify", "REC0"],
                 lambda out: json.loads(out)["euler"] == 0, id="classify"),
    pytest.param(["search", "REC0", "--out", "OUT"],
                 lambda out: json.loads(out)["replay"]["ok"] is True,
                 id="search"),
    pytest.param(["replay", "CERT0"], _replayed, id="replay"),
    pytest.param(["replay", "CERT0", "--record", "REC0"], _replayed,
                 id="replay_record"),
    pytest.param(["replay", str(CERTIFICATE)], _replayed,
                 id="replay_committed"),
    pytest.param(["search", "REC1", "--out", "OUT"],
                 lambda out: json.loads(out)["replay"]["ok"] is True,
                 id="search_beta_twist"),
    pytest.param(["replay", "CERT1"], _replayed, id="replay_beta_twist"),
    pytest.param(["orbit-stats", "--seed", "7", "--n", "6", "--length", "8"],
                 lambda out: out == (CERTIFICATE.parent /
                                     "orbits_seed7_n6_len8.csv").read_bytes(),
                 id="orbit_stats"),
    pytest.param(["verify", "--scale", "0.05", "--format", "csv"],
                 lambda out: out == _verify_golden("0.05").read_bytes(),
                 id="verify"),
])
def test_python_m_srk_runs_without_warnings(tmp_path, argv, check):
    """`python -m srk` runs the CLI in a fresh interpreter, with every
    warning an error (runpy warns when `-m` names a module the package
    already imported): exit 0, no stderr, and the output its check
    expects."""
    files = {"OUT": tmp_path / "out"}
    for i, record in enumerate(SEARCH_RECORDS):
        files[f"REC{i}"] = rec = tmp_path / f"rec{i}.json"
        files[f"CERT{i}"] = cert = tmp_path / f"cert{i}.json"
        rec.write_text(json.dumps(record))
        assert cli.main(["search", str(rec), "--out", str(cert)]) == 0
    proc = _python_m_srk([str(files.get(v, v)) for v in argv],
                         text=False, capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    if "OUT" in argv:
        assert proc.stdout == b""
    assert check(files["OUT"].read_bytes() if "OUT" in argv else proc.stdout)


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

    def test_golden_csv(self, tmp_path):
        """The committed table: pins the bytes of the orbits' `random()`
        streams and of every column formatted from them."""
        out = tmp_path / "o.csv"
        assert cli.main(["orbit-stats", "--seed", "7", "--n", "6",
                         "--length", "8", "--out", str(out)]) == 0
        golden = CERTIFICATE.parent / "orbits_seed7_n6_len8.csv"
        assert out.read_bytes() == golden.read_bytes()

    def test_same_bytes_under_any_hash_seed(self):
        """Two fresh interpreters with different str hash salts write the
        golden table: no orbit's seed derives from `hash()` of a str."""
        golden = CERTIFICATE.parent / "orbits_seed7_n6_len8.csv"
        for hash_seed in ("1", "2"):
            proc = _python_m_srk(
                ["orbit-stats", "--seed", "7", "--n", "6", "--length", "8"],
                text=False, capture_output=True,
                extra_env={"PYTHONHASHSEED": hash_seed})
            assert (proc.returncode, proc.stderr) == (0, b"")
            assert proc.stdout == golden.read_bytes(), hash_seed

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

    def test_starts_no_thread(self, tmp_path, monkeypatch):
        before = threading.active_count()
        seen = []
        real = cli._orbit_rows

        def counting(*args):
            seen.append(threading.active_count())
            return real(*args)

        monkeypatch.setattr(cli, "_orbit_rows", counting)
        out = tmp_path / "o.csv"
        assert cli.main(["orbit-stats", "--seed", "7", "--n", "3",
                         "--length", "4", "--out", str(out)]) == 0
        assert seen == [before] * 3
        assert threading.active_count() == before

    def test_overflow_is_out_of_scope(self, monkeypatch, capsys):
        def overflow(*args):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli, "_orbit_rows", overflow)
        assert cli.main(["orbit-stats", "--n", "1"]) == 3
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--n", "1000000"],
                                      ["--n", "19608"],
                                      ["--n", "1", "--length", "1000000"]])
    def test_rows_above_the_bound_are_refused(self, monkeypatch, capsys,
                                              argv):
        """More than `cli.MAX_ORBIT_ROWS` rows exit 64 with one stderr line
        before any orbit is drawn: unbounded, --n 1000000 at the default
        length holds 51 million rows, several GB."""
        def refuse(*args):
            raise AssertionError("an orbit was drawn")

        monkeypatch.setattr(cli, "_orbit_rows", refuse)
        t0 = time.perf_counter()
        assert cli.main(["orbit-stats", *argv]) == 64
        assert time.perf_counter() - t0 < 1.0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("orbit-stats: --n ")
        assert out.err.count("\n") == 1

    def test_row_bound_is_inclusive(self, monkeypatch, tmp_path):
        """n (length + 1) equal to the bound is written, with the final
        newline and nothing more."""
        monkeypatch.setattr(cli, "MAX_ORBIT_ROWS", 4 * 6)
        out = tmp_path / "o.csv"
        assert cli.main(["orbit-stats", "--n", "4", "--length", "5",
                         "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("\n") == 1 + 4 * 6
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert cli.main(["orbit-stats", "--n", "5", "--length", "5"]) == 64

    def test_matches_matrix_route(self):
        """Seeds 0-9: every column but the traces is byte-identical to the
        matrix-route reference, the traces agree to 1e-12 relative."""
        for seed in range(10):
            for index in range(6):
                got = [r.split(",") for r in cli._orbit_rows(seed, index, 50)]
                want = [r.split(",") for r in
                        _matrix_orbit_rows(seed, index, 50)]
                assert len(got) == len(want) == 51
                for g, w in zip(got, want):
                    assert g[:11] == w[:11] and g[14] == w[14], (seed, g)
                    for col in (11, 12, 13):
                        m = float(w[col])
                        assert abs(float(g[col]) - m) <= \
                            1e-12 * max(1.0, abs(m)), (seed, g, col)

    @pytest.mark.parametrize("length", [0, 1, 50, 63, 64, 65, 300])
    def test_matches_scalar_reference(self, length):
        """Two-column updates give the bytes of whole reformatted rows, on
        the stream the reference draws apart from `cli`."""
        for seed in range(20):
            for index in range(9):
                assert cli._orbit_rows(seed, index, length) == \
                    _scalar_orbit_rows(seed, index, length), (seed, index)


def _orbit_start(seed, index):
    """Reference orbit start, drawn apart from `cli`: the orbit's
    `random()` stream, seeded by the Cantor pairing of (seed, index), and
    the rep its first draws build (uniforms are lo + (hi - lo) * u)."""
    u = random.Random((seed + index) * (seed + index + 1) // 2 + index).random
    eps1, eps2 = EU_PLUS1, EU_MINUS1
    if index % 3 == 1:
        eps1, eps2 = (PantsCase("tri", 1), PantsCase("tri", -1))
    if index % 3 == 2:
        eps1 = eps2 = PantsCase("selfhex", 1)
    while True:
        if eps1.kind == "selfhex":
            small = sorted(0.2 + (0.8 - 0.2) * u() for _ in range(2))
            a = (small[0], small[1], sum(small) + (0.1 + (0.5 - 0.1) * u()))
        else:
            a = tuple(0.3 + (1.8 - 0.3) * u() for _ in range(3))
            if eps1.kind == "tri" and hyptrig.delta_invariant(*a) <= 0.05:
                continue
        break
    t = [-1.5 + (1.5 - -1.5) * u() for _ in range(3)]
    return u, genus2.build_glued(eps1, eps2, a, t)


def _move(u):
    """A reference move (i, k): i in 1..3, then k in -2..2."""
    i = 1 + math.floor(3 * u())
    return i, math.floor(5 * u()) - 2


def _scalar_orbit_rows(seed, index, length):
    """Reference orbit: every row's twist and trace columns recomputed and
    reformatted."""
    u, rep = _orbit_start(seed, index)
    a, t = rep.a, list(rep.t)
    coeffs = [genus2.twist_coeffs(rep, tag) for tag in genus2.DELTA_TAGS]
    sign = str(genus2.sign_invariant(rep))
    row = ",".join([str(seed), str(index), "%d", str(rep.eps1),
                    str(rep.eps2)]
                   + [cli._fl(v) for v in a] + ["%.17g"] * 6 + [sign])
    rows = []
    for step in range(length + 1):
        tr = [genus2.twist_trace(tag, c, t)
              for tag, c in zip(genus2.DELTA_TAGS, coeffs)]
        rows.append(row % (step, *t, *tr))
        i, k = _move(u)
        t[i - 1] += 2.0 * k * a[i - 1]
    return rows


def _matrix_orbit_rows(seed, index, length):
    """Reference orbit: every row rebuilt through the delta matrix words."""
    u, rep = _orbit_start(seed, index)
    rows = []
    for step in range(length + 1):
        tr = [genus2.trace_curve_matrix(rep, f"delta{k}") for k in (1, 2, 3)]
        sign = str(genus2.sign_invariant(rep))
        rows.append(",".join(
            [str(seed), str(index), str(step), str(rep.eps1), str(rep.eps2)]
            + [cli._fl(v) for v in rep.a] + [cli._fl(v) for v in rep.t]
            + [cli._fl(v) for v in tr] + [sign]))
        rep = genus2.dehn_twist_gamma(rep, *_move(u))
    return rows


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

    @pytest.mark.parametrize("scale", ["0.05", "1"])
    def test_golden_csv(self, tmp_path, scale):
        """The committed tables, written from whole-grid arrays: `_fl`
        prints 17 significant digits, so they pin every bit of every
        margin, minimum and pad.  Each scale has a table for either SIMD
        target (`_verify_golden`)."""
        out = tmp_path / "verify.csv"
        assert cli.main(["verify", "--scale", scale, "--format", "csv",
                         "--out", str(out)]) == 0
        assert out.read_bytes() == _verify_golden(scale).read_bytes()

    @pytest.mark.skipif(not _numpy_finds_avx512(),
                        reason="test_golden_csv checks the table without "
                               "AVX-512 on this host")
    @pytest.mark.parametrize("scale", ["0.05", "1"])
    def test_golden_csv_without_avx512(self, scale):
        """With numpy's AVX-512 kernels switched off, `python -m srk verify`
        writes the committed tables for a target without them."""
        proc = _python_m_srk(
            ["verify", "--scale", scale, "--format", "csv"], text=False,
            capture_output=True, extra_env={
                "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"})
        assert (proc.returncode, proc.stderr) == (0, b"")
        golden = CERTIFICATE.parent / f"verify_scale{scale}.no_avx512.csv"
        assert proc.stdout == golden.read_bytes()

    @pytest.mark.parametrize("scale", ["100.5", "1e6", "1e300"])
    def test_scale_above_the_bound_is_refused(self, monkeypatch, capsys,
                                              scale):
        """A scale past `cli.MAX_SCALE` exits 64 with one stderr line
        before any grid is built: unbounded, --scale 1e300 walks a grid of
        about 2e305 points."""
        def refuse(scale):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(inequalities, "verify_paper_inequalities", refuse)
        assert cli.main(["verify", "--scale", scale]) == 64
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("verify: --scale ")
        assert out.err.count("\n") == 1

    def test_scale_bound_is_inclusive(self, monkeypatch, capsys):
        monkeypatch.setattr(inequalities, "verify_paper_inequalities",
                            lambda scale: [])
        assert cli.main(["verify", "--scale", str(cli.MAX_SCALE)]) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["classify", "REP"], ["search", "REP"], ["replay", str(CERTIFICATE)],
    ["orbit-stats", "--n", "1", "--length", "2"],
    ["verify", "--scale", "0.05"]], ids=lambda argv: argv[0])
def test_unwritable_out_is_usage_error(rep_file, tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x.out"
    argv = [rep_file if v == "REP" else v for v in argv]
    assert cli.main(argv + ["--out", str(out)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{argv[0]}: cannot write {out}: " \
        "No such file or directory\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [["classify", "REP"],
                                  ["orbit-stats", "--n", "1"]],
                         ids=lambda argv: argv[0])
def test_unwritable_stdout_is_usage_error(rep_file, argv):
    # classify's short report fails only when flushed, orbit-stats' table
    # already in the write; neither may reach the interpreter's final flush
    argv = [rep_file if v == "REP" else v for v in argv]
    with open("/dev/full", "w") as full:
        proc = _python_m_srk(argv, stdout=full, stderr=subprocess.PIPE)
    assert proc.returncode == 64
    assert proc.stderr == f"{argv[0]}: cannot write stdout: " \
        "No space left on device\n"


@pytest.mark.skipif(os.name != "posix", reason="closes file descriptor 1")
def test_closed_stdout_is_usage_error():
    # with file descriptor 1 closed the interpreter starts with
    # sys.stdout None
    proc = _python_m_srk(["orbit-stats", "--n", "1"], stderr=subprocess.PIPE,
                         preexec_fn=lambda: os.close(1))
    assert proc.returncode == 64
    assert proc.stderr == "orbit-stats: cannot write stdout: stdout is closed\n"


def test_usage_exit(capsys):
    # no subcommand is reported on stderr like every other usage error,
    # and stdout stays empty
    assert cli.main([]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "srk: error:" in captured.err


@pytest.mark.parametrize("argv", [
    ["bogus"],
    ["search", "rep.json", "--max-rounds", "abc"],
    ["search", "rep.json", "--no-such-flag"],
    ["search"],
    ["search", "rep.json", "--tol", "nan"],
    ["search", "rep.json", "--tol", "0"],
    ["search", "rep.json", "--mu-min", "-1"],
    ["search", "rep.json", "--mu-min", "nan"],
    ["search", "rep.json", "--mu-min", "inf"],
    ["replay", "cert.json", "--tol", "nan"],
    ["replay", "cert.json", "--tol", "inf"],
    ["replay", "cert.json", "--tol", "-1e-6"],
    ["replay", "cert.json", "--tol", "abc"],
    ["verify", "--scale", "nan"],
    ["verify", "--scale", "inf"],
    ["verify", "--scale", "0"],
    ["verify", "--scale", "abc"],
    ["orbit-stats", "--n", "abc"],
    ["search", "rep.json", "--max-rounds", "-1"],
    ["search", "rep.json", "--max-rounds", "1.5"],
    ["orbit-stats", "--n", "-3"],
    ["orbit-stats", "--length", "-2"],
    ["orbit-stats", "--seed", "-1"],
], ids=" ".join)
def test_argparse_errors_exit_usage(capsys, argv):
    # argparse's own exit code 2 would read as "search stalled"
    assert cli.main(argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage: srk") and "error:" in err


def test_broken_trace_with_nan_tol_is_refused(tmp_path, capsys):
    path = _broken_trace(tmp_path)
    assert cli.main(["replay", str(path), "--tol", "nan"]) == 64
    assert capsys.readouterr().out == ""


def test_replay_takes_no_tol(tmp_path, capsys):
    # a loose --tol would accept the broken trace (0.5 off)
    path = _broken_trace(tmp_path)
    assert cli.main(["replay", str(path), "--tol", "100"]) == 64
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [["-h"], ["search", "-h"],
                                  ["verify", "--help"]])
def test_help_exits_zero(capsys, argv):
    assert cli.main(argv) == 0
    assert "usage:" in capsys.readouterr().out


def test_bounded_flags_accept_their_edges():
    assert cli.build_parser().parse_args(["verify", "--scale", "2"]).scale == 2


def test_count_flags_accept_zero(tmp_path, capsys):
    out = tmp_path / "orbits.csv"
    assert cli.main(["orbit-stats", "--seed", "0", "--n", "0", "--length",
                     "0", "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 1          # the header alone
    assert cli.main(["orbit-stats", "--n", "1", "--length", "0",
                     "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 2
