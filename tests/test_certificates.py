"""A certificate certifies the representation its coordinates name.

Each snapshot records (eps, a, t), and the replay builds its rep with
`genus2.build_glued`: a relabelled eps or a tampered a fails the replay.
Certificates of the older format also record the pants matrices X and Y,
which must be those the coordinates build.  `pants.build_pants` remembers
the pants it built recently, so the replay after a search rebuilds nothing;
the memo must never change what a replay reports.
"""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

from srk import genus2, pants, search
from srk.genus2 import GluedRep
from srk.search import (Certificate, OutOfScopeError, replay_certificate,
                        search_nonhyperbolic)

ROOT = Path(__file__).resolve().parents[1]
TWO_ROUNDS = ROOT / "tests" / "data" / "certificate_two_rounds.json"

# the record that CI searches and replays: no moves, found beta_1 at trace
# 1.9586
CI_RECORD = {"eps": ["EuPlus1", "EuMinus1"], "a": [1.0, 1.1, 1.2],
             "t": [0.3, -0.2, 0.5]}


def _load_corpus():
    spec = importlib.util.spec_from_file_location("bench_corpus",
                                                  ROOT / "bench" / "corpus.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _ci_certificate() -> dict:
    out = search_nonhyperbolic(GluedRep.from_json(json.dumps(CI_RECORD)))
    return json.loads(out.certificate.to_json())


def _replay(data: dict) -> dict:
    return replay_certificate(Certificate.from_json(json.dumps(data)))


def _snapshots(data: dict) -> list:
    return [data["initial"]] + [mv["snapshot"] for mv in data["moves"]
                                if mv["kind"] == "recoordinatize"]


def _hexed(obj):
    """`obj` with every float spelled by `float.hex`, to compare bits."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _hexed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hexed(v) for v in obj]
    return obj


class TestFormat:
    def test_snapshots_record_coordinates_only(self):
        data = json.loads(TWO_ROUNDS.read_text())
        snap = data["initial"]
        rep = genus2.build_glued(*map(pants.case_from_string, snap["eps"]),
                                 snap["a"], snap["t"])
        out = search_nonhyperbolic(rep)
        assert out.rounds == 2
        fresh = json.loads(out.certificate.to_json())
        assert [sorted(s) for s in _snapshots(fresh)] == \
            [["a", "eps", "t"]] * 3

    def test_older_certificate_replays_with_or_without_matrices(self):
        data = json.loads(TWO_ROUNDS.read_text())
        assert all("X" in s and "Y" in s for s in _snapshots(data))
        with_xy = _replay(data)
        for snap in _snapshots(data):
            del snap["X"], snap["Y"]
        assert with_xy == _replay(data)
        assert with_xy["ok"] and len(with_xy["link_errors"]) == 2


def _relabel(eps):
    def spoil(d):
        d["initial"]["eps"] = eps
    return spoil


def _tamper_a(d):
    d["initial"]["a"][0] = 1.05


class TestTamperedCertificates:
    @pytest.mark.parametrize("spoil, trace", [
        (_relabel(["EuPlus1", "EuPlus1"]), -4.6427),
        (_relabel(["Eu0PlusTriangle", "Eu0MinusTriangle"]), 1.4692),
        (_tamper_a, None)])
    def test_the_replay_builds_what_the_snapshot_names(self, spoil, trace):
        data = _ci_certificate()
        assert _replay(data)["ok"]
        spoil(data)
        report = _replay(data)
        assert report["ok"] is False
        if trace is not None:
            assert report["trace"] == pytest.approx(trace, abs=1e-4)

    def test_the_mirrored_labelling_names_the_mirrored_rep(self):
        """(EuMinus1, EuPlus1) at the same coordinates is the mirror image
        of the record's rep: beta_1 has the same trace there, so the
        certificate is true of the rep it names (only `srk replay
        --record` tells the two records apart)."""
        data = _ci_certificate()
        data["initial"]["eps"] = ["EuMinus1", "EuPlus1"]
        report = _replay(data)
        assert report["ok"] and report["trace"] == data["trace"]

    @pytest.mark.parametrize("eps", [["Eu0PlusSelfHex", "Eu0PlusSelfHex"],
                                     ["Eu0PlusTriangle", "Eu0PlusSelfHex"],
                                     ["Eu0DiagonalFlat", "EuPlus1"]])
    def test_a_wrong_stratum_names_no_rep(self, eps):
        data = _ci_certificate()
        data["initial"]["eps"] = eps
        report = _replay(data)
        assert report["ok"] is False
        assert report["reason"].startswith(
            "snapshot coordinates name no representation")

    @pytest.mark.parametrize("link, eps, ok", [
        (0, ["Eu0PlusTriangle", "Eu0PlusTriangle"], False),
        (1, ["EuPlus1", "EuPlus1"], False),
        # the mirror image: every trace, so every link, is the same
        (1, ["EuMinus1", "EuPlus1"], True)])
    def test_a_link_snapshot_relabelled(self, link, eps, ok):
        data = json.loads(TWO_ROUNDS.read_text())
        snaps = _snapshots(data)
        snaps[1 + link]["eps"] = eps
        assert _replay(data) == {
            "ok": False,
            "reason": "snapshot matrices are not the pants of its coordinates"}
        for snap in snaps:
            del snap["X"], snap["Y"]
        report = _replay(data)
        assert report["ok"] is ok
        if not ok:
            assert report["reason"] == "recoordinatisation link"

    @pytest.mark.parametrize("where", ["initial", "link"])
    def test_a_tampered_with_the_old_matrices_kept(self, where):
        data = json.loads(TWO_ROUNDS.read_text())
        snap = _snapshots(data)[0 if where == "initial" else 1]
        snap["a"][0] += 1e-3
        assert _replay(data)["reason"] == ("snapshot matrices are not the "
                                           "pants of its coordinates")

    def test_zero_matrices_are_not_the_pants(self):
        data = json.loads(TWO_ROUNDS.read_text())
        data["initial"]["X"] = data["initial"]["Y"] = [[0.0] * 4] * 3
        assert _replay(data)["ok"] is False

    def test_half_lengths_outside_the_float_range(self):
        data = _ci_certificate()
        data["initial"]["a"] = [1e-3, 1.1e-3, 1.2e-3]
        with pytest.raises(OutOfScopeError, match="float build's range"):
            _replay(data)


class TestPantsMemo:
    def test_replays_do_not_depend_on_the_memo(self):
        """Over the benchmark's search corpora, each replay reports the
        same bits with the memo as after clearing it, and each pants the
        replay finds in the memo equals a fresh build, solution included."""
        corpus = _load_corpus()
        records = corpus.search_corpus(101, 1500) + \
            corpus.corner_corpus(101, 750)
        replayed = 0
        for rec in records:
            rep = GluedRep.from_json(rec["text"])
            out = search_nonhyperbolic(rep)
            if not isinstance(out, search.FoundCurve):
                continue
            cert = out.certificate
            hits = [search._rep_from_snapshot(s)
                    for s in _snapshots(cert.to_dict())]
            assert hits[0].p1 is rep.p1 and hits[0].p2 is rep.p2
            report = _hexed(replay_certificate(cert))
            pants._built.clear()
            assert _hexed(replay_certificate(cert)) == report
            pants._built.clear()
            for hit in hits:
                fresh = search._rep_from_snapshot(hit.to_dict())
                for p, q in ((hit.p1, fresh.p1), (hit.p2, fresh.p2)):
                    assert p is not q
                    assert p == q and p.solution == q.solution
            replayed += 1
        assert replayed > 2200

    def test_a_refusal_is_not_remembered(self):
        a = (1.0, 1.0, 3.0)              # no triangle on these sides
        for _ in range(2):
            with pytest.raises(pants.PantsError):
                pants.build_pants(a, pants.EU0_PLUS_TRIANGLE)
        assert (a, pants.EU0_PLUS_TRIANGLE) not in pants._built

    def test_the_memo_is_bounded(self):
        early = pants.build_pants((1.0, 1.1, 1.2), pants.EU_PLUS1)
        assert early is pants.build_pants([1, 1.1, 1.2], pants.EU_PLUS1)
        for i in range(1, 3 * pants._BUILT_MAX):
            pants.build_pants((1.0 + i / 1024, 1.1, 1.2), pants.EU_PLUS1)
        assert len(pants._built) == pants._BUILT_MAX
        again = pants.build_pants((1.0, 1.1, 1.2), pants.EU_PLUS1)
        assert again is not early and again == early

    def test_nothing_assigns_to_a_built_pants(self):
        """Only constructors set an object's fields: a memo hit hands out
        the pants that every earlier caller holds."""
        fields = set(pants.PantsRep.__slots__)
        for path in sorted((ROOT / "src" / "srk").glob("*.py")):
            tree = ast.parse(path.read_text())
            own = {id(node) for init in ast.walk(tree)
                   if isinstance(init, ast.FunctionDef)
                   and init.name == "__init__" for node in ast.walk(init)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id == "self"}
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, (ast.Store, ast.Del)):
                    assert node.attr not in fields or id(node) in own, \
                        f"{path.name}:{node.lineno} assigns .{node.attr}"
                if isinstance(node, ast.Name):
                    assert node.id not in ("setattr", "delattr"), \
                        f"{path.name}:{node.lineno} calls {node.id}"
