"""A certificate certifies the representation its coordinates name.

Each snapshot is the coordinate record (eps, a, t) that
`genus2.parse_record` reads, and the replay builds its rep with
`genus2.build_glued`: a relabelled eps or a tampered a fails the replay.
A certificate holds exactly the keys the replay reads, so one of the older
format, whose snapshots also record the pants matrices X and Y and whose
links record delta_targets and residual, is malformed.  A curve word that
reduces freely to the identity certifies nothing.  `pants.build_pants`
remembers the pants it built recently, so the replay after a search
rebuilds nothing; the memo must never change what a replay reports.
"""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

from srk import cli, genus2, pants, search
from srk.genus2 import GluedRep
from srk.search import (Certificate, OutOfScopeError, SearchError,
                        replay_certificate, search_nonhyperbolic)

ROOT = Path(__file__).resolve().parents[1]
TWO_ROUNDS = ROOT / "tests" / "data" / "certificate_two_rounds.json"

# the record that CI searches and replays: no moves, found beta_1 at trace
# 1.9586
CI_RECORD = {"eps": ["EuPlus1", "EuMinus1"], "a": [1.0, 1.1, 1.2],
             "t": [0.3, -0.2, 0.5]}
# a corner record whose search re-coordinatises once, then finds delta_3
LINK_RECORD = {"eps": ["Eu0PlusTriangle", "EuMinus1"],
               "a": [2.177271425843055, 2.0216335715832017,
                     2.2096542923498688],
               "t": [1.1546330313413034, 0.7929074417928108,
                     1.2030657845188415]}


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


# the keys of each kind of move
GRAMMAR = {"twist": {"kind", "i", "k"}, "rotate": {"kind", "shift"},
           "recoordinatize": {"kind", "relabel", "snapshot"}}

# the keys the older format wrote, and one no srk ever wrote
EXTRA_KEYS = {"X": [[1.0, 0.0, 0.0, 1.0]] * 3, "Y": [[1.0, 0.0, 0.0, 1.0]] * 3,
              "delta_targets": {"delta1": 2.5, "delta2": 3.0, "delta3": 4.0},
              "residual": 1e-10, "note": "unread"}


def _first(data: dict, where: str) -> dict:
    """The initial snapshot, the first link's snapshot, or the first move
    of kind `where`."""
    if where == "initial":
        return data["initial"]
    if where == "snapshot":
        return _snapshots(data)[1]
    return next(mv for mv in data["moves"] if mv["kind"] == where)


class TestFormat:
    def test_snapshots_record_coordinates_only(self):
        out = search_nonhyperbolic(GluedRep.from_json(json.dumps(LINK_RECORD)))
        assert out.rounds == 1
        fresh = json.loads(out.certificate.to_json())
        assert [sorted(s) for s in _snapshots(fresh)] == \
            [["a", "eps", "t"]] * 2
        # two links: the committed certificate, as srk writes it back
        cert = Certificate.from_json(TWO_ROUNDS.read_text())
        assert [sorted(s) for s in _snapshots(json.loads(cert.to_json()))] \
            == [["a", "eps", "t"]] * 3

    def test_the_committed_certificate_replays(self):
        """An older srk wrote its coordinates and moves; stripped of X, Y,
        delta_targets and residual, it replays with the trace and link
        errors it had with them (to rounding: a link error of 1e-10 is a
        gap between traces of up to 60)."""
        report = _replay(json.loads(TWO_ROUNDS.read_text()))
        assert report["ok"] is True
        assert report["trace"] == pytest.approx(1.2274132366649728, abs=1e-12)
        assert report["link_errors"] == pytest.approx(
            [1.702247232060472e-10, 2.1039880948592327e-10], rel=1e-2)

    def test_corpus_certificates_hold_the_grammar_keys(self):
        """Every fresh certificate of the benchmark's search corpora, and
        of a record that re-coordinatises, has exactly the grammar's keys
        in each snapshot and move."""
        corpus = _load_corpus()
        records = (corpus.search_corpus(101, 1500)
                   + corpus.corner_corpus(101, 750)
                   + [{"text": json.dumps(LINK_RECORD)}])
        kinds = set()
        for rec in records:
            out = search_nonhyperbolic(GluedRep.from_json(rec["text"]))
            data = json.loads(out.certificate.to_json())
            for snap in _snapshots(data):
                assert snap.keys() == {"eps", "a", "t"}
            for mv in data["moves"]:
                assert mv.keys() == GRAMMAR[mv["kind"]]
                kinds.add(mv["kind"])
        assert kinds == set(GRAMMAR)


class TestGrammar:
    @pytest.mark.parametrize("key", sorted(EXTRA_KEYS))
    @pytest.mark.parametrize("where", ["initial", "snapshot", "twist",
                                       "rotate", "recoordinatize"])
    def test_an_extra_key_is_malformed(self, tmp_path, capsys, where, key):
        """A key the replay does not read makes the certificate malformed:
        the library raises SearchError and `srk replay` exits 64 with one
        stderr line."""
        data = json.loads(TWO_ROUNDS.read_text())
        _first(data, where)[key] = EXTRA_KEYS[key]
        text = json.dumps(data)
        with pytest.raises(SearchError, match="malformed certificate"):
            Certificate.from_json(text)
        path = tmp_path / "extra.json"
        path.write_text(text)
        assert cli.main(["replay", str(path)]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("replay: bad certificate: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("where", ["initial", "snapshot"])
    @pytest.mark.parametrize("spoil", [
        lambda s: s["a"].__setitem__(0, True),
        lambda s: s["t"].__setitem__(1, float("inf")),
        lambda s: s["a"].append(1.0),
        lambda s: s["eps"].__setitem__(1, "EuPlus2")],
        ids=["bool", "inf", "length", "case"])
    def test_a_snapshot_parse_record_refuses(self, where, spoil):
        """Snapshots are checked by `genus2.parse_record` alone: what it
        refuses in a snapshot makes the certificate malformed."""
        data = json.loads(TWO_ROUNDS.read_text())
        snap = _first(data, where)
        spoil(snap)
        with pytest.raises((genus2.Genus2Error, pants.PantsError)):
            genus2.parse_record(snap)
        with pytest.raises(SearchError, match="malformed certificate"):
            Certificate.from_json(json.dumps(data))


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
        _snapshots(data)[1 + link]["eps"] = eps
        report = _replay(data)
        assert report["ok"] is ok
        if not ok:
            assert report["reason"] == "recoordinatisation link"

    @pytest.mark.parametrize("where", ["initial", "link"])
    def test_a_tampered_fails_a_link(self, where):
        """A snapshot's a moved by 1e-3 names another rep, which the
        first link check tells apart."""
        data = json.loads(TWO_ROUNDS.read_text())
        _snapshots(data)[0 if where == "initial" else 1]["a"][0] += 1e-3
        report = _replay(data)
        assert report["ok"] is False
        assert report["reason"] == "recoordinatisation link"

    @pytest.mark.parametrize("curve, trace", [
        ([], 2.0), ([["beta1", 1], ["beta1", -1]], 1.9999999999999982),
        ([["gloop2", -1], ["beta1", 1], ["beta1", -1], ["gloop2", 1]], 2.0)])
    def test_a_trivial_word_certifies_nothing(self, curve, trace):
        """A word that cancels freely to nothing is no closed curve, though
        its trace is 2 up to rounding."""
        data = _ci_certificate()
        data["curve"], data["trace"] = curve, trace
        assert _replay(data) == {"ok": False,
                                 "reason": "curve word reduces to the "
                                           "identity"}

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
        records = (corpus.search_corpus(101, 1500)
                   + corpus.corner_corpus(101, 750)
                   + [{"text": json.dumps(LINK_RECORD)}])
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
