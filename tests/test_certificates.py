"""A certificate certifies the representation its coordinates name.

Its one snapshot is the coordinate record (eps, a, t) that
`genus2.parse_record` reads, and the replay builds its rep with
`genus2.build_glued`: a relabelled eps or a tampered a fails the replay.
A certificate holds exactly the keys the replay reads, so one of an older
format, whose snapshots also record the pants matrices X and Y, is
malformed, and so is one with a re-coordinatisation link, whose snapshot
may name another rep.  A curve word that reduces freely to the identity
certifies nothing.  `pants.build_pants` remembers the pants it built
recently, so the replay after a search rebuilds nothing; the memo must
never change what a replay reports.
"""

import ast
import json
from pathlib import Path

import pytest
from bench_corpus import corpus

from srk import cli, genus2, pants, search
from srk.genus2 import GluedRep
from srk.search import (Certificate, OutOfScopeError, SearchError,
                        replay_certificate, search_nonhyperbolic)

ROOT = Path(__file__).resolve().parents[1]
# the certificate of a search that twists along beta_3: one twist move and
# a 13-letter word in the generators A1, B1, A2, B2
COMMITTED = ROOT / "tests" / "data" / "certificate_beta_twist.json"
# the certificate an older srk wrote for the same record, with its word in
# the co-based loops gloop1..3 and bloop1..3
OLDER_LOOP_LETTERS = {
    "initial": {"eps": ["Eu0PlusTriangle", "Eu0MinusTriangle"],
                "a": [2.089429656913838, 2.0322541740548883,
                      2.156651200104319],
                "t": [0.7820571596775734, -2.9915930392514705,
                      0.4390226505913333]},
    "moves": [{"kind": "twist", "i": 2, "k": 1}],
    "curve": [["bloop2", 1], ["bloop3", -1], ["bloop1", -1], ["bloop3", 1],
              ["gloop1", -1], ["bloop2", 1], ["bloop2", 1]],
    "trace": 1.9906015942866908}
# a certificate an older srk wrote, with two re-coordinatisation links
OLDER_LINKS = {
    "initial": {"eps": ["EuPlus1", "EuMinus1"],
                "a": [2.020753959571758, 2.093250468557487,
                      2.1264520637935904],
                "t": [-1.8424879178000826, -1.6226775954328718,
                      -1.495973116882266]},
    "moves": [
        {"kind": "recoordinatize",
         "snapshot": {"eps": ["Eu0PlusTriangle", "Eu0MinusTriangle"],
                      "a": [1.6501968001332494, 1.7761237979785098,
                            1.8488921887733418],
                      "t": [-2.45613547575, -2.21866805839,
                            -2.08072082035]}},
        {"kind": "twist", "i": 1, "k": 1}, {"kind": "twist", "i": 2, "k": 1},
        {"kind": "twist", "i": 3, "k": 1},
        {"kind": "recoordinatize",
         "snapshot": {"eps": ["EuPlus1", "EuMinus1"],
                      "a": [1.3079078434311062, 0.9413444671621414,
                            0.6723870609996497],
                      "t": [1.82552532589, 1.22849163698, 0.85550006829]}},
        {"kind": "twist", "i": 2, "k": -1}, {"kind": "twist", "i": 3, "k": -1},
        {"kind": "twist", "i": 1, "k": -1}],
    "curve": [["beta2", 1], ["gamma3", 1]], "trace": 1.2274132366649728}

# the record that the CLI tests search and replay: no moves, found beta_1 at
# trace 1.9586
ROUND0_RECORD = {"eps": ["EuPlus1", "EuMinus1"], "a": [1.0, 1.1, 1.2],
                 "t": [0.3, -0.2, 0.5]}
# a corner record whose search twists along beta_3, then finds a word in
# the co-based loops
LINK_RECORD = {"eps": ["Eu0PlusTriangle", "EuMinus1"],
               "a": [2.177271425843055, 2.0216335715832017,
                     2.2096542923498688],
               "t": [1.1546330313413034, 0.7929074417928108,
                     1.2030657845188415]}


def _round0_certificate() -> dict:
    out = search_nonhyperbolic(GluedRep.from_json(json.dumps(ROUND0_RECORD)))
    return json.loads(out.certificate.to_json())


def _replay(data: dict) -> dict:
    return replay_certificate(Certificate.from_json(json.dumps(data)))


def _hexed(obj):
    """`obj` with every float spelled by `float.hex`, to compare bits."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _hexed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hexed(v) for v in obj]
    return obj


# the keys of a move, of its one kind
GRAMMAR = {"twist": {"kind", "i", "k"}}

# the keys the older format wrote, and one no srk ever wrote
EXTRA_KEYS = {"X": [[1.0, 0.0, 0.0, 1.0]] * 3, "Y": [[1.0, 0.0, 0.0, 1.0]] * 3,
              "delta_targets": {"delta1": 2.5, "delta2": 3.0, "delta3": 4.0},
              "residual": 1e-10, "note": "unread"}


def _first(data: dict, where: str) -> dict:
    """The initial snapshot, or the first move of kind `where`."""
    if where == "initial":
        return data["initial"]
    return next(mv for mv in data["moves"] if mv["kind"] == where)


class TestFormat:
    def test_snapshots_record_coordinates_only(self):
        out = search_nonhyperbolic(GluedRep.from_json(json.dumps(LINK_RECORD)))
        assert out.rounds == 1
        fresh = json.loads(out.certificate.to_json())
        assert sorted(fresh) == ["curve", "initial", "moves", "trace"]
        assert sorted(fresh["initial"]) == ["a", "eps", "t"]
        # the committed certificate, as srk writes it back
        cert = Certificate.from_json(COMMITTED.read_text())
        assert cert.to_json() + "\n" == COMMITTED.read_text()

    def test_the_committed_certificate_replays(self):
        """A beta-twist certificate names the rep it certifies: the replay
        rebuilds it from the initial snapshot, twists it once along
        gamma_2, and reads the word's recorded trace."""
        report = _replay(json.loads(COMMITTED.read_text()))
        assert report["ok"] is True
        assert report["trace"] == pytest.approx(1.9906015942866908, abs=1e-12)

    def test_corpus_certificates_hold_the_grammar_keys(self):
        """Every fresh certificate of the benchmark's search corpora, and
        of a record that twists along beta_3, has exactly the grammar's
        keys in its snapshot and each move."""
        records = (corpus.search_corpus(101, 1500)
                   + corpus.corner_corpus(101, 750)
                   + [{"text": json.dumps(LINK_RECORD)}])
        kinds = set()
        for rec in records:
            out = search_nonhyperbolic(GluedRep.from_json(rec["text"]))
            data = json.loads(out.certificate.to_json())
            assert data["initial"].keys() == {"eps", "a", "t"}
            for mv in data["moves"]:
                assert mv.keys() == GRAMMAR[mv["kind"]]
                kinds.add(mv["kind"])
        assert kinds == set(GRAMMAR)

    @pytest.mark.parametrize("text", ["[" * 200_000,
                                      '{"initial": ' + "[" * 200_000],
                             ids=["top", "initial"])
    def test_json_too_deep_to_decode_is_malformed(self, text):
        """JSON nested past the decoder's recursion limit is a malformed
        certificate, not a RecursionError."""
        with pytest.raises(SearchError, match="malformed certificate: "
                                              "nested too deeply"):
            Certificate.from_json(text)


def _assert_malformed(tmp_path, capsys, data: dict) -> None:
    """The library raises SearchError and `srk replay` exits 64 with one
    stderr line."""
    text = json.dumps(data)
    with pytest.raises(SearchError, match="malformed certificate"):
        Certificate.from_json(text)
    path = tmp_path / "malformed.json"
    path.write_text(text)
    assert cli.main(["replay", str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("replay: bad certificate: ")
    assert "Traceback" not in captured.err


class TestGrammar:
    @pytest.mark.parametrize("key", sorted(EXTRA_KEYS))
    @pytest.mark.parametrize("where", ["initial", "twist"])
    def test_an_extra_key_is_malformed(self, tmp_path, capsys, where, key):
        """A key the replay does not read makes the certificate
        malformed."""
        data = json.loads(COMMITTED.read_text())
        _first(data, where)[key] = EXTRA_KEYS[key]
        _assert_malformed(tmp_path, capsys, data)

    def test_a_rotate_move_is_malformed(self, tmp_path, capsys):
        """The search works in the frame of its input, and no move
        relabels it: the committed certificate with its initial snapshot
        relabelled by a leading rotate move, as an older srk wrote one, is
        malformed."""
        data = json.loads(COMMITTED.read_text())
        initial = data["initial"]
        for key in ("a", "t"):
            initial[key] = [initial[key][(i + 1) % 3] for i in range(3)]
        data["moves"].insert(0, {"kind": "rotate", "shift": 1})
        _assert_malformed(tmp_path, capsys, data)

    def test_an_older_link_is_malformed(self, tmp_path, capsys):
        """A re-coordinatisation link carries a snapshot that a fit chose,
        and may name another rep than the image of the one before it: the
        certificate an older srk wrote with two links is malformed, and so
        is the committed certificate with that certificate's first link put
        in front of its moves."""
        _assert_malformed(tmp_path, capsys, OLDER_LINKS)
        data = json.loads(COMMITTED.read_text())
        data["moves"].insert(0, OLDER_LINKS["moves"][0])
        _assert_malformed(tmp_path, capsys, data)

    def test_loop_letters_are_malformed(self, tmp_path, capsys):
        """A word's letters are curve tags and the four generators: the
        certificate an older srk wrote in the co-based loops is
        malformed."""
        _assert_malformed(tmp_path, capsys, OLDER_LOOP_LETTERS)

    @pytest.mark.parametrize("trace", ["junk", 1.5])
    def test_no_curve_means_no_trace(self, tmp_path, capsys, trace):
        """A certificate with no curve, as a stalled search writes it, has
        no trace either: the committed certificate with its curve nulled
        and a trace kept is malformed."""
        data = json.loads(COMMITTED.read_text())
        data["curve"], data["trace"] = None, trace
        _assert_malformed(tmp_path, capsys, data)

    @pytest.mark.parametrize("where", ["initial"])
    @pytest.mark.parametrize("spoil", [
        lambda s: s["a"].__setitem__(0, True),
        lambda s: s["t"].__setitem__(1, float("inf")),
        lambda s: s["a"].append(1.0),
        lambda s: s["eps"].__setitem__(1, "EuPlus2")],
        ids=["bool", "inf", "length", "case"])
    def test_a_snapshot_parse_record_refuses(self, where, spoil):
        """Snapshots are checked by `genus2.parse_record` alone: what it
        refuses in a snapshot makes the certificate malformed."""
        data = json.loads(COMMITTED.read_text())
        snap = _first(data, where)
        spoil(snap)
        with pytest.raises((genus2.Genus2Error, pants.PantsError)):
            genus2.parse_record(snap)
        with pytest.raises(SearchError, match="malformed certificate"):
            Certificate.from_json(json.dumps(data))


# a value that drops its key from the snapshot
DROP = object()


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
        data = _round0_certificate()
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
        data = _round0_certificate()
        data["initial"]["eps"] = ["EuMinus1", "EuPlus1"]
        report = _replay(data)
        assert report["ok"] and report["trace"] == data["trace"]

    @pytest.mark.parametrize("eps", [["Eu0PlusSelfHex", "Eu0PlusSelfHex"],
                                     ["Eu0PlusTriangle", "Eu0PlusSelfHex"],
                                     ["Eu0DiagonalFlat", "EuPlus1"]])
    def test_a_wrong_stratum_names_no_rep(self, eps):
        data = _round0_certificate()
        data["initial"]["eps"] = eps
        report = _replay(data)
        assert report["ok"] is False
        assert report["reason"].startswith(
            "snapshot coordinates name no representation")

    @pytest.mark.parametrize("curve, trace", [
        ([], 2.0), ([["beta1", 1], ["beta1", -1]], 1.9999999999999982),
        ([["B1", -1], ["beta1", 1], ["beta1", -1], ["B1", 1]], 2.0)])
    def test_a_trivial_word_certifies_nothing(self, curve, trace):
        """A word that cancels freely to nothing is no closed curve, though
        its trace is 2 up to rounding."""
        data = _round0_certificate()
        data["curve"], data["trace"] = curve, trace
        assert _replay(data) == {"ok": False,
                                 "reason": "curve word reduces to the "
                                           "identity"}

    @pytest.mark.parametrize("key, value, check", [
        ("eps", ["EuPlus1", "Nope"], "malformed snapshot"),
        ("a", [1.0, 1.1], "malformed snapshot"),
        ("t", [0.3, -0.2, float("inf")], "malformed snapshot"),
        ("t", DROP, "malformed snapshot"),
        ("x", 1, "malformed snapshot"),
        ("moves", [{"kind": "twist", "i": 1}], "malformed move"),
        ("moves", [{"kind": "twist", "i": 4, "k": 1}], "malformed move"),
        ("moves", None, "malformed moves"),
        ("moves", 5, "malformed moves"),
        ("moves", (), "malformed moves"),
        ("curve", [["gloop1", 1]], "malformed curve")],
        ids=["unknown-case", "two-half-lengths", "infinite-twist",
             "no-twists", "snapshot-extra-key", "move-without-k",
             "move-along-gamma4", "moves-none", "moves-int", "moves-tuple",
             "loop-letter"])
    def test_a_certificate_built_in_code_gets_the_parsed_checks(
            self, key, value, check):
        """`from_json` refuses each of these; a `Certificate` built in code
        with one of them replays to a report that names the check, not to
        an exception.  `DROP` drops the snapshot's key; a tuple of moves is
        not the list that JSON gives."""
        data = _round0_certificate()
        where = data if key in ("moves", "curve") else data["initial"]
        if value is DROP:
            del where[key]
        else:
            where[key] = value
        report = replay_certificate(Certificate(**data))
        assert report["ok"] is False
        assert report["reason"].startswith(check)

    def test_half_lengths_outside_the_float_range(self):
        data = _round0_certificate()
        data["initial"]["a"] = [1e-3, 1.1e-3, 1.2e-3]
        with pytest.raises(OutOfScopeError, match="float build's range"):
            _replay(data)


def _snapshot_rep(snap):
    """The rep a snapshot names, built by `genus2.build_glued` as the
    replay builds it."""
    eps1, eps2 = map(pants.case_from_string, snap["eps"])
    return genus2.build_glued(eps1, eps2, snap["a"], snap["t"])


class TestPantsMemo:
    def test_replays_do_not_depend_on_the_memo(self):
        """Over the benchmark's search corpora, each replay reports the
        same bits with the memo as after clearing it, and each pants the
        replay finds in the memo equals a fresh build, solution included."""
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
            hit = _snapshot_rep(cert.initial)
            assert hit.p1 is rep.p1 and hit.p2 is rep.p2
            report = _hexed(replay_certificate(cert))
            pants._build.cache_clear()
            assert _hexed(replay_certificate(cert)) == report
            pants._build.cache_clear()
            fresh = _snapshot_rep(hit.to_dict())
            for p, q in ((hit.p1, fresh.p1), (hit.p2, fresh.p2)):
                assert p is not q
                assert p == q and p.solution == q.solution
            replayed += 1
        assert replayed > 2200

    def test_a_refusal_is_not_remembered(self):
        a = (1.0, 1.0, 3.0)              # no triangle on these sides
        pants._build.cache_clear()
        for _ in range(2):
            with pytest.raises(pants.PantsError):
                pants.build_pants(a, pants.EU0_PLUS_TRIANGLE)
        info = pants._build.cache_info()
        assert info.currsize == info.hits == 0 and info.misses == 2

    def test_the_memo_is_bounded(self):
        early = pants.build_pants((1.0, 1.1, 1.2), pants.EU_PLUS1)
        assert early is pants.build_pants([1, 1.1, 1.2], pants.EU_PLUS1)
        size = pants._build.cache_info().maxsize
        for i in range(1, 3 * size):
            pants.build_pants((1.0 + i / 1024, 1.1, 1.2), pants.EU_PLUS1)
        assert pants._build.cache_info().currsize == size == 64
        again = pants.build_pants((1.0, 1.1, 1.2), pants.EU_PLUS1)
        assert again is not early and again == early

    def test_nothing_assigns_to_a_built_pants(self):
        """Only constructors set an object's fields: a memo hit hands out
        the pants that every earlier caller holds, and a search writes its
        certificate once.  Named tuples refuse an assignment when it runs;
        this reads every assignment in the source."""
        built = pants.build_pants((1.0, 1.1, 1.2), pants.EU_PLUS1)
        cert = Certificate.from_json(COMMITTED.read_text())
        for value in (built, cert):
            with pytest.raises(AttributeError):
                setattr(value, value._fields[0], None)
        fields = set(pants.PantsRep._fields + Certificate._fields)
        assert len(fields) == 8
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
