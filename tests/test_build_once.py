"""Each genus-2 representation is built, solved and evaluated once.

The pants carry the hyptrig solutions they were built from and the closed
trace formulas read them; a search builds no pants beyond its input's two.
The references below are the re-solving closed forms and the rebuilding
normalisation that these replaced: every result must match them bit for
bit.  A cyclic relabelling of the coordinates permutes
the build exactly.
"""

import json
import math
import struct
import sys
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from case_pairs import ALL_PAIRS
from hypothesis import given, settings
from hypothesis import strategies as st

from srk import genus2, hyptrig, pants, search
from srk.genus2 import (BETA_TAGS, CURVE_TAGS, GAMMA_TAGS, DELTA_TAGS,
                        GluedRep, build_glued, euler_class, sign_invariant,
                        trace_curve_matrix)
from srk.pants import PantsCase, case_from_string


def _anchor(eps1: PantsCase, eps2: PantsCase) -> str:
    """The delta stratum the pair needs: its non-hexagon kind, if any."""
    kinds = [e.kind for e in (eps1, eps2) if e.kind not in ("plus1", "minus1")]
    if not kinds:
        return "hex"
    return "flat" if kinds[0].startswith("flat") else kinds[0]


def _cyclic(a, shift):
    return tuple(a[(i - shift) % 3] for i in range(3))


def _sample_a(kind, rng, amax=1.8):
    """Half-lengths on the stratum `kind` needs, the long side anywhere."""
    if kind == "hex":
        return tuple(rng.uniform(0.2, amax, 3))
    if kind == "tri":
        while True:
            a = tuple(rng.uniform(0.2, amax, 3))
            if hyptrig.delta_invariant(*a) > 0.02:
                return a
    small = np.sort(rng.uniform(0.15, min(0.9, amax / 2.4), 2))
    long = small.sum() + (0.0 if kind == "flat" else rng.uniform(0.08, 0.4))
    return _cyclic((small[0], small[1], long), int(rng.integers(0, 3)))


def _corpus(seed, n, amax=1.8, wide_every=8):
    """Seeded coordinate records cycling over every case pair; one in
    `wide_every` carries a twist of 10 to 40."""
    rng = np.random.default_rng(seed)
    out = []
    for r in range(n):
        eps = [case_from_string(s) for s in ALL_PAIRS[r % len(ALL_PAIRS)]]
        a = _sample_a(_anchor(*eps), rng, amax)
        t = rng.uniform(-1.5, 1.5, 3)
        if r % wide_every == 0:
            t[rng.integers(0, 3)] = rng.choice([-1.0, 1.0]) * rng.uniform(10, 40)
        out.append((eps, a, tuple(t)))
    return out


# ---------------------------------------------------------------------------
# the closed forms read the carried solutions
# ---------------------------------------------------------------------------

def _resolving_closed_form(eps1, eps2, a, t, tag):
    """The closed forms as they were before the pants carried their
    solutions: every beta and delta tag solves its polygons afresh."""
    ch, sh = math.cosh, math.sinh
    if tag in GAMMA_TAGS:
        return 2.0 * ch(a[GAMMA_TAGS.index(tag)])
    is_beta = tag in BETA_TAGS
    i = (BETA_TAGS if is_beta else DELTA_TAGS).index(tag)
    j, k = (i + 1) % 3, (i + 2) % 3
    k1, s1 = eps1.kind, eps1.eps
    k2, s2 = eps2.kind, eps2.eps

    hexkinds = ("plus1", "minus1")
    if k1 in hexkinds and k2 in hexkinds:
        if k1 == k2:
            return None
        b = hyptrig.solve_hexagon(*a).b
        if is_beta:
            return (2.0 * ch(t[j] / 2) * ch(t[k] / 2)
                    + 2.0 * ch(b[i]) * sh(t[j] / 2) * sh(t[k] / 2))
        return 2.0 + 4.0 * (sh(a[k]) * sh(b[j]) * sh(t[i] / 2)) ** 2

    if k1 == "tri" and k2 == "tri":
        theta = hyptrig.solve_triangle(*a).theta
        if s1 == s2:
            if is_beta:
                return (2.0 * ch(t[j] / 2) * ch(t[k] / 2)
                        + 2.0 * math.cos(theta[i]) * sh(t[j] / 2) * sh(t[k] / 2))
            return 2.0 - 4.0 * (math.sin(theta[j]) * sh(a[k])
                                * sh(t[i] / 2)) ** 2
        if is_beta:
            return (2.0 * sh(t[j] / 2) * sh(t[k] / 2)
                    + 2.0 * math.cos(theta[i]) * ch(t[j] / 2) * ch(t[k] / 2))
        return 2.0 + 4.0 * (math.sin(theta[j]) * sh(a[k]) * ch(t[i] / 2)) ** 2

    if k1 == "selfhex" and k2 == "selfhex":
        d = hyptrig.solve_self_hexagon(*a).d
        if s1 == s2:
            if is_beta:
                return None
            return 2.0 + 4.0 * (sh(t[i] / 2) * sh(d[j]) * sh(a[k])) ** 2
        if is_beta:
            sign = -1.0 if i == hyptrig.long_index(a) else 1.0
            return (sign * 2.0 * sh(t[j] / 2) * sh(t[k] / 2)
                    + 2.0 * ch(d[i]) * ch(t[j] / 2) * ch(t[k] / 2))
        return 2.0 - 4.0 * (ch(t[i] / 2) * sh(d[j]) * sh(a[k])) ** 2

    if {k1, k2} == {"flat_upper", "flat_lower"}:
        if is_beta or i != hyptrig.long_index(a):
            return None
        u = s1 if k1 == "flat_upper" else s2
        v = s2 if k1 == "flat_upper" else s1
        return (2.0 + 4.0 * u * v * sh(a[j]) ** 2 * sh(a[k]) ** 2
                * math.exp(-t[i] if k1 == "flat_upper" else t[i]))

    zero_kinds = ("tri", "selfhex", "flat_upper", "flat_lower", "flat_diag")
    if k1 in zero_kinds and k2 in hexkinds:
        return _resolving_mixed(eps1, eps2, a, t, tag, i, j, k)
    if k2 in zero_kinds and k1 in hexkinds:
        return _resolving_closed_form(eps2, eps1.euler_flipped(), a,
                                      tuple(-x for x in t), tag)
    return None


def _resolving_mixed(eps1, eps2, a, t, tag, i, j, k):
    ch, sh = math.cosh, math.sinh
    is_beta = tag in BETA_TAGS
    s_eff = eps1.eps if eps2.kind == "minus1" else -eps1.eps
    if is_beta and eps2.kind != "minus1":
        return None
    b = hyptrig.solve_hexagon(*a).b
    if eps1.kind == "tri":
        theta = [s_eff * x for x in hyptrig.solve_triangle(*a).theta]
        if is_beta:
            return (-2.0 * math.cos(theta[i] / 2) * ch(b[i] / 2)
                    * ch((t[j] + t[k]) / 2)
                    - 2.0 * math.sin(theta[i] / 2) * sh(b[i] / 2)
                    * sh((t[j] - t[k]) / 2))
        return (2.0 * (sh(a[j]) ** 2 - sh(a[k]) ** 2) / sh(a[i]) ** 2
                + 2.0 * math.sin(theta[j]) * sh(b[j]) * sh(a[k]) ** 2
                * sh(t[i]))
    if is_beta or i != hyptrig.long_index(a):
        return None
    if eps1.kind == "selfhex":
        d = [s_eff * x for x in hyptrig.solve_self_hexagon(*a).d]
        return (2.0 * ch(a[k]) ** 2
                - 2.0 * ch(b[j]) * ch(d[j]) * sh(a[k]) ** 2
                - 2.0 * ch(t[i]) * sh(a[k]) ** 2 * sh(b[j]) * sh(d[j]))
    if eps1.kind in ("flat_upper", "flat_lower"):
        return (2.0 - 4.0 * sh(b[j] / 2) ** 2 * sh(a[k]) ** 2
                + 2.0 * s_eff * sh(a[j]) * sh(a[k]) ** 2 * sh(b[j])
                * math.exp(-t[i] if eps1.kind == "flat_upper" else t[i]))
    if eps1.kind == "flat_diag":
        return 2.0 * ch(a[k]) ** 2 - 2.0 * ch(b[j]) * sh(a[k]) ** 2
    return None


@pytest.fixture
def pants_memo_off(monkeypatch):
    """`build_pants` with its memo off: every call builds and solves, so a
    count of solves is one per pants built."""
    monkeypatch.setattr(pants, "_build", pants._build.__wrapped__)


def _value(fn, *args):
    try:
        return repr(fn(*args))
    except OverflowError:
        return "overflow"


class TestCarriedSolutions:
    def test_closed_forms_match_resolving_reference(self):
        """The carried solutions give the re-solving reference's values
        exactly."""
        covered = 0
        for eps, a, t in _corpus(101, 56 * 10):
            rep = build_glued(*eps, a, t)
            for tag in CURVE_TAGS:
                ref = _value(_resolving_closed_form, *eps, rep.a, rep.t, tag)
                got = _value(genus2._closed_form, *eps, rep.a, rep.t, tag,
                             rep.p1, rep.p2)
                assert got == ref, (eps, a, t, tag)
                covered += ref != "None"
        assert covered > 56 * 10 * 4

    @pytest.mark.usefixtures("pants_memo_off")
    def test_classify_solves_only_in_build_pants(self, monkeypatch):
        callers = []
        for name in ("solve_hexagon", "solve_triangle", "solve_self_hexagon"):
            def counted(*a, _solve=getattr(hyptrig, name)):
                callers.append(sys._getframe(1).f_code.co_name)
                return _solve(*a)
            monkeypatch.setattr(hyptrig, name, counted)
        solved_pants = 0
        for eps, a, t in _corpus(102, 56 * 3):
            text = json.dumps({"eps": [str(e) for e in eps], "a": list(a),
                               "t": list(t)})
            rep = GluedRep.from_json(text)
            euler_class(rep)
            if rep.euler_nominal == 0:
                sign_invariant(rep)
            for tag in CURVE_TAGS:
                trace_curve_matrix(rep, tag)
                genus2.trace_curve_closed_form(rep, tag)
            solved_pants += sum(not e.is_flat for e in eps)
        assert set(callers) == {"_build"}
        assert len(callers) == solved_pants

    def test_memo_solves_each_pants_once(self, monkeypatch):
        """With the memo, a pair whose two pants share a case solves that
        pants once, and a record built twice solves nothing anew."""
        pants._build.cache_clear()
        solves = []
        for name in ("solve_hexagon", "solve_triangle", "solve_self_hexagon"):
            def counted(*a, _solve=getattr(hyptrig, name)):
                solves.append(a)
                return _solve(*a)
            monkeypatch.setattr(hyptrig, name, counted)
        built = set()
        for eps, a, t in _corpus(102, 56):
            for _ in range(2):
                rep = build_glued(*eps, a, t)
            built |= {(p.a, p.case) for p in (rep.p1, rep.p2)
                      if not p.case.is_flat}
            assert rep.p1 is build_glued(*eps, a, t).p1
        assert len(solves) == len(built) < 56 * 2


# ---------------------------------------------------------------------------
# a cyclic relabelling permutes the built representation
# ---------------------------------------------------------------------------

_SIDE = st.floats(0.2, 1.8)
_SHORT = st.floats(0.15, 0.75)
_A_BY_STRATUM = {
    "hex": st.tuples(_SIDE, _SIDE, _SIDE),
    "tri": st.tuples(_SIDE, _SIDE, _SIDE).filter(
        lambda a: hyptrig.delta_invariant(*a) > 0.02),
    "selfhex": st.builds(lambda x, y, e, s: _cyclic((x, y, x + y + e), s),
                         _SHORT, _SHORT, st.floats(0.08, 0.7),
                         st.integers(0, 2)),
    "flat": st.builds(lambda x, y, s: _cyclic((x, y, x + y), s),
                      _SHORT, _SHORT, st.integers(0, 2)),
}


def _bits(floats) -> bytes:
    return struct.pack(f"{len(floats)}d", *floats)


def _fresh(rep: GluedRep) -> GluedRep:
    """`rep` with an empty memo: each word is evaluated whole."""
    return GluedRep(p1=rep.p1, p2=rep.p2, t=rep.t)


def _relabelled(eps1, eps2, a, t, shift):
    """`build_glued` on (a, t) relabelled cyclically by `shift`, and the
    relabelling: new index i <- old index perm[i] = i - shift (mod 3)."""
    perm = tuple((i - shift) % 3 for i in range(3))
    pick = itemgetter(*perm)
    return build_glued(eps1, eps2, pick(a), pick(t)), perm


class TestRotation:
    """A cyclic relabelling is an exact symmetry of the build, though no
    layer of srk relabels a rep: the pants builders and closed forms name
    the long side by its index, wherever it sits."""

    @pytest.mark.parametrize("names", ALL_PAIRS, ids="/".join)
    def test_rotation_is_the_relabelled_build(self, names):
        """`build_glued` on the relabelled (a, t) permutes, bit for bit, the
        pants matrices, solutions and nine traces (tags relabelled) of the
        rep, and keeps its Euler class and sign."""
        eps1, eps2 = (case_from_string(s) for s in names)

        @settings(deadline=None, derandomize=True, database=None,
                  max_examples=8)
        @given(a=_A_BY_STRATUM[_anchor(eps1, eps2)],
               t=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
               shift=st.integers(1, 2))
        def check(a, t, shift):
            rep = build_glued(eps1, eps2, a, t)
            rot, perm = _relabelled(eps1, eps2, a, t, shift)
            pick = itemgetter(*perm)
            assert (rot.t, rot.eps1, rot.eps2) == (pick(rep.t), eps1, eps2)
            for got, had in ((rot.p1, rep.p1), (rot.p2, rep.p2)):
                assert (got.a, got.case, got.q) == (pick(had.a), had.case,
                                                    pick(had.q))
                if had.solution is None:
                    assert got.solution is None
                    continue
                assert type(got.solution) is type(had.solution)
                assert got.solution == tuple(map(pick, had.solution))
            for fam in ("gamma", "beta", "delta"):
                for i in range(3):
                    assert (trace_curve_matrix(rot, f"{fam}{i + 1}")
                            == trace_curve_matrix(rep, f"{fam}{perm[i] + 1}"))
            assert euler_class(rot) == euler_class(rep)
            if rep.euler_nominal == 0:
                assert str(sign_invariant(rot)) == str(sign_invariant(rep))

        check()

    @pytest.mark.parametrize("names", ALL_PAIRS, ids="/".join)
    def test_rotation_carries_the_curve_memo(self, names):
        """The relabelling is exact for the curve matrices too: each one
        the rep evaluated is, bit for bit, the relabelled build's matrix of
        the relabelled tag, so the memo could be carried over re-keyed."""
        eps1, eps2 = (case_from_string(s) for s in names)

        @settings(deadline=None, derandomize=True, database=None,
                  max_examples=8)
        @given(a=_A_BY_STRATUM[_anchor(eps1, eps2)],
               t=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
               shift=st.integers(1, 2),
               tags=st.sets(st.sampled_from(CURVE_TAGS)))
        def check(a, t, shift, tags):
            rep = build_glued(eps1, eps2, a, t)
            for tag in tags:
                genus2.curve_matrix(rep, tag)
            rot, perm = _relabelled(eps1, eps2, a, t, shift)
            for fam in (GAMMA_TAGS, BETA_TAGS, DELTA_TAGS):
                for i in range(3):
                    if fam[perm[i]] in rep.quads:
                        assert (_bits(genus2.curve_matrix(rot, fam[i]))
                                == _bits(rep.quads[fam[perm[i]]]))

        check()

    @pytest.mark.parametrize("shift", [0, 1, 2])
    @pytest.mark.parametrize("names", [("EuPlus1", "EuMinus1"),
                                       ("EuMinus1", "EuPlus1")])
    def test_sign_ignores_the_labelling(self, names, shift):
        """delta_1 sits at trace 2 exactly (t_1 = 0) while delta_3 reads
        above 2: the sign reads Degenerate under every relabelling."""
        eps1, eps2 = map(case_from_string, names)
        a, t = (1.0, 1.0, 1.0), (0.0, 0.0, 1.0)
        rot, _ = _relabelled(eps1, eps2, a, t, shift)
        assert str(sign_invariant(rot)) == "Degenerate"
        assert str(sign_invariant(build_glued(eps1, eps2, a, t))) \
            == "Degenerate"

    def test_replay_rotation_shares_the_rule(self):
        """The replay moves a rep as the search does: its trace is, bit for
        bit, `curve_matrix` on `dehn_twist_gamma` of the rep."""
        rep = build_glued(case_from_string("Eu0PlusTriangle"),
                          case_from_string("EuMinus1"), (1.4, 1.0, 1.2),
                          (0.3, -0.2, 0.5))
        for i in (1, 2, 3):
            for k in (-2, 1, 3):
                move = {"kind": "twist", "i": i, "k": k}
                moved = _fresh(genus2.dehn_twist_gamma(rep, i, k))
                for tag in ("beta1", "delta2"):
                    cert = search.Certificate(
                        initial=rep.to_dict(), moves=[move],
                        curve=[[tag, 1]],
                        trace=genus2.trace_curve_matrix(moved, tag))
                    report = search.replay_certificate(cert)
                    assert _bits([report["trace"]]) == _bits([cert.trace]), \
                        move


class TestNormalisedRep:
    @pytest.mark.parametrize("names", ALL_PAIRS, ids="/".join)
    def test_normalised_rep_is_kept_on_the_rep(self, names):
        """The normalised rep is kept on the rep: the rep itself when no
        count moves, with the bits of every twist whose count is 0."""
        eps1, eps2 = (case_from_string(s) for s in names)

        @settings(deadline=None, derandomize=True, database=None,
                  max_examples=8)
        @given(a=_A_BY_STRATUM[_anchor(eps1, eps2)],
               t=st.tuples(*[st.floats(-3.0, 3.0)] * 3))
        def check(a, t):
            rep = build_glued(eps1, eps2, a, t)
            norm = genus2.normalize_twists(rep)
            assert genus2.normalize_twists(rep) is norm
            counts = genus2.twist_counts(rep)
            assert (norm is rep) == (counts == (0, 0, 0))
            assert genus2.normalize_twists(norm) is norm
            for k, ti, ni in zip(counts, rep.t, norm.t):
                assert k or _bits([ti]) == _bits([ni])

        check()


# ---------------------------------------------------------------------------
# the search builds nothing twice
# ---------------------------------------------------------------------------

def _memo_free_normalize(state):
    """`_normalize` as it was: one Dehn twist, and one rep, per move."""
    for i, k in enumerate(genus2.twist_counts(state.rep)):
        search._apply_twist(state, i + 1, k)


# the records whose searches twist along beta_3 (`search.beta_twist_step`),
# one search in about 3000 near the Bers corner
LINKING = [row["record"] for row in json.loads(
    (Path(__file__).parent / "data" / "beta_twist_records.json").read_text())]


def _search_reps(seed, n):
    """Seeded search records: the eight search pairs with every
    half-length at most B2_HALF, then the four Bers-corner pairs with every
    half-length in [1.9, B2_HALF], then the first six `LINKING` records."""
    rng = np.random.default_rng(seed)
    search_pairs = [("EuPlus1", "EuMinus1"),
                    ("Eu0PlusTriangle", "Eu0MinusTriangle"),
                    ("Eu0PlusSelfHex", "Eu0PlusSelfHex"),
                    ("Eu0UpperFlat(+1)", "Eu0LowerFlat(+1)"),
                    ("Eu0PlusTriangle", "EuMinus1"),
                    ("Eu0MinusSelfHex", "EuMinus1"),
                    ("Eu0MinusTriangle", "EuPlus1"),
                    ("Eu0UpperFlat(-1)", "EuPlus1")]
    corner_pairs = search_pairs[:2] + [search_pairs[4], search_pairs[6]]
    reps = []
    for r in range(n):
        eps = [case_from_string(s) for s in search_pairs[r % 8]]
        a = _sample_a(_anchor(*eps), rng, search.B2_HALF)
        reps.append(build_glued(*eps, a, rng.uniform(-3.0, 3.0, 3)))
    for r in range(2 * n):
        eps = [case_from_string(s) for s in corner_pairs[r % 4]]
        while True:
            a = tuple(rng.uniform(1.9, search.B2_HALF, 3))
            if eps[0].kind != "tri" or hyptrig.delta_invariant(*a) > 0.02:
                break
        reps.append(build_glued(*eps, a, rng.uniform(-3.0, 3.0, 3)))
    for record in LINKING[:6]:
        reps.append(GluedRep.from_json(json.dumps(record)))
    return reps


def _search_outputs(rep):
    out = search.search_nonhyperbolic(rep)
    got = [out.certificate.to_json(), json.dumps(out.history), out.rounds]
    if isinstance(out, search.FoundCurve):
        back = search.Certificate.from_json(got[0])
        got += [out.word, repr(out.trace),
                json.dumps(search.replay_certificate(out.certificate)),
                json.dumps(search.replay_certificate(back))]
    else:
        got.append(out.diagnostic)
    return got


class TestSearchBuildsOnce:
    def test_matches_rebuilding_reference(self, monkeypatch):
        """Certificates, history, rounds and replays are those of the
        memo-free reference: one Dehn twist per normalising move."""
        reps = _search_reps(103, 160)
        got = [_search_outputs(rep) for rep in reps]
        monkeypatch.setattr(search, "_normalize", _memo_free_normalize)
        assert [_search_outputs(rep) for rep in reps] == got
        assert sum(g[2] > 0 for g in got) >= 6       # twisted along beta_3

    def test_builds_no_pants(self, monkeypatch):
        """A search, the beta-twist step included, evaluates the rep it is
        given: it glues no rep and builds no pants."""
        reps = _search_reps(104, 80)
        callers = []

        def refuse(*args):
            raise AssertionError("the search rebuilt a representation")

        def counted(a, case, _build=pants.build_pants):
            callers.append(sys._getframe(1).f_code.co_name)
            return _build(a, case)

        for mod in (genus2, search):
            monkeypatch.setattr(mod, "build_glued", refuse)
        monkeypatch.setattr(pants, "build_pants", counted)
        monkeypatch.setattr(genus2, "build_pants", counted)
        rounds = sum(search.search_nonhyperbolic(rep).rounds for rep in reps)
        assert rounds >= 6
        assert callers == []
