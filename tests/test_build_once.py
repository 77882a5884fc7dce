"""Each genus-2 representation is built, solved and evaluated once.

The pants carry the hyptrig solutions they were built from and the closed
trace formulas read them; a cyclic relabelling permutes a built
representation instead of rebuilding it; the re-coordinatisation glues the
pants its fit built.  The references below are the re-solving closed forms
and the rebuilding `_align` and gluing that these replaced: every result
must match them bit for bit.
"""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srk import genus2, hyptrig, pants, search
from srk.genus2 import (BETA_TAGS, CURVE_TAGS, GAMMA_TAGS, DELTA_TAGS,
                        GluedRep, build_glued, euler_class, sign_invariant,
                        trace_curve_matrix)
from srk.pants import PantsCase, PantsRep, case_from_string

HEX = ("EuPlus1", "EuMinus1")
TRI = ("Eu0PlusTriangle", "Eu0MinusTriangle")
SELFHEX = ("Eu0PlusSelfHex", "Eu0MinusSelfHex")
UPPER = ("Eu0UpperFlat(+1)", "Eu0UpperFlat(-1)")
LOWER = ("Eu0LowerFlat(+1)", "Eu0LowerFlat(-1)")
DIAG = "Eu0DiagonalFlat"


def _all_pairs():
    """The ordered case-name pairs that glue."""
    pairs = [(e1, e2) for e1 in HEX + TRI for e2 in HEX + TRI]
    for e1 in SELFHEX:
        for e2 in HEX + SELFHEX:
            pairs.append((e1, e2))
            if e2 in HEX:
                pairs.append((e2, e1))
    for u in UPPER:
        for lo in LOWER:
            pairs += [(u, lo), (lo, u)]
    for f in UPPER + LOWER + (DIAG,):
        for h in HEX:
            pairs += [(f, h), (h, f)]
    return list(dict.fromkeys(pairs))


ALL_PAIRS = _all_pairs()
assert len(ALL_PAIRS) == 56


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

def _aligned(a):
    return max(range(3), key=lambda i: a[i]) == 2


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
        if not _aligned(a):
            return None
        d = hyptrig.solve_self_hexagon(*a).d
        if s1 == s2:
            if is_beta:
                return None
            return 2.0 + 4.0 * (sh(t[i] / 2) * sh(d[j]) * sh(a[k])) ** 2
        if is_beta:
            sign = -1.0 if i == 2 else 1.0
            return (sign * 2.0 * sh(t[j] / 2) * sh(t[k] / 2)
                    + 2.0 * ch(d[i]) * ch(t[j] / 2) * ch(t[k] / 2))
        return 2.0 - 4.0 * (ch(t[i] / 2) * sh(d[j]) * sh(a[k])) ** 2

    if {k1, k2} == {"flat_upper", "flat_lower"}:
        if is_beta or not _aligned(a) or i != 2:
            return None
        u = s1 if k1 == "flat_upper" else s2
        v = s2 if k1 == "flat_upper" else s1
        return (2.0 + 4.0 * u * v * sh(a[0]) ** 2 * sh(a[1]) ** 2
                * math.exp(-t[2] if k1 == "flat_upper" else t[2]))

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
    if is_beta:
        return None
    if eps1.kind == "selfhex":
        if not _aligned(a) or i != 2:
            return None
        d = [s_eff * x for x in hyptrig.solve_self_hexagon(*a).d]
        return (2.0 * ch(a[k]) ** 2
                - 2.0 * ch(b[j]) * ch(d[j]) * sh(a[k]) ** 2
                - 2.0 * ch(t[i]) * sh(a[k]) ** 2 * sh(b[j]) * sh(d[j]))
    if eps1.kind in ("flat_upper", "flat_lower"):
        if not _aligned(a) or i != 2:
            return None
        return (2.0 - 4.0 * sh(b[0] / 2) ** 2 * sh(a[1]) ** 2
                + 2.0 * s_eff * sh(a[0]) * sh(a[1]) ** 2 * sh(b[0])
                * math.exp(-t[2] if eps1.kind == "flat_upper" else t[2]))
    if eps1.kind == "flat_diag":
        if not _aligned(a) or i != 2:
            return None
        return 2.0 * ch(a[1]) ** 2 - 2.0 * ch(b[0]) * sh(a[1]) ** 2
    return None


def _value(fn, *args):
    try:
        return repr(fn(*args))
    except OverflowError:
        return "overflow"


class TestCarriedSolutions:
    def test_closed_forms_match_resolving_reference(self):
        """The carried solutions and, for pants read back from JSON, the
        fresh solves give the re-solving reference's values exactly."""
        covered = 0
        for eps, a, t in _corpus(101, 56 * 10):
            rep = build_glued(*eps, a, t)
            bare = [PantsRep.from_json(p.to_json()) for p in (rep.p1, rep.p2)]
            assert [p.solution for p in bare] == [None, None]
            for tag in CURVE_TAGS:
                ref = _value(_resolving_closed_form, *eps, rep.a, rep.t, tag)
                for p1, p2 in ((rep.p1, rep.p2), bare):
                    got = _value(genus2._closed_form, *eps, rep.a, rep.t, tag,
                                 p1, p2)
                    assert got == ref, (eps, a, t, tag)
                covered += ref != "None"
        assert covered > 56 * 10 * 4

    def test_solved_reads_or_solves(self):
        rng = np.random.default_rng(7)
        for names in ALL_PAIRS:
            eps = [case_from_string(s) for s in names]
            rep = build_glued(*eps, _sample_a(_anchor(*eps), rng), (0, 0, 0))
            for p in (rep.p1, rep.p2):
                back = PantsRep.from_json(p.to_json())
                assert back == p
                if p.case.is_flat:
                    assert p.solution is None and back.solved() is None
                else:
                    assert p.solved() is p.solution
                    assert back.solved() == p.solution

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
        assert set(callers) == {"build_pants"}
        assert len(callers) == solved_pants


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


class TestRotation:
    @pytest.mark.parametrize("names", ALL_PAIRS, ids="/".join)
    def test_rotation_is_the_relabelled_build(self, names):
        """Rotating a built rep gives, bit for bit, the pants, solutions and
        nine traces (tags relabelled) of `build_glued` on the relabelled
        (a, t), the same Euler class and, unless Degenerate, the same
        sign."""
        eps1, eps2 = (case_from_string(s) for s in names)

        @settings(deadline=None, derandomize=True, database=None,
                  max_examples=8)
        @given(a=_A_BY_STRATUM[_anchor(eps1, eps2)],
               t=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
               shift=st.integers(1, 2))
        def check(a, t, shift):
            rep = build_glued(eps1, eps2, a, t)
            rot = genus2.rotate(rep, shift)
            perm = genus2.rotation(shift)
            ref = build_glued(eps1, eps2, [a[i] for i in perm],
                              [t[i] for i in perm])
            assert (rot.t, rot.eps1, rot.eps2) == (ref.t, eps1, eps2)
            for got, want in ((rot.p1, ref.p1), (rot.p2, ref.p2)):
                assert (got.a, got.case, got.q) == (want.a, want.case, want.q)
                assert got.solution == want.solution
                if want.solution is not None:
                    assert got.solution.heron == want.solution.heron
            for fam in ("gamma", "beta", "delta"):
                for i in range(3):
                    assert (trace_curve_matrix(rot, f"{fam}{i + 1}")
                            == trace_curve_matrix(rep, f"{fam}{perm[i] + 1}"))
            assert euler_class(rot) == euler_class(rep)
            if rep.euler_nominal == 0:
                # the sign reads delta_3, which the rotation relabels; a
                # delta at trace 2 (Degenerate) need not make the others so
                signs = {str(sign_invariant(r)) for r in (rep, rot)}
                assert len(signs - {"Degenerate"}) <= 1

        check()

    def test_replay_rotation_shares_the_rule(self):
        rep = build_glued(case_from_string("Eu0PlusTriangle"),
                          case_from_string("EuMinus1"), (1.4, 1.0, 1.2),
                          (0.3, -0.2, 0.5))
        for shift in (-4, -1, 0, 1, 2, 5):
            coords = genus2.rotate(rep, shift).coords
            snap = search._snapshot(rep)
            cert = search.Certificate(initial=snap, moves=[
                {"kind": "rotate", "shift": shift}], curve=[["beta1", 1]],
                trace=search._trace(coords, "beta1"))
            report = search.replay_certificate(cert)
            assert report["trace"] == cert.trace


# ---------------------------------------------------------------------------
# the search builds nothing twice
# ---------------------------------------------------------------------------

def _rebuilding_align(state):
    """`_align` as it was: rebuild both pants on the rotated coordinates."""
    long_index = max(range(3), key=lambda i: state.rep.a[i])
    shift = (2 - long_index) % 3
    if shift == 0:
        return
    perm = [(i - shift) % 3 for i in range(3)]       # new i <- old perm[i]
    rep = state.rep
    a = tuple(rep.a[perm[i]] for i in range(3))
    t = tuple(rep.t[perm[i]] for i in range(3))
    state.rep = build_glued(rep.eps1, rep.eps2, a, t)
    state.cert.moves.append({"kind": "rotate", "shift": shift})
    state.history.append({"move": "rotate", "shift": shift})


def _search_reps(seed, n):
    """Seeded search records: the eight search pairs with every
    half-length at most B2_HALF, then the four Bers-corner pairs with every
    half-length in [1.9, B2_HALF], where re-coordinatisations are common."""
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
        rebuilding `_align` and of gluing a fit by `build_glued`."""
        reps = _search_reps(103, 160)
        got = [_search_outputs(rep) for rep in reps]
        fit = search._fit_candidate

        def rebuilding_fit(eps_pair, a_new, targets):
            out = fit(eps_pair, a_new, targets)
            return out and (build_glued(*eps_pair, a_new, out[0].t), out[1])

        monkeypatch.setattr(search, "_align", _rebuilding_align)
        monkeypatch.setattr(search, "_fit_candidate", rebuilding_fit)
        assert [_search_outputs(rep) for rep in reps] == got
        assert sum(g[2] > 0 for g in got) >= 5       # re-coordinatised
        assert sum('"rotate"' in g[0] for g in got) >= 100

    def test_builds_pants_only_to_fit(self, monkeypatch):
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
        assert rounds > 0
        assert set(callers) == {"_fit_candidate"}
