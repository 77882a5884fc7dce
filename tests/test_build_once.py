"""Each genus-2 representation is built, solved and evaluated once.

The pants carry the hyptrig solutions they were built from and the closed
trace formulas read them; a cyclic relabelling permutes a built
representation instead of rebuilding it; the re-coordinatisation glues the
pants its fit built.  The references below are the re-solving closed forms
and the rebuilding `_align` and gluing that these replaced: every result
must match them bit for bit.
"""

import itertools
import json
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srk import genus2, hyptrig, pants, search
from srk.genus2 import (BETA_TAGS, CURVE_TAGS, GAMMA_TAGS, DELTA_TAGS,
                        GluedRep, build_glued, euler_class, sign_invariant,
                        trace_curve_matrix)
from srk.pants import PantsCase, case_from_string

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


class _Forgetful(dict):
    """A pants memo that keeps nothing."""

    def __setitem__(self, key, value):
        pass


@pytest.fixture
def pants_memo_off(monkeypatch):
    """`build_pants` with its memo off: every call builds and solves, so a
    count of solves is one per pants built."""
    monkeypatch.setattr(pants, "_built", _Forgetful())


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
        assert set(callers) == {"build_pants"}
        assert len(callers) == solved_pants

    def test_memo_solves_each_pants_once(self, monkeypatch):
        """With the memo, a pair whose two pants share a case solves that
        pants once, and a record built twice solves nothing anew."""
        monkeypatch.setattr(pants, "_built", {})
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


class TestRotation:
    @pytest.mark.parametrize("names", ALL_PAIRS, ids="/".join)
    def test_rotation_is_the_relabelled_build(self, names):
        """Rotating a built rep gives, bit for bit, the pants, solutions and
        nine traces (tags relabelled) of `build_glued` on the relabelled
        (a, t), and the same Euler class and sign."""
        eps1, eps2 = (case_from_string(s) for s in names)

        @settings(deadline=None, derandomize=True, database=None,
                  max_examples=8)
        @given(a=_A_BY_STRATUM[_anchor(eps1, eps2)],
               t=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
               shift=st.integers(1, 2))
        def check(a, t, shift):
            rep = build_glued(eps1, eps2, a, t)
            rot = genus2.rotate(rep, shift)
            perm = hyptrig.rotation(shift)
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
                assert str(sign_invariant(rot)) == str(sign_invariant(rep))

        check()

    @pytest.mark.parametrize("names", ALL_PAIRS, ids="/".join)
    def test_rotation_carries_the_curve_memo(self, names):
        """The matrices `rotate` carries over are, bit for bit, those
        evaluated afresh at the rotated coordinates; it carries no loops.
        The normalised rep is kept on the rep: the rep itself when no count
        moves, with the bits of every twist whose count is 0."""
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
            loops = rep.loops         # evaluated, yet not to be carried
            rot = genus2.rotate(rep, shift)
            assert rot.loops is not loops
            assert (_bits([v for fam in rot.loops for q in fam for v in q])
                    == _bits([v for fam in _fresh(rot).loops for q in fam
                              for v in q]))
            perm = hyptrig.rotation(shift)
            assert sorted(rot.quads) == sorted(
                fam[i] for fam in (GAMMA_TAGS, BETA_TAGS, DELTA_TAGS)
                for i in range(3) if fam[perm[i]] in rep.quads)
            for tag, q in rot.quads.items():
                assert _bits(q) == _bits(genus2.curve_matrix(_fresh(rot), tag))

            norm = genus2.normalize_twists(rep)
            assert genus2.normalize_twists(rep) is norm
            counts = genus2.twist_counts(rep)
            assert (norm is rep) == (counts == (0, 0, 0))
            assert genus2.normalize_twists(norm) is norm
            for k, ti, ni in zip(counts, rep.t, norm.t):
                assert k or _bits([ti]) == _bits([ni])

        check()

    @pytest.mark.parametrize("shift", [0, 1, 2])
    @pytest.mark.parametrize("names", [("EuPlus1", "EuMinus1"),
                                       ("EuMinus1", "EuPlus1")])
    def test_sign_ignores_the_labelling(self, names, shift):
        """delta_1 sits at trace 2 exactly (t_1 = 0) while delta_3 reads
        above 2: the sign reads Degenerate under every relabelling."""
        rep = build_glued(*map(case_from_string, names), (1.0, 1.0, 1.0),
                          (0.0, 0.0, 1.0))
        assert str(sign_invariant(genus2.rotate(rep, shift))) == "Degenerate"

    def test_replay_rotation_shares_the_rule(self):
        """The replay moves a rep as the search does: its trace is, bit for
        bit, `curve_matrix` on `rotate` or `dehn_twist_gamma` of the rep."""
        rep = build_glued(case_from_string("Eu0PlusTriangle"),
                          case_from_string("EuMinus1"), (1.4, 1.0, 1.2),
                          (0.3, -0.2, 0.5))
        moves = ([({"kind": "rotate", "shift": s},
                   lambda r, s=s: genus2.rotate(r, s))
                  for s in (-4, -1, 0, 1, 2, 5)]
                 + [({"kind": "twist", "i": i, "k": k},
                     lambda r, i=i, k=k: genus2.dehn_twist_gamma(r, i, k))
                    for i in (1, 2, 3) for k in (-2, 1, 3)])
        for move, apply in moves:
            moved = _fresh(apply(rep))
            for tag in ("beta1", "delta2"):
                cert = search.Certificate(
                    initial=rep.to_dict(), moves=[move],
                    curve=[[tag, 1]], trace=search._trace(moved, tag))
                report = search.replay_certificate(cert)
                assert _bits([report["trace"]]) == _bits([cert.trace]), move


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


def _memo_free_normalize(state):
    """`_normalize` as it was: one Dehn twist, and one rep, per move."""
    for i, k in enumerate(genus2.twist_counts(state.rep)):
        search._apply_twist(state, i + 1, k)


def _memo_free_link_error(new, targets):
    """The link check with no memo: each delta re-evaluates its beta and
    gamma."""
    return max(abs(search._trace(_fresh(new), tag) - v) if tag in DELTA_TAGS
               else abs(abs(search._trace(_fresh(new), tag)) - abs(v))
               for tag, v in zip(CURVE_TAGS, targets))


def _all_combination_fit(eps_pair, a_new, targets):
    """`_fit_candidate` as it was: every root combination scored on all
    nine gaps, the fitted rep glued by `build_glued`."""
    case1, case2 = genus2.pants_cases(*eps_pair)
    try:
        p1 = pants.build_pants(a_new, case1)
        p2 = pants.build_pants(a_new, case2)
    except (pants.PantsError, hyptrig.TrigError):
        return None
    untwisted = GluedRep(p1=p1, p2=p2, t=(0.0, 0.0, 0.0))
    roots = [[r for r in search._delta_twist_roots(untwisted, k,
                                                   targets[6 + k])
              if -10.0 <= r <= 10.0] for k in range(3)]
    if not all(roots):
        return None
    best = None
    for combo in itertools.product(*roots):
        err = _memo_free_link_error(GluedRep(p1=p1, p2=p2, t=combo), targets)
        if err < search.LINK_TOL and (best is None or err < best[1]):
            best = (combo, err)
    return best and (build_glued(*eps_pair, a_new, best[0]), best[1])


# records from the benchmark's corner corpus whose searches re-coordinatise
# once: the lattice step leaves about one corner search in 3000 to the fit
LINKING = [
    ("Eu0PlusTriangle", "EuMinus1",
     (2.177271425843055, 2.0216335715832017, 2.2096542923498688),
     (1.1546330313413034, 0.7929074417928108, 1.2030657845188415)),
    ("Eu0MinusTriangle", "EuPlus1",
     (2.1586917835799397, 2.1805017854172615, 2.189178872070682),
     (1.1132127056456316, 1.0162646373150839, 0.9380069051012798)),
    ("Eu0PlusTriangle", "Eu0MinusTriangle",
     (2.1750322387098557, 2.0751280116119153, 2.130530884994086),
     (1.0466397691676281, 0.5715379794039412, 0.8929889601796077)),
    ("Eu0PlusTriangle", "Eu0MinusTriangle",
     (2.1735389522114072, 2.1197692698793356, 2.1261902423297268),
     (1.0828189227367453, 0.602374444294763, 1.112120497148993)),
    ("Eu0PlusTriangle", "Eu0MinusTriangle",
     (2.089429656913838, 2.0322541740548883, 2.156651200104319),
     (0.7820571596775734, -2.9915930392514705, 0.4390226505913333)),
    ("Eu0MinusTriangle", "EuPlus1",
     (2.204489354493055, 2.1914092499559734, 2.2164474333886686),
     (-1.0452622268286174, -1.1872732107771364, -1.2462270473956738)),
]


def _search_reps(seed, n):
    """Seeded search records: the eight search pairs with every
    half-length at most B2_HALF, then the four Bers-corner pairs with every
    half-length in [1.9, B2_HALF], then the `LINKING` records."""
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
    for eps1, eps2, a, t in LINKING:
        reps.append(build_glued(case_from_string(eps1),
                                case_from_string(eps2), a, t))
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
        memo-free references: the rebuilding `_align`, one Dehn twist per
        normalising move, and the fit that scores every root combination
        on all nine gaps and glues its rep by `build_glued`.  The residual
        that the history records for each link is the replay's link error,
        bit for bit."""
        reps = _search_reps(103, 160)
        got = [_search_outputs(rep) for rep in reps]
        monkeypatch.setattr(search, "_align", _rebuilding_align)
        monkeypatch.setattr(search, "_normalize", _memo_free_normalize)
        monkeypatch.setattr(search, "_fit_candidate", _all_combination_fit)
        assert [_search_outputs(rep) for rep in reps] == got
        assert sum(g[2] > 0 for g in got) >= 5       # re-coordinatised
        assert sum('"rotate"' in g[0] for g in got) >= 100
        linked = 0
        for g in got:
            residuals = [h["residual"] for h in json.loads(g[1])
                         if h["move"] == "recoordinatize"]
            if residuals and len(g) > 4:             # a replayed FoundCurve
                linked += 1
                for replay in g[-2:]:
                    errors = json.loads(replay)["link_errors"]
                    assert _bits(errors) == _bits(residuals)
        assert linked >= 5

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
