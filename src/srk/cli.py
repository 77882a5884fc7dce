"""Command-line front door.

Subcommands: classify, search, orbit-stats, verify, replay.  Inputs are the
JSON coordinate records {"eps": [...], "a": [...], "t": [...]}; outputs are
JSON or CSV with full-precision floats so that replays are bit-faithful.
orbit-stats runs in one thread and builds each orbit once: the delta traces
come from per-orbit coefficients (`genus2.delta_twist_coeffs`), which the
tests cross-check against the matrix words.  Exit codes: 0 success, 1
verifier failure, 2 search stalled, 3 out-of-scope input, 64 usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

import numpy as np

from . import genus2, hyptrig, inequalities, pants, search
from .psl2r import PSL2Error
from .tolerances import LINK_TOL, MU_MIN_DEFAULT

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_STALLED = 2
EXIT_OUT_OF_SCOPE = 3
EXIT_USAGE = 64


def _fl(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_rep(cmd: str, path: str):
    """The coordinate record at `path` as a GluedRep, or the exit code of
    a malformed record (64) or of half-lengths too long for a float build
    (3), after one stderr line."""
    try:
        with open(path) as fh:
            return genus2.GluedRep.from_json(fh.read())
    except pants.CocycleResidualError as exc:   # rounding, not bad input
        sys.stderr.write(f"{cmd}: out of range: half-lengths too long for "
                         f"a float build ({exc})\n")
        return EXIT_OUT_OF_SCOPE
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"{cmd}: bad input: {exc}\n")
        return EXIT_USAGE
    except ArithmeticError as exc:     # cosh of a half-length overflows
        sys.stderr.write(f"{cmd}: out of range: half-lengths overflow a "
                         f"float ({exc})\n")
        return EXIT_OUT_OF_SCOPE


def _threads() -> int:
    return 1    # orbit-stats runs in one thread; bench/run.py still reads it


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    """Euler class, sign invariant and the nine-curve trace table.

    A curve's "agreement" is |matrix - closed_form| / max(1, |matrix|), or
    None where no formula covers it; "worst_agreement" is the largest.
    Exit 3 when a half-length or a trace overflows a float or the Euler
    class relator is lost to rounding (huge half-lengths).
    """
    rep = _load_rep("classify", args.rep)
    if isinstance(rep, int):
        return rep
    table = {}
    worst = 0.0
    try:
        for tag in genus2.CURVE_TAGS:
            tm = genus2.trace_curve_matrix(rep, tag)
            tc, covered = genus2.trace_curve_closed_form(rep, tag)
            gap = abs(tm - tc) / max(1.0, abs(tm)) if covered else None
            if covered:
                worst = max(worst, gap)
            table[tag] = {"matrix": tm, "closed_form": tc if covered else None,
                          "agreement": gap}
        euler = genus2.euler_class(rep)
        sign = (str(genus2.sign_invariant(rep)) if rep.euler_nominal == 0
                else None)
    except PSL2Error as exc:      # overflow, or a relator lost to rounding
        sys.stderr.write(f"classify: out of range: {exc}\n")
        return EXIT_OUT_OF_SCOPE
    report = {
        "euler": euler,
        "euler_nominal": rep.euler_nominal,
        "sign": sign,
        "traces": table,
        "worst_agreement": worst,
    }
    _emit(json.dumps(report, indent=2, default=float), args.out)
    return EXIT_OK


def cmd_search(args) -> int:
    rep = _load_rep("search", args.rep)
    if isinstance(rep, int):
        return rep
    try:
        out = search.search_nonhyperbolic(rep, max_rounds=args.max_rounds,
                                          mu_min=args.mu_min)
    except search.OutOfScopeError as exc:
        sys.stderr.write(f"search: out of scope: {exc}\n")
        return EXIT_OUT_OF_SCOPE
    if isinstance(out, search.Stalled):
        sys.stderr.write(f"search: stalled: {out.diagnostic}\n")
        _emit(out.certificate.to_json(), args.out)
        return EXIT_STALLED
    replay = search.replay_certificate(out.certificate, tol=args.tol)
    payload = json.loads(out.certificate.to_json())
    payload["replay"] = replay
    _emit(json.dumps(payload, default=float), args.out)
    return EXIT_OK if replay["ok"] else EXIT_VERIFY_FAIL


def cmd_replay(args) -> int:
    try:
        with open(args.certificate) as fh:
            cert = search.Certificate.from_json(fh.read())
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"replay: bad certificate: {exc}\n")
        return EXIT_USAGE
    try:
        report = search.replay_certificate(cert, tol=args.tol)
    except search.OutOfScopeError as exc:
        sys.stderr.write(f"replay: out of range: {exc}\n")
        return EXIT_OUT_OF_SCOPE
    _emit(json.dumps(report, default=float), args.out)
    return EXIT_OK if report.get("ok") else EXIT_VERIFY_FAIL


def _orbit_rows(seed: int, index: int, length: int) -> List[str]:
    """One orbit's CSV rows: a random walk of Dehn twists along gamma_1..3.

    Only the twists change along the orbit, and tr delta_{k+1} depends on
    t_k alone, so the delta traces come from per-orbit coefficients
    (`genus2.delta_twist_coeffs`) and the sign invariant, constant on twist
    orbits, is read once.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    eps1, eps2 = pants.EU_PLUS1, pants.EU_MINUS1
    if index % 3 == 1:
        eps1, eps2 = (pants.PantsCase("tri", 1), pants.PantsCase("tri", -1))
    if index % 3 == 2:
        eps1 = eps2 = pants.PantsCase("selfhex", 1)
    while True:
        if eps1.kind == "selfhex":
            small = np.sort(rng.uniform(0.2, 0.8, 2))
            a = (small[0], small[1],
                 small.sum() + rng.uniform(0.1, 0.5))
        else:
            a = tuple(rng.uniform(0.3, 1.8, 3))
            if eps1.kind == "tri" and hyptrig.delta_invariant(*a) <= 0.05:
                continue
        break
    t = rng.uniform(-1.5, 1.5, 3)
    rep = genus2.build_glued(eps1, eps2, a, t)
    x, y, a, t = rep.coords
    t = list(t)
    coeffs = [genus2.delta_twist_coeffs(x, y, a, k) for k in range(3)]
    sign = str(genus2.sign_invariant(rep))
    # the fixed columns are formatted once; "%.17g" is `_fl`'s format
    row = ",".join([str(seed), str(index), "%d", str(eps1), str(eps2)]
                   + [_fl(v) for v in a] + ["%.17g"] * 6 + [sign])
    rows = []
    for step in range(length + 1):
        tr = [2.0 - s * (cm * math.exp(-tk) + c0 + cp * math.exp(tk))
              for (s, cm, c0, cp), tk in zip(coeffs, t)]
        rows.append(row % (step, *t, *tr))
        i = int(rng.integers(1, 4))
        k = int(rng.integers(-2, 3))
        t[i - 1] += 2.0 * k * a[i - 1]      # as genus2.dehn_twist_gamma
    return rows


def cmd_orbit_stats(args) -> int:
    header = ("seed,index,step,eps1,eps2,a1,a2,a3,t1,t2,t3,"
              "tr_d1,tr_d2,tr_d3,sign")
    lines = [header]
    try:
        for i in range(args.n):
            lines.extend(_orbit_rows(args.seed, i, args.length))
    except OverflowError as exc:     # e^{t_k} overflows on a very long orbit
        sys.stderr.write(f"orbit-stats: out of range: {exc}\n")
        return EXIT_OUT_OF_SCOPE
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = inequalities.verify_paper_inequalities(scale=args.scale)
    rows = []
    ok = True
    for r in reports:
        ok &= r.ok
        rows.append({"claim": r.claim_id, "margin": r.margin,
                     "raw_min": r.raw_min, "lipschitz_pad": r.lipschitz_pad,
                     "grid_points": r.grid_points, "ok": r.ok})
    if args.format == "csv":
        lines = ["claim,margin,raw_min,lipschitz_pad,grid_points,ok"]
        for row in rows:
            lines.append(",".join([row["claim"], _fl(row["margin"]),
                                   _fl(row["raw_min"]),
                                   _fl(row["lipschitz_pad"]),
                                   str(row["grid_points"]), str(row["ok"])]))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(rows, indent=2, default=float), args.out)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 64 (2 means a stalled
    search); its subparsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _finite(zero_ok: bool = False):
    """argparse type: a finite float above 0, or at least 0 if zero_ok."""
    def parse(text: str) -> float:
        try:
            v = float(text)
        except ValueError:
            v = math.nan
        if not (math.isfinite(v) and (v >= 0.0 if zero_ok else v > 0.0)):
            raise argparse.ArgumentTypeError(
                f"expected a finite number {'>=' if zero_ok else '>'} 0, "
                f"got {text!r}")
        return v
    return parse


def _count(text: str) -> int:
    """argparse type: an integer at least 0."""
    try:
        v = int(text)
    except ValueError:
        v = -1
    if v < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return v


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="srk",
        description="Genus-2 surface group representations: coordinates, "
                    "trace formulas, twist orbits, and the curve search.")
    sub = p.add_subparsers(dest="command")

    c = sub.add_parser("classify", help="Euler class, sign, trace table")
    c.add_argument("rep", help="path to a coordinate JSON file")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_classify)

    s = sub.add_parser("search", help="find a non-hyperbolic simple curve")
    s.add_argument("rep")
    s.add_argument("--out")
    s.add_argument("--max-rounds", type=_count,
                   default=search.MAX_ROUNDS_DEFAULT)
    s.add_argument("--mu-min", type=_finite(zero_ok=True),
                   default=MU_MIN_DEFAULT)
    s.add_argument("--tol", type=_finite(), default=LINK_TOL,
                   help="certificate link tolerance for the replay check")
    s.set_defaults(fn=cmd_search)

    r = sub.add_parser("replay", help="re-verify a search certificate")
    r.add_argument("certificate")
    r.add_argument("--out")
    r.add_argument("--tol", type=_finite(), default=LINK_TOL,
                   help="certificate link tolerance")
    r.set_defaults(fn=cmd_replay)

    o = sub.add_parser("orbit-stats", help="twist-orbit trace table (CSV)")
    o.add_argument("--seed", type=_count, default=0)
    o.add_argument("--n", type=_count, default=100)
    o.add_argument("--length", type=_count, default=50)
    o.add_argument("--out")
    o.set_defaults(fn=cmd_orbit_stats)

    v = sub.add_parser("verify", help="re-check the grid inequalities")
    v.add_argument("--scale", type=_finite(), default=1.0,
                   help="grid refinement multiplier")
    v.add_argument("--format", choices=("json", "csv"), default="json")
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:     # -h (0) or a usage error (64)
        return exc.code
    if not getattr(args, "fn", None):
        parser.print_help()
        return EXIT_USAGE
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
