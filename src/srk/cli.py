"""Command-line front door.

Subcommands: classify, search, orbit-stats, verify, replay.  Inputs are the
JSON coordinate records {"eps": [...], "a": [...], "t": [...]}; outputs are
JSON or CSV with full-precision floats so that replays are bit-faithful.
orbit-stats runs in one thread and builds each orbit once: the delta traces
come from per-orbit coefficients (`genus2.delta_twist_coeffs`), which the
tests cross-check against the matrix words.  Each Dehn twist changes one
t_i, so it reevaluates one delta trace and reformats those two columns; the
moves are drawn in blocks, from the same random stream as one draw per
move.  A command that fails raises `_Exit`, and `main` writes its one
stderr line and returns its code; README's exit-code table lists the
codes and their causes.

numpy is imported only where an ndarray is made: verify evaluates its grids
with it, while classify, search and replay run on floats and 4-tuples, and
orbit-stats draws numpy's random stream from `pcg64`, a pure-Python copy of
it; none of these four loads numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional

from . import genus2, hyptrig, inequalities, pants, pcg64, search
from .psl2r import PSL2Error

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_STALLED = 2
EXIT_OUT_OF_SCOPE = 3
EXIT_USAGE = 64


def _fl(x: float) -> str:
    return format(float(x), ".17g")


class _Exit(Exception):
    """A command's failure: `main` writes `<command>: <message>` as one
    stderr line and returns `code`."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _Exit(EXIT_USAGE, f"cannot write {out}: "
                                    f"{exc.strerror or exc}") from exc
        return
    if sys.stdout is None:        # the interpreter started without fd 1
        raise _Exit(EXIT_USAGE, "cannot write stdout: stdout is closed")
    try:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        sys.stdout.flush()
    except OSError as exc:
        # the interpreter's final flush would fail again on what is still
        # buffered: send it to the null device instead
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _Exit(EXIT_USAGE, f"cannot write stdout: "
                                f"{exc.strerror or exc}") from exc


def _load_rep(path: str) -> genus2.GluedRep:
    """The coordinate record at `path` as a GluedRep; raises `_Exit` on a
    malformed record (64) or on half-lengths outside the float build's
    range, too long or too short (3)."""
    try:
        with open(path) as fh:
            return genus2.GluedRep.from_json(fh.read())
    except pants.CocycleResidualError as exc:   # rounding, not bad input
        raise _Exit(EXIT_OUT_OF_SCOPE, f"out of range: half-lengths outside "
                    f"the float build's range ({exc})") from exc
    except (OSError, ValueError, KeyError) as exc:
        raise _Exit(EXIT_USAGE, f"bad input: {exc}") from exc
    except ArithmeticError as exc:     # cosh of a half-length overflows
        raise _Exit(EXIT_OUT_OF_SCOPE, f"out of range: half-lengths overflow "
                    f"a float ({exc})") from exc


def _threads() -> int:
    return 1    # orbit-stats runs in one thread; bench/run.py still reads it


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    """Euler class, sign invariant and the nine-curve trace table.

    A curve's "agreement" is |matrix - closed_form| / max(1, |matrix|), or
    None where no formula covers it; "worst_agreement" is the largest.
    README's exit-code table lists the causes of exit 3 and 64.
    """
    rep = _load_rep(args.rep)
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
        if euler != rep.euler_nominal:      # the float Milnor sum drifted
            raise _Exit(EXIT_OUT_OF_SCOPE, f"out of range: Milnor Euler "
                        f"class {euler} differs from the nominal class "
                        f"{rep.euler_nominal}")
        sign = genus2.sign_invariant(rep) if rep.euler_nominal == 0 else None
    except PSL2Error as exc:      # overflow, or a relator lost to rounding
        raise _Exit(EXIT_OUT_OF_SCOPE, f"out of range: {exc}") from exc
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
    rep = _load_rep(args.rep)
    try:
        out = search.search_nonhyperbolic(rep)
    except search.OutOfScopeError as exc:
        raise _Exit(EXIT_OUT_OF_SCOPE, f"out of scope: {exc}") from exc
    if isinstance(out, search.Stalled):
        _emit(out.certificate.to_json(), args.out)
        raise _Exit(EXIT_STALLED, f"stalled: {out.diagnostic}")
    replay = search.replay_certificate(out.certificate)
    payload = out.certificate.to_dict()
    payload["replay"] = replay
    _emit(json.dumps(payload, default=float), args.out)
    return EXIT_OK if replay["ok"] else EXIT_VERIFY_FAIL


def _not_the_record(cert, path: str) -> str:
    """The initial snapshot's fields (eps, a, t) that differ from the
    coordinate record at `path`, joined by commas; raises ValueError on a
    malformed record."""
    with open(path) as fh:
        eps, a, t = genus2.parse_record(json.load(fh))
    want = {"eps": [str(e) for e in eps], "a": a, "t": t}
    return ", ".join(key for key, v in want.items() if cert.initial[key] != v)


def cmd_replay(args) -> int:
    """Replay a certificate, and with --record check that it starts from
    that coordinate record; README's exit-code table lists its exit codes
    and their causes."""
    try:
        with open(args.certificate) as fh:
            cert = search.Certificate.from_json(fh.read())
    except (OSError, ValueError, KeyError) as exc:
        raise _Exit(EXIT_USAGE, f"bad certificate: {exc}") from exc
    try:
        differ = args.record and _not_the_record(cert, args.record)
    except (OSError, ValueError) as exc:
        raise _Exit(EXIT_USAGE, f"bad record: {exc}") from exc
    if differ:
        _emit(json.dumps({"ok": False, "reason": f"initial snapshot is not "
                          f"the record: {differ} differ"}), args.out)
        return EXIT_VERIFY_FAIL
    try:
        report = search.replay_certificate(cert)
    except search.OutOfScopeError as exc:
        raise _Exit(EXIT_OUT_OF_SCOPE, f"out of range: {exc}") from exc
    _emit(json.dumps(report, default=float), args.out)
    return EXIT_OK if report.get("ok") else EXIT_VERIFY_FAIL


# An orbit draws its moves (i, k), i in 1..3 and k in -2..2, in blocks of
# _BLOCK steps: one `integers` call with per-element bounds gives the same
# stream as two scalar calls per step, without per-step arrays for a long
# --length.
_BLOCK = 64


def _orbit_rows(seed: int, index: int, length: int) -> List[str]:
    """One orbit's CSV rows: a random walk of Dehn twists along gamma_1..3.

    Only the twists change along the orbit, and tr delta_{k+1} depends on
    t_k alone, so the delta traces come from per-orbit coefficients
    (`genus2.delta_twist_coeffs`) and the sign invariant, constant on twist
    orbits, is read once.  A move along gamma_i changes t_i alone, so it
    reevaluates tr delta_i and reformats those two columns.  The draws are
    those of numpy's `default_rng(SeedSequence([seed, index]))`, made by
    `pcg64` without numpy: `sorted` and `small[0] + small[1]` stand in for
    `np.sort` and `small.sum()` on the two floats.
    """
    rng = pcg64.default_rng([seed, index])
    eps1, eps2 = pants.EU_PLUS1, pants.EU_MINUS1
    if index % 3 == 1:
        eps1, eps2 = (pants.PantsCase("tri", 1), pants.PantsCase("tri", -1))
    if index % 3 == 2:
        eps1 = eps2 = pants.PantsCase("selfhex", 1)
    while True:
        if eps1.kind == "selfhex":
            small = sorted(rng.uniform(0.2, 0.8, 2))
            a = (small[0], small[1],
                 small[0] + small[1] + rng.uniform(0.1, 0.5))
        else:
            a = tuple(rng.uniform(0.3, 1.8, 3))
            if eps1.kind == "tri" and hyptrig.delta_invariant(*a) <= 0.05:
                continue
        break
    t = rng.uniform(-1.5, 1.5, 3)
    rep = genus2.build_glued(eps1, eps2, a, t)
    a, t = rep.a, list(rep.t)
    coeffs = [genus2.delta_twist_coeffs(rep, k) for k in range(3)]
    # seed,index | step | eps1,eps2,a1..a3 | t1..t3 | tr_d1..tr_d3 | sign
    cols = [f"{seed},{index}", "0",
            ",".join([str(eps1), str(eps2)] + [_fl(v) for v in a]),
            "", "", "", "", "", "", genus2.sign_invariant(rep)]

    def put(j: int) -> None:
        """Reformat t_{j+1} and tr delta_{j+1}, the columns a twist along
        gamma_{j+1} changes; "%.17g" is `_fl`'s format."""
        s, cm, c0, cp = coeffs[j]
        tj = t[j]
        cols[3 + j] = format(tj, ".17g")
        cols[6 + j] = format(
            2.0 - s * (cm * math.exp(-tj) + c0 + cp * math.exp(tj)), ".17g")

    for j in range(3):
        put(j)
    rows = [",".join(cols)]
    for start in range(0, length, _BLOCK):
        m = min(_BLOCK, length - start)
        moves = iter(rng.integers([1, -2] * m, [4, 3] * m))
        for step, i, k in zip(range(start + 1, start + m + 1), moves, moves):
            if k:
                t[i - 1] += 2.0 * k * a[i - 1]  # as genus2.dehn_twist_gamma
                put(i - 1)
            cols[1] = str(step)
            rows.append(",".join(cols))
    return rows


def cmd_orbit_stats(args) -> int:
    header = ("seed,index,step,eps1,eps2,a1,a2,a3,t1,t2,t3,"
              "tr_d1,tr_d2,tr_d3,sign")
    lines = [header]
    try:
        for i in range(args.n):
            lines.extend(_orbit_rows(args.seed, i, args.length))
    except OverflowError as exc:     # e^{t_k} overflows on a very long orbit
        raise _Exit(EXIT_OUT_OF_SCOPE, f"out of range: {exc}") from exc
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


def _positive(text: str) -> float:
    """argparse type: a finite float above 0."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not (math.isfinite(v) and v > 0.0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number > 0, got {text!r}")
    return v


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
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="Euler class, sign, trace table")
    c.add_argument("rep", help="path to a coordinate JSON file")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_classify)

    s = sub.add_parser("search", help="find a non-hyperbolic simple curve")
    s.add_argument("rep")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_search)

    r = sub.add_parser("replay", help="re-verify a search certificate")
    r.add_argument("certificate")
    r.add_argument("--record", help="coordinate JSON file the certificate "
                                    "must start from")
    r.add_argument("--out")
    r.set_defaults(fn=cmd_replay)

    o = sub.add_parser("orbit-stats", help="twist-orbit trace table (CSV)")
    o.add_argument("--seed", type=_count, default=0)
    o.add_argument("--n", type=_count, default=100)
    o.add_argument("--length", type=_count, default=50)
    o.add_argument("--out")
    o.set_defaults(fn=cmd_orbit_stats)

    v = sub.add_parser("verify", help="re-check the grid inequalities")
    v.add_argument("--scale", type=_positive, default=1.0,
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
    try:
        return args.fn(args)
    except _Exit as exc:
        sys.stderr.write(f"{args.command}: {exc}\n")
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
