"""Command-line front door.

Subcommands: classify, search, orbit-stats, verify, replay.  Inputs are the
JSON coordinate records {"eps": [...], "a": [...], "t": [...]}; outputs are
JSON or CSV with full-precision floats so that replays are bit-faithful.
orbit-stats runs in one thread and builds each orbit once: the delta traces
come from per-orbit coefficients (`genus2.twist_coeffs`, evaluated by
`genus2.twist_trace`), which the tests cross-check against the matrix
words.  Each Dehn twist changes one t_i, so it reevaluates one delta trace
and reformats those two columns.  A table is at most `MAX_ORBIT_ROWS` rows.
Each orbit draws from its own `random.Random`, seeded by an integer of
(seed, index), so a seed gives the same table on every platform and on
CPython 3.10 and later.  A command that fails raises `_Exit`, and `main`
writes its one stderr line and returns its code; README's exit-code table
lists the codes and their causes.  `main` builds its parser on its first
call and reuses it.

numpy is imported only where an ndarray is made: verify evaluates its grids
with it, while classify, search, replay and orbit-stats run on floats and
4-tuples and load no numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from typing import List, Optional

from . import genus2, hyptrig, inequalities, pants, search
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
        if euler != rep.euler_nominal:      # a wrong class past its checks
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
    payload = out.certificate._asdict()
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
    except (OSError, ValueError, RecursionError) as exc:
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


def _orbit_rows(seed: int, index: int, length: int) -> List[str]:
    """One orbit's CSV rows: a random walk of Dehn twists along gamma_1..3.

    Only the twists change along the orbit, and tr delta_{k+1} depends on
    t_k alone, so the delta traces come from one `genus2.twist_coeffs`
    tuple per delta per orbit, evaluated by `genus2.twist_trace`, and the
    sign invariant, constant on twist orbits, is read once.  A move along
    gamma_i changes t_i alone, so it reevaluates tr delta_i and reformats
    those two columns.

    The orbit draws from `random.Random(s)`, s the Cantor pairing of
    (seed, index): an integer seed, never a `hash()`, which is salted per
    process for a str.  Every draw is one `random()` call, the method whose
    sequence CPython keeps for a given seed across versions: a uniform on
    [lo, hi) is lo + (hi - lo) * u, and a move draws i = 1 + floor(3u),
    then k = floor(5u) - 2.
    """
    u = random.Random((seed + index) * (seed + index + 1) // 2 + index).random

    def uniform(lo: float, hi: float) -> float:
        return lo + (hi - lo) * u()

    eps1, eps2 = pants.EU_PLUS1, pants.EU_MINUS1
    if index % 3 == 1:
        eps1, eps2 = (pants.PantsCase("tri", 1), pants.PantsCase("tri", -1))
    if index % 3 == 2:
        eps1 = eps2 = pants.PantsCase("selfhex", 1)
    while True:
        if eps1.kind == "selfhex":
            small = sorted(uniform(0.2, 0.8) for _ in range(2))
            a = (small[0], small[1],
                 small[0] + small[1] + uniform(0.1, 0.5))
        else:
            a = tuple(uniform(0.3, 1.8) for _ in range(3))
            if eps1.kind == "tri" and hyptrig.delta_invariant(*a) <= 0.05:
                continue
        break
    t = [uniform(-1.5, 1.5) for _ in range(3)]
    rep = genus2.build_glued(eps1, eps2, a, t)
    a, t = rep.a, list(rep.t)
    coeffs = [genus2.twist_coeffs(rep, tag) for tag in genus2.DELTA_TAGS]
    # seed,index | step | eps1,eps2,a1..a3 | t1..t3 | tr_d1..tr_d3 | sign
    cols = [f"{seed},{index}", "0",
            ",".join([str(eps1), str(eps2)] + [_fl(v) for v in a]),
            "", "", "", "", "", "", genus2.sign_invariant(rep)]

    def put(j: int) -> None:
        """Reformat t_{j+1} and tr delta_{j+1}, the columns a twist along
        gamma_{j+1} changes; "%.17g" is `_fl`'s format."""
        cols[3 + j] = format(t[j], ".17g")
        cols[6 + j] = format(genus2.twist_trace(genus2.DELTA_TAGS[j],
                                                coeffs[j], t), ".17g")

    for j in range(3):
        put(j)
    rows = [",".join(cols)]
    for step in range(1, length + 1):
        j = int(3.0 * u())             # the move along gamma_{j+1}
        k = int(5.0 * u()) - 2
        if k:
            t[j] += k * (2.0 * a[j])    # as genus2.dehn_twist_gamma
            put(j)
        cols[1] = str(step)
        rows.append(",".join(cols))
    return rows


# the largest orbit-stats table, --n times (--length + 1) rows: the table
# is held whole before it is written, about 0.5 KB a row
MAX_ORBIT_ROWS = 1_000_000


def cmd_orbit_stats(args) -> int:
    rows = args.n * (args.length + 1)
    if rows > MAX_ORBIT_ROWS:
        raise _Exit(EXIT_USAGE, f"--n {args.n} --length {args.length} asks "
                                f"for {rows} rows, above the largest table "
                                f"of {MAX_ORBIT_ROWS}")
    header = ("seed,index,step,eps1,eps2,a1,a2,a3,t1,t2,t3,"
              "tr_d1,tr_d2,tr_d3,sign")
    lines = [header]
    try:
        for i in range(args.n):
            lines.extend(_orbit_rows(args.seed, i, args.length))
    except OverflowError as exc:     # e^{t_k} overflows on a very long orbit
        raise _Exit(EXIT_OUT_OF_SCOPE, f"out of range: {exc}") from exc
    lines.append("")                 # the final newline, with no copy
    text = "\n".join(lines)
    del lines                        # the rows go before `_emit` encodes
    _emit(text, args.out)
    return EXIT_OK


# the largest `verify --scale`: the grids grow with the scale, and a run at
# 64 already takes about 4 s on a 2-core x86-64 Xeon (3.5-4.3 s on two
# threads, 5.2-6.4 s on one)
MAX_SCALE = 100.0


def cmd_verify(args) -> int:
    if args.scale > MAX_SCALE:
        raise _Exit(EXIT_USAGE, f"--scale {args.scale:g} is above the "
                                f"largest scale {MAX_SCALE:g}")
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


# `main` parses every call with one parser (`_parser`): `parse_args` leaves
# it unchanged and returns a new Namespace, and every default below is
# immutable.  A mutable default, such as a list that `action="append"`
# extends, would carry one call's arguments into the next.
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
                   help="grid refinement multiplier; below about 0.05 "
                        "a grid can be too coarse to prove a true claim, "
                        "and verify exits 1")
    v.add_argument("--format", choices=("json", "csv"), default="json")
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:     # -h (0) or a usage error (64)
        return exc.code
    try:
        return args.fn(args)
    except _Exit as exc:
        sys.stderr.write(f"{args.command}: {exc}\n")
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
