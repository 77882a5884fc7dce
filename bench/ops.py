"""One op and one output check per workload.

An op mirrors what one CLI subcommand computes.  `classify` and the two
search workloads call the library API rather than `cli.main`: the argument
parser costs ~1.4 ms per call, which no CLI user pays per op, and would
triple a classify op.  `orbit` and `verify` call `cli.main` in process and
are sized so that the parser stays a few percent of the op.

This module imports neither numpy nor srk, so the set-up probe can time
`import srk` from a clean interpreter.  Ops take the imported package as
their first argument and look functions up at call time, which is what lets
the tracer's wrappers see them.

A check returns None when the output is right, else a pair (kind, reason):
kind "refused" when srk itself reported that it could not answer (a stalled
search, a nonzero exit code), "wrong" when it answered and the answer is
wrong.  An op that raises is counted by the runner with kind "error".
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

Verdict = Optional[Tuple[str, str]]

ORBIT_N = 3                # a multiple of 3: every orbit family appears
ORBIT_LENGTH = 50
ORBIT_CHECK_ROWS = 3       # rows per op whose delta traces are recomputed
TRACE_RTOL = 1e-9


def classify_op(srk, rec: Dict, tmp: str) -> str:
    g2 = srk.genus2
    rep = g2.GluedRep.from_json(rec["text"])
    euler = g2.euler_class(rep)
    sign = str(g2.sign_invariant(rep)) if rep.euler_nominal == 0 else None
    table = {}
    for tag in g2.CURVE_TAGS:
        tm = g2.trace_curve_matrix(rep, tag)
        tc, covered = g2.trace_curve_closed_form(rep, tag)
        table[tag] = {"matrix": tm, "closed_form": tc if covered else None}
    return json.dumps({"euler": euler, "euler_nominal": rep.euler_nominal,
                       "sign": sign, "traces": table})


def classify_check(srk, rec: Dict, out: str) -> Verdict:
    report = json.loads(out)
    if report["euler"] != rec["euler"]:
        return "wrong", f"euler {report['euler']} != nominal {rec['euler']}"
    for tag, row in report["traces"].items():
        tm, tc = row["matrix"], row["closed_form"]
        if tc is not None and not abs(tm - tc) <= TRACE_RTOL * max(1.0, abs(tm)):
            return "wrong", f"{tag}: closed form {tc} vs matrix {tm}"
    return None


def search_op(srk, rec: Dict, tmp: str) -> Dict:
    s = srk.search
    rep = srk.genus2.GluedRep.from_json(rec["text"])
    out = s.search_nonhyperbolic(rep)
    if not isinstance(out, s.FoundCurve):
        return {"found": False, "diagnostic": out.diagnostic}
    replay = s.replay_certificate(out.certificate, tol=1e-6)
    text = out.certificate.to_json()
    back = s.Certificate.from_json(text)
    return {"found": True, "trace": out.trace, "rounds": out.rounds,
            "replay": replay, "cert": out.certificate, "text": text,
            "back": back}


def search_check(srk, rec: Dict, out: Dict) -> Verdict:
    if not out["found"]:
        return "refused", f"stalled: {out['diagnostic']}"
    if not abs(out["trace"]) <= 2.0 + 1e-9:
        return "wrong", f"found trace {out['trace']}"
    if not out["replay"]["ok"]:
        return "wrong", f"replay {out['replay']}"
    if out["back"] != out["cert"]:
        return "wrong", "certificate JSON round trip changed it"
    return None


def orbit_op(srk, rec: Dict, tmp: str) -> Dict:
    path = os.path.join(tmp, "orbit.csv")
    code = srk.cli.main(["orbit-stats", "--seed", str(rec["seed"]),
                         "--n", str(ORBIT_N), "--length", str(ORBIT_LENGTH),
                         "--out", path])
    with open(path) as fh:
        return {"code": code, "csv": fh.read()}


def orbit_check(srk, rec: Dict, out: Dict) -> Verdict:
    if out["code"] != 0:
        return "refused", f"exit code {out['code']}"
    lines = out["csv"].splitlines()
    header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    if len(rows) != ORBIT_N * (ORBIT_LENGTH + 1):
        return "wrong", f"{len(rows)} rows"
    col = {name: i for i, name in enumerate(header)}
    fixed = [col[c] for c in ("eps1", "eps2", "a1", "a2", "a3", "sign")]
    per_orbit: Dict[str, List[List[str]]] = {}
    for row in rows:
        per_orbit.setdefault(row[col["index"]], []).append(row)
    for index, orbit in per_orbit.items():
        if len({tuple(r[i] for i in fixed) for r in orbit}) != 1:
            return "wrong", f"orbit {index}: eps, gamma lengths or sign vary"
    g2 = srk.genus2
    case = srk.pants.case_from_string
    for k in range(ORBIT_CHECK_ROWS):
        row = rows[(rec["seed"] + 53 * k) % len(rows)]
        rep = g2.build_glued(case(row[col["eps1"]]), case(row[col["eps2"]]),
                             [float(row[col[f"a{i}"]]) for i in (1, 2, 3)],
                             [float(row[col[f"t{i}"]]) for i in (1, 2, 3)])
        for i in (1, 2, 3):
            want = g2.trace_curve_matrix(rep, f"delta{i}")
            got = float(row[col[f"tr_d{i}"]])
            if not abs(got - want) <= TRACE_RTOL * max(1.0, abs(want)):
                return "wrong", f"row {row[:3]}: tr delta{i} {got} vs {want}"
    return None


def verify_op(srk, rec: Dict, tmp: str) -> Dict:
    path = os.path.join(tmp, "verify.json")
    code = srk.cli.main(["verify", "--out", path])
    with open(path) as fh:
        return {"code": code, "claims": json.load(fh)}


def verify_check(srk, rec: Dict, out: Dict) -> Verdict:
    if out["code"] != 0:
        return "refused", f"exit code {out['code']}"
    bad = [c["claim"] for c in out["claims"] if not c["ok"]]
    if bad or not out["claims"]:
        return "wrong", f"claims not ok: {bad}"
    return None


# name -> (op, check, tail percentile).  The tail percentile is the highest
# of p99, p98, p95 and p90 that keeps ten samples beyond it and whose value
# stayed steady across seeds.  p99 lands on ops slowed by passing
# disturbances on `classify` and `search`, and on the ~30 slowest
# re-coordinatising searches on `search_corner`; it spread by 7-19% between
# seeds.  `verify` gives 40 samples a run, so p75.
WORKLOADS = {
    "classify": (classify_op, classify_check, 90),
    "search": (search_op, search_check, 95),
    "search_corner": (search_op, search_check, 95),
    "orbit": (orbit_op, orbit_check, 90),
    "verify": (verify_op, verify_check, 75),
}
