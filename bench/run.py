"""srk benchmark: one workload, one seed, one closed loop.

    python3 bench/run.py --workload classify --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout; srk is imported from `src/` of that
checkout and never from an installed copy.  Each workload is one closed loop
with one client in this process: the next op starts when the previous one
has returned and been checked.  The benchmark starts no threads; only the
`orbit` workload's own `srk orbit-stats` call runs its worker pool, with the
worker count srk picks.

A run is a fixed number of ops, `--seconds` times the workload's nominal
rate (NOMINAL_OPS_PER_S), not a time limit: the same seed then gives the same
ops and so the same failures, whatever the host's speed.  On the reference
machine a run lasts about `--seconds`.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` a
separate traced run reports the per-layer metrics (see tracer.py).  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every op that raises, that srk itself reports it could not answer, or whose
answer the workload's check finds wrong counts in `failed`.  `correct` is
false when an answer is wrong, except in the one slice where wrong answers
are a known defect being tracked: the wide-twist records of `classify`
(10 <= |t| <= 40), where the Euler class can come back wrong without an
error.  Timing metrics are scaled to a reference machine speed (speed.py).
Exit codes: 0 with a result line, 2 when srk cannot be found or a workload
cannot be set up.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import ops
import speed

ROOT = Path.cwd()
WORK_DIR = ROOT / ".bench_build" / "bench"
SETUP_PROBES = 3

# loop iterations (op plus check) per wall second at the baseline commit on
# the reference machine: sizes a run of `--seconds` to a fixed op count
NOMINAL_OPS_PER_S = {"classify": 650.0, "search": 480.0,
                     "search_corner": 185.0, "orbit": 19.0, "verify": 2.5}

END_TO_END = [("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("ok_ratio", "ratio"),
              ("peak_rss_mb", "MB")]


class BenchError(RuntimeError):
    pass


def import_srk():
    src = ROOT / "src"
    if not (src / "srk" / "__init__.py").is_file():
        raise BenchError(f"no srk sources under {src}; run from the root of "
                         f"a source checkout")
    sys.path.insert(0, str(src))
    import srk
    if Path(srk.__file__).resolve().parent != (src / "srk").resolve():
        raise BenchError(f"imported srk from {srk.__file__}, not {src}")
    return srk


def corpus_for(workload: str, seed: int):
    """(corpus, warm-up records) for a workload; numpy only, no srk."""
    import corpus as c
    if workload == "classify":
        records = c.classify_corpus(seed, 56 * 240)
        warm = [next(r for r in records if not r["wide"] and r["euler"] == 0)]
    elif workload == "search":
        records = c.search_corpus(seed, 16000)
        warm = [{"text": c.RECOORD_RECORD}]
    elif workload == "search_corner":
        records = c.corner_corpus(seed, 6000)
        warm = [{"text": c.RECOORD_RECORD}]
    elif workload == "orbit":
        records = c.orbit_corpus(seed, 1000)
        warm = records[:1]
    else:
        records = [{}]
        warm = records[:1]
    return records, warm


def warm_up(srk, workload: str, records, tmp: str) -> list:
    op = ops.WORKLOADS[workload][0]
    return [op(srk, rec, tmp) for rec in records]


def check_warm_up(srk, workload: str, records, outs) -> None:
    check = ops.WORKLOADS[workload][1]
    for rec, out in zip(records, outs):
        verdict = check(srk, rec, out)
        if verdict:
            raise BenchError(f"warm-up op failed its check: {verdict}")


def setup_probe(workload: str) -> None:
    """Child process: time `import srk` plus the warm-up ops."""
    records = json.load(sys.stdin)
    t0 = time.perf_counter()
    srk = import_srk()
    outs = warm_up(srk, workload, records, str(WORK_DIR))
    elapsed = time.perf_counter() - t0
    check_warm_up(srk, workload, records, outs)
    print(json.dumps({"setup_s": elapsed, "probe_s": speed.probe()}))


def measure_setup(workload: str, warm) -> list:
    """Set-up time of SETUP_PROBES fresh interpreters, one after another,
    each scaled by the speed probes run just before and just after it."""
    times = []
    for _ in range(SETUP_PROBES):
        before = speed.probe()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--setup-probe"],
            input=json.dumps(warm), capture_output=True, text=True,
            timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        child = json.loads(proc.stdout.splitlines()[-1])
        times.append(speed.scaled([child["setup_s"]], [0, 1],
                                  [before, child["probe_s"]])[0])
    return times


def op_count(workload: str, seconds: float) -> int:
    """Ops in one run: `seconds` at the workload's nominal rate."""
    return max(1, round(seconds * NOMINAL_OPS_PER_S[workload]))


def tail_index(n: int, pct: int) -> int:
    """Nearest-rank index of the pct-th percentile in n sorted samples."""
    return min(n - 1, max(0, -(-n * pct // 100) - 1))


def closed_loop(srk, workload: str, records, n_ops: int, tmp: str,
                tracer=None) -> dict:
    """Run `n_ops` ops back to back, cycling over `records`, probing the
    machine's speed.

    Returns per-op wall and CPU seconds and pass flags, the failed ops with
    their verdicts, and the speed probes (see speed.py) with the number of
    ops finished before each.  Per-op results are kept in arrays, which the
    garbage collector does not traverse.
    """
    op, check, _ = ops.WORKLOADS[workload]
    if tracer is not None:
        op = tracer.timed("bench.op", op)
    run = {"lat": array("d"), "cpu": array("d"), "ok": bytearray(),
           "failures": [], "probe_pos": array("q", [0]),
           "probe_s": array("d", [speed.probe()])}
    since_probe = 0.0
    for i in range(n_ops):
        rec = records[i % len(records)]
        if tracer is not None:
            tracer.op, tracer.on = i, True
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = op(srk, rec, tmp)
            verdict = None
        except Exception as exc:                    # the op failed: count it
            out, verdict = None, ("error", f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        run["cpu"].append(time.process_time() - c0)
        run["lat"].append(t1 - t0)
        if tracer is not None:
            tracer.on = False
        if verdict is None:
            verdict = check(srk, rec, out)
        run["ok"].append(verdict is None)
        if verdict:
            run["failures"].append((rec, verdict))
        since_probe += t1 - t0
        if since_probe >= speed.PROBE_EVERY_S:
            run["probe_pos"].append(i + 1)
            run["probe_s"].append(speed.probe())
            since_probe = 0.0
    run["probe_pos"].append(n_ops)
    run["probe_s"].append(speed.probe())
    return run


def scaled_ops(run: dict) -> list:
    """(op time scaled to the reference speed, passed) for every op."""
    times = speed.scaled(run["lat"], run["probe_pos"], run["probe_s"])
    return list(zip(times, run["ok"]))


def summarise(attempted: int, failed) -> dict:
    kinds: dict = {}
    for rec, (kind, why) in failed:
        slice_ = "wide-twist" if rec.get("wide") else "core"
        key = f"{kind} ({slice_}): {why.split(':')[0]}"
        kinds[key] = kinds.get(key, 0) + 1
    core = [(rec, kind, why) for rec, (kind, why) in failed
            if not rec.get("wide")]
    print(f"ops: {attempted} attempted, {len(failed)} failed, "
          f"fail_ratio {len(failed) / attempted:.6f}")
    for key, count in sorted(kinds.items()):
        print(f"  {count} x {key}")
    for rec, kind, why in core[:5]:
        print(f"  {kind}: {why} on {rec.get('text', rec)}")
    wrong = any(kind == "wrong" for _, kind, _ in core)
    return {"correct": not wrong and len(failed) < attempted,
            "attempted": attempted, "failed": len(failed)}


def end_to_end(workload: str, run: dict, setup) -> dict:
    pct = ops.WORKLOADS[workload][2]
    ops_ = scaled_ops(run)
    ordered = sorted(lat for lat, _ in ops_)
    n = len(ordered)
    idx = tail_index(n, pct)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": sum(ok for _, ok in ops_) / sum(ordered),
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": ordered[idx] * 1e3,
        "ok_ratio": sum(run["ok"]) / len(run["ok"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    print(f"setup_s: median of {len(setup)} fresh interpreters "
          f"{[round(x, 4) for x in setup]} (scaled)")
    print(f"times scaled to a {speed.REFERENCE_S * 1e3} ms probe; the probe "
          f"took {statistics.median(run['probe_s']) * 1e3:.4f} ms (median); "
          f"raw op_p50_ms {statistics.median(run['lat']) * 1e3:.4f}")
    print(f"op_p50_ms: {values['op_p50_ms']:.4f} (n={n}); op_tail_ms: "
          f"p{pct} {values['op_tail_ms']:.4f} (n={n}, {n - 1 - idx} beyond)")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def traced(srk, workload: str, records, n_ops: int, tmp: str):
    import tracer as tr
    t = tr.Tracer()
    t.install(srk)
    try:
        run = closed_loop(srk, workload, records, n_ops, tmp, tracer=t)
    finally:
        t.uninstall()
    ops_ = scaled_ops(run)
    uses_cli = workload in ("orbit", "verify")
    extra = {"cli.cpu_per_wall":
             sum(run["cpu"]) / sum(run["lat"]) if uses_cli else 0.0,
             "cli.workers": srk.cli._threads() if workload == "orbit" else 0,
             "trace.ops_per_s": sum(ok for _, ok in ops_)
             / sum(lat for lat, _ in ops_)}
    metrics = tr.layer_metrics(t, len(run["ok"]), extra)
    write_spans(t, WORK_DIR / f"trace-{workload}.npz")
    return run, {name: {"value": float(metrics[name]), "unit": unit}
                 for name, unit in tr.PER_LAYER}


def write_spans(t, path: Path) -> None:
    import numpy as np
    arrays = {f"t{k}_{field}": np.asarray(getattr(buf, field))
              for k, buf in enumerate(t.buffers)
              for field in ("name", "start", "end", "parent", "op", "err")}
    np.savez(path, names=np.array(t.names), **arrays)
    print(f"spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=16.0,
                   help="run length at the nominal rate; sets the op count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload)
            return 0
        srk = import_srk()
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        tmp = str(WORK_DIR)
        records, warm = corpus_for(args.workload, args.seed)
        setup = [] if args.trace else measure_setup(args.workload, warm)
        check_warm_up(srk, args.workload, warm,
                      warm_up(srk, args.workload, warm, tmp))
        gc.collect()
        gc.freeze()         # the corpus is harness data: keep it out of GC
        n_ops = op_count(args.workload, args.seconds)
        print(f"workload {args.workload} seed {args.seed}: closed loop, one "
              f"client, {n_ops} ops ({args.seconds} s at the nominal rate), "
              f"corpus of {len(records)} records")
        t0 = time.perf_counter()
        if args.trace:
            run, metrics = traced(srk, args.workload, records, n_ops, tmp)
        else:
            run = closed_loop(srk, args.workload, records, n_ops, tmp)
            metrics = end_to_end(args.workload, run, setup)
        print(f"loop wall time {time.perf_counter() - t0:.2f} s")
        if args.workload == "orbit":
            print(f"orbit-stats workers: {srk.cli._threads()}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result = summarise(len(run["ok"]), run["failures"])
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
