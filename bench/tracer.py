"""Span recorder for the traced benchmark run.

`Tracer.install` replaces public srk functions with recording wrappers at
run time; srk itself is not changed.  A wrapper is bound at every place the
original was bound: on its defining module and on every srk module that
imported the name (`search.build_glued`, `genus2.build_pants`, ...), so
`from x import y` cannot bypass it.  `scipy.optimize.brentq` is wrapped on
its own module because `search` and `inequalities` import it at call time.

Two kinds of wrapper:

* timed: records a span (name, start, end, parent, op id) in a per-thread
  buffer that stays in memory until the end of the run;
* counted: increments a per-thread counter only.  The 2x2 kernel functions,
  `circle_position` and `lift` are counted, not timed, because a timing
  wrapper would cost as much as the call itself; their time falls into the
  calling span's self time.

Spans use the calling thread's CPU clock (`time.thread_time_ns`).  The
orbit-stats worker pool runs two threads that take turns on the interpreter
lock; with a wall clock a span would also be charged for the other thread's
turns.  A span's parent is the enclosing span on the same thread, so a span
and its children always share one clock.  Self time is the span's duration
minus the union of its children's intervals (`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from typing import Callable, Dict, List, Sequence

TIMED = {
    "cli": ("main", "build_parser", "cmd_orbit_stats", "cmd_verify",
            "_orbit_rows"),
    "search": ("search_nonhyperbolic", "dispatch", "replay_certificate",
               "Certificate.to_json", "Certificate.from_json"),
    "torus": ("reduce_triple",),
    "genus2": ("GluedRep.from_json", "build_glued", "euler_class",
               "generator_images", "curve_matrix", "trace_curve_matrix",
               "trace_curve_closed_form", "sign_invariant",
               "dehn_twist_gamma"),
    "pants": ("build_pants",),
    "hyptrig": ("solve_hexagon", "solve_triangle", "solve_self_hexagon"),
    "psl2r": ("euler_class_closed",),
    "inequalities": ("verify_paper_inequalities",),
}
KERNEL = ("mmul", "minv", "mtrace", "commutator", "make_translation")
COUNTED = {"psl2r": KERNEL + ("circle_position", "lift")}
ROOTFIND = ("scipy.optimize", "brentq")


def _strategy(sid: str) -> str:
    return sid.split(":")[0]


# return values a span keeps for the per-layer metrics
TAPS: Dict[str, Callable] = {
    "search.dispatch": _strategy,
    "search.search_nonhyperbolic":
        lambda out: (out.rounds, len(out.certificate.moves)),
    "genus2.trace_curve_closed_form": lambda out: bool(out[1]),
    "torus.reduce_triple": lambda out: out.steps,
    "inequalities.verify_paper_inequalities":
        lambda reports: sum(r.grid_points for r in reports),
}


class _Buffer:
    """One thread's spans, parallel arrays indexed by span id."""

    def __init__(self) -> None:
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.err = array("b")
        self.info: Dict[int, object] = {}
        self.counts: Dict[str, int] = {}
        self.stack: List[int] = []


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.thread_time_ns):
        self.clock = clock
        self.on = False
        self.op = -1
        self.names: List[str] = []
        self.buffers: List[_Buffer] = []
        self._local = threading.local()
        self._undo: List = []
        self.originals: List[object] = []

    # -- recording ---------------------------------------------------------

    def buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            self.buffers.append(buf)
        return buf

    def timed(self, name: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        tap = TAPS.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            buf = self.buffer()
            idx = len(buf.start)
            stack = buf.stack
            buf.name.append(name_id)
            buf.parent.append(stack[-1] if stack else -1)
            buf.op.append(self.op)
            buf.end.append(0)
            buf.err.append(0)
            stack.append(idx)
            buf.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                buf.err[idx] = 1
                raise
            finally:
                buf.end[idx] = clock()
                stack.pop()
            if tap is not None:
                buf.info[idx] = tap(out)
            return out

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.on:
                counts = self.buffer().counts
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def counts(self) -> Dict[str, int]:
        total: Dict[str, int] = {}
        for buf in self.buffers:
            for k, v in buf.counts.items():
                total[k] = total.get(k, 0) + v
        return total

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target of TIMED, COUNTED and ROOTFIND in `package`."""
        prefix = package.__name__
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == prefix or n.startswith(prefix + "."))]
        for layer, names in TIMED.items():
            mod = sys.modules[f"{prefix}.{layer}"]
            for qual in names:
                self._patch(mod, qual, f"{layer}.{qual}", self.timed, mods)
        for layer, names in COUNTED.items():
            mod = sys.modules[f"{prefix}.{layer}"]
            for name in names:
                self._patch(mod, name, f"{layer}.{name}", self.counted, mods)
        opt = importlib.import_module(ROOTFIND[0])
        self._patch(opt, ROOTFIND[1], "scipy.brentq", self.counted, [opt])

    def _patch(self, mod, qual: str, name: str, make, mods: Sequence) -> None:
        if "." in qual:                       # a method bound on its class
            cls_name, attr = qual.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(name, raw.__func__))
                self.originals.append(raw.__func__)
            else:
                new = make(name, raw)
                self.originals.append(raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)
            return
        orig = getattr(mod, qual)
        self.originals.append(orig)
        new = make(name, orig)
        for m in mods:
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._undo.append((m, key, orig))
                    setattr(m, key, new)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


def self_times(start: Sequence[int], end: Sequence[int],
               parent: Sequence[int]) -> List[int]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval; overlapping children
    are counted once.
    """
    out = [e - s for s, e in zip(start, end)]
    covered: Dict[int, int] = {}        # parent -> end of the union so far
    for i in sorted((i for i, p in enumerate(parent) if p >= 0),
                    key=start.__getitem__):
        p = parent[i]
        lo = max(start[i], covered.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            out[p] -= hi - lo
            covered[p] = hi
    return out


def layer_of(name: str) -> str:
    return name.split(".")[0]



STRATEGIES = ("delta_torus", "delta_torus_complement", "phi_torus",
              "intervals", "flat_twist", "triangle_improve", "equilateral1",
              "boum", "isosceles1")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("cli.self_ms_per_op", "ms"),
    ("cli.cpu_per_wall", "ratio"),
    ("cli.workers", "count"),
    ("search.self_ms_per_op", "ms"),
    ("search.recoord_share", "ratio"),
    ("search.rounds_max", "count"),
    ("search.recoord_op_ms_p50", "ms"),
    ("search.round0_op_ms_p50", "ms"),
    ("search.rootfind_calls_per_op", "count"),
    ("search.dispatch_us_per_call", "us"),
] + [(f"search.strategy_share.{s}", "ratio") for s in STRATEGIES] + [
    ("search.replay_us_per_call", "us"),
    ("search.replay_share", "ratio"),
    ("search.moves_per_cert", "count"),
    ("torus.reduce_calls_per_op", "count"),
    ("torus.reduce_us_per_call", "us"),
    ("torus.steps_per_call", "count"),
    ("genus2.build_glued_calls_per_op", "count"),
    ("genus2.build_glued_us_per_call", "us"),
    ("genus2.euler_class_us_per_call", "us"),
    ("genus2.generator_images_us_per_call", "us"),
    ("genus2.curve_matrix_calls_per_op", "count"),
    ("genus2.curve_matrix_us_per_call", "us"),
    ("genus2.closed_form_us_per_call", "us"),
    ("genus2.closed_form_covered_ratio", "ratio"),
    ("genus2.sign_invariant_us_per_call", "us"),
    ("genus2.dehn_twist_calls_per_op", "count"),
    ("genus2.self_ms_per_op", "ms"),
    ("pants.build_calls_per_op", "count"),
    ("pants.build_us_per_call", "us"),
    ("pants.build_fail_ratio", "ratio"),
    ("pants.self_ms_per_op", "ms"),
    ("hyptrig.solve_calls_per_op", "count"),
    ("hyptrig.solve_us_per_call", "us"),
    ("hyptrig.self_ms_per_op", "ms"),
    ("psl2r.milnor_us_per_call", "us"),
    ("psl2r.lift_calls_per_milnor", "count"),
    ("psl2r.circle_position_calls_per_milnor", "count"),
    ("psl2r.kernel_calls_per_op", "count"),
] + [(f"psl2r.kernel_calls.{k}", "count") for k in KERNEL] + [
    ("psl2r.self_ms_per_op", "ms"),
    ("inequalities.grid_points_per_s", "1/s"),
    ("inequalities.self_ms_per_op", "ms"),
    ("trace.ops_per_s", "ops/s"),
    ("trace.spans_per_op", "count"),
    ("trace.unattributed_ms_per_op", "ms"),
]


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    return (ordered[(n - 1) // 2] + ordered[n // 2]) / 2.0


def layer_metrics(tracer: Tracer, n_ops: int,
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from the recorded spans and counts.

    Span times are in ns of thread CPU time.  `extra` holds the values the
    runner measures itself (`cli.cpu_per_wall`, `cli.workers`,
    `trace.ops_per_s`).  A metric of a layer the workload never reaches is 0.
    """
    calls: Dict[str, int] = {}
    busy: Dict[str, int] = {}
    fails: Dict[str, int] = {}
    self_ns: Dict[str, int] = {}
    taps: Dict[str, List] = {}
    op_ns: Dict[int, int] = {}
    op_rounds: Dict[int, int] = {}
    n_spans = 0
    for buf in tracer.buffers:
        selfs = self_times(buf.start, buf.end, buf.parent)
        n_spans += len(selfs)
        for i, (nid, s, e, op, err) in enumerate(
                zip(buf.name, buf.start, buf.end, buf.op, buf.err)):
            name = tracer.names[nid]
            layer = layer_of(name)
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0) + e - s
            fails[name] = fails.get(name, 0) + err
            self_ns[layer] = self_ns.get(layer, 0) + selfs[i]
            if name == "bench.op":
                op_ns[op] = op_ns.get(op, 0) + e - s
            if i in buf.info:
                taps.setdefault(name, []).append(buf.info[i])
                if name == "search.search_nonhyperbolic":
                    op_rounds[op] = buf.info[i][0]
    counts = tracer.counts()
    n = max(n_ops, 1)

    def per_op(name: str) -> float:
        return calls.get(name, 0) / n

    def us_per_call(*names: str) -> float:
        c = sum(calls.get(x, 0) for x in names)
        return sum(busy.get(x, 0) for x in names) / c / 1e3 if c else 0.0

    def self_ms(layer: str) -> float:
        return self_ns.get(layer, 0) / n / 1e6

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    searches = taps.get("search.search_nonhyperbolic", [])
    strategies = taps.get("search.dispatch", [])
    milnor = calls.get("psl2r.euler_class_closed", 0)
    solvers = ("hyptrig.solve_hexagon", "hyptrig.solve_triangle",
               "hyptrig.solve_self_hexagon")
    grid_s = busy.get("inequalities.verify_paper_inequalities", 0) / 1e9
    out = {
        "cli.self_ms_per_op": self_ms("cli"),
        "search.self_ms_per_op": self_ms("search"),
        "search.recoord_share": share(sum(r > 0 for r, _ in searches),
                                      len(searches)),
        "search.rounds_max": max((r for r, _ in searches), default=0),
        "search.recoord_op_ms_p50": _median(
            [op_ns[o] / 1e6 for o, r in op_rounds.items() if r > 0]),
        "search.round0_op_ms_p50": _median(
            [op_ns[o] / 1e6 for o, r in op_rounds.items() if r == 0]),
        "search.rootfind_calls_per_op": counts.get("scipy.brentq", 0) / n,
        "search.dispatch_us_per_call": us_per_call("search.dispatch"),
        "search.replay_us_per_call": us_per_call("search.replay_certificate"),
        "search.replay_share": share(busy.get("search.replay_certificate", 0),
                                     sum(op_ns.values())),
        "search.moves_per_cert": share(sum(m for _, m in searches),
                                       len(searches)),
        "torus.reduce_calls_per_op": per_op("torus.reduce_triple"),
        "torus.reduce_us_per_call": us_per_call("torus.reduce_triple"),
        "torus.steps_per_call": share(sum(taps.get("torus.reduce_triple", [])),
                                      calls.get("torus.reduce_triple", 0)),
        "genus2.build_glued_calls_per_op": per_op("genus2.build_glued"),
        "genus2.build_glued_us_per_call": us_per_call("genus2.build_glued"),
        "genus2.euler_class_us_per_call": us_per_call("genus2.euler_class"),
        "genus2.generator_images_us_per_call":
            us_per_call("genus2.generator_images"),
        "genus2.curve_matrix_calls_per_op": per_op("genus2.curve_matrix"),
        "genus2.curve_matrix_us_per_call": us_per_call("genus2.curve_matrix"),
        "genus2.closed_form_us_per_call":
            us_per_call("genus2.trace_curve_closed_form"),
        "genus2.closed_form_covered_ratio": share(
            sum(taps.get("genus2.trace_curve_closed_form", [])),
            calls.get("genus2.trace_curve_closed_form", 0)),
        "genus2.sign_invariant_us_per_call":
            us_per_call("genus2.sign_invariant"),
        "genus2.dehn_twist_calls_per_op": per_op("genus2.dehn_twist_gamma"),
        "genus2.self_ms_per_op": self_ms("genus2"),
        "pants.build_calls_per_op": per_op("pants.build_pants"),
        "pants.build_us_per_call": us_per_call("pants.build_pants"),
        "pants.build_fail_ratio": share(fails.get("pants.build_pants", 0),
                                        calls.get("pants.build_pants", 0)),
        "pants.self_ms_per_op": self_ms("pants"),
        "hyptrig.solve_calls_per_op": sum(per_op(x) for x in solvers),
        "hyptrig.solve_us_per_call": us_per_call(*solvers),
        "hyptrig.self_ms_per_op": self_ms("hyptrig"),
        "psl2r.milnor_us_per_call": us_per_call("psl2r.euler_class_closed"),
        "psl2r.lift_calls_per_milnor": share(counts.get("psl2r.lift", 0),
                                             milnor),
        "psl2r.circle_position_calls_per_milnor":
            share(counts.get("psl2r.circle_position", 0), milnor),
        "psl2r.kernel_calls_per_op":
            sum(counts.get(f"psl2r.{k}", 0) for k in KERNEL) / n,
        "psl2r.self_ms_per_op": self_ms("psl2r"),
        "inequalities.grid_points_per_s": share(
            sum(taps.get("inequalities.verify_paper_inequalities", [])),
            grid_s),
        "inequalities.self_ms_per_op": self_ms("inequalities"),
        "trace.spans_per_op": n_spans / n,
        "trace.unattributed_ms_per_op": self_ms("bench"),
    }
    for s in STRATEGIES:
        out[f"search.strategy_share.{s}"] = share(strategies.count(s),
                                                  len(strategies))
    for k in KERNEL:
        out[f"psl2r.kernel_calls.{k}"] = counts.get(f"psl2r.{k}", 0) / n
    out.update(extra)
    return out
