"""Self-tests of the benchmark: checker, tracer, corpus and config.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import srk  # noqa: E402
import tracer as tr  # noqa: E402

# (EuPlus1, EuPlus1) with a wide twist on t2: the Euler class is 2, but the
# Milnor algorithm on the un-normalised twists can come back 0 without error
WIDE_RECORD = {"text": json.dumps({"eps": ["EuPlus1", "EuPlus1"],
                                   "a": [1.0, 1.1, 1.2],
                                   "t": [0.3, -24.5, -0.2]}),
               "euler": 2, "wide": True}


def _report(euler):
    return json.dumps({"euler": euler, "euler_nominal": 2, "sign": None,
                       "traces": {"gamma1": {"matrix": 2.5,
                                             "closed_form": 2.5}}})


class TestChecker:
    def test_wrong_euler_class_is_a_failure(self):
        verdict = ops.classify_check(srk, WIDE_RECORD, _report(0))
        assert verdict[0] == "wrong" and "euler 0" in verdict[1]
        assert ops.classify_check(srk, WIDE_RECORD, _report(2)) is None

    def test_real_wide_twist_op_is_judged_by_its_answer(self, tmp_path):
        try:
            out = ops.classify_op(srk, WIDE_RECORD, str(tmp_path))
        except srk.psl2r.PSL2Error:
            return                          # raised: counted as an error
        verdict = ops.classify_check(srk, WIDE_RECORD, out)
        if json.loads(out)["euler"] != 2:
            assert verdict and verdict[0] == "wrong"

    def test_summary_counts_every_failure_kind(self):
        core = {"wide": False}
        failed = [(core, ("refused", "stalled: x")),
                  (WIDE_RECORD, ("wrong", "euler 0 != nominal 2")),
                  (WIDE_RECORD, ("error", "PSL2Error: relation"))]
        result = run.summarise(4, failed)
        assert result == {"correct": True, "attempted": 4, "failed": 3}
        failed.append((core, ("wrong", "euler 1 != nominal 0")))
        assert run.summarise(5, failed)["correct"] is False

    def test_closed_loop_counts_a_raising_op(self, tmp_path, monkeypatch):
        def boom(srk_, rec, tmp):
            raise srk.psl2r.PSL2Error("surface relation violated")
        monkeypatch.setitem(ops.WORKLOADS, "classify",
                            (boom, ops.classify_check, 99))
        out = run.closed_loop(srk, "classify", [WIDE_RECORD], 3,
                              str(tmp_path))
        assert len(out["lat"]) == len(out["ok"]) == len(out["failures"]) == 3
        assert not any(out["ok"])
        assert all(v[0] == "error" for _, v in out["failures"])

    def test_same_seed_same_ops_and_failures(self, tmp_path):
        # a run is a fixed op count, so its failures do not depend on speed
        assert run.op_count("classify", 16) == run.op_count("classify", 16.0)
        records = corpus.classify_corpus(11, 56 * 2)
        assert sum(r["wide"] for r in records) > 0

        def failures():
            out = run.closed_loop(srk, "classify", records, 150,
                                  str(tmp_path))
            return len(out["ok"]), [(rec["text"], verdict[0])
                                    for rec, verdict in out["failures"]]

        assert failures() == failures()


@pytest.fixture
def installed():
    t = tr.Tracer()
    t.install(srk)
    yield t
    t.uninstall()


def _srk_modules():
    return [m for n, m in sys.modules.items()
            if m is not None and (n == "srk" or n.startswith("srk."))]


class TestTracer:
    def test_every_binding_is_a_wrapper(self, installed):
        import scipy.optimize
        originals = {id(f) for f in installed.originals}
        for mod in _srk_modules() + [scipy.optimize]:
            for key, value in vars(mod).items():
                assert id(value) not in originals, f"{mod.__name__}.{key}"
        for layer, names in tr.TIMED.items():
            for qual in names:
                owner = getattr(srk, layer)
                for part in qual.split("."):
                    owner = getattr(owner, part)
                assert hasattr(owner, "__wrapped__"), f"{layer}.{qual}"
        assert srk.search.build_glued is srk.genus2.build_glued
        assert srk.genus2.build_pants is srk.pants.build_pants
        assert hasattr(srk.search.mmul, "__wrapped__")

    def test_uninstall_restores_the_originals(self):
        before = {(m.__name__, k): v for m in _srk_modules()
                  for k, v in vars(m).items()}
        t = tr.Tracer()
        t.install(srk)
        t.uninstall()
        after = {(m.__name__, k): v for m in _srk_modules()
                 for k, v in vars(m).items()}
        assert all(after[key] is value for key, value in before.items())

    @pytest.mark.parametrize("workload, records", [
        ("classify", corpus.classify_corpus(5, 8)),
        ("search", corpus.search_corpus(5, 8)
         + [{"text": corpus.RECOORD_RECORD}]),
        ("orbit", corpus.orbit_corpus(5, 1)),
    ])
    def test_traced_outputs_are_bit_identical(self, workload, records,
                                              tmp_path):
        op = ops.WORKLOADS[workload][0]

        def outputs():
            res = []
            for rec in records:
                try:
                    out = op(srk, rec, str(tmp_path))
                except srk.psl2r.PSL2Error as exc:
                    out = repr(exc)
                if isinstance(out, dict):
                    out = {k: v for k, v in out.items()
                           if k not in ("cert", "back")}
                res.append(json.dumps(out, sort_keys=True))
            return res

        plain = outputs()
        t = tr.Tracer()
        t.install(srk)
        try:
            t.on = True
            traced = outputs()
            t.on = False
        finally:
            t.uninstall()
        assert traced == plain
        assert sum(len(b.start) for b in t.buffers) > 0

    def test_self_time_is_duration_minus_union_of_children(self):
        #  0: [0, 100]        parent
        #  1: [10, 30]  <- 0  child, with grandchild 3 inside it
        #  2: [20, 50]  <- 0  overlaps child 1: the overlap counts once
        #  3: [12, 18]  <- 1
        #  4: [90, 120] <- 0  clipped to the parent's end
        start = [0, 10, 20, 12, 90]
        end = [100, 30, 50, 18, 120]
        parent = [-1, 0, 0, 1, 0]
        assert tr.self_times(start, end, parent) == [50, 14, 30, 6, 30]

    def test_recorded_spans_nest_and_sum(self):
        ticks = iter(range(0, 10 ** 6, 10))
        t = tr.Tracer(clock=lambda: next(ticks))
        inner = t.timed("genus2.inner", lambda: None)
        outer = t.timed("search.outer", lambda: (inner(), inner()))
        t.on = True
        outer()
        buf = t.buffers[0]
        assert list(buf.parent) == [-1, 0, 0]
        selfs = tr.self_times(buf.start, buf.end, buf.parent)
        assert selfs[0] + selfs[1] + selfs[2] == buf.end[0] - buf.start[0]
        metrics = tr.layer_metrics(t, 1, {})
        assert metrics["genus2.self_ms_per_op"] == 20 / 1e6
        assert metrics["search.self_ms_per_op"] == selfs[0] / 1e6


class TestSpeed:
    def test_ops_are_scaled_by_their_bracketing_probes(self):
        r = speed.REFERENCE_S
        # ops 0 and 1 ran between probes 0 and 1, op 2 between 1 and 2
        got = speed.scaled([1.0, 2.0, 3.0], [0, 2, 3], [r, r, 2 * r])
        assert got == pytest.approx([1.0, 2.0, 2.0])

    def test_probe_runs_without_srk(self):
        code = ("import sys, speed; speed.probe(); "
                "assert not any(m.startswith('srk') for m in sys.modules)")
        subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True,
                       timeout=60)


class TestCorpusAndConfig:
    def test_same_seed_same_inputs(self):
        assert corpus.classify_corpus(3, 40) == corpus.classify_corpus(3, 40)
        assert corpus.corner_corpus(3, 8) != corpus.corner_corpus(4, 8)

    def test_corpus_never_imports_srk(self):
        code = ("import sys, corpus; corpus.classify_corpus(1, 16); "
                "corpus.search_corpus(1, 16); corpus.corner_corpus(1, 8); "
                "assert not any(m.startswith('srk') for m in sys.modules)")
        subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True,
                       timeout=60)

    def test_classify_wide_slice_is_one_in_eight(self):
        recs = corpus.classify_corpus(7, 56 * 8)
        assert sum(r["wide"] for r in recs) == 56
        assert len(corpus.valid_pairs()) == 56

    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
            run.END_TO_END
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
            tr.PER_LAYER

    def test_exits_nonzero_without_sources(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "classify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
