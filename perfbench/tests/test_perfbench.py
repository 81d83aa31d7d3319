"""Self-tests of the benchmark, on tiny inputs (A3, D4).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
sys.path.insert(0, BENCH)

import run  # noqa: E402
from layertrace import PER_LAYER  # noqa: E402
from refloop import PROBE_NOMINAL_S, Reference, nominal_seconds  # noqa: E402
from workloads import WORKLOADS, dynkin_edges, seeded_graph  # noqa: E402


def _bench(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170, check=False)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_metrics_the_script_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_one_command_prints_every_end_to_end_metric_by_name_and_unit():
    proc = _bench("--workload", "all", "--smoke", "--seconds", "0")
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w}.{name}": unit for w in WORKLOADS for name, unit in run.END_TO_END}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in run.END_TO_END + [("fail_ratio", "ratio")]:
        assert proc.stdout.count(f"  {name} = ") == len(WORKLOADS)
        assert all(line.endswith(unit) or "checks failed" in line
                   for line in proc.stdout.splitlines() if line.startswith(f"  {name} = "))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload):
    result = _result(_bench("--workload", workload, "--smoke", "--seconds", "0",
                            "--trace", "1"))
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(PER_LAYER)
    assert result["metrics"]["linalg.rref.calls"]["value"] > 0


def _golden(workload):
    with open(os.path.join(ROOT, run.GOLDEN), encoding="utf-8") as fh:
        return json.load(fh)[workload]


def test_corrupted_golden_digest_counts_as_a_failure(monkeypatch):
    monkeypatch.chdir(ROOT)  # the graph file's path is part of the digest
    wl = WORKLOADS["calculus"]
    golden = _golden("calculus")
    golden["A3/Q"] = "0" * 64
    it = run.Iteration(wl, wl.inputs(wl.golden_seed, True, os.path.join(run.WORK, "inputs")),
                       {"golden": golden, "record": {}})
    assert [k for k, ok, _d in it.checks if not ok] == ["A3/Q.digest"]


def test_exception_fails_every_check_of_its_input():
    class Broken:
        def check_names(self, inp, ctx):
            return ["a", "b", "c"]

        def setup(self, kk, inp):
            return None

        def run(self, kk, inp, prepared):
            raise ValueError("injected")

    class Inp:
        label = "X"

    it = run.Iteration(Broken(), [Inp()], {"golden": None, "record": {}})
    assert [ok for _k, ok, _d in it.checks] == [False, False, False]
    assert len(it.failures) == 3


def test_verify_input_that_raises_fails_as_many_checks_as_its_recorded_log():
    class Broken(type(WORKLOADS["verify"])):
        def run(self, kk, inp, comp):
            raise ValueError("injected")

    golden = _golden("verify")
    inputs = Broken().inputs(0, True, "")
    it = run.Iteration(Broken(), inputs, {"golden": golden, "record": {}})
    assert len(it.failures) == len(it.checks) == sum(golden[i.label] for i in inputs)


def test_seeded_graphs_are_relabellings():
    for name in ("E7", "D~4", "A5"):
        n, edges = dynkin_edges(name)
        degrees = sorted(sum(v in e for e in edges) for v in range(n))
        for key in ("0", "1", "0.1"):
            g = seeded_graph(name, key)
            assert g == seeded_graph(name, key)
            assert len(g["vertices"]) == n and len(g["edges"]) == len(edges)
            got = sorted(sum(v in e for e in g["edges"]) for v in g["vertices"])
            assert got == degrees
    assert seeded_graph("E7", "0") != seeded_graph("E7", "1")


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _bench("--workload", "calculus", "--seconds", "1",
                  cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_flags_results_from_different_kernels(tmp_path, capsys):
    import compare

    def write(directory, kind, wall):
        directory.mkdir()
        for seed in range(2):
            doc = {"provenance": {"workload": "verify", "trace": 0, "kernel_kind": kind,
                                  "python": "3.11.7", "cpu_count": 2},
                   "result": {"failed": 0, "metrics": {
                       "wall_s": {"value": wall + seed, "unit": "s"}}}}
            (directory / f"verify-seed{seed}-trace0.json").write_text(json.dumps(doc))

    write(tmp_path / "a", "pure", 3.0)
    write(tmp_path / "b", "compiled", 1.0)
    write(tmp_path / "c", "pure", 1.0)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "NOT COMPARABLE: kernel_kind ['pure'] vs ['compiled']" in capsys.readouterr().out
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 0
    out = capsys.readouterr().out
    assert "NOT COMPARABLE" not in out and "change -57.1%" in out


def test_probes_sample_the_pass_and_leave_no_timer_behind():
    ref, probes = Reference(), []
    handler = signal.getsignal(signal.SIGALRM)
    with ref.sampling(probes):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.6:
            pass
    assert len(probes) >= 2 and all(p > 0 for p in probes)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # at the nominal speed the time is unchanged; at half speed throughout it halves
    assert nominal_seconds(2.0, [PROBE_NOMINAL_S] * 3) == pytest.approx(2.0)
    assert nominal_seconds(2.0, [2 * PROBE_NOMINAL_S] * 3) == pytest.approx(1.0)
