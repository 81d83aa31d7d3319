"""The benchmark's byte check: the ``calculus`` reports of
``perfbench/workloads.py`` at its golden seed against the digests recorded
in ``perfbench/golden.json``."""

import importlib.util
import json
import os
import types

from koszulkit import adedata, report

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _workloads():
    """perfbench/workloads.py, loaded by its path and registered nowhere."""
    spec = importlib.util.spec_from_file_location("workloads",
                                                  os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calculus_reports_match_the_golden_digests(tmp_path, monkeypatch):
    """Every report holds its graph file's path relative to the working
    directory, so the graph files are written where the benchmark writes
    them, under .perfbench/inputs, in a temporary working directory."""
    wl = _workloads().WORKLOADS["calculus"]
    with open(os.path.join(PERFBENCH, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)["calculus"]
    monkeypatch.chdir(tmp_path)
    kk = types.SimpleNamespace(adedata=adedata, report=report)
    ctx = {"golden": golden, "record": {}}
    failed = []
    for inp in wl.inputs(wl.golden_seed, False, os.path.join(".perfbench", "inputs")):
        checks = wl.check(kk, inp, wl.run(kk, inp, wl.setup(kk, inp)), ctx)
        failed.extend(name for name, ok, _detail in checks if not ok)
    assert len(golden) == 45
    assert ctx["record"] == golden
    assert failed == []
