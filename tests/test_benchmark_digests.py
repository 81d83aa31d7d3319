"""The benchmark's byte check: the ``calculus`` reports of
``perfbench/workloads.py`` at its golden seed against the digests recorded
in ``perfbench/golden.json``."""

import importlib.util
import json
import os
import types

from koszulkit import adedata, report
from koszulkit.quiver import Graph, dynkin_constants

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


def test_the_workloads_coxeter_numbers_are_the_derived_ones():
    """``workloads.coxeter`` keeps its own hand table of h, which sets the
    cutoffs of its inputs and the dimension check of ``bimodule``: it
    equals the h derived from the adjacency matrix of each listed graph."""
    wl = _workloads()
    assert wl.DYNKIN == adedata.listed_types()
    for name in wl.DYNKIN:
        n, edges = wl.dynkin_edges(name)
        graph = Graph([str(i) for i in range(n)], [(str(u), str(v)) for u, v in edges])
        assert wl.coxeter(name) == dynkin_constants(graph).h, name
