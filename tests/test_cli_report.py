import hashlib
import json
import subprocess
import sys

import pytest

from koszulkit import adedata
from koszulkit.cli import main
from koszulkit.report import RunConfig, render, run


def _strip_timings(doc):
    doc = dict(doc)
    doc.pop("timings", None)
    return doc


def test_report_deterministic_modulo_timings():
    cfg = RunConfig(preset="A3", field_tag="Q",
                    analyses=("calculus", "higher", "duality"))
    first = render(_strip_timings(run(cfg)))
    second = render(_strip_timings(run(cfg)))
    assert first == second


#: sha256 of the rendered report without ``timings``, recorded before rational
#: scalars became ints and ``class_of`` went block by block; a change of
#: ``tool_version`` changes every digest
RECORDED_DIGESTS = {
    ("A3", "Q"): "7d2587b69b208f162f85b3d797db25d5544027d3abea42fbcbfaaa33d6dd97f1",
    ("A3", "F:3"): "480004fd43092d1d698edb00f40b978ee8c4707bc52bc6779ad9a275e47f3724",
    ("D4", "Q"): "7489b1ea33580d3b4f3ea919bbe5e74f275679e3775c2c851b39cd3cd446a7f9",
    ("D4", "F:3"): "3ba6d9b5bbe7b9eefc66e3d10947638ede712cb3cdad0ea46035c2c0620fb49d",
    ("E6", "Q"): "5c8118b3dcb97c649d4d4f0e742e3df85575f37f6cdb1eb31adb1690d017ed16",
    ("E6", "F:3"): "7c14257e008c5769c6a0d2d78705735fb95282a8d78798761d90b3518453fc7a",
}


@pytest.mark.parametrize("name,tag", sorted(RECORDED_DIGESTS),
                         ids=[f"{n}-{t}" for n, t in sorted(RECORDED_DIGESTS)])
def test_reports_byte_identical_to_recorded_digests(name, tag):
    """The byte-identity contract: reports stay the same once timings are dropped."""
    cfg = RunConfig(preset=name, field_tag=tag, analyses=("calculus", "higher", "duality"))
    text = render(_strip_timings(run(cfg)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RECORDED_DIGESTS[(name, tag)]


def test_a3_report_contents(tmp_path):
    out = tmp_path / "a3.json"
    code = main(["calculus", "--preset", "A3", "--field", "Q",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "ok"
    assert doc["calculus"]["cohomology"]["dims"][:3] == [2, 1, 3]
    assert doc["calculus"]["homology"]["dims"][:3] == [3, 1, 2]
    assert doc["duality"]["ok"] is True
    assert doc["fundamental_cocycle"]["class"] == ["2"]
    assert doc["schema"] == "koszulkit-report/1"
    # rational scalars are serialized as integer or n/d strings
    flat = json.dumps(doc)
    assert "Fraction" not in flat


def test_e6_f3_has_the_extra_degree1_class(tmp_path):
    out = tmp_path / "e6.json"
    code = main(["calculus", "--preset", "E6", "--field", "F:3",
                 "--analyses", "calculus", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["calculus"]["cohomology"]["dims"][:3] == [5, 4, 7]
    # the weight-5 slot carries the extra class
    assert doc["calculus"]["cohomology"]["bigraded"]["1"]["5"] == 1


def test_koszulity_on_graph_file(tmp_path):
    graph = {"vertices": ["0", "1", "2"],
             "edges": [["0", "1"], ["1", "2"], ["0", "2"]]}
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(graph))
    out = tmp_path / "report.json"
    code = main(["koszulity", "--file", str(path), "--weight-cutoff", "8",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["koszulity"]["koszul_up_to_cutoff"] is True
    assert doc["status"] == "warning"  # cutoff reached without vanishing


def test_presentation_file_input(tmp_path):
    data = {
        "vertices": ["0"],
        "arrows": [{"name": "x", "src": "0", "tgt": "0"},
                   {"name": "y", "src": "0", "tgt": "0"}],
        "relations": [[{"coeff": "1", "path": ["x", "y"]},
                       {"coeff": "-1", "path": ["y", "x"]}]],
    }
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    code = main(["koszulity", "--file", str(path), "--weight-cutoff", "6",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    # the commuting-variables algebra is Koszul in the computed range
    assert doc["koszulity"]["koszul_up_to_cutoff"] is True


def test_dualize_and_hochschild_subcommands(tmp_path):
    out = tmp_path / "d.json"
    assert main(["dualize", "--preset", "A4", "--field", "F:2",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["duality"]["ok"] is True
    out2 = tmp_path / "h.json"
    assert main(["hochschild2", "--preset", "A3", "--field", "Q",
                 "--out", str(out2)]) == 0
    doc2 = json.loads(out2.read_text())
    assert doc2["hochschild2"]["hh2_dim"] == 1
    assert doc2["hochschild2"]["bar_oracle"] == {"hh0_dim": 2, "hh1_dim": 1}


@pytest.mark.parametrize("name,tag", [("A3", "Q"), ("E6", "F:3")])
def test_dualize_with_trivial_coefficients(tmp_path, name, tag):
    """The fundamental class is an A-coefficient class; with k the report
    runs the duality checklist and leaves that class out."""
    out = tmp_path / "dk.json"
    assert main(["dualize", "--preset", name, "--field", tag,
                 "--coefficients", "k", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "ok"
    assert doc["duality"]["ok"] is True
    assert "fundamental_class" not in doc["duality"]


def test_verify_ade_subcommand(tmp_path):
    out = tmp_path / "v.json"
    code = main(["verify-ade", "--types", "A3,A4", "--chars", "0,2",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True and doc["checks"] > 100


def test_verify_ade_checks_computed_triples(monkeypatch):
    import koszulkit.verify as ver
    # A3 and A5 are a documented char-0 near-collision with distinct tabulated triples
    assert ("A3", "A5") in adedata.documented_triple_collisions(0)
    assert adedata.expected_higher_dims("A3", 0) != adedata.expected_higher_dims("A5", 0)
    monkeypatch.setattr(ver, "_run_verify_job", lambda job: ([], (7, 7, 7)))
    log = ver.verify_ade(["A3", "A5"], [0], threads=1)
    got = {key: (ok, detail) for key, ok, detail in log.entries}
    assert got["triples.char0.distinct"] == (False, "A3 and A5 share (7, 7, 7)")
    assert got["triples.char0.collision.A3-A5"] == (False, "A3:(7, 7, 7) A5:(7, 7, 7)")


@pytest.mark.parametrize("requested, n_jobs, cpus, want", [
    (1, 10, 8, 1), (4, 10, 8, 4), (64, 10, 8, 8), (64, 3, 8, 3), ("4", 10, 2, 2),
    (0, 10, 8, 1), (-3, 10, 8, 1), ("", 10, 8, 1), ("many", 10, 8, 1), (None, 10, 8, 1),
    (4, 0, 8, 1), (4, 10, None, 1),
])
def test_pool_size_clamp(requested, n_jobs, cpus, want):
    from koszulkit.verify import pool_size
    assert pool_size(requested, n_jobs, cpus) == want


def test_rational_e8_guard():
    assert main(["calculus", "--preset", "E8", "--field", "Q",
                 "--analyses", "koszulity"]) == 3


def test_rational_e8_calculus_runs_without_the_flag(tmp_path):
    out = tmp_path / "e8.json"
    assert main(["calculus", "--preset", "E8", "--field", "Q",
                 "--analyses", "calculus", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["force_rational"] is False
    assert doc["calculus"]["cohomology"]["dims"][:3] == \
        list(adedata.expected_hk_dims("E8", 0))


def test_bad_preset_exit_code():
    assert main(["calculus", "--preset", "Z9"]) == 3


def test_ae_coefficients_route(tmp_path):
    out = tmp_path / "ae.json"
    code = main(["calculus", "--preset", "A3", "--coefficients", "Ae",
                 "--analyses", "koszulity", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    env = doc["enveloping_coefficients"]
    assert env["hk_dims"]["2"] == 10 and env["hk_dims"]["1"] == 0
    assert env["hk2_equals_dim_A"] is True and env["kc_calabi_yau_2"] is True


def test_cli_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "koszulkit.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
