import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import koszulkit
from koszulkit import adedata, report as report_module
from koszulkit.cli import main
from koszulkit.presets import preset_graph
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


class _Str(str):
    pass


class _Int(int):
    pass


_STRINGS = ["", "x", "n/d", "é ü ß", "\u2603 \U0001f600", 'q"uote', "back\\slash",
            "\n\r\t\x00\x1f\x7f", "\u2028\u2029", "\ud800"]
_FLOATS = [0.0, -0.0, 1.5, -2.25e-7, 1e300, 5e-324, float("nan"), float("inf"),
           float("-inf")]


def _random_scalar(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice([rng.randint(-9, 9), rng.randint(-10**40, 10**40)])
    if kind == 1:
        return rng.choice(_STRINGS)
    if kind == 2:
        return rng.choice(_FLOATS)
    if kind == 3:
        return rng.choice([True, False, None])
    return rng.choice([_Str("sub"), _Int(7)])


def _random_doc(rng, depth):
    """A JSON-serializable document mixing what render must write exactly:
    scalar containers of one type and of several, nested and empty
    containers, tuples, subclasses and non-str keys."""
    if depth == 0:
        return _random_scalar(rng)
    width = rng.randrange(4)
    kind = rng.randrange(7)
    if kind == 0:
        return [rng.randint(-10**20, 10**20) for _ in range(width)]
    if kind == 1:
        return {rng.choice(_STRINGS) + str(k): rng.choice(_STRINGS) for k in range(width)}
    if kind == 2:
        return [rng.choice(_FLOATS + [True, False, None]) for _ in range(width)]
    if kind == 3:
        return tuple(_random_doc(rng, depth - 1) for _ in range(width))
    if kind == 4:
        keys = rng.choice([range(width), [0.5 * k for k in range(width)]])
        return {k: _random_doc(rng, depth - 1) for k in keys}
    if kind == 5:
        return [_random_doc(rng, depth - 1) for _ in range(width)]
    return {rng.choice(_STRINGS) + str(k): _random_doc(rng, depth - 1) for k in range(width)}


def test_render_is_json_dumps_byte_for_byte():
    """Pretty output is json.dumps(sort_keys=True, indent=2, ensure_ascii=False)
    exactly, and compact output is the indent-free json.dumps."""
    rng = random.Random(20)
    for _ in range(3000):
        doc = _random_doc(rng, rng.randrange(5))
        assert render(doc) == json.dumps(doc, sort_keys=True, indent=2,
                                         ensure_ascii=False) + "\n", doc
        assert render(doc, pretty=False) == json.dumps(doc, sort_keys=True,
                                                       ensure_ascii=False) + "\n"


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


#: the same for the verification analyses, recorded before the Frobenius data
#: moved to the monomial basis; the two properties digests were re-recorded
#: when the sampled suite (1,302 checks) gave way to one entry per identity
#: on fixed bases (15 checks) and the report gained properties.vacuous
RECORDED_ANALYSIS_DIGESTS = {
    ("A3", "Q", "hochschild2"): "fd38fa34da32b1fe858c5ea5514c493b33e4fdae08767a2bc2c7e67c819ff037",
    ("A3", "Q", "properties"): "b9be4c6d495089b43cf034ba1f63f90547d7a6f779fdd41602925ef435b2696a",
    ("E6", "F:3", "hochschild2"): "4576a2bebce101810353654bba336bfeb44c01754b0a6e11324c9f2faf6b5227",
    ("E6", "F:3", "properties"): "1ea8d7066994fa8c3a6e92f317bb559763134989903e88a8a8e3ba5a2243f3db",
}


@pytest.mark.parametrize("name,tag,analysis", sorted(RECORDED_ANALYSIS_DIGESTS),
                         ids=["-".join(k) for k in sorted(RECORDED_ANALYSIS_DIGESTS)])
def test_verification_reports_match_recorded_digests(name, tag, analysis):
    cfg = RunConfig(preset=name, field_tag=tag, analyses=("calculus", analysis))
    text = render(_strip_timings(run(cfg)))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == RECORDED_ANALYSIS_DIGESTS[(name, tag, analysis)]


#: the same for ``dualize --coefficients k``, recorded when the skipped
#: ``higher`` analysis gained its warning (the reports before differ only in
#: ``status`` and ``warnings``)
RECORDED_K_DIGESTS = {
    ("A3", "Q"): "663bf115dc7bb59b3b56a1dcf3ecd4a3006e379e8899108def79a1502760c48d",
    ("E6", "F:3"): "e57d3860501beaf92bc420aaaa5e74ead1ae4c0442e2c62c86d6ff936acd9cda",
}


@pytest.mark.parametrize("name,tag", sorted(RECORDED_K_DIGESTS),
                         ids=[f"{n}-{t}" for n, t in sorted(RECORDED_K_DIGESTS)])
def test_trivial_coefficient_reports_match_recorded_digests(name, tag):
    cfg = RunConfig(preset=name, field_tag=tag, coefficients="k",
                    analyses=("calculus", "higher", "duality"))
    text = render(_strip_timings(run(cfg)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RECORDED_K_DIGESTS[(name, tag)]


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
    runs the duality checklist and leaves that class out, and it warns that
    the higher calculus, which needs algebra coefficients, was skipped."""
    out = tmp_path / "dk.json"
    assert main(["dualize", "--preset", name, "--field", tag,
                 "--coefficients", "k", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "warning"
    assert doc["warnings"] == ["higher analysis needs algebra coefficients; skipped"]
    assert doc["duality"]["ok"] is True
    assert "fundamental_class" not in doc["duality"] and "higher" not in doc


def test_trivial_coefficients_warn_for_each_skipped_analysis():
    doc = run(RunConfig(preset="A3", field_tag="Q", coefficients="k",
                        analyses=("calculus", "higher", "hochschild2", "properties")))
    assert doc["status"] == "warning"
    assert doc["warnings"] == [f"{a} analysis needs algebra coefficients; skipped"
                               for a in ("higher", "hochschild2", "properties")]
    assert not {"higher", "hochschild2", "properties"} & set(doc)


def test_verify_ade_subcommand(tmp_path):
    out = tmp_path / "v.json"
    code = main(["verify-ade", "--types", "A3,A4", "--chars", "0,2",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True and doc["checks"] > 100


@pytest.mark.parametrize("argv", [
    ["calculus", "--preset", "A3", "--compact"],
    ["verify-ade", "--types", "A3", "--chars", "0"],
], ids=["calculus", "verify-ade"])
def test_stdout_is_the_json_report_without_out(capsys, argv):
    """Without --out, standard output carries the report alone, written
    once; the summary line goes to standard error."""
    assert main(argv) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert captured.out == render(doc, pretty="--compact" not in argv)
    summary = "status: ok" if argv[0] == "calculus" else "verify-ade: "
    assert captured.err.startswith(summary)


def test_verify_ade_checks_computed_triples(monkeypatch):
    import koszulkit.verify as ver
    # A3 and A5 are a documented char-0 near-collision with distinct tabulated triples
    assert ("A3", "A5") in adedata.documented_triple_collisions(0)
    assert adedata.expected_higher_dims("A3", 0) != adedata.expected_higher_dims("A5", 0)
    monkeypatch.setattr(ver, "_run_verify_job", lambda job: ([], (7, 7, 7)))
    log = ver.verify_ade(["A3", "A5"], [0])
    got = {key: (ok, detail) for key, ok, detail in log.entries}
    assert got["triples.char0.distinct"] == (False, "A3 and A5 share (7, 7, 7)")
    assert got["triples.char0.collision.A3-A5"] == (False, "A3:(7, 7, 7) A5:(7, 7, 7)")


_ARROWS = [{"name": "a", "src": "0", "tgt": "1"}, {"name": "b", "src": "1", "tgt": "0"}]


def _relation(coeff, path=("b", "a")):
    return {"vertices": ["0", "1"], "arrows": _ARROWS,
            "relations": [[{"coeff": coeff, "path": path}]]}


@pytest.mark.parametrize("data, field", [
    ({"vertices": ["0", "1"], "edges": ["01"]}, "Q"),
    ({"vertices": ["0", "1"], "edges": [{"u": "0", "v": "1"}]}, "Q"),
    ({"vertices": ["0", "1"], "relations": []}, "Q"),
    (_relation("1", ("b", "c")), "Q"),
    (_relation("1", "ba"), "Q"),
    (_relation("1/0"), "Q"),
    (_relation("1/3"), "F:3"),
    (None, "Q"),
    ("3", "Q"),
    ("null", "Q"),
    ('"edges"', "Q"),
    ("[1, 2]", "Q"),
], ids=["string-edge", "dict-edge", "no-arrows", "unknown-arrow", "string-path",
        "zero-denominator", "denominator-divisible-by-p", "missing-file",
        "number", "null", "string", "array"])
def test_bad_input_file_exits_3(tmp_path, capsys, data, field):
    path = tmp_path / "input.json"
    # a string is the file's raw text: a top-level value that is not an object
    if data is not None:
        path.write_text(data if isinstance(data, str) else json.dumps(data))
    assert main(["calculus", "--file", str(path), "--field", field]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert not isinstance(data, str) or "must be a JSON object" in lines[0]


@pytest.mark.parametrize("types, message", [
    ("e6", None),
    ("A~2", "no tables for A~2"),
    ("D~4", "no tables for D~4"),
    ("A2", "no tables for A2"),
    ("A1,A3", "no tables for A1"),
])
def test_verify_ade_normalizes_and_refuses_untabulated_types(monkeypatch, capsys,
                                                             types, message):
    import koszulkit.verify as ver
    jobs = []
    monkeypatch.setattr(ver, "_run_verify_job",
                        lambda job: jobs.append(job) or ([], (len(jobs), 0, 0)))
    code = main(["verify-ade", "--types", types, "--chars", "0", "--compact"])
    captured = capsys.readouterr()
    if message is None:
        assert code == 0 and jobs == [("E6", 0)]
        assert json.loads(captured.out)["types"] == ["E6"]
    else:
        assert code == 3 and jobs == [] and captured.out == ""
        assert captured.err == f"error: {message} (tabulated: A3.., D4.., E6, E7, E8)\n"


@pytest.mark.parametrize("types, chars, message", [
    ("", "0", "no types given"),
    (",", "0", "no types given"),
    ("A3", "", "no characteristics given"),
    ("A3,A3", "0", "repeated types: A3"),
    ("E6,a3,e6", "0", "repeated types: E6"),
    ("A3", "0,2,0", "repeated characteristics: 0"),
    ("A3", "x", "--chars takes a comma list of integers, not 'x'"),
    ("A3", "0,4", "4 is not prime"),
    ("A3", "-1", "-1 is not prime"),
], ids=["no-types", "only-commas", "no-chars", "repeated-type", "repeated-after-normalizing",
        "repeated-char", "non-integer-char", "composite-char", "negative-char"])
def test_verify_ade_refuses_empty_or_repeated_lists(monkeypatch, capsys, types, chars,
                                                    message):
    """An empty list would pass 0/0 checks and a repeated one would run
    every job more than once; a characteristic that is not an integer, or
    neither 0 nor a prime, has no field.  All exit 3 before any job runs."""
    import koszulkit.verify as ver
    jobs = []
    monkeypatch.setattr(ver, "_run_verify_job",
                        lambda job: jobs.append(job) or ([], (len(jobs), 0, 0)))
    code = main(["verify-ade", "--types", types, "--chars", chars, "--compact"])
    captured = capsys.readouterr()
    assert code == 3 and jobs == [] and captured.out == ""
    assert captured.err == f"error: {message}\n"


#: sha256 of the pretty ``verify-ade --chars 0,2,3,5`` document over the
#: default types: 13,099 checks, the one failure the D8/E8 char-0 collision
VERIFY_ADE_DIGEST = "cd2ae0233edfe673cf2cf592b6e05cbd533d7d0036f99847c8ea2b3d3a439bb7"


def test_verify_ade_document_matches_its_recorded_digest(tmp_path, monkeypatch):
    """verify-ade runs in one process: a thread count in the environment,
    which earlier versions read, leaves the document unchanged."""
    monkeypatch.setenv("KOSZULKIT_THREADS", "2")
    out = tmp_path / "verify.json"
    assert main(["verify-ade", "--chars", "0,2,3,5", "--out", str(out)]) == 2
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_ADE_DIGEST


def test_a_failed_duality_check_makes_an_error_report(tmp_path, capsys, monkeypatch):
    """One duality check forced false: the report's status is error with the
    failure listed, the failure is printed on standard error, and the exit
    code is 2."""
    real = report_module.verify_duality

    def failing(*args):
        rep = real(*args)
        rep.record("theta chain map", False, "forced")
        return rep
    monkeypatch.setattr(report_module, "verify_duality", failing)
    out = tmp_path / "a3.json"
    assert main(["calculus", "--preset", "A3", "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert doc["status"] == "error" and doc["failures"] == ["theta chain map: forced"]
    assert doc["duality"]["checks"]["theta chain map"] is False
    assert "failure: theta chain map: forced\n" in capsys.readouterr().err


def test_trivial_coefficients_between_two_nonzero_spaces(tmp_path):
    """The one-vertex graph with a loop is A = k[x, y], with W dims
    [1, 2, 1, 0, 0]: the only kind of input where two consecutive k spaces
    are nonzero, so b_K between them is formed.  Arrows act by zero on k,
    so HK^ and HK_ have the dims of W."""
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"vertices": ["0"], "edges": [["0", "0"]]}))
    out = tmp_path / "report.json"
    assert main(["calculus", "--file", str(path), "--coefficients", "k",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["w_dims"] == [1, 2, 1, 0, 0]
    assert doc["calculus"]["cohomology"]["dims"] == [1, 2, 1, 0]
    assert doc["calculus"]["homology"]["dims"] == [1, 2, 1, 0]
    assert doc["status"] == "warning"
    assert doc["warnings"][0].startswith("weight cutoff 6 reached without a zero component")


def test_rational_e8_ae_route(tmp_path):
    """The rational E8 bimodule complex runs like any other input."""
    out = tmp_path / "e8.json"
    assert main(["calculus", "--preset", "E8", "--field", "Q", "--coefficients", "Ae",
                 "--analyses", "koszulity", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "ok"
    assert doc["koszulity"]["h_dims"] == {"0": 1240, "1": 0, "2": 1240, "3": 0}
    assert doc["enveloping_coefficients"]["hk_dims"] == {"0": 1240, "1": 0, "2": 1240}


def test_force_rational_is_not_an_option(capsys):
    """An unknown flag is bad input: exit 3, like every usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["koszulity", "--preset", "E8", "--force-rational"])
    assert exc.value.code == 3
    assert "unrecognized arguments: --force-rational" in capsys.readouterr().err


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


def test_max_degree_two_reads_only_computed_w_spaces(tmp_path, monkeypatch):
    """At --max-degree 2 the W spaces of A2 are computed in degrees 0-3, each
    of dimension 2: the identity checks apply bK o bK to the units of
    degrees 0 and 1, so the run reads no W space past degree 3 and exits 0."""
    from koszulkit.koszul import KoszulCalculus
    degrees = set()
    real = KoszulCalculus.w

    def recorded(self, p):
        degrees.add(p)
        return real(self, p)
    monkeypatch.setattr(KoszulCalculus, "w", recorded)
    out = tmp_path / "a2.json"
    assert main(["calculus", "--preset", "A2", "--max-degree", "2", "--analyses",
                 "calculus,properties", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "ok" and doc["properties"]["ok"]
    assert max(degrees) == 3


@pytest.mark.parametrize("degree", ["0", "1"])
def test_max_degree_below_two_is_refused(capsys, degree):
    """The structure constants and the duality read degree 2."""
    assert main(["calculus", "--preset", "A3", "--max-degree", degree]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: max_degree must be at least 2, got {degree}\n"


def test_prime_beyond_the_certified_bound_is_refused(capsys):
    p = 2**89 - 1
    assert main(["calculus", "--preset", "A3", "--field", f"F:{p}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {p} is beyond the certified primality bound "
                            "3317044064679887385961981\n")


@pytest.mark.parametrize("tag", ["F:x", "F:", "F:²", "F²", "x", "QQ", "0", "F3", "3",
                                 "F:03", "F:٣", " Q", "F:3 "])
def test_unrecognized_field_tag_is_refused(capsys, tag):
    """A modulus that is not a decimal digit string names the tag, not int(),
    and each field has one spelling, which the report echoes."""
    assert main(["calculus", "--preset", "A3", "--field", tag]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unrecognized field tag {tag!r} (use Q or F:<p>)\n"


@pytest.mark.parametrize("tag", ["Q", "F:3"])
def test_field_tags_parse(tmp_path, tag):
    out = tmp_path / "a2.json"
    assert main(["calculus", "--preset", "A2", "--field", tag, "--analyses", "calculus",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["field"] == tag


def test_duality_on_a_presentation_file_is_skipped(tmp_path):
    """A presentation file does not say that it is preprojective, so the
    duality checklist is not run on it, even where it is."""
    path = tmp_path / "pa2.json"
    path.write_text(json.dumps({"vertices": ["0", "1"], "arrows": _ARROWS,
                                "relations": [[{"coeff": "1", "path": ["a", "b"]}],
                                              [{"coeff": "1", "path": ["b", "a"]}]]}))
    out = tmp_path / "report.json"
    assert main(["dualize", "--file", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "warning" and "duality" not in doc
    assert doc["warnings"] == ["duality analysis needs a preprojective presentation; skipped"]


def test_a_failing_property_is_an_error(tmp_path, monkeypatch, capsys):
    """A product fault, one coefficient of the (1, 1) split table negated
    after the structure constants are reported, fails two identities: one
    by unequal sides, one by a cap product that has no class.  Both are
    failures of the report, which exits 2, not errors of its input."""
    real = report_module.identity_checks

    def faulty(coh, hom, preprojective):
        kd = coh.kd
        row = next(r for r in kd.split_coords(1, 1) if r)
        key = next(iter(row))
        row[key] = kd.field.neg(row[key])
        kd._rows_memo.clear()
        return real(coh, hom, preprojective)
    monkeypatch.setattr(report_module, "identity_checks", faulty)
    out = tmp_path / "a3.json"
    assert main(["calculus", "--preset", "A3", "--analyses", "calculus,properties",
                 "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert doc["status"] == "error" and doc["properties"]["ok"] is False
    failures = ["b^K = -[eA, -]_cap: 7 of 8 comparisons with a nonzero side, 1 unequal",
                "class cap graded symmetric: a product has no class: not a cycle: "
                "differential is nonzero"]
    assert doc["failures"] == doc["properties"]["failures"] == failures
    assert doc["properties"]["checks"] == 15 and doc["properties"]["vacuous"] == []
    err = capsys.readouterr().err
    assert all(f"failure: {f}\n" in err for f in failures)


def test_ae_coefficients_route(tmp_path):
    out = tmp_path / "ae.json"
    code = main(["calculus", "--preset", "A3", "--coefficients", "Ae",
                 "--analyses", "koszulity", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    env = doc["enveloping_coefficients"]
    assert env["hk_dims"]["2"] == 10 and env["hk_dims"]["1"] == 0
    assert env["hk2_equals_dim_A"] is True and env["kc_calabi_yau_2"] is True


@pytest.mark.parametrize("argv,skipped", [
    (["hochschild2"], ["calculus", "hochschild2"]),
    (["dualize"], ["calculus", "duality", "higher"]),
    (["calculus", "--analyses", "koszulity,properties,calculus"], ["calculus", "properties"]),
], ids=["hochschild2", "dualize", "calculus"])
def test_ae_coefficients_skip_the_cochain_route(tmp_path, capsys, argv, skipped):
    """The cochain-route analyses are not computed with Ae coefficients: each
    is skipped with one warning that names it, and the Ae route still runs."""
    out = tmp_path / "ae.json"
    assert main(argv + ["--preset", "A3", "--coefficients", "Ae", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "warning"
    assert doc["warnings"] == [f"{a} analysis does not run with Ae coefficients; skipped"
                               for a in skipped]
    assert not set(skipped) & set(doc)
    assert doc["enveloping_coefficients"]["hk_dims"]["2"] == 10
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("analysis", ["hochschild2", "properties"])
def test_graph_without_arrows_skips_hochschild2_and_properties(tmp_path, analysis):
    """A1 has no arrows: no socle word to read and no biweight to draw."""
    out = tmp_path / "a1.json"
    assert main(["calculus", "--preset", "A1", "--analyses", f"calculus,{analysis}",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "warning"
    assert doc["warnings"] == [f"{analysis} analysis needs a graph with arrows; skipped"]
    assert analysis not in doc
    assert doc["calculus"]["cohomology"]["dims"][:3] == [1, 0, 0]


def test_cutoff_below_the_top_weight_is_refused(tmp_path, capsys):
    """E6 has top weight h - 2 = 10, so the cutoff must reach weight 11."""
    assert main(["koszulity", "--preset", "E6", "--weight-cutoff", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: E6 needs a weight cutoff of at least 11 to reach "
                            "its zero component, got 10\n")
    assert main(["koszulity", "--preset", "E6", "--weight-cutoff", "11",
                 "--out", str(tmp_path / "e6.json")]) == 0


def test_cli_entrypoint_runs():
    """The module entry point of this checkout's sources, not of another
    installed copy: its src directory goes first on the child's path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "koszulkit.cli", "--version"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == koszulkit.__version__


def _shuffled_graph_file(tmp_path, name, seed=0):
    """The preset graph of ``name`` with relabelled vertices, shuffled edges
    and flipped orientations, written to a file; returns the path and the
    relabelling {preset vertex: file vertex}."""
    rng = random.Random(f"{seed}/{name}")
    graph = preset_graph(name)
    labels = [f"v{k}" for k in range(len(graph.vertices))]
    rng.shuffle(labels)
    edges = [[labels[u], labels[v]] if rng.random() < 0.5 else [labels[v], labels[u]]
             for u, v in graph.edges]
    rng.shuffle(edges)
    path = tmp_path / f"{name}-{seed}.json"
    path.write_text(json.dumps({"vertices": sorted(labels), "edges": edges}))
    return str(path), dict(zip(graph.vertices, labels))


def test_e8_graph_file_reaches_its_zero_component(tmp_path):
    """A Dynkin graph file takes the cutoff h + 2, as its preset does."""
    path, _relabel = _shuffled_graph_file(tmp_path, "E8")
    out = tmp_path / "e8.json"
    assert main(["calculus", "--file", path, "--analyses", "calculus",
                 "--out", str(out)]) == 0
    algebra = json.loads(out.read_text())["algebra"]
    assert (algebra["finite"], algebra["total_dim"], algebra["top_weight"]) == (True, 1240, 28)


@pytest.mark.parametrize("name", adedata.listed_types())
def test_graph_file_builds_the_preset_algebra(tmp_path, name):
    path, _relabel = _shuffled_graph_file(tmp_path, name)
    from_file = run(RunConfig(input_file=path, analyses=()))["algebra"]
    from_preset = run(RunConfig(preset=name, analyses=()))["algebra"]
    for key in ("dims_per_weight", "total_dim", "top_weight"):
        assert from_file[key] == from_preset[key], key


def test_graph_file_cutoff_below_the_top_weight_is_refused(tmp_path, capsys):
    path, _relabel = _shuffled_graph_file(tmp_path, "E6")
    assert main(["koszulity", "--file", path, "--weight-cutoff", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path} needs a weight cutoff of at least 11 to "
                            "reach its zero component, got 10\n")


@pytest.mark.parametrize("name,tag", [("A3", "Q"), ("D5", "F:2"), ("E6", "F:3")])
def test_hochschild2_on_a_dynkin_graph_file(tmp_path, name, tag):
    """A graph file normalizes the form by its top monomials: the dims are the
    preset's, and so is nu under the relabelling."""
    path, relabel = _shuffled_graph_file(tmp_path, name)
    docs = []
    for source in (["--file", path], ["--preset", name]):
        out = tmp_path / "report.json"
        assert main(["hochschild2", *source, "--field", tag, "--out", str(out)]) == 0
        docs.append(json.loads(out.read_text()))
    from_file, from_preset = (doc["hochschild2"] for doc in docs)
    assert docs[0]["status"] == "ok"
    nu_file, nu_preset = from_file.pop("nakayama_permutation"), \
        from_preset.pop("nakayama_permutation")
    assert from_file == from_preset
    assert nu_file == {relabel[i]: relabel[j] for i, j in nu_preset.items()}


def test_hochschild2_skips_a_non_dynkin_graph_file(tmp_path, monkeypatch):
    """The A~2 triangle is not Dynkin.  Its truncated algebra has products
    past the cutoff, which the structure constants of the calculus step
    refuse before the gate is reached, so they are left out here."""
    monkeypatch.setattr(report_module, "_structure_constants", lambda *args: {})
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"vertices": ["0", "1", "2"],
                                "edges": [["0", "1"], ["1", "2"], ["0", "2"]]}))
    out = tmp_path / "report.json"
    assert main(["hochschild2", "--file", str(path), "--weight-cutoff", "8",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "hochschild2" not in doc
    assert "degree-2 comparison is defined for the Dynkin graphs; skipped" in doc["warnings"]
