"""Machine-readable reports: run configuration in, JSON document out.

Reports are deterministic for a fixed configuration and tool version: all
orderings are fixed, keys are sorted on serialization, rationals appear as
"n/d" strings and prime-field scalars as integers.  Timings are collected
under a single top-level key so consumers can strip them before comparing
documents byte for byte.  Pretty output is exactly
``json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False)``, written
by this module's own writer: the standard library encodes indented JSON in
pure Python, and the writer joins each container of scalars with its C-level
scalar encoders instead.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import Dict, List, Optional, Sequence, Union

from . import __version__
from .algebra import build_graded_algebra, default_cutoff
from .duality import ae_coefficient_route, omega0, verify_duality
from .fields import Field, field_from_tag
from .frobenius import BarOracle, Degree2Comparison, FrobeniusStructure
from .homology import CalculusSpaces, HigherSpaces, higher_calculus, koszul_homology
from .koszul import Cochain, KoszulCalculus, MODULE_A, MODULE_K
from .presets import GraphAlgebra, Preset, normalize_preset_name, socle_generators
from .quiver import graph_from_json, presentation_from_json
from .verify import PropertySuite

ANALYSES = ("calculus", "duality", "higher", "hochschild2", "koszulity",
            "properties")

#: random trials per identity of the ``properties`` analysis
PROPERTY_TRIALS = 100


@dataclass
class RunConfig:
    preset: Optional[str] = None
    input_file: Optional[str] = None
    field_tag: str = "Q"
    coefficients: str = "A"
    max_degree: int = 3
    weight_cutoff: Optional[int] = None
    analyses: Sequence[str] = ("calculus", "higher", "duality")
    force_rational: bool = False

    def validate(self) -> None:
        if (self.preset is None) == (self.input_file is None):
            raise ValueError("exactly one of preset and input file is required")
        if self.coefficients not in ("A", "k", "Ae"):
            raise ValueError("coefficients must be A, k or Ae")
        for a in self.analyses:
            if a not in ANALYSES:
                raise ValueError(f"unknown analysis {a!r}")
        if self.max_degree < 2:
            # the structure constants and the duality read degree 2
            raise ValueError(f"max_degree must be at least 2, got {self.max_degree}")

    def to_json(self) -> Dict:
        return {
            "preset": self.preset,
            "input_file": self.input_file,
            "field": self.field_tag,
            "coefficients": self.coefficients,
            "max_degree": self.max_degree,
            "weight_cutoff": self.weight_cutoff,
            "analyses": sorted(self.analyses),
            "force_rational": self.force_rational,
            "property_trials": PROPERTY_TRIALS,
        }


class RunError(ValueError):
    pass


class Timings:
    def __init__(self):
        self.data: Dict[str, float] = {}

    @contextlib.contextmanager
    def measure(self, key: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.data[key] = round(time.perf_counter() - t0, 6)


def _scalar(field: Field, value):
    return field.to_json(value)


def _elem_json(algebra, field: Field, elem) -> Dict[str, object]:
    out = {}
    for (m, pos) in sorted(elem):
        name = algebra.quiver.path_name(algebra.monomial_arrows(m, pos),
                                        algebra.block_of[m][pos][0])
        out[name] = _scalar(field, elem[(m, pos)])
    return out


def _wvec_json(kd, p: int, flat_idx: int) -> Dict[str, object]:
    ws = kd.w(p)
    block = ws.block_of(flat_idx)
    paths = ws.block_paths[block]
    vec = ws.vector(flat_idx)
    return {kd.quiver.path_name(paths[t], block[0]): _scalar(kd.field, c)
            for t, c in sorted(vec.items())}


def _element_json(kd, obj) -> List[Dict]:
    """A cochain's values ("value") or a chain's coefficients ("coefficient")
    on the W basis vectors, in W index order."""
    key = "value" if isinstance(obj, Cochain) else "coefficient"
    out = []
    for flat_idx in sorted(obj.values):
        val = obj.values[flat_idx]
        if obj.module == MODULE_A:
            value = _elem_json(kd.algebra, kd.field, val)
        else:
            value = _scalar(kd.field, val)
        out.append({"on": _wvec_json(kd, obj.degree, flat_idx), key: value})
    return out


def _spaces_json(kd, spaces: Union[CalculusSpaces, HigherSpaces], with_bases: bool) -> Dict:
    """Dims and bigraded dims, and with_bases the class bases of CalculusSpaces."""
    out: Dict[str, object] = {
        "dims": spaces.dims(),
        "bigraded": {str(p): {str(m): d for m, d in spaces.bigraded_dims(p).items()}
                     for p in range(spaces.p_max + 1)},
    }
    if with_bases:
        bases = {}
        for p in range(min(spaces.p_max, 3) + 1):
            bases[str(p)] = [_element_json(kd, r) for r in spaces.representatives(p)]
        out["class_bases"] = bases
    return out


def _structure_constants(table, degrees, left: CalculusSpaces, right: CalculusSpaces,
                         target: CalculusSpaces, sep: str) -> Dict[str, object]:
    """Class coordinates in ``target`` of the products in ``table(fs, gs)``
    over the representatives fs of ``left`` and gs of ``right``, per
    (p, q, product degree); a pair absent from the table is zero."""
    field = target.kd.field
    out: Dict[str, object] = {}
    for p, q, degree in degrees:
        reps1 = left.representatives(p)
        reps2 = right.representatives(q)
        if reps1 and reps2:
            products = table(reps1, reps2)
            zero = [_scalar(field, c) for c in target.zero_class(degree)]
            out[f"{p}{sep}{q}"] = [
                [[_scalar(field, c) for c in target.class_of(products[(i, j)])]
                 if (i, j) in products else zero.copy()
                 for j in range(len(reps2))] for i in range(len(reps1))]
    return out


def run(config: RunConfig) -> Dict:
    """Execute the requested analyses and return the report document."""
    config.validate()
    field = field_from_tag(config.field_tag)
    timings = Timings()
    report: Dict[str, object] = {
        "schema": "koszulkit-report/1",
        "tool_version": __version__,
        "config": config.to_json(),
        "status": "ok",
    }
    warnings: List[str] = []
    failures: List[str] = []

    with timings.measure("build"):
        graph_alg = None
        if config.preset is not None:
            name = normalize_preset_name(config.preset)
            if (name == "E8" and field.char == 0 and not config.force_rational
                    and (config.coefficients == "Ae" or "koszulity" in config.analyses)):
                raise RunError(
                    "the rational E8 bimodule complex is the cost ceiling; pass "
                    "force_rational to insist")
            graph_alg = Preset(name, field, cutoff=config.weight_cutoff)
            report["preset"] = graph_alg.name
        else:
            try:
                with open(config.input_file, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except OSError as exc:
                raise RunError(f"cannot read {config.input_file}: {exc.strerror}") from None
            if not isinstance(data, dict):
                raise RunError(f"{config.input_file}: the top-level value must be a "
                               "JSON object with a 'vertices' entry")
            if "edges" in data:
                graph_alg = GraphAlgebra(graph_from_json(data), field,
                                         config.weight_cutoff, config.input_file)
            else:
                pres = presentation_from_json(data, field)
                cutoff = config.weight_cutoff or default_cutoff(pres.quiver.n_vertices)
                algebra = build_graded_algebra(pres, cutoff)
        if graph_alg is not None:
            pres, algebra = graph_alg.presentation, graph_alg.algebra
        kd = KoszulCalculus(algebra, config.max_degree)

    if algebra.truncated:
        warnings.append(
            f"weight cutoff {algebra.cutoff} reached without a zero component; "
            "graded results are exact below the cutoff")
    q = pres.quiver
    report["algebra"] = {
        "vertices": list(q.vertices),
        "arrows": [{"name": q.arrow_names[a], "src": q.vertices[q.source[a]],
                    "tgt": q.vertices[q.target[a]]} for a in range(q.n_arrows)],
        "dims_per_weight": algebra.dims(),
        "finite": algebra.finite,
        "truncated": algebra.truncated,
        "top_weight": algebra.top_weight,
        "total_dim": algebra.total_dim if algebra.finite else None,
    }
    report["w_dims"] = kd.w_dims()

    module = MODULE_K if config.coefficients == "k" else MODULE_A
    analyses = set(config.analyses)
    is_preprojective = hasattr(pres, "preprojective")
    skipped: Dict[str, str] = {}
    if config.coefficients == "Ae":
        skipped = {a: "does not run with Ae coefficients" for a in analyses - {"koszulity"}}
    elif module == MODULE_K:
        skipped = {a: "needs algebra coefficients"
                   for a in analyses & {"higher", "hochschild2", "properties"}}
    elif q.n_arrows == 0:
        skipped = {a: "needs a graph with arrows" for a in analyses & {"hochschild2", "properties"}}
    for a in sorted(skipped):
        warnings.append(f"{a} analysis {skipped[a]}; skipped")
    analyses -= set(skipped)

    if config.coefficients == "Ae" or "koszulity" in analyses:
        with timings.measure("koszulity"):
            ae = ae_coefficient_route(kd, config.max_degree, config.weight_cutoff)
        report["koszulity"] = {
            "homology_of_bimodule_complex": {
                str(p): {str(n): d for n, d in row.items()}
                for p, row in ae["homology_table"].items()},
            "h_dims": {str(p): d for p, d in ae["h_dims"].items()},
            "koszul_up_to_cutoff": ae["koszul_up_to_cutoff"],
            "weight_cutoff": ae["weight_cutoff"],
            "inconclusive": ae["inconclusive"],
        }
        if ae["inconclusive"]:
            warnings.append("koszulity verdict is limited to the computed weights")
        if config.coefficients == "Ae":
            report["enveloping_coefficients"] = {
                "hk_dims": {str(p): d for p, d in ae["hk_ae_dims"].items()},
                "hk2_equals_dim_A": ae.get("hk2_ae_equals_dim_A"),
                "hk1_zero": ae["h1_zero"],
                "kc_calabi_yau_2": ae["kc_calabi_yau_2"],
            }

    if analyses & {"calculus", "duality", "higher", "hochschild2", "properties"}:
        with timings.measure("calculus"):
            coh = koszul_homology(kd, module, "coh")
            hom = koszul_homology(kd, module, "hom")
        report["calculus"] = {
            "coefficients": config.coefficients,
            "cohomology": _spaces_json(kd, coh, with_bases=True),
            "homology": _spaces_json(kd, hom, with_bases=True),
        }
        if module == MODULE_A:
            with timings.measure("products"):
                report["cup_structure_constants"] = _structure_constants(
                    kd.cup_table, [(p, q, p + q) for p in range(3) for q in range(3 - p)],
                    coh, coh, coh, "x")
                report["cap_structure_constants"] = _structure_constants(
                    lambda fs, zs: kd.cap_table(fs, zs, "left"),
                    [(p, q, q - p) for p in range(3) for q in range(p, 3)],
                    coh, hom, hom, "cap")
            eA = kd.fundamental_cocycle()
            ceA = coh.class_of(eA)
            report["fundamental_cocycle"] = {
                "class": [_scalar(field, c) for c in ceA],
                "is_coboundary": all(field.is_zero(c) for c in ceA),
            }

    if "higher" in analyses:
        with timings.measure("higher"):
            hi_coh = higher_calculus(coh)
            hi_hom = higher_calculus(hom)
        report["higher"] = {
            "cohomology": _spaces_json(kd, hi_coh, with_bases=False),
            "homology": _spaces_json(kd, hi_hom, with_bases=False),
        }
    else:
        hi_coh = hi_hom = None

    if "duality" in analyses:
        if not is_preprojective:
            warnings.append("duality analysis needs a preprojective presentation; skipped")
        elif q.n_vertices <= 2 and len(pres.preprojective.graph.edges) <= 1:
            warnings.append("duality holds for connected graphs with at least "
                            "two edges; skipped for this degenerate graph")
        else:
            with timings.measure("duality"):
                rep = verify_duality(coh, hom, hi_coh, hi_hom)
            report["duality"] = {"checks": {k: v for k, v in sorted(rep.checks.items())},
                                 "ok": rep.ok, "failures": rep.failures}
            if module == MODULE_A:
                # omega0 is valued in A; with k coefficients it has no class
                w0class = hom.class_of(omega0(kd))
                report["duality"]["fundamental_class"] = [_scalar(field, c) for c in w0class]
            if not rep.ok:
                failures.extend(rep.failures)

    if "hochschild2" in analyses:
        if graph_alg is None or not graph_alg.dynkin:
            warnings.append("degree-2 comparison is defined for the Dynkin graphs; skipped")
        else:
            # a graph file has no socle words: its socle generators are the
            # top monomials, which leave every dimension unchanged
            socle = socle_generators(graph_alg) if config.preset is not None else {}
            with timings.measure("hochschild2"):
                frob = FrobeniusStructure(algebra, socle)
                cmp2 = Degree2Comparison(kd, frob, coh, hom)
            report["hochschild2"] = {
                "hh2_dim": cmp2.hh2_dim,
                "hh_2_dim": cmp2.hh_2_dim,
                "hk2_dim": cmp2.hk2_dim,
                "hk_2_dim": cmp2.hk_2_dim,
                "cartan_kernel_dim": cmp2.cartan_kernel_dim,
                "nakayama_permutation": {q.vertices[i]: q.vertices[j]
                                         for i, j in sorted(frob.nu_bar.items())},
            }
            if algebra.total_dim <= 40:
                oracle = BarOracle(algebra)
                report["hochschild2"]["bar_oracle"] = {
                    "hh0_dim": oracle.hh0_dim, "hh1_dim": oracle.hh1_dim}

    if "properties" in analyses:
        with timings.measure("properties"):
            suite = PropertySuite(coh, hom, seed=0, trials=PROPERTY_TRIALS)
            plog = suite.run(preprojective=is_preprojective)
        report["properties"] = {"ok": plog.ok,
                                "checks": len(plog.entries),
                                "failures": plog.failures()[:20]}
        if not plog.ok:
            failures.extend(plog.failures()[:20])

    if failures:
        report["status"] = "error"
        report["failures"] = failures
    elif warnings:
        report["status"] = "warning"
    if warnings:
        report["warnings"] = warnings
    report["timings"] = timings.data
    return report


_SCALAR_TYPES = (str, int, float, bool, type(None))
_encode_scalar = json.JSONEncoder(ensure_ascii=False).encode


def _pretty(node, ind: str) -> str:
    """json.dumps(node, sort_keys=True, indent=2, ensure_ascii=False), every
    line after the first indented by ``ind``: a list, or a dict with str
    keys, is one join over its items, which are encoded by the C-level
    scalar encoders when they are all scalars.  Any other node is left to
    json.dumps; JSON escapes newlines inside strings, so indenting its
    output is byte-exact."""
    t = type(node)
    if t is list and node:
        keys, vals = None, node
    elif t is dict and node and set(map(type, node)) == {str}:
        keys = sorted(node)
        vals = list(map(node.__getitem__, keys))
    elif t in _SCALAR_TYPES:
        return _encode_scalar(node)
    else:
        return json.dumps(node, sort_keys=True, indent=2,
                          ensure_ascii=False).replace("\n", "\n" + ind)
    inner = ind + "  "
    sep = ",\n" + inner
    types = set(map(type, vals))
    if types == {int}:
        items = map(int.__repr__, vals)
    elif types == {str}:
        items = map(encode_basestring, vals)
    elif types.issubset(_SCALAR_TYPES):
        items = map(_encode_scalar, vals)
    else:
        items = [_pretty(v, inner) for v in vals]
    if keys is None:
        return f"[\n{inner}{sep.join(items)}\n{ind}]"
    items = map(": ".join, zip(map(encode_basestring, keys), items))
    return f"{{\n{inner}{sep.join(items)}\n{ind}}}"


def render(report: Dict, pretty: bool = True) -> str:
    if pretty:
        return _pretty(report, "") + "\n"
    return json.dumps(report, sort_keys=True, ensure_ascii=False) + "\n"


def write_report(report: Dict, path: Optional[str], pretty: bool = True) -> None:
    """Render the report once and write it to ``path``, or to standard output."""
    text = render(report, pretty)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
