"""Machine-readable reports: run configuration in, JSON document out.

Reports are deterministic for a fixed configuration and tool version: all
orderings are fixed, keys are sorted on serialization, rationals appear as
"n/d" strings and prime-field scalars as integers.  Timings are collected
under a single top-level key so consumers can strip them before comparing
documents byte for byte.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from . import __version__
from .algebra import build_graded_algebra, default_cutoff
from .duality import ae_coefficient_route, omega0, verify_duality
from .fields import Field, field_from_tag
from .frobenius import BarOracle, Degree2Comparison, FrobeniusStructure
from .homology import CalculusSpaces, higher_calculus, koszul_homology
from .koszul import Cochain, KoszulCalculus, MODULE_A, MODULE_K
from .presets import Preset, normalize_preset_name, socle_generators
from .quiver import (PreprojectiveSpec, graph_from_json,
                     presentation_from_json, preprojective_presentation)
from .verify import PropertySuite

ANALYSES = ("calculus", "duality", "higher", "hochschild2", "koszulity",
            "properties")


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
    property_trials: int = 100

    def validate(self) -> None:
        if (self.preset is None) == (self.input_file is None):
            raise ValueError("exactly one of preset and input file is required")
        if self.coefficients not in ("A", "k", "Ae"):
            raise ValueError("coefficients must be A, k or Ae")
        for a in self.analyses:
            if a not in ANALYSES:
                raise ValueError(f"unknown analysis {a!r}")

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
            "property_trials": self.property_trials,
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
        out[algebra.monomials[m][pos].name()] = _scalar(field, elem[(m, pos)])
    return out


def _wvec_json(kd, p: int, flat_idx: int) -> Dict[str, object]:
    ws = kd.w(p)
    j, i, k = ws.flat[flat_idx]
    vec = ws.block_basis[(j, i)][k]
    paths = ws.block_paths[(j, i)]
    return {paths[t].name(): _scalar(kd.field, c) for t, c in sorted(vec.items())}


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


def _spaces_json(kd, spaces: CalculusSpaces, with_bases: bool) -> Dict:
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


def _structure_constants(product, degrees, left: CalculusSpaces, right: CalculusSpaces,
                         target: CalculusSpaces, sep: str) -> Dict[str, object]:
    """Class coordinates in ``target`` of ``product(f, g)`` over the
    representatives f of ``left`` and g of ``right``, per degree pair."""
    field = target.kd.field
    out: Dict[str, object] = {}
    for p, q in degrees:
        reps1 = left.representatives(p)
        reps2 = right.representatives(q)
        if reps1 and reps2:
            out[f"{p}{sep}{q}"] = [[[_scalar(field, c) for c in target.class_of(product(f, g))]
                                    for g in reps2] for f in reps1]
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
        preset = None
        if config.preset is not None:
            name = normalize_preset_name(config.preset)
            if (name == "E8" and field.char == 0 and not config.force_rational
                    and (config.coefficients == "Ae" or "koszulity" in config.analyses)):
                raise RunError(
                    "the rational E8 bimodule complex is the cost ceiling; pass "
                    "force_rational to insist")
            preset = Preset(name, field, cutoff=config.weight_cutoff)
            algebra = preset.algebra
            pres = preset.presentation
            report["preset"] = preset.name
        else:
            with open(config.input_file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if "edges" in data:
                graph = graph_from_json(data)
                spec = PreprojectiveSpec(graph)
                pres = preprojective_presentation(spec, field)
            else:
                pres = presentation_from_json(data, field)
            cutoff = config.weight_cutoff or default_cutoff(pres.quiver.n_vertices)
            algebra = build_graded_algebra(pres, cutoff)
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

    if config.coefficients == "Ae" or "koszulity" in analyses:
        with timings.measure("koszulity"):
            cutoff = config.weight_cutoff
            if cutoff is None and not algebra.finite:
                cutoff = algebra.cutoff
            ae = ae_coefficient_route(kd, config.max_degree, cutoff)
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

    coh = hom = None
    if analyses & {"calculus", "duality", "higher", "hochschild2", "properties"} \
            and config.coefficients != "Ae":
        with timings.measure("calculus"):
            coh = koszul_homology(kd, module, "coh", config.max_degree)
            hom = koszul_homology(kd, module, "hom", config.max_degree)
        report["calculus"] = {
            "coefficients": config.coefficients,
            "cohomology": _spaces_json(kd, coh, with_bases=True),
            "homology": _spaces_json(kd, hom, with_bases=True),
        }
        if module == MODULE_A:
            with timings.measure("products"):
                report["cup_structure_constants"] = _structure_constants(
                    kd.cup, [(p, q) for p in range(3) for q in range(3 - p)],
                    coh, coh, coh, "x")
                report["cap_structure_constants"] = _structure_constants(
                    lambda f, z: kd.cap(f, z, "left"),
                    [(p, q) for p in range(3) for q in range(p, 3)], coh, hom, hom, "cap")
            eA = kd.fundamental_cocycle()
            ceA = coh.class_of(eA)
            report["fundamental_cocycle"] = {
                "class": [_scalar(field, c) for c in ceA],
                "is_coboundary": all(field.is_zero(c) for c in ceA),
            }

    if "higher" in analyses and coh is not None and module == MODULE_A:
        with timings.measure("higher"):
            hi_coh = higher_calculus(coh)
            hi_hom = higher_calculus(hom)
        report["higher"] = {
            "cohomology": {"dims": hi_coh.dims(),
                           "bigraded": {str(p): {str(m): d for m, d
                                                 in hi_coh.bigraded_dims(p).items()}
                                        for p in range(coh.p_max + 1)}},
            "homology": {"dims": hi_hom.dims(),
                         "bigraded": {str(p): {str(m): d for m, d
                                               in hi_hom.bigraded_dims(p).items()}
                                      for p in range(hom.p_max + 1)}},
        }
    else:
        hi_coh = hi_hom = None

    if "duality" in analyses and coh is not None:
        small = (q.n_vertices <= 2 and
                 len(getattr(pres, "preprojective", None).graph.edges) <= 1
                 if is_preprojective else False)
        if not is_preprojective:
            warnings.append("duality analysis needs a preprojective presentation; skipped")
        elif small:
            warnings.append("duality holds for connected graphs with at least "
                            "two edges; skipped for this degenerate graph")
        else:
            with timings.measure("duality"):
                rep = verify_duality(kd, coh, hom, module, hi_coh, hi_hom)
            report["duality"] = {"checks": {k: v for k, v in sorted(rep.checks.items())},
                                 "ok": rep.ok, "failures": rep.failures}
            if module == MODULE_A:
                # omega0 is valued in A; with k coefficients it has no class
                w0class = hom.class_of(omega0(kd))
                report["duality"]["fundamental_class"] = [_scalar(field, c) for c in w0class]
            if not rep.ok:
                failures.extend(rep.failures)

    if "hochschild2" in analyses:
        if preset is None or not preset.is_dynkin:
            warnings.append("degree-2 comparison is defined for the Dynkin presets; skipped")
        elif module != MODULE_A:
            warnings.append("degree-2 comparison needs algebra coefficients; skipped")
        else:
            with timings.measure("hochschild2"):
                frob = FrobeniusStructure(algebra, socle_generators(preset))
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

    if "properties" in analyses and coh is not None and module == MODULE_A:
        with timings.measure("properties"):
            suite = PropertySuite(kd, coh, hom, seed=0,
                                  trials=config.property_trials)
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


def render(report: Dict, pretty: bool = True) -> str:
    return json.dumps(report, sort_keys=True, indent=2 if pretty else None,
                      ensure_ascii=False) + "\n"


def write_report(report: Dict, path: Optional[str], pretty: bool = True) -> None:
    text = render(report, pretty)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
