"""The three benchmark workloads: inputs, set-up, one pass, and its checks.

Each workload stresses a different part of the engine:

- ``bimodule``: ``duality.ae_coefficient_route`` (the bimodule complex and the
  elimination layer).  E6/GF(2) sends nearly every elimination to the dense
  prime-field kernel; the extended D~4 graph adds an infinite algebra
  truncated at a weight cutoff, over GF(2) and over Q (the rational paths).
- ``verify``: ``verify_type_char`` then ``hochschild2_checks`` on one
  ``TypeCharComputation`` (duality checklist, Frobenius data, class-level
  products), over Q and over GF(3), which separates ``Fraction`` arithmetic
  from integer arithmetic mod p.  Elimination is a small share here.
- ``calculus``: ``report.run`` (analyses ``calculus`` and ``higher``) and
  ``report.render`` for every listed Dynkin graph over Q, F:2 and F:3, the
  everyday CLI path: thousands of small basis-producing eliminations, and
  no bimodule complex, duality or Frobenius code at all.

They are scaled-down stand-ins for Tier-1 cases that take from ten seconds to
minutes each (E7 and E8 ``Ae``, E6/Q and E7/GF(3) verification), so that a
30-second run holds enough passes for a median.

The seed relabels vertices, permutes the edge order and flips edge
orientations of each graph; the program reads only the graph JSON files
written from it.  Inputs are made once per run, so every pass of a run works
on the same inputs.  The elimination work over GF(2) and GF(3) does not depend
on the labelling (the same eliminations of the same sizes, and call counts
within 0.2%), but over Q the fill-in of the ``Fraction`` rows does: the
bimodule route on D~4/Q makes up to 1.6 times as many Python calls in one
labelling as in another.  So ``bimodule`` runs D~4/Q at a low cutoff in six labellings
drawn from the seed, which evens out the work between seeds.  ``verify`` runs
presets by name and ignores the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, List, Tuple

#: every listed Dynkin type, in the order of ``adedata.listed_types``
DYNKIN = [f"A{n}" for n in range(3, 10)] + [f"D{n}" for n in range(4, 9)] + \
    ["E6", "E7", "E8"]
FIELDS = ("Q", "F:2", "F:3")

Check = Tuple[str, bool, str]


def dynkin_edges(name: str) -> Tuple[int, List[Tuple[int, int]]]:
    """Vertex count and edge list of a Dynkin or extended-D4 graph."""
    if name == "D~4":
        return 5, [(0, 2), (1, 2), (2, 3), (2, 4)]
    fam, n = name[0], int(name[1:])
    chain = [(i, i + 1) for i in range(n - 1)]
    if fam == "A":
        return n, chain
    if fam == "D":
        return n, [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, n - 1)]
    # E types: vertex 0 attached to vertex 3 of the chain 1-2-3-...-(n-1)
    return n, [(0, 3), (1, 2), (2, 3)] + [(i, i + 1) for i in range(3, n - 1)]


def coxeter(name: str) -> int:
    fam, n = name[0], int(name[1:])
    return {"A": n + 1, "D": 2 * n - 2}.get(fam) or {6: 12, 7: 18, 8: 30}[n]


def char_of(field_tag: str) -> int:
    return 0 if field_tag == "Q" else int(field_tag[2:])


def seeded_graph(name: str, key: str) -> Dict[str, list]:
    """The graph with relabelled vertices, shuffled edges, random orientations."""
    rng = random.Random(f"{key}/{name}")
    n, edges = dynkin_edges(name)
    perm = list(range(n))
    rng.shuffle(perm)
    label = [f"v{perm[i]}" for i in range(n)]
    out_edges = []
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        out_edges.append([label[u], label[v]])
    rng.shuffle(out_edges)
    return {"vertices": [f"v{k}" for k in range(n)], "edges": out_edges}


def write_graph(inputs_dir: str, name: str, key: str, copy: int = None) -> str:
    """Write the seeded graph file; returns its path relative to the checkout.

    The path appears in ``calculus`` reports, so it is part of their digests.
    """
    os.makedirs(inputs_dir, exist_ok=True)
    stem = name.replace("~", "t") + ("" if copy is None else f"-{copy}")
    path = os.path.join(inputs_dir, stem + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(seeded_graph(name, key), fh, sort_keys=True)
    return path


def report_digest(text: str) -> str:
    """sha256 of a rendered report once its ``timings`` key is dropped."""
    doc = json.loads(text)
    doc.pop("timings", None)
    canon = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class Input:
    def __init__(self, label: str, **data):
        self.label = label
        self.data = data


class Bimodule:
    name = "bimodule"
    golden_seed = None
    FINITE_CHECKS = ("h0_is_algebra", "h1_zero", "hk2_ae_equals_dim_A",
                     "kc_calabi_yau_2", "hk2_ae_is_nh(h+1)/6")
    EXTENDED_CHECKS = ("koszul_up_to_cutoff", "h0_is_algebra", "h1_zero",
                       "h2_zero", "h3_zero")

    def inputs(self, seed: int, smoke: bool, inputs_dir: str) -> List[Input]:
        # (graph, field, weight cutoff or None for the finite algebra, labellings)
        cases = ([("A3", "F:2", None, 1), ("D~4", "F:2", 6, 1), ("D~4", "Q", 3, 2)] if smoke else
                 [("E6", "F:2", None, 1), ("D~4", "F:2", 10, 1), ("D~4", "Q", 4, 6)])
        out = []
        for graph, field, cutoff, labellings in cases:
            for j in range(labellings):
                copy = j if labellings > 1 else None
                key = str(seed) if copy is None else f"{seed}.{j}"
                path = write_graph(inputs_dir, graph, key, copy)
                label = f"{graph}/{field}" + (f"@{cutoff}" if cutoff else "") + \
                    ("" if copy is None else f"#{j}")
                out.append(Input(label, graph=graph, field=field, cutoff=cutoff, path=path))
        return out

    def check_names(self, inp: Input, ctx) -> List[str]:
        return list(self.EXTENDED_CHECKS if inp.data["cutoff"] else self.FINITE_CHECKS)

    def setup(self, kk, inp: Input):
        d = inp.data
        with open(d["path"], "r", encoding="utf-8") as fh:
            graph = kk.quiver.graph_from_json(json.load(fh))
        spec = kk.quiver.PreprojectiveSpec(graph)
        pres = kk.quiver.preprojective_presentation(spec, kk.fields.field_from_tag(d["field"]))
        cutoff = d["cutoff"] or coxeter(d["graph"]) + 2
        algebra = kk.algebra.build_graded_algebra(pres, cutoff)
        return kk.koszul.KoszulCalculus(algebra, 3)

    def run(self, kk, inp: Input, kd):
        return kk.duality.ae_coefficient_route(kd, 3, weight_cutoff=inp.data["cutoff"])

    def check(self, kk, inp: Input, ae, ctx) -> List[Check]:
        if inp.data["cutoff"]:
            table = ae["homology_table"]
            got = {"koszul_up_to_cutoff": ae["koszul_up_to_cutoff"],
                   "h0_is_algebra": ae["h0_is_algebra"], "h1_zero": ae["h1_zero"],
                   "h2_zero": not table.get(2), "h3_zero": not table.get(3)}
        else:
            n, _edges = dynkin_edges(inp.data["graph"])
            h = coxeter(inp.data["graph"])
            got = {"h0_is_algebra": ae["h0_is_algebra"], "h1_zero": ae["h1_zero"],
                   "hk2_ae_equals_dim_A": ae.get("hk2_ae_equals_dim_A"),
                   "kc_calabi_yau_2": ae["kc_calabi_yau_2"],
                   "hk2_ae_is_nh(h+1)/6": ae["hk_ae_dims"][2] == n * h * (h + 1) // 6}
        return [(f"{inp.label}.{k}", bool(v), f"h_dims {ae['h_dims']}")
                for k, v in got.items()]


class Verify:
    name = "verify"
    #: the recorded check counts hold for every seed
    golden_seed = None

    def inputs(self, seed: int, smoke: bool, inputs_dir: str) -> List[Input]:
        cases = [("A3", 0), ("D4", 3)] if smoke else [("D5", 0), ("E6", 3)]
        return [Input(f"{name}/char{char}", name=name, char=char) for name, char in cases]

    def check_names(self, inp: Input, ctx) -> List[str]:
        # the check log decides how many checks there are; an input that
        # raised fails as many as the parent commit's log held (one if unrecorded)
        counts = ctx["golden"] or {}
        return [f"check{k}" for k in range(counts.get(inp.label, 1))]

    def setup(self, kk, inp: Input):
        return kk.verify.TypeCharComputation(inp.data["name"], inp.data["char"],
                                             with_frobenius=False)

    def run(self, kk, inp: Input, comp):
        name, char = inp.data["name"], inp.data["char"]
        log = kk.verify.CheckLog()
        kk.verify.verify_type_char(name, char, log=log, comp=comp)
        kk.verify.hochschild2_checks(name, char, log=log, comp=comp)
        return log.entries

    def check(self, kk, inp: Input, entries, ctx) -> List[Check]:
        ctx["record"][inp.label] = len(entries)
        return [(key, ok, detail) for key, ok, detail in entries]


class Calculus:
    name = "calculus"
    #: the recorded report digests hold for this seed only
    golden_seed = 0
    CHECKS = ("status", "HK.dims", "HK_.dims", "HKhi.dims", "HKhi_.dims")

    def inputs(self, seed: int, smoke: bool, inputs_dir: str) -> List[Input]:
        graphs = ["A3", "D4"] if smoke else DYNKIN
        paths = {g: write_graph(inputs_dir, g, str(seed)) for g in graphs}
        return [Input(f"{g}/{f}", graph=g, field=f, path=paths[g])
                for f in FIELDS for g in graphs]

    def check_names(self, inp: Input, ctx) -> List[str]:
        return list(self.CHECKS) + (["digest"] if ctx["golden"] is not None else [])

    def setup(self, kk, inp: Input):
        d = inp.data
        return kk.report.RunConfig(input_file=d["path"], field_tag=d["field"],
                                   weight_cutoff=coxeter(d["graph"]) + 2,
                                   analyses=("calculus", "higher"))

    def run(self, kk, inp: Input, config):
        report = kk.report.run(config)
        return report, kk.report.render(report)

    def check(self, kk, inp: Input, result, ctx) -> List[Check]:
        report, text = result
        name, char = inp.data["graph"], char_of(inp.data["field"])
        hk = tuple(kk.adedata.expected_hk_dims(name, char))
        hi = tuple(kk.adedata.expected_higher_dims(name, char))
        got = {
            "status": (report["status"] == "ok", report["status"]),
            "HK.dims": _dims(report["calculus"]["cohomology"], hk),
            "HK_.dims": _dims(report["calculus"]["homology"], hk[::-1]),
            "HKhi.dims": _dims(report["higher"]["cohomology"], hi),
            "HKhi_.dims": _dims(report["higher"]["homology"], hi[::-1]),
        }
        out = [(f"{inp.label}.{k}", ok, detail) for k, (ok, detail) in got.items()]
        digest = report_digest(text)
        ctx["record"][inp.label] = digest
        golden = ctx["golden"]
        if golden is not None:
            out.append((f"{inp.label}.digest", golden.get(inp.label) == digest,
                        f"computed {digest}, recorded {golden.get(inp.label)}"))
        return out


def _dims(spaces: Dict, expected: Tuple[int, int, int]) -> Tuple[bool, str]:
    got = tuple(spaces["dims"][:3])
    return got == expected, f"computed {got}, table {expected}"


WORKLOADS = {w.name: w for w in (Bimodule(), Verify(), Calculus())}
