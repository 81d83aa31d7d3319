"""Preprojective algebras of graphs, the built-in graphs, and their
distinguished (co)homology generators.

:class:`GraphAlgebra` builds the algebra of a preset and of a graph file
alike, with the Coxeter number and Nakayama permutation of a Dynkin graph
derived from its adjacency matrix (``quiver.dynkin_constants``).  Each
Dynkin preset adds the orientation, arrow names and relation order of its
quiver, the socle words that normalize the Frobenius form, and the named
cocycles whose classes form bases of the calculus in every characteristic.
The extended presets (cycles and the four-pointed star) only carry the graph.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import Elem, build_graded_algebra, default_cutoff
from .fields import Field
from .koszul import Cochain, KoszulCalculus
from .quiver import Graph, PreprojectiveSpec, dynkin_constants, preprojective_presentation

Word = List[str]  # arrow names in written (leftmost-first) order


class PresetError(ValueError):
    pass


def normalize_preset_name(name: str) -> str:
    """Canonical preset names: A3, D5, E7, A~2, D~4 (accepts tA2, Atilde2...)."""
    s = name.strip().replace("tilde", "~").replace("TILDE", "~").replace("Tilde", "~")
    s = s.upper()
    if s.startswith("T") and len(s) > 1 and s[1] in "AD":
        s = s[1] + "~" + s[2:]
    m = re.fullmatch(r"([AD]~|[ADE])(\d+)", s)
    fam, num = (m.group(1), int(m.group(2))) if m else ("", 0)
    if fam.endswith("~"):
        if (fam == "A~" and num >= 2) or (fam == "D~" and num == 4):
            return f"{fam}{num}"
        raise PresetError(f"unsupported extended preset {name!r}")
    if (fam == "A" and num >= 1) or (fam == "D" and num >= 4) or (fam == "E" and 6 <= num <= 8):
        return f"{fam}{num}"
    raise PresetError(f"unknown preset {name!r}")


def preset_graph(name: str) -> Graph:
    """A~n: the cycle 0-1-...-n-0; D~4: the star on vertex 2; A_n: the chain
    0-1-...-(n-1); D_n: the fork 0, 1 on vertex 2 of the chain 2-...-(n-1);
    E_n: vertex 0 on vertex 3 of the chain 1-2-...-(n-1)."""
    name = normalize_preset_name(name)
    fam, n = name[0], int(name.lstrip("ADE~"))
    if name.startswith("A~"):
        n, edges = n + 1, [(i, (i + 1) % (n + 1)) for i in range(n + 1)]
    elif name == "D~4":
        n, edges = 5, [(0, 2), (1, 2), (2, 3), (2, 4)]
    elif fam == "A":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif fam == "D":
        edges = [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, n - 1)]
    else:
        edges = [(0, 3)] + [(i, i + 1) for i in range(1, n - 1)]
    return Graph([str(i) for i in range(n)], [(str(u), str(v)) for u, v in edges])


class GraphAlgebra:
    """The preprojective algebra of a connected graph over a field, and the
    graph's Dynkin constants ``dynkin``, (h, nu) or None.  A ``cutoff`` of
    None means h + 2 on a Dynkin graph and ``default_cutoff`` on any other.
    A Dynkin graph must reach its zero component at weight h - 1, and have
    top weight h - 2 and dimension n h (h+1)/6; ``name`` names the input in
    those refusals."""

    def __init__(self, graph: Graph, field: Field, cutoff: Optional[int], name: str):
        self.graph = graph
        self.field = field
        self.spec = PreprojectiveSpec(graph)
        self.quiver = self.spec.quiver
        self.presentation = preprojective_presentation(self.spec, field)
        self.dynkin = dynkin_constants(graph)
        n = len(graph.vertices)
        if cutoff is None:
            cutoff = self.dynkin.h + 2 if self.dynkin else default_cutoff(n)
        self.algebra = alg = build_graded_algebra(self.presentation, cutoff)
        if self.dynkin:
            h = self.dynkin.h
            if cutoff < h - 1:
                raise PresetError(f"{name} needs a weight cutoff of at least {h - 1} "
                                  f"to reach its zero component, got {cutoff}")
            if alg.top_weight != h - 2:
                raise PresetError(f"unexpected top weight for {name}")
            if alg.total_dim != n * h * (h + 1) // 6:
                raise PresetError(f"{name}: dimension {alg.total_dim} differs from "
                                  f"n h (h+1)/6 = {n * h * (h + 1) // 6}")


class Preset(GraphAlgebra):
    """A preset graph's algebra with its naming data: the fixed orientation
    and arrow names that the socle words and named generators read."""

    def __init__(self, name: str, field: Field, cutoff: Optional[int] = None):
        self.name = normalize_preset_name(name)
        super().__init__(preset_graph(self.name), field, cutoff, self.name)

    # -- path helpers --------------------------------------------------------

    def word_elem(self, word: Word, coeff=None) -> Elem:
        """coeff times the normal form of the word, one arrow product at a
        time from its target idempotent."""
        alg = self.algebra
        if coeff is None:
            coeff = self.field.one
        arrows = self.quiver.word_arrows(word)
        elem = alg.vertex_elem(self.quiver.target[arrows[0]])
        for a in arrows:
            elem = alg.multiply(elem, alg.arrow_elem(a))
        return self.field.scale(elem, coeff)

    def sum_words(self, words: Sequence[Tuple[object, Word]]) -> Elem:
        out: Elem = {}
        for coeff, word in words:
            self.field.add_into(out, self.word_elem(word), coeff)
        return out


def _rep(chunk: Word, k: int) -> Word:
    return list(chunk) * k


def _star_word(word: Word) -> Word:
    """The arrow-reversing anti-automorphism on a path word."""
    out = []
    for a in reversed(word):
        out.append(a[:-1] if a.endswith("*") else a + "*")
    return out


def _socle_words(preset: Preset) -> Dict[int, Tuple[int, Word]]:
    """(sign, word) of the socle generator of each column, by source vertex."""
    name = preset.name
    fam, n = name[0], int(name[1:])
    out: Dict[int, Tuple[int, Word]] = {}
    if fam == "A":
        m = (n - 1) // 2
        for i in range(n):
            if i < m:
                word = [f"a{k}" for k in range(n - 2 - i, i - 1, -1)] + \
                    _rep([f"a{i}*", f"a{i}"], i)
            elif i == m and n % 2 == 0:
                word = [f"a{m}"] + _rep([f"a{m}*", f"a{m}"], m)
            elif i == m:
                word = _rep([f"a{m}*", f"a{m}"], m)
            else:
                word = [f"a{k}*" for k in range(n - 1 - i, i)] + \
                    _rep([f"a{i-1}", f"a{i-1}*"], n - 1 - i)
            out[i] = (1, word)
        return out
    if fam == "D":
        m = (n - 2) // 2
        cyc0 = ["a0*", "a1", "a1*", "a0"]
        cyc1 = ["a1*", "a0", "a0*", "a1"]
        if n % 2 == 0:
            out[0] = (-1, _rep(cyc0, m))
            out[1] = (1, _rep(cyc1, m))
        else:
            out[0] = (-1, ["a1*", "a0"] + _rep(cyc0, m))
            out[1] = (1, ["a0*", "a1"] + _rep(cyc1, m))
        for i in range(2, n - 1):
            out[i] = (1, _rep([f"a{i}*", f"a{i}"], n - 1 - i)
                      + [f"a{k}" for k in range(i - 1, 0, -1)]
                      + [f"a{k}*" for k in range(1, i)])
        out[n - 1] = (1, [f"a{k}" for k in range(n - 2, 0, -1)]
                      + [f"a{k}*" for k in range(1, n - 1)])
        return out
    c0 = ["a0", "a0*"]
    c2 = ["a2", "a2*"]
    c3 = ["a3*", "a3"]
    if name == "E6":
        words = {
            0: (1, ["a0*"] + _rep(c3, 2) + c0 + c3 + ["a0"]),
            1: (1, ["a4", "a3"] + c0 + c3 + c0 + ["a2", "a1"]),
            4: (1, ["a2*"] + _rep(c3 + c0, 2) + ["a3*"]),
            3: (1, c3 + _rep(c0 + c3, 2)),
        }
        words[2] = (1, _star_word(words[4][1]))
        words[5] = (1, _star_word(words[1][1]))
        return words
    if name == "E7":
        # signs on columns 4..6 are forced jointly by the vertex-wise Nakayama
        # rule and the square of the weight-8 central element
        return {
            0: (1, _rep(["a0*"] + c3 + ["a0"], 4)),
            1: (-1, ["a1*", "a2*"] + c0 + c3 + _rep(c3 + c0, 2) + ["a2", "a1"]),
            2: (-1, _rep(["a2*"] + c0 + ["a2"], 4)),
            3: (1, _rep(c3 + c0, 3) + _rep(c3, 2)),
            4: (1, _rep(["a3"] + c0 + ["a3*"], 4)),
            5: (1, ["a4", "a3"] + _rep(c3 + c0, 3) + ["a3*", "a4*"]),
            6: (1, ["a5", "a4"] + _rep(["a3"] + c0 + ["a3*"], 3) + ["a4*", "a5*"]),
        }
    if name == "E8":
        return {
            0: (1, _rep(["a0*"] + c2 + ["a0"], 7)),
            1: (1, ["a1*", "a2*"] + _rep(c0 + c2, 5) + c2 + c0 + ["a2", "a1"]),
            2: (-1, _rep(["a2*"] + c0 + ["a2"], 7)),
            3: (1, _rep(c2 + c0, 7)),
            4: (-1, ["a3"] + _rep(c2 + c0, 6) + c2 + ["a3*"]),
            5: (1, ["a4", "a3"] + _rep(c2 + c0, 6) + ["a3*", "a4*"]),
            6: (1, ["a5", "a4", "a3"] + _rep(c0 + c2, 5) + c0 + ["a3*", "a4*", "a5*"]),
            7: (-1, ["a6", "a5", "a4", "a3"] + _rep(c0 + c2, 3) + _rep(c2 + c0, 2)
                + ["a3*", "a4*", "a5*", "a6*"]),
        }
    raise PresetError(f"no socle data for {name}")


def socle_generators(preset: Preset) -> Dict[int, Elem]:
    """The normalized socle elements, one per column, as algebra elements."""
    field = preset.field
    out: Dict[int, Elem] = {}
    for i, (sign, word) in _socle_words(preset).items():
        el = preset.word_elem(word, field.from_int(sign))
        if not el:
            raise PresetError(f"socle word of column {i} vanished in {preset.name}")
        src = {preset.algebra.block_of[m][pos][1] for (m, pos) in el}
        if src != {i}:
            raise PresetError(f"socle word of column {i} has source {src}")
        out[i] = el
    return out


def expected_nakayama_on_arrows(preset: Preset) -> Dict[int, Tuple[int, int]]:
    """nu(alpha) = sign * beta with beta the arrow between the ends of alpha
    moved by the derived nu (a Dynkin graph is simple, so beta is unique),
    and sign -1 when alpha and beta are both chosen arrows."""
    q, nu, n_edges = preset.quiver, preset.dynkin.nu, len(preset.graph.edges)
    arrow_of = {ends: b for b, ends in enumerate(zip(q.source, q.target))}
    out: Dict[int, Tuple[int, int]] = {}
    for a, (s, t) in enumerate(zip(q.source, q.target)):
        beta = arrow_of[(nu[s], nu[t])]
        out[a] = (beta, -1 if a < n_edges and beta < n_edges else 1)
    return out


# -- named generators ----------------------------------------------------------


class NamedGenerators:
    """The distinguished cocycles of a Dynkin preset in one characteristic,
    held in ``table`` as ``{label: Cochain}``, degree 0 then 1 then 2.

    Two small-characteristic slots have no usable closed form (the written
    candidates reduce to coboundaries or fail the cocycle condition); they
    fall back to the deterministic quotient representative of their
    (degree, weight) block, which requires the computed cohomology.
    """

    def __init__(self, preset: Preset, kd: KoszulCalculus, coh=None):
        field = preset.field
        char = field.char
        alg = preset.algebra
        arrow = preset.quiver.arrow_index
        name = preset.name
        fam, n = name[0], int(name[1:])
        self.table: Dict[str, Cochain] = {}
        central: Dict[str, Elem] = {}
        c0 = ["a0", "a0*"]
        c2 = ["a2", "a2*"]
        c3 = ["a3*", "a3"]
        socle = socle_generators(preset)
        nbar = preset.dynkin.nu

        def add_z(label: str, elem: Elem) -> None:
            central[label] = elem
            self.table[label] = kd.diagonal_cochain(elem)

        def add_zeta_family(z_labels: Sequence[str]) -> None:
            n_edges = len(preset.graph.edges)
            for lbl in z_labels:
                z = central[lbl]
                values = {}
                for a in range(n_edges):
                    prod = alg.multiply(alg.arrow_elem(a), z)
                    if prod:
                        values[a] = prod
                self.table["zeta" + lbl[1:]] = kd.cochain_on_arrows(values)

        def add_rho(label: str, arrow_words: Dict[str, List[Tuple[int, Word]]]) -> None:
            values: Dict[int, Elem] = {}
            for aname, terms in arrow_words.items():
                el = preset.sum_words([(field.from_int(s), w) for s, w in terms])
                if el:
                    values[arrow[aname]] = el
            self.table[label] = kd.cochain_on_arrows(values)

        def add_on_relation(label: str, elem: Elem, vertex: int = 0) -> None:
            self.table[label] = kd.cochain_on_relations(
                {preset.presentation.relation_of_vertex[vertex]: elem})

        def add_h_family() -> None:
            for i in range(n):
                add_on_relation(f"h{i}", alg.vertex_elem(i), i)

        def add_canonical_degree1(label: str, weight: int) -> None:
            if coh is None:
                raise PresetError(
                    f"generator {label} needs the computed cohomology")
            blk = coh.blocks.get((1, weight))
            if blk is None or blk.dim != 1:
                raise PresetError(
                    f"no one-dimensional degree-1 class at weight {weight}")
            self.table[label] = blk.reps[0]

        if fam == "A":
            m = (n - 1) // 2
            for ell in range(m + 1):
                if ell == 0:
                    el = alg.unit_elem()
                else:
                    el = preset.sum_words(
                        [(field.one, _rep([f"a{i}*", f"a{i}"], ell)) for i in range(n - 1)])
                add_z(f"z{ell}", el)
            add_zeta_family([f"z{ell}" for ell in range(n - 1 - m)])
            add_h_family()
        elif fam == "D":
            m = (n - 2) // 2
            u = n - m - 2
            for ell in range(u):
                if ell == 0:
                    el = alg.unit_elem()
                else:
                    el = preset.sum_words(
                        [(field.one, _rep(["a0*", "a1", "a1*", "a0"], ell)),
                         (field.one, _rep(["a1*", "a0", "a0*", "a1"], ell))]
                        + [(field.one, _rep([f"a{i}*", f"a{i}"], 2 * ell))
                           for i in range(2, n - 1)])
                add_z(f"z{ell}", el)
            for i in range(n):
                if nbar[i] == i:
                    add_z(f"pi{i}", socle[i])
            add_zeta_family([f"z{ell}" for ell in range(u)])
            if char == 2:
                # base cocycle mixing the two fork arms (the symmetric sum of
                # arm-supported values is a coboundary); higher ones multiply
                # by the central elements at cochain level
                rho0_values: Dict[int, Elem] = {}
                rho0_values[arrow["a2"]] = preset.word_elem(
                    ["a2", "a0", "a0*"])
                rho0_values[arrow["a2*"]] = preset.word_elem(
                    ["a1", "a1*", "a2*"])
                for i in range(3, n - 1):
                    rho0_values[arrow[f"a{i}"]] = preset.word_elem(
                        [f"a{i}", f"a{i-1}", f"a{i-1}*"])
                for ell in range(m):
                    if ell == 0:
                        values = dict(rho0_values)
                    else:
                        zel = central[f"z{ell}"]
                        values = {a: v for a, v in
                                  ((a, alg.multiply(v, zel))
                                   for a, v in rho0_values.items()) if v}
                    self.table[f"rho{ell}"] = kd.cochain_on_arrows(values)
            add_h_family()
            if char == 2:
                for ell in range(1, m + 1):
                    add_on_relation(f"gamma{ell}",
                                    preset.word_elem(_rep(["a0*", "a1", "a1*", "a0"], ell)))
        elif name == "E6":
            add_z("z0", alg.unit_elem())
            add_z("z6", preset.sum_words([
                (field.one, ["a1*", "a2*", "a3*", "a3", "a2", "a1"]),
                (field.one, ["a2*"] + _rep(c3, 2) + ["a2"]),
                (field.from_int(-1), c0 + c3 + c0),
                (field.one, ["a3"] + _rep(c2, 2) + ["a3*"]),
                (field.one, ["a4", "a3", "a2", "a2*", "a3*", "a4*"]),
            ]))
            add_z("z8", preset.sum_words([
                (field.from_int(-1), ["a2*"] + c0 + c3 + c0 + ["a2"]),
                (field.one, c0 + _rep(c3, 2) + c0),
                (field.from_int(-1), ["a3"] + c0 + c3 + c0 + ["a3*"]),
            ]))
            for i in (0, 3):
                add_z(f"pi{i}", socle[i])
            if char == 2:
                # the weight-7 class is two-divisible integrally: the central
                # multiple family degenerates and the slot takes the
                # canonical representative
                add_zeta_family(["z0", "z8"])
                add_canonical_degree1("eta7", 7)
                add_rho("rho3", {
                    "a2": [(1, c0 + ["a2"])],
                    "a3": [(1, ["a3"] + c3)],
                    "a2*": [(1, ["a2*"] + c3)],
                })
            else:
                add_zeta_family(["z0", "z6", "z8"])
            if char == 3:
                add_canonical_degree1("rho5", 5)
            add_h_family()
            if char == 2:
                add_on_relation("gamma4", preset.word_elem(["a0*"] + c3 + ["a0"]))
            if char == 3:
                add_on_relation("gamma6", preset.word_elem(["a0*"] + _rep(c3, 2) + ["a0"]))
        elif name == "E7":
            add_z("z0", alg.unit_elem())
            add_z("z8", preset.sum_words([
                (field.one, ["a0*"] + c2 + c0 + c2 + ["a0"]),
                (field.from_int(-1), ["a2*"] + c2 + c0 + c2 + ["a2"]),
                (field.from_int(-1), c2 + _rep(c3, 2) + c2),
                (field.one, ["a3"] + c0 + c2 + c0 + ["a3*"]),
                (field.from_int(-1), ["a4", "a3"] + _rep(c2, 2) + ["a3*", "a4*"]),
                (field.one, ["a5", "a4", "a3"] + c0 + ["a3*", "a4*", "a5*"]),
            ]))
            add_z("z12", preset.sum_words([
                (field.one, ["a0*"] + _rep(c2 + c0, 2) + c2 + ["a0"]),
                (field.one, ["a2*"] + _rep(c0 + c2, 2) + c0 + ["a2"]),
                (field.from_int(-1), _rep(c3 + c0 + c3, 2)),
                (field.one, ["a3"] + c3 + _rep(c0 + c3, 2) + ["a3*"]),
            ]))
            for i in range(7):
                add_z(f"pi{i}", socle[i])
            add_zeta_family(["z0", "z8", "z12"])
            if char == 2:
                add_rho("rho3", {
                    "a2": [(1, c0 + ["a2"])],
                    "a3": [(1, ["a3"] + c3)],
                    "a4": [(1, ["a4", "a3", "a3*"])],
                    "a2*": [(1, ["a2*"] + c3)],
                })
                add_rho("rho7", {
                    "a0": [(1, _rep(c3, 3) + ["a0"]), (1, c3 + c0 + c3 + ["a0"])],
                    "a3": [(1, ["a3"] + c3 + c0 + c3)],
                    "a3*": [(1, c3 + c0 + c3 + ["a3*"])],
                })
                add_rho("rho15", {
                    "a0": [(1, _rep(c2 + c0, 3) + c2 + ["a0"])],
                    "a0*": [(1, ["a0*"] + c2 + _rep(c0 + c2, 3))],
                })
            if char == 3:
                add_rho("rho5", {
                    "a0": [(-1, c2 + c3 + ["a0"])],
                    "a2": [(1, c3 + c0 + ["a2"])],
                    "a3": [(1, ["a3"] + _rep(c3, 2))],
                    "a0*": [(1, ["a0*"] + _rep(c3, 2))],
                    "a2*": [(-1, ["a2*"] + c2 + c0)],
                })
            add_h_family()
            if char == 2:
                add_on_relation("gamma4", preset.word_elem(["a0*"] + c3 + ["a0"]))
                add_on_relation("gamma8", preset.word_elem(["a0*"] + _rep(c3, 3) + ["a0"]))
                add_on_relation("gamma16", socle[0])
            if char == 3:
                add_on_relation("gamma6", preset.word_elem(["a0*"] + _rep(c3, 2) + ["a0"]))
        elif name == "E8":
            add_z("z0", alg.unit_elem())
            z12 = preset.sum_words([
                (field.one, ["a5", "a4", "a3"] + c0 + c2 + c0 + ["a3*", "a4*", "a5*"]),
                (field.one, ["a4", "a3"] + _rep(c2 + c0, 2) + ["a3*", "a4*"]),
                (field.one, ["a3"] + _rep(c2 + c0, 2) + c2 + ["a3*"]),
                (field.from_int(-1), _rep(c3 + c2 + c3, 2)),
                (field.one, ["a2*"] + _rep(c0 + c2, 2) + c0 + ["a2"]),
                (field.from_int(-1), ["a1*", "a2*"] + c0 + _rep(c2, 2) + c0 + ["a2", "a1"]),
                (field.one, ["a0*"] + _rep(c2 + c0, 2) + c2 + ["a0"]),
            ])
            add_z("z12", z12)
            add_z("z20", preset.sum_words([
                (field.one, ["a5", "a4", "a3"] + _rep(c0 + c2, 3) + c0
                 + ["a3*", "a4*", "a5*"]),
                (field.one, ["a4", "a3"] + _rep(c0 + c2, 2) + _rep(c2 + c0, 2)
                 + ["a3*", "a4*"]),
                (field.one, ["a3"] + c0 + _rep(c2 + c0, 4) + ["a3*"]),
                (field.one, _rep(c2 + c0, 5)),
                (field.from_int(-1), _rep(c0 + _rep(c2, 2), 3) + c0),
                (field.one, _rep(c0 + c2, 5)),
                (field.one, ["a2*"] + _rep(c2 + c0 + c2, 3) + ["a2"]),
                (field.one, ["a0*"] + _rep(c2 + c0, 4) + c2 + ["a0"]),
            ]))
            add_z("z24", alg.multiply(z12, z12))
            for i in range(8):
                add_z(f"pi{i}", socle[i])
            add_zeta_family(["z0", "z12", "z20", "z24"])
            if char == 2:
                add_rho("rho3", {
                    "a2": [(1, c0 + ["a2"])],
                    "a3": [(1, ["a3"] + c3)],
                    "a4": [(1, ["a4", "a3", "a3*"])],
                    "a5": [(1, ["a5", "a4", "a4*"])],
                    "a2*": [(1, ["a2*"] + c3)],
                })
                add_rho("rho7", {
                    "a0": [(1, c0 + _rep(c3, 2) + ["a0"])],
                    "a3": [(1, ["a3"] + c0 + _rep(c3, 2)),
                           (1, ["a3"] + _rep(c3, 2) + c0),
                           (1, ["a3"] + c0 + c3 + c0)],
                    "a3*": [(1, c3 + c0 + c3 + ["a3*"])],
                })
                add_rho("rho15", {
                    "a3": [(1, ["a3"] + c2 + _rep(c2 + c0, 3))],
                    "a4": [(1, ["a4", "a3"] + _rep(c0 + c3, 3) + ["a3*"]),
                           (1, ["a4", "a3"] + _rep(c0 + _rep(c3, 2), 2) + ["a3*"]),
                           (1, ["a4", "a3"] + _rep(c3 + c0, 3) + ["a3*"])],
                    "a5": [(1, ["a5", "a4", "a3"] + c0 + _rep(c3 + c0, 2)
                            + ["a3*", "a4*"])],
                    "a0*": [(1, ["a0*"] + c3 + _rep(c3 + c0, 3))],
                    "a5*": [(1, ["a4", "a3"] + _rep(c0 + c3, 2) + c0
                             + ["a3*", "a4*", "a5*"])],
                })
                add_rho("rho27", {
                    "a3": [(1, ["a3"] + c0 + _rep(c3 + c0, 6))],
                    "a3*": [(1, _rep(c3 + c0, 6) + c3 + ["a3*"])],
                })
            if char == 3:
                add_rho("rho5", {
                    "a0": [(-1, c0 + c3 + ["a0"]), (-1, _rep(c3, 2) + ["a0"])],
                    "a3": [(1, ["a3"] + c3 + c0), (1, ["a3"] + _rep(c3, 2))],
                    "a4": [(1, ["a4", "a3"] + c3 + ["a3*"])],
                    "a0*": [(1, ["a0*"] + _rep(c3, 2))],
                    "a3*": [(-1, c3 + c0 + ["a3*"])],
                })
                add_rho("rho17", {
                    "a0": [(-1, _rep(c3, 2) + _rep(c0 + c3, 3) + ["a0"]),
                           (-1, _rep(c0 + c3, 4) + ["a0"])],
                    "a3": [(1, ["a3"] + _rep(c3 + c0, 4)),
                           (1, ["a3"] + _rep(c0 + c3, 4)),
                           (1, ["a3"] + _rep(c3 + c0, 3) + _rep(c3, 2))],
                    "a0*": [(1, ["a0*"] + _rep(c2 + c0, 3) + _rep(c3, 2))],
                    "a3*": [(-1, _rep(c3 + c0, 4) + ["a3*"])],
                })
            if char == 5:
                add_rho("rho9", {
                    "a0": [(-2, _rep(c3, 2) + c0 + c3 + ["a0"]),
                           (2, c3 + c0 + _rep(c3, 2) + ["a0"]),
                           (1, _rep(c0 + c3, 2) + ["a0"])],
                    "a2": [(1, _rep(c2, 2) + c0 + c2 + ["a2"]),
                           (1, _rep(c2 + c0, 2) + ["a2"])],
                    "a3": [(-1, ["a3"] + _rep(c0 + c3, 2))],
                    "a0*": [(2, ["a0*"] + _rep(c3, 2) + c0 + c3),
                            (-2, ["a0*"] + c3 + c0 + _rep(c3, 2)),
                            (1, ["a0*"] + _rep(c3 + c0, 2))],
                    "a2*": [(1, ["a2*"] + c2 + c0 + _rep(c2, 2)),
                            (-1, ["a2*"] + _rep(c2 + c0, 2))],
                    "a3*": [(1, _rep(c0 + c3, 2) + ["a3*"])],
                })
            add_h_family()
            if char == 2:
                add_on_relation("gamma4", preset.word_elem(["a0*"] + c3 + ["a0"]))
                add_on_relation("gamma8", preset.word_elem(["a0*"] + _rep(c3, 3) + ["a0"]))
                add_on_relation("gamma16",
                                preset.word_elem(["a0*"] + _rep(c2 + c0, 3) + c2 + ["a0"]))
                add_on_relation("gamma28", socle[0])
            if char == 3:
                add_on_relation("gamma6", preset.word_elem(["a0*"] + _rep(c3, 2) + ["a0"]))
                add_on_relation("gamma18",
                                preset.word_elem(["a0*"] + _rep(c3, 2) + _rep(c0 + c3, 3)
                                                 + ["a0"]))
            if char == 5:
                add_on_relation("gamma10",
                                preset.word_elem(["a0*"] + _rep(c3, 2) + c0 + c3 + ["a0"]))
        else:
            raise PresetError(f"no named generators for {name}")

    def cochain(self, label: str) -> Cochain:
        return self.table[label]

    def degree_of(self, label: str) -> int:
        return self.table[label].degree

    def all_labels(self) -> List[str]:
        return list(self.table)
