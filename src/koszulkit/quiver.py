"""Finite quivers, paths, quadratic presentations, preprojective builders.

Paths are written from right to left: in the word ``a1.a0`` the arrow
``a0`` is applied first, so the source of the path is the source of its
rightmost arrow.  A path is the tuple of its arrow indices in written order
(leftmost first), kept under its (target, source) vertex block, which also
names the vertex of a trivial path.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .fields import Field
from .linalg import SparseVec


class QuiverError(ValueError):
    pass


class Quiver:
    """A finite quiver with ordered vertices and named arrows."""

    def __init__(self, vertices: Sequence[str], arrows: Sequence[Tuple[str, str, str]]):
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex labels")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.arrow_names: List[str] = []
        self.source: List[int] = []
        self.target: List[int] = []
        for name, src, tgt in arrows:
            if name in self.arrow_names:
                raise QuiverError(f"duplicate arrow name {name!r}")
            if src not in self.vertex_index or tgt not in self.vertex_index:
                raise QuiverError(f"arrow {name!r} uses undeclared vertex")
            self.arrow_names.append(name)
            self.source.append(self.vertex_index[src])
            self.target.append(self.vertex_index[tgt])
        self.arrow_index = {n: k for k, n in enumerate(self.arrow_names)}
        self.n_vertices = len(self.vertices)
        self.n_arrows = len(self.arrow_names)
        # arrows grouped by source vertex, in arrow order
        self.arrows_by_source: List[List[int]] = [[] for _ in range(self.n_vertices)]
        self.arrows_by_target: List[List[int]] = [[] for _ in range(self.n_vertices)]
        for k in range(self.n_arrows):
            self.arrows_by_source[self.source[k]].append(k)
            self.arrows_by_target[self.target[k]].append(k)

    def __repr__(self) -> str:
        return f"Quiver({self.n_vertices} vertices, {self.n_arrows} arrows)"

    def path_name(self, arrows: Sequence[int], vertex: int) -> str:
        """The written name of a path: its arrow names joined by dots, or
        ``e<vertex>`` for the trivial path at ``vertex``."""
        if not arrows:
            return f"e{self.vertices[vertex]}"
        return ".".join(self.arrow_names[a] for a in arrows)

    def word_arrows(self, names: Sequence[str]) -> Tuple[int, ...]:
        """The arrow tuple of a nonempty word of arrow names in written
        order, refusing arrows that do not compose."""
        arrows = tuple(self.arrow_index[n] for n in names)
        if not arrows:
            raise QuiverError("empty arrow sequence needs an explicit vertex")
        for left, right in zip(arrows, arrows[1:]):
            if self.source[left] != self.target[right]:
                raise QuiverError(
                    f"arrows {self.arrow_names[left]} and {self.arrow_names[right]} "
                    "do not compose")
        return arrows


def paths_of_weight(quiver: Quiver, m: int) -> Dict[Tuple[int, int], List[Tuple[int, ...]]]:
    """All composable length-m paths as arrow tuples under their (target,
    source) block, each block ordered with the right factor most
    significant (lex by reversed arrow indices)."""
    if m < 0:
        raise QuiverError("negative weight")
    paths = [((), i, i) for i in range(quiver.n_vertices)]  # (arrows, target, source)
    for _ in range(m):
        # prepend on the left: a becomes the last-applied arrow
        paths = [((a,) + arrows, quiver.target[a], src)
                 for arrows, tgt, src in paths for a in quiver.arrows_by_source[tgt]]
    blocks: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
    for arrows, tgt, src in paths:
        blocks.setdefault((tgt, src), []).append(arrows)
    return blocks


class QuadraticPresentation:
    """A quiver with a weight-2 relation space given by vertex-homogeneous rows.

    Each relation is a list of ``(coeff, (left_arrow, right_arrow))`` pairs
    sharing one (target, source) vertex pair.
    """

    def __init__(self, quiver: Quiver, relations: Sequence[Sequence[Tuple[object, Tuple[int, int]]]],
                 field: Field):
        self.quiver = quiver
        self.field = field
        self.relations: List[List[Tuple[object, Tuple[int, int]]]] = []
        self.relation_blocks: List[Tuple[int, int]] = []
        for rel in relations:
            if not rel:
                raise QuiverError("empty relation")
            block = None
            cleaned = []
            for coeff, (left, right) in rel:
                if quiver.source[left] != quiver.target[right]:
                    raise QuiverError("relation contains a non-composable arrow pair")
                pair_block = (quiver.target[left], quiver.source[right])
                if block is None:
                    block = pair_block
                elif block != pair_block:
                    raise QuiverError("relation is not homogeneous for a vertex pair")
                if not field.is_zero(coeff):
                    cleaned.append((coeff, (left, right)))
            if not cleaned:
                raise QuiverError("zero relation")
            self.relations.append(cleaned)
            self.relation_blocks.append(block)

    @property
    def n_relations(self) -> int:
        return len(self.relations)


class Graph:
    """An unlabelled undirected graph (multiple edges and loops allowed)."""

    def __init__(self, vertices: Sequence[str], edges: Sequence[Tuple[str, str]]):
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex labels")
        index = {v: i for i, v in enumerate(self.vertices)}
        self.edges: List[Tuple[int, int]] = []
        for u, v in edges:
            if u not in index or v not in index:
                raise QuiverError(f"edge ({u},{v}) uses undeclared vertex")
            self.edges.append((index[u], index[v]))

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        adj: Dict[int, set] = {i: set() for i in range(len(self.vertices))}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        seen, stack = {0}, [0]
        while stack:
            new = adj[stack.pop()] - seen
            seen |= new
            stack.extend(new)
        return len(seen) == len(self.vertices)


class DynkinConstants(NamedTuple):
    """The Coxeter number h (the top weight is h - 2) and Nakayama permutation nu."""
    h: int
    nu: Dict[int, int]


def dynkin_constants(graph: Graph) -> Optional[DynkinConstants]:
    """(h, nu) of a connected Dynkin graph, None for any other connected graph.

    With C the arrow counts of the double quiver (a loop counts twice), the
    graph is Dynkin when 2I - C is positive definite: its leading minors,
    the pivots of Bareiss's fraction-free elimination, are positive
    (Sylvester).  The Hilbert series is then (1 + P t^h)(1 - Ct + t^2)^-1
    (Malkin, Ostrik and Vybornov), so with U_0 = I and U_{m+1} = C U_m -
    U_{m-1}, U_m holds the dimensions of the weight-m blocks up to the first
    zero U_{h-1}, and U_{h-2} = P.  As the spectrum of C lies in (-2, 2), the
    entries of C U_m = U_{m+1} + U_{m-1} are then nonnegative and at most
    2m + 2, and each row of U_m is packed into one int, 32 bits per column."""
    if not graph.is_connected():
        raise QuiverError("Dynkin constants are read off a connected graph")
    n = len(graph.vertices)
    nbrs: List[List[int]] = [[] for _ in range(n)]
    form = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for u, v in graph.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
        form[u][v] -= 1
        form[v][u] -= 1
    prev = 1
    for k, top in enumerate(form):
        pivot = top[k]
        if pivot <= 0:
            return None
        for row in form[k + 1:]:
            f_k = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f_k * top[j]) // prev
        prev = pivot
    u_prev, u, h = [0] * n, [1 << (32 * i) for i in range(n)], 1
    while any(u):
        u_prev, u, h = u, [sum(map(u.__getitem__, nbrs[i])) - u_prev[i]
                           for i in range(n)], h + 1
    return DynkinConstants(h, {i: (row.bit_length() - 1) // 32
                               for i, row in enumerate(u_prev)})


def double_quiver(graph: Graph) -> Tuple[Quiver, List[int], List[int]]:
    """Double quiver of a graph with one chosen orientation per edge.

    Edge k becomes ``a<k>: u -> v`` and ``a<k>*: v -> u``.  Returns
    ``(quiver, star, eps)`` where ``star[a]`` is the index of the opposite
    arrow and ``eps[a]`` is +1 on chosen arrows, -1 on their reverses.
    """
    arrows = []
    for k, (u, v) in enumerate(graph.edges):
        arrows.append((f"a{k}", graph.vertices[u], graph.vertices[v]))
    for k, (u, v) in enumerate(graph.edges):
        arrows.append((f"a{k}*", graph.vertices[v], graph.vertices[u]))
    q = Quiver(graph.vertices, arrows)
    n = len(graph.edges)
    star = [k + n for k in range(n)] + [k for k in range(n)]
    eps = [1] * n + [-1] * n
    return q, star, eps


class PreprojectiveSpec:
    """A connected graph with a chosen orientation and sign function."""

    def __init__(self, graph: Graph):
        if not graph.is_connected():
            raise QuiverError("preprojective algebras require a connected graph")
        self.graph = graph
        self.quiver, self.star, self.eps = double_quiver(graph)


def preprojective_presentation(spec: PreprojectiveSpec, field: Field) -> QuadraticPresentation:
    """Relations: one per vertex i, the signed sum of a.a* over arrows into i."""
    q = spec.quiver
    relations = []
    for i in range(q.n_vertices):
        rel = []
        for a in q.arrows_by_target[i]:
            coeff = field.from_int(spec.eps[a])
            rel.append((coeff, (a, spec.star[a])))
        if rel:
            relations.append(rel)
    pres = QuadraticPresentation(q, relations, field)
    pres.preprojective = spec  # type: ignore[attr-defined]
    # vertex of each sigma relation, in relation order, and its inverse
    pres.sigma_vertices = [q.target[rel[0][1][0]] for rel in pres.relations]  # type: ignore[attr-defined]
    pres.relation_of_vertex = {i: r for r, i in enumerate(pres.sigma_vertices)}  # type: ignore[attr-defined]
    return pres


def _entry(obj, key: str, kind: type = object):
    """obj[key] for a JSON object obj, refusing a missing key or a value
    that is not of type kind."""
    if not isinstance(obj, dict) or key not in obj:
        raise QuiverError(f"input object has no {key!r} entry")
    if not isinstance(obj[key], kind):
        raise QuiverError(f"{key!r} entry {obj[key]!r} is not a {kind.__name__}")
    return obj[key]


def graph_from_json(data) -> Graph:
    """Graph input: {"vertices": [...], "edges": [["u","v"], ...]}."""
    if isinstance(data, str):
        data = json.loads(data)
    vertices = [str(v) for v in _entry(data, "vertices", list)]
    edges = []
    for e in _entry(data, "edges", list):
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise QuiverError(f"edge {e!r} is not a pair of vertex names")
        if any(isinstance(x, (list, dict)) for x in e):
            raise QuiverError("labelled edges are not supported")
        edges.append((str(e[0]), str(e[1])))
    return Graph(vertices, edges)


def presentation_from_json(data, field: Field) -> QuadraticPresentation:
    """General quadratic input with explicit arrows and relations.

    {"vertices": [...], "arrows": [{"name","src","tgt"}, ...],
     "relations": [[{"coeff": "-1", "path": ["a1","a0"]}, ...], ...]}
    with each relation path a pair of arrow names in written order.
    """
    if isinstance(data, str):
        data = json.loads(data)
    quiver = Quiver([str(v) for v in _entry(data, "vertices", list)],
                    [(str(_entry(a, "name")), str(_entry(a, "src")), str(_entry(a, "tgt")))
                     for a in _entry(data, "arrows", list)])
    relations = []
    for rel in _entry(data, "relations", list):
        if not isinstance(rel, list):
            raise QuiverError(f"relation {rel!r} is not a list of terms")
        terms = []
        for term in rel:
            coeff = field.parse(str(_entry(term, "coeff")))
            names = [str(x) for x in _entry(term, "path", list)]
            if len(names) != 2:
                raise QuiverError("relations must be quadratic (paths of two arrows)")
            unknown = [x for x in names if x not in quiver.arrow_index]
            if unknown:
                raise QuiverError(f"relation uses undeclared arrow {unknown[0]!r}")
            terms.append((coeff, (quiver.arrow_index[names[0]], quiver.arrow_index[names[1]])))
        relations.append(terms)
    return QuadraticPresentation(quiver, relations, field)


def relation_vector(pres: QuadraticPresentation, k: int, path_index: Dict[Tuple[int, int], int]) -> SparseVec:
    """Relation k as a sparse vector over weight-2 path indices."""
    field = pres.field
    out: SparseVec = {}
    for coeff, pair in pres.relations[k]:
        idx = path_index[pair]
        cur = out.get(idx, field.zero)
        cur = field.add(cur, coeff)
        if field.is_zero(cur):
            out.pop(idx, None)
        else:
            out[idx] = cur
    return out
