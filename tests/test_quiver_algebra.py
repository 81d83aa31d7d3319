import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import pytest

from koszulkit import adedata
from koszulkit.algebra import (InfiniteDimensionalError, WeightOverflowError,
                               build_graded_algebra)
from koszulkit.fields import GF, QQ
from koszulkit.linalg import echelonize, kernel
from koszulkit.presets import GraphAlgebra, Preset, preset_graph, socle_generators
from koszulkit.quiver import (Graph, PreprojectiveSpec, Quiver, QuiverError,
                              dynkin_constants, graph_from_json, paths_of_weight,
                              presentation_from_json, preprojective_presentation)

from dynkin_tables import HAND_TYPES, hand_coxeter, hand_nakayama


def a3_setup(field=QQ):
    g = Graph(["0", "1", "2"], [("0", "1"), ("1", "2")])
    spec = PreprojectiveSpec(g)
    return spec, preprojective_presentation(spec, field)


def _all_paths(quiver, m):
    """The length-m paths of every block, block after block."""
    return [path for paths in paths_of_weight(quiver, m).values() for path in paths]


def test_paths_of_weight_counts():
    spec, _ = a3_setup()
    q = spec.quiver
    assert len(_all_paths(q, 0)) == 3           # the vertices
    assert len(_all_paths(q, 1)) == 4           # the four arrows
    # a two-cycle supports exactly two paths in every positive length
    g2 = Graph(["0", "1"], [("0", "1")])
    q2 = PreprojectiveSpec(g2).quiver
    for p in range(1, 9):
        assert len(_all_paths(q2, p)) == 2


def _recursive_paths(quiver, m):
    """The length-m paths as (arrows, target, source), as the recursion over
    m - 1 builds them."""
    if m == 0:
        return [((), i, i) for i in range(quiver.n_vertices)]
    return [((a,) + arrows, quiver.target[a], src)
            for arrows, tgt, src in _recursive_paths(quiver, m - 1)
            for a in quiver.arrows_by_source[tgt]]


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_paths_of_weight_match_the_recursive_order(name):
    q = PreprojectiveSpec(preset_graph(name)).quiver
    for m in range(7):
        blocks = {}
        for arrows, tgt, src in _recursive_paths(q, m):
            blocks.setdefault((tgt, src), []).append(arrows)
        assert paths_of_weight(q, m) == blocks


def test_paths_of_weight_past_the_recursion_limit():
    """A2's double quiver has two paths in every length, far past Python's
    recursion limit (``calculus --preset A2 --max-degree 1200`` builds W_1201)."""
    q = PreprojectiveSpec(preset_graph("A2")).quiver
    paths = _all_paths(q, 1500)
    assert len(paths) == 2 and all(len(p) == 1500 for p in paths)


def test_paths_are_ordered_right_factor_most_significant():
    spec, _ = a3_setup()
    q = spec.quiver
    for paths in paths_of_weight(q, 2).values():
        keys = [tuple(reversed(p)) for p in paths]
        assert keys == sorted(keys)


def test_words_are_read_into_composable_arrow_tuples():
    q = PreprojectiveSpec(preset_graph("A3")).quiver
    ai = q.arrow_index
    assert q.word_arrows(["a0", "a0*"]) == (ai["a0"], ai["a0*"])
    assert q.path_name(q.word_arrows(["a0", "a0*"]), 1) == "a0.a0*"
    assert q.path_name((), 1) == "e1"
    with pytest.raises(QuiverError, match="a0 and a1 do not compose"):
        q.word_arrows(["a0", "a1"])
    with pytest.raises(QuiverError, match="empty arrow sequence"):
        q.word_arrows([])


def test_preprojective_relations_match_display():
    spec, pres = a3_setup()
    q = spec.quiver
    named = []
    for rel, v in zip(pres.relations, pres.sigma_vertices):
        named.append((v, sorted((str(c), q.arrow_names[l], q.arrow_names[r])
                                for c, (l, r) in rel)))
    assert named == [
        (0, [("-1", "a0*", "a0")]),
        (1, [("-1", "a1*", "a1"), ("1", "a0", "a0*")]),
        (2, [("1", "a1", "a1*")]),
    ]


def test_a2_relations_span_full_weight2():
    g = Graph(["0", "1"], [("0", "1")])
    pres = preprojective_presentation(PreprojectiveSpec(g), QQ)
    assert pres.n_relations == 2 == len(_all_paths(pres.quiver, 2))


def test_d4_center_relation():
    pres = preprojective_presentation(PreprojectiveSpec(preset_graph("D4")), QQ)
    q = pres.quiver
    rel = pres.relations[pres.sigma_vertices.index(2)]
    terms = sorted((str(c), q.arrow_names[l], q.arrow_names[r]) for c, (l, r) in rel)
    assert terms == [("-1", "a2*", "a2"), ("1", "a0", "a0*"), ("1", "a1", "a1*")]


def test_disconnected_graph_rejected():
    g = Graph(["0", "1", "2"], [("0", "1")])
    with pytest.raises(QuiverError):
        PreprojectiveSpec(g)


def test_labelled_edges_rejected():
    with pytest.raises(QuiverError):
        graph_from_json({"vertices": ["0", "1"], "edges": [[["0", 2], "1"]]})


def test_graph_json_roundtrip():
    g = graph_from_json(json.dumps({"vertices": ["0", "1"], "edges": [["0", "1"]]}))
    assert g.is_connected()


def test_presentation_json():
    data = {
        "vertices": ["0", "1"],
        "arrows": [{"name": "a", "src": "0", "tgt": "1"},
                   {"name": "b", "src": "1", "tgt": "0"}],
        "relations": [[{"coeff": "1", "path": ["b", "a"]}],
                      [{"coeff": "-1/1", "path": ["a", "b"]}]],
    }
    pres = presentation_from_json(data, QQ)
    assert pres.n_relations == 2
    alg = build_graded_algebra(pres, 6)
    assert alg.finite and alg.dims() == [2, 2]


def test_a3_dimensions_and_products():
    _, pres = a3_setup()
    alg = build_graded_algebra(pres, 10)
    assert alg.dims() == [3, 4, 3]
    assert alg.total_dim == 10
    ai = alg.quiver.arrow_index
    assert alg.multiply(alg.arrow_elem(ai["a0*"]), alg.arrow_elem(ai["a0"])) == {}
    prod = alg.multiply(alg.arrow_elem(ai["a0"]), alg.arrow_elem(ai["a0*"]))
    back = alg.multiply(alg.arrow_elem(ai["a1*"]), alg.arrow_elem(ai["a1"]))
    assert prod == back
    assert alg.multiply(alg.vertex_elem(1), alg.arrow_elem(ai["a0"])) == alg.arrow_elem(ai["a0"])


def test_a1_is_the_vertex_ring():
    g = Graph(["0"], [])
    pres = preprojective_presentation(PreprojectiveSpec(g), QQ)
    alg = build_graded_algebra(pres, 4)
    assert alg.finite and alg.dims() == [1]


def _brute_force_dims(pres, max_weight):
    """Independent oracle: reduce the full path space weight by weight."""
    from koszulkit import linalg as la
    q = pres.quiver
    field = pres.field
    dims = [q.n_vertices]
    prev_ideal_rows = []  # rows of I_{m-1} in path coordinates
    for m in range(2, max_weight + 1):
        paths = _all_paths(q, m)
        index = {path: k for k, path in enumerate(paths)}
        rows = []
        # V . I_{m-1} and I_{m-1} . V
        for row in prev_ideal_rows:
            for a in range(q.n_arrows):
                left = {}
                right = {}
                for arrows, c in row.items():
                    if q.source[a] == q.target[arrows[0]]:
                        left[(a,) + arrows] = c
                    if q.target[a] == q.source[arrows[-1]]:
                        right[arrows + (a,)] = c
                for cand in (left, right):
                    if cand:
                        rows.append(cand)
        if m == 2:
            for rel in pres.relations:
                row = {}
                for c, pair in rel:
                    row[pair] = field.add(row.get(pair, field.zero), c)
                rows.append(row)
        coord_rows = [{index[ar]: c for ar, c in row.items()} for row in rows]
        sub = la.echelonize(coord_rows, len(paths), field)
        dims.append(len(paths) - sub.dim)
        prev_ideal_rows = [{paths[k]: c for k, c in r.items()}
                           for r in sub.rows]
        if dims[-1] == 0:
            break
    if len(dims) >= 2:
        dims.insert(1, q.n_arrows)
    return dims


def test_dims_match_brute_force_path_reduction():
    for name in ["A3", "A4", "D4"]:
        pres = preprojective_presentation(
            PreprojectiveSpec(preset_graph(name)), QQ)
        alg = build_graded_algebra(pres, 14)
        oracle = _brute_force_dims(pres, alg.max_weight + 1)
        got = alg.dims() + [0]
        assert got[:len(oracle)] == oracle[:len(got)]


@dataclass(frozen=True)
class _ReferencePath:
    """A monomial as the build once kept it: its arrows in written order
    with its source and target vertices."""
    arrows: Tuple[int, ...]
    source: int
    target: int

    def name(self, quiver):
        if not self.arrows:
            return f"e{quiver.vertices[self.source]}"
        return ".".join(quiver.arrow_names[a] for a in self.arrows)


def _reference_build(pres, cutoff):
    """The algebra build as it was with one path object per monomial and
    the product pairs found by testing every arrow against every monomial
    of the previous weight.  Returns (block_of, parents, rmul, names)."""
    q, field = pres.quiver, pres.field
    monomials = [[_ReferencePath((), i, i) for i in range(q.n_vertices)]]
    parents, rmuls = [[]], []
    m = 1
    while True:
        prev = monomials[m - 1]
        pairs = []
        for a in range(q.n_arrows):
            for pos, p in enumerate(prev):
                if p.source == q.target[a]:
                    pairs.append((pos, a))
        pair_index = {pa: k for k, pa in enumerate(pairs)}
        gens = []
        if m >= 2:
            for r, rel in enumerate(pres.relations):
                for ypos, y in enumerate(monomials[m - 2]):
                    if y.source != pres.relation_blocks[r][0]:
                        continue
                    gen = {}
                    for coeff, (left, right) in rel:
                        for xpos, w in rmuls[m - 2].get((ypos, left), {}).items():
                            idx = pair_index[(xpos, right)]
                            gen[idx] = gen.get(idx, 0) + coeff * w
                    gen = field.settle(gen)
                    if gen:
                        gens.append(gen)
        sub = echelonize(gens, len(pairs), field)
        survivors = [k for k in range(len(pairs)) if k not in sub.pivot_pos]
        new_pos = {k: n for n, k in enumerate(survivors)}
        rmul = {}
        for k, (pos, a) in enumerate(pairs):
            if k in new_pos:
                rmul[(pos, a)] = {new_pos[k]: field.one}
            else:
                rmul[(pos, a)] = {new_pos[col]: field.neg(c)
                                  for col, c in sub.rows[sub.pivot_pos[k]].items() if col != k}
        rmuls.append(rmul)
        if not survivors:
            break
        monomials.append([_ReferencePath(prev[pairs[k][0]].arrows + (pairs[k][1],),
                                         q.source[pairs[k][1]], prev[pairs[k][0]].target)
                          for k in survivors])
        parents.append([pairs[k] for k in survivors])
        if m >= cutoff:
            break
        m += 1
    block_of = [[(p.target, p.source) for p in ms] for ms in monomials]
    names = [[p.name(q) for p in ms] for ms in monomials]
    return block_of, parents, rmuls, names


REFERENCE_BUILDS = ([(name, None, field) for name in adedata.listed_types()
                     for field in (QQ, GF(2), GF(3))]
                    + [(f"A~{n}", 8, field) for n in (2, 3, 4) for field in (QQ, GF(2), GF(3))])


@pytest.mark.parametrize("name,cutoff,field", REFERENCE_BUILDS,
                         ids=[f"{n}-{f!r}" for n, _c, f in REFERENCE_BUILDS])
def test_build_matches_the_path_object_reference(name, cutoff, field):
    """The monomial tree gives the blocks, parents, right-product table (in
    its pair order) and monomial names of the build that kept a path object
    per monomial."""
    alg = Preset(name, field, cutoff=cutoff).algebra
    block_of, parents, rmul, names = _reference_build(alg.presentation, alg.cutoff)
    assert alg.block_of == block_of
    assert alg.parents == parents
    assert alg._rmul == rmul and [list(t) for t in alg._rmul] == [list(t) for t in rmul]
    assert [[alg.quiver.path_name(alg.monomial_arrows(m, pos), j)
             for pos, (j, _i) in enumerate(keys)]
            for m, keys in enumerate(alg.block_of)] == names


def test_d4_total_dimension():
    # frozen value from the brute-force path reduction above
    alg = build_graded_algebra(
        preprojective_presentation(PreprojectiveSpec(preset_graph("D4")), QQ), 12)
    assert alg.total_dim == 28


@pytest.mark.parametrize("name", ["A3", "A4", "A5", "A6", "D4", "D5", "E6"])
def test_coxeter_dimension_formula(name):
    pr = Preset(name, QQ)
    h = hand_coxeter(name)
    n = len(pr.graph.vertices)
    assert pr.algebra.total_dim == n * h * (h + 1) // 6


def test_dynkin_constants_match_the_hand_tables():
    """h and nu read off the adjacency matrix equal the hand-written Coxeter
    numbers and Nakayama permutations on every tabulated type."""
    wrong = [name for name in HAND_TYPES
             if dynkin_constants(preset_graph(name)) != (hand_coxeter(name),
                                                         hand_nakayama(name))]
    assert wrong == []


@pytest.mark.parametrize("graph", [
    *(preset_graph(name) for name in ["A~2", "A~3", "A~4", "A~5", "D~4"]),
    Graph(["0"], [("0", "0")]),
    Graph(["0", "1"], [("0", "1"), ("0", "1")]),
    Graph(["0", "1", "2"], [("0", "1"), ("1", "2"), ("1", "1")]),
], ids=["A~2", "A~3", "A~4", "A~5", "D~4", "loop", "double-edge", "A3-with-loop"])
def test_dynkin_constants_refuse_non_dynkin_graphs(graph):
    assert dynkin_constants(graph) is None


def test_dynkin_constants_need_a_connected_graph():
    with pytest.raises(QuiverError, match="connected"):
        dynkin_constants(Graph(["0", "1", "2"], [("0", "1")]))


def test_graph_algebra_of_a_non_dynkin_graph_takes_the_default_cutoff():
    alg = GraphAlgebra(preset_graph("A~2"), QQ, None, "A~2")
    assert alg.dynkin is None and alg.algebra.truncated
    assert alg.algebra.cutoff == 2 * 3 + 4


def test_normal_form_is_projection():
    _, pres = a3_setup()
    alg = build_graded_algebra(pres, 10)
    rng = random.Random(2)
    for _ in range(30):
        m = rng.randint(0, alg.max_weight)
        elem = {}
        for pos in range(len(alg.block_of[m])):
            c = Fraction(rng.randint(-2, 2))
            if c:
                elem[(m, pos)] = c
        # reduce each monomial path again, one arrow product at a time
        again = {}
        for (mm, pos), c in elem.items():
            nf = alg.vertex_elem(alg.block_of[mm][pos][0])
            for a in alg.monomial_arrows(mm, pos):
                nf = alg.multiply(nf, alg.arrow_elem(a))
            QQ.add_into(again, nf, c)
        assert elem == again


def _times_arrow(alg, x, a):
    """x a read off the build's table of right products by an arrow: zero
    past the top of a finite algebra, refused past the cutoff of a
    truncated one."""
    out = {}
    for (m, pos), c in x.items():
        if m + 1 > alg.max_weight:
            if alg.finite:
                continue
            raise WeightOverflowError(f"weight {m + 1} exceeds the cutoff")
        for npos, w in alg.rmul_table(m).get((pos, a), {}).items():
            out[(m + 1, npos)] = out.get((m + 1, npos), 0) + c * w
    return alg.field.settle(out)


def _reference_multiply(alg, x, y):
    """The arrow-by-arrow product: x times each monomial of y, one
    ``_times_arrow`` step per arrow of the monomial."""
    out = {}
    for (m, pos), c in y.items():
        if m == 0:
            part = {t: v for t, v in x.items() if alg.block_of[t[0]][t[1]][1] == pos}
            alg.field.add_into(out, part, c)
            continue
        cur = x
        for a in alg.monomial_arrows(m, pos):
            cur = _times_arrow(alg, cur, a)
            if not cur:
                break
        if cur:
            alg.field.add_into(out, cur, c)
    return out


def _monomials(alg):
    return [(m, pos) for m in range(alg.max_weight + 1)
            for pos in range(len(alg.block_of[m]))]


@pytest.mark.parametrize("name,cutoff", [("A3", None), ("D4", None), ("E6", None),
                                         ("A~2", 6)])
@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
def test_multiply_matches_arrow_by_arrow_reference(name, cutoff, field):
    if cutoff is None:
        alg = Preset(name, field).algebra
    else:
        pres = preprojective_presentation(PreprojectiveSpec(preset_graph(name)), field)
        alg = build_graded_algebra(pres, cutoff)
    one = field.one
    overflows = 0
    for x in _monomials(alg):
        for y in _monomials(alg):
            if alg.block_of[x[0]][x[1]][1] != alg.block_of[y[0]][y[1]][0]:
                continue
            try:
                want = _reference_multiply(alg, {x: one}, {y: one})
            except WeightOverflowError:
                overflows += 1
                with pytest.raises(WeightOverflowError):
                    alg.multiply({x: one}, {y: one})
                continue
            assert alg.multiply({x: one}, {y: one}) == want, (x, y)
    # left products by an arrow, composable or not
    for a in range(alg.quiver.n_arrows):
        for t in _monomials(alg):
            try:
                want = _reference_multiply(alg, alg.arrow_elem(a), {t: one})
            except WeightOverflowError:
                overflows += 1
                with pytest.raises(WeightOverflowError):
                    alg.multiply(alg.arrow_elem(a), {t: one})
                continue
            assert alg.multiply(alg.arrow_elem(a), {t: one}) == want, (a, t)
    # only the truncated algebra has products beyond its computed weights
    assert (overflows > 0) == alg.truncated


def test_multiply_associative_and_bilinear():
    pr = Preset("D4", GF(3))
    alg = pr.algebra
    rng = random.Random(9)
    terms = _monomials(alg)
    one = alg.field.one
    prods = {(x, y): alg.multiply({x: one}, {y: one}) for x in terms for y in terms}
    for (x, y), xy in prods.items():
        for z in terms:
            assert alg.multiply(xy, {z: one}) == alg.multiply({x: one}, prods[(y, z)]), \
                (x, y, z)

    def rand_elem():
        out = {}
        for _ in range(3):
            t = terms[rng.randrange(len(terms))]
            c = rng.randrange(3)
            if c:
                out[t] = alg.field.add(out.get(t, 0), c)
        return {t: c for t, c in out.items() if c}

    for _ in range(40):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert alg.multiply(alg.multiply(x, y), z) == alg.multiply(x, alg.multiply(y, z))
        x_plus_y = dict(x)
        alg.field.add_into(x_plus_y, y, one)
        xz_plus_yz = alg.multiply(x, z)
        alg.field.add_into(xz_plus_yz, alg.multiply(y, z), one)
        assert alg.multiply(x_plus_y, z) == xz_plus_yz


def _socle_basis(alg):
    """Graded basis of the two-sided annihilator of the arrow ideal of a
    finite algebra: per weight, the kernel of x -> (x a, a x) over all arrows."""
    q, field = alg.quiver, alg.field
    out = []
    for m in range(alg.max_weight + 1):
        dim_m = len(alg.block_of[m])
        next_dim = len(alg.block_of[m + 1]) if m + 1 <= alg.max_weight else 0
        cols = []
        for pos in range(dim_m):
            x = {(m, pos): field.one}
            col = {}
            for a in range(q.n_arrows):
                for (_m1, npos), v in alg.multiply(x, alg.arrow_elem(a)).items():
                    col[(2 * a) * next_dim + npos] = v
                for (_m1, npos), v in alg.multiply(alg.arrow_elem(a), x).items():
                    col[(2 * a + 1) * next_dim + npos] = v
            cols.append(col)
        ker = kernel(cols, 2 * q.n_arrows * max(next_dim, 1), field)
        out.extend({(m, i): c for i, c in row.items()} for row in ker.rows)
    return out


def test_center_and_socle_a3():
    _, pres = a3_setup()
    alg = build_graded_algebra(pres, 10)
    center = alg.center_basis()
    assert len(center) == 2
    assert [{m for (m, _pos) in z} for z in center] == [{0}, {2}]
    socle = _socle_basis(alg)
    assert len(socle) == 3
    assert all({m for (m, _pos) in s} == {2} for s in socle)


@pytest.mark.parametrize("name,top", [("E6", 10), ("E7", 16)])
def test_socle_is_top_component(name, top):
    pr = Preset(name, QQ)
    socle = _socle_basis(pr.algebra)
    assert all({m for (m, _pos) in s} == {top} for s in socle)
    assert len(socle) == len(pr.graph.vertices)
    # one basis element of maximal length in every column
    gens = socle_generators(pr)
    assert sorted(gens) == list(range(len(pr.graph.vertices)))


def test_center_requires_finite():
    pres = preprojective_presentation(
        PreprojectiveSpec(preset_graph("A~2")), QQ)
    alg = build_graded_algebra(pres, 6)
    assert not alg.finite
    with pytest.raises(InfiniteDimensionalError):
        alg.center_basis()


def test_weight_overflow_on_truncated_algebra():
    pres = preprojective_presentation(
        PreprojectiveSpec(preset_graph("A~2")), QQ)
    alg = build_graded_algebra(pres, 4)
    top = {(4, 0): alg.field.one}
    arrow = alg.arrow_elem(alg.quiver.arrows_by_target[alg.block_of[4][0][1]][0])
    with pytest.raises(WeightOverflowError):
        alg.multiply(top, arrow)


def test_loops_and_multiple_edges_accepted():
    g = Graph(["0", "1"], [("0", "1"), ("0", "1"), ("0", "0")])
    pres = preprojective_presentation(PreprojectiveSpec(g), QQ)
    alg = build_graded_algebra(pres, 4)
    assert alg.dims()[0] == 2 and alg.dims()[1] == 6


@pytest.mark.parametrize("name,cutoff,field", [("A3", None, QQ), ("D4", None, GF(3)),
                                               ("E6", None, GF(2)), ("A~2", 6, QQ)],
                         ids=["A3-Q", "D4-F3", "E6-F2", "A~2@6-Q"])
def test_multiply_into_adds_to_an_accumulator(name, cutoff, field):
    """multiply_into adds c x y into an accumulator that already holds sums,
    unsettled: settled, it is the accumulator plus c times ``multiply``.  A
    pair that is not composable, or that lies past the top weight of a
    finite algebra, adds nothing, not even a key; past the cutoff of a
    truncated algebra it raises as ``multiply`` does."""
    if cutoff is None:
        alg = Preset(name, field).algebra
    else:
        pres = preprojective_presentation(PreprojectiveSpec(preset_graph(name)), field)
        alg = build_graded_algebra(pres, cutoff)
    rng = random.Random(5)
    terms = _monomials(alg)
    # on the truncated algebra, every other draw keeps to the weights whose
    # products are all defined
    low = [t for t in terms if 2 * t[0] <= alg.max_weight]

    def rand_elem():
        out = {}
        pool = low if alg.truncated and rng.random() < 0.5 else terms
        for _ in range(4):
            t = pool[rng.randrange(len(pool))]
            c = field.from_int(rng.randint(1, 5))
            if c:
                out[t] = c
        return out

    checked = overflows = 0
    for _ in range(150):
        x, y, acc = rand_elem(), rand_elem(), rand_elem()
        c = field.from_int(rng.choice([1, -1, 2, -3]))
        try:
            want = alg.multiply(x, y)
        except WeightOverflowError:
            overflows += 1
            with pytest.raises(WeightOverflowError):
                alg.multiply_into(dict(acc), x, y, c)
            continue
        expected = dict(acc)
        field.add_into(expected, want, c)
        out = dict(acc)
        assert alg.multiply_into(out, x, y, c) is out
        assert field.settle(out) == expected
        checked += 1
    assert checked > 30 and (overflows > 0) == alg.truncated
    one = field.one
    for x in terms:
        for y in terms:
            tx, sx = alg.block_of[x[0]][x[1]]
            ty, sy = alg.block_of[y[0]][y[1]]
            past = alg.finite and x[0] + y[0] > alg.top_weight
            if sx != ty or past:
                acc = {x: one}
                assert alg.multiply_into(acc, {x: one}, {y: one}, one) == {x: one}, (x, y)
