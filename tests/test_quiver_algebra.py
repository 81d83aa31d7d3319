import json
import random
from fractions import Fraction

import pytest

from koszulkit.algebra import (InfiniteDimensionalError, WeightOverflowError,
                               build_graded_algebra)
from koszulkit.fields import GF, QQ
from koszulkit.presets import Preset, coxeter_number, preset_graph, socle_generators
from koszulkit.quiver import (Graph, PreprojectiveSpec, Quiver, QuiverError,
                              count_paths_of_weight, graph_from_json,
                              paths_of_weight, presentation_from_json,
                              preprojective_presentation)


def a3_setup(field=QQ):
    g = Graph(["0", "1", "2"], [("0", "1"), ("1", "2")])
    spec = PreprojectiveSpec(g)
    return spec, preprojective_presentation(spec, field)


def test_paths_of_weight_counts():
    spec, _ = a3_setup()
    q = spec.quiver
    assert len(paths_of_weight(q, 0)) == 3           # the vertices
    assert len(paths_of_weight(q, 1)) == 4           # the four arrows
    # a two-cycle supports exactly two paths in every positive length
    g2 = Graph(["0", "1"], [("0", "1")])
    q2 = PreprojectiveSpec(g2).quiver
    for p in range(1, 9):
        assert len(paths_of_weight(q2, p)) == 2
        assert count_paths_of_weight(q2, p) == 2


def test_paths_are_ordered_right_factor_most_significant():
    spec, _ = a3_setup()
    q = spec.quiver
    keys = [tuple(reversed(p.arrows)) for p in paths_of_weight(q, 2)]
    assert keys == sorted(keys)


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
    assert pres.n_relations == 2 == len(paths_of_weight(pres.quiver, 2))


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
    assert alg.elem_equal(prod, back)
    assert alg.elem_equal(alg.multiply(alg.vertex_elem(1), alg.arrow_elem(ai["a0"])),
                          alg.arrow_elem(ai["a0"]))


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
    prev_paths = {p.arrows: k for k, p in enumerate(paths_of_weight(q, 1))}
    for m in range(2, max_weight + 1):
        paths = paths_of_weight(q, m)
        index = {p.arrows: k for k, p in enumerate(paths)}
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
        prev_ideal_rows = [{paths[k].arrows: c for k, c in r.items()}
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


def test_d4_total_dimension():
    # frozen value from the brute-force path reduction above
    alg = build_graded_algebra(
        preprojective_presentation(PreprojectiveSpec(preset_graph("D4")), QQ), 12)
    assert alg.total_dim == 28


@pytest.mark.parametrize("name", ["A3", "A4", "A5", "A6", "D4", "D5", "E6"])
def test_coxeter_dimension_formula(name):
    pr = Preset(name, QQ)
    h = coxeter_number(name)
    n = len(pr.graph.vertices)
    assert pr.algebra.total_dim == n * h * (h + 1) // 6


def test_normal_form_is_projection():
    _, pres = a3_setup()
    alg = build_graded_algebra(pres, 10)
    rng = random.Random(2)
    for _ in range(30):
        m = rng.randint(0, alg.max_weight)
        elem = {}
        for pos in range(len(alg.monomials[m])):
            c = Fraction(rng.randint(-2, 2))
            if c:
                elem[(m, pos)] = c
        # reduce each monomial path again through the normal-form map
        again = {}
        for (mm, pos), c in elem.items():
            nf = alg.path_normal_form(alg.monomials[mm][pos])
            again = alg.elem_add(again, nf, c)
        assert alg.elem_equal(elem, again)


def _reference_multiply(alg, x, y):
    """The arrow-by-arrow product: x times each monomial of y, one
    ``rmul_arrow`` step per arrow of the monomial."""
    out = {}
    for (m, pos), c in y.items():
        if m == 0:
            part = {t: v for t, v in x.items() if alg.block_of[t[0]][t[1]][1] == pos}
            out = alg.elem_add(out, part, c)
            continue
        cur = x
        for a in alg.monomials[m][pos].arrows:
            cur = alg.rmul_arrow(cur, a)
            if not cur:
                break
        if cur:
            out = alg.elem_add(out, cur, c)
    return out


def _monomials(alg):
    return [(m, pos) for m in range(alg.max_weight + 1)
            for pos in range(len(alg.monomials[m]))]


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
                    alg.lmul_arrow(a, {t: one})
                continue
            assert alg.lmul_arrow(a, {t: one}) == want, (a, t)
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
            assert alg.elem_equal(alg.multiply(xy, {z: one}),
                                  alg.multiply({x: one}, prods[(y, z)])), (x, y, z)

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
        assert alg.elem_equal(alg.multiply(alg.multiply(x, y), z),
                              alg.multiply(x, alg.multiply(y, z)))
        lhs = alg.multiply(alg.elem_add(x, y), z)
        rhs = alg.elem_add(alg.multiply(x, z), alg.multiply(y, z))
        assert alg.elem_equal(lhs, rhs)


def test_center_and_socle_a3():
    _, pres = a3_setup()
    alg = build_graded_algebra(pres, 10)
    center = alg.center_basis()
    assert len(center) == 2
    weights = sorted(alg.elem_weights(z)[0] for z in center)
    assert weights == [0, 2]
    socle = alg.socle_basis()
    assert len(socle) == 3
    assert all(alg.elem_weights(s) == [2] for s in socle)


@pytest.mark.parametrize("name,top", [("E6", 10), ("E7", 16)])
def test_socle_is_top_component(name, top):
    pr = Preset(name, QQ)
    socle = pr.algebra.socle_basis()
    assert all(pr.algebra.elem_weights(s) == [top] for s in socle)
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
    with pytest.raises(WeightOverflowError):
        alg.rmul_arrow(top, 0)


def test_loops_and_multiple_edges_accepted():
    g = Graph(["0", "1"], [("0", "1"), ("0", "1"), ("0", "0")])
    pres = preprojective_presentation(PreprojectiveSpec(g), QQ)
    alg = build_graded_algebra(pres, 4)
    assert alg.dims()[0] == 2 and alg.dims()[1] == 6
