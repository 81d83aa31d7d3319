import random
from collections import Counter
from fractions import Fraction

import pytest

from koszulkit import adedata
from koszulkit.algebra import build_graded_algebra
from koszulkit.fields import GF, QQ
from koszulkit.homology import BimoduleHomology, higher_calculus, koszul_homology
from koszulkit.koszul import (Chain, Cochain, DegreeError, KoszulCalculus, MODULE_A,
                              MODULE_K, ModuleError, NotClosedError)
from koszulkit.presets import Preset, preset_graph
from koszulkit.quiver import (Graph, PreprojectiveSpec, paths_of_weight,
                              preprojective_presentation, presentation_from_json)


@pytest.fixture(scope="module")
def a3():
    pr = Preset("A3", QQ)
    kd = KoszulCalculus(pr.algebra, 3)
    return pr, kd


@pytest.fixture(scope="module")
def a3_spaces(a3):
    pr, kd = a3
    coh = koszul_homology(kd, MODULE_A, "coh")
    hom = koszul_homology(kd, MODULE_A, "hom")
    return coh, hom


def test_w_dims_a3(a3):
    _pr, kd = a3
    assert kd.w_dims() == [3, 4, 3, 0, 0]


def test_w3_vanishes_by_direct_intersection(a3):
    """The defining intersection inside the weight-3 path space is zero."""
    pr, _kd = a3
    q = pr.quiver
    field = pr.field
    paths3 = [path for paths in paths_of_weight(q, 3).values() for path in paths]
    index = {path: k for k, path in enumerate(paths3)}
    left_rows = []
    right_rows = []
    for rel in pr.presentation.relations:
        for a in range(q.n_arrows):
            vr = {}
            vl = {}
            for c, (u, v) in rel:
                if q.source[a] == q.target[u]:       # a (x) relation
                    vl[index[(a, u, v)]] = c
                if q.target[a] == q.source[v]:       # relation (x) a
                    vr[index[(u, v, a)]] = c
            if vl:
                left_rows.append(vl)
            if vr:
                right_rows.append(vr)
    from koszulkit.linalg import intersect
    assert intersect(right_rows, left_rows, len(paths3), field).dim == 0


def test_a2_w_spaces_have_dimension_two():
    pr = Preset("A2", QQ)
    kd = KoszulCalculus(pr.algebra, 8)
    for p in range(2, 9):
        assert kd.w(p).dim == 2


_W_CASES = [(name, None, 3) for name in adedata.listed_types()] + [
    ("A2", None, 6), ("k[x,y,z]", 6, 3), ("A~3", 8, 3), ("D~4", 8, 3)]
_W_FIELDS = [QQ, GF(2), GF(3)]


def _w_case_algebra(name, cutoff, field):
    if name == "k[x,y,z]":
        return build_graded_algebra(presentation_from_json(POLYNOMIAL_XYZ, field), cutoff)
    return Preset(name, field, cutoff=cutoff).algebra


def _w_blocks(kd):
    return [(ws.p, ws.flat, ws.relation_coords,
             [(key, sub.ambient, sub.pivots, [list(r.items()) for r in sub.rows])
              for key, sub in ws.block_space.items()]) for ws in kd.wspaces]


@pytest.mark.parametrize("field", _W_FIELDS, ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("name,cutoff,p_max", _W_CASES,
                         ids=[n if c is None else f"{n}@{c}" for n, c, _p in _W_CASES])
def test_w_blocks_match_the_two_step_intersection(name, cutoff, p_max, field,
                                                  monkeypatch):
    """Every block of every W space, its rows (entries and key order), its
    pivots and the relation coordinates of W_2, is the same when the
    intersections are taken the two-step way, each span echelonized first.
    W_3 is zero on the Dynkin and extended Dynkin types, nonzero on A2 and
    k[x, y, z]."""
    from koszulkit import koszul
    from test_linalg import reference_intersect
    alg = _w_case_algebra(name, cutoff, field)
    got = _w_blocks(KoszulCalculus(alg, p_max))
    calls = []
    monkeypatch.setattr(koszul, "intersect",
                        lambda *args: calls.append(1) or reference_intersect(*args))
    assert got == _w_blocks(KoszulCalculus(alg, p_max))
    assert calls
    assert bool(got[3][3]) == (name in ("A2", "k[x,y,z]"))


@pytest.mark.parametrize("name,cutoff,p_max", [("E6", None, 3), ("A2", None, 6),
                                               ("k[x,y,z]", 6, 3)],
                         ids=["E6", "A2", "k[x,y,z]"])
def test_each_intersected_w_block_makes_one_elimination(name, cutoff, p_max, monkeypatch):
    """A block of W_p, p >= 3, is one intersect of its two spanning lists,
    and each intersect runs exactly one rref."""
    from koszulkit import koszul, linalg
    alg = _w_case_algebra(name, cutoff, QQ)
    calls, per_block = [], []
    real_rref, real_intersect = linalg.rref, koszul.intersect
    monkeypatch.setattr(linalg, "rref", lambda *args: calls.append(1) or real_rref(*args))

    def counted(*args):
        before = len(calls)
        sub = real_intersect(*args)
        per_block.append(len(calls) - before)
        return sub
    monkeypatch.setattr(koszul, "intersect", counted)
    kd = KoszulCalculus(alg, p_max)
    assert per_block and per_block == [1] * len(per_block)
    assert sum(len(kd.w(p).block_space) for p in range(3, p_max + 2)) <= len(per_block)


def test_w_past_the_computed_degrees():
    """Past the computed degrees W_p is the zero space only when the last
    computed W is zero, since W_p lies in W_{p-1} (x) V.  Every W_p of A2 has
    dimension 2, so the enveloping route over A2 with p_max 1 refuses to read
    W_3 instead of calling A2 Calabi-Yau of dimension 2; with p_max 3 it
    reads dim W_3 = 2 and H_2 = 0."""
    from koszulkit.duality import ae_coefficient_route
    assert KoszulCalculus(Preset("A3", QQ).algebra, 3).w(6).dim == 0
    alg = Preset("A2", QQ).algebra
    with pytest.raises(DegreeError, match="W_3 is not computed"):
        ae_coefficient_route(KoszulCalculus(alg, 1), 3)
    route = ae_coefficient_route(KoszulCalculus(alg, 3), 3)
    assert not route["w3_zero"] and not route["kc_calabi_yau_2"]
    assert route["h_dims"][2] == 0


def test_e6_w2_dimension():
    pr = Preset("E6", QQ)
    kd = KoszulCalculus(pr.algebra, 3)
    assert kd.w(2).dim == 6


def test_cochain_differential_matches_worked_example(a3):
    """Degree-0 and degree-1 differentials of the three-vertex chain."""
    pr, kd = a3
    alg = pr.algebra
    ai = pr.quiver.arrow_index
    field = pr.field
    # b(sum u_i e_i) sends a_i to (u_{i+1} - u_i) a_i
    u = [Fraction(5), Fraction(2), Fraction(7)]
    f = kd.cochain_on_vertices({i: alg.field.scale(alg.vertex_elem(i), u[i])
                                for i in range(3)})
    bf = kd.apply_bK(f)
    for i in (0, 1):
        a = ai[f"a{i}"]
        expected = alg.field.scale(alg.arrow_elem(a), u[i + 1] - u[i])
        got = bf.values.get(kd.arrow_flat[a], {})
        assert got == expected
        astar = ai[f"a{i}*"]
        expected = alg.field.scale(alg.arrow_elem(astar), u[i] - u[i + 1])
        got = bf.values.get(kd.arrow_flat[astar], {})
        assert got == expected
    # b of a weight-1 arrow-diagonal cochain is supported on the middle
    # relation with the balanced coefficient sum
    lam = {"a0": 3, "a1": 5, "a0*": 7, "a1*": 11}
    g = kd.cochain_on_arrows({ai[k]: alg.field.scale(alg.arrow_elem(ai[k]),
                                                    Fraction(v))
                              for k, v in lam.items()})
    bg = kd.apply_bK(g)
    ws2 = kd.w(2)
    coeff = Fraction(lam["a0"] + lam["a0*"] - lam["a1"] - lam["a1*"])
    z1 = alg.multiply(alg.arrow_elem(ai["a1*"]), alg.arrow_elem(ai["a1"]))
    for flat in range(ws2.dim):
        val = bg.values.get(flat, {})
        j, i, k = ws2.flat[flat]
        if (j, i) == (1, 1):
            # the basis vector is scale * sigma_1, so the value picks up scale
            rel_coord = ws2.relation_coords[flat]
            scale = rel_coord[list(rel_coord)[0]]
            assert val == alg.field.scale(z1, field.mul(coeff, scale))
        else:
            assert not val


def test_differentials_square_to_zero():
    for name, field in [("A3", QQ), ("D4", GF(2)), ("A4", GF(3))]:
        pr = Preset(name, field)
        kd = KoszulCalculus(pr.algebra, 3)
        rng = random.Random(4)
        alg = pr.algebra
        for p in (0, 1):
            ws = kd.w(p)
            values = {}
            for flat in range(ws.dim):
                j, i = ws.block_of(flat)
                val = {}
                for m in range(alg.max_weight + 1):
                    for pos in alg.block_positions(m, j, i):
                        c = field.from_int(rng.randint(-2, 2))
                        if not field.is_zero(c):
                            val[(m, pos)] = c
                if val:
                    values[flat] = val
            f = Cochain(kd, p, MODULE_A, values)
            assert kd.apply_bK(kd.apply_bK(f)).is_zero()


def test_chain_cycles_from_worked_example(a3):
    pr, kd = a3
    alg = pr.algebra
    ai = pr.quiver.arrow_index
    from koszulkit.duality import omega0
    w0 = omega0(kd)
    assert kd.apply_bK_chain(w0).is_zero()
    # a0 (x) a0* + a1 (x) a1* is a 1-cycle
    ws1 = kd.w(1)
    values = {}
    for nm, coeffname in [("a0*", "a0"), ("a1*", "a1")]:
        flat = kd.arrow_flat[ai[nm]]
        values[flat] = alg.arrow_elem(ai[coeffname])
    from koszulkit.koszul import Chain
    z = Chain(kd, 1, MODULE_A, values)
    assert kd.apply_bK_chain(z).is_zero()
    # degree-1 chain differential is the commutator pairing
    m = alg.arrow_elem(ai["a0"])
    z2 = Chain(kd, 1, MODULE_A, {kd.arrow_flat[ai["a0*"]]: m})
    bz = kd.apply_bK_chain(z2)
    w0s = kd.w(0)
    got0 = bz.values.get(w0s.flat_of_block[(0, 0)][0], {})
    got1 = bz.values.get(w0s.flat_of_block[(1, 1)][0], {})
    prod_right = alg.multiply(m, alg.arrow_elem(ai["a0*"]))
    prod_left = alg.multiply(alg.arrow_elem(ai["a0*"]), m)
    assert got1 == prod_right
    assert got0 == alg.field.scale(prod_left, Fraction(-1))


def test_hk_dims_a3(a3_spaces):
    coh, hom = a3_spaces
    assert coh.dims()[:3] == [2, 1, 3]
    assert hom.dims()[:3] == [3, 1, 2]


def test_scalar_coefficients_closed_form(a3):
    _pr, kd = a3
    cohk = koszul_homology(kd, MODULE_K, "coh")
    homk = koszul_homology(kd, MODULE_K, "hom")
    diag = [sum(len(idx) for (j, i), idx in kd.w(p).flat_of_block.items() if j == i)
            for p in range(4)]
    assert cohk.dims() == diag
    assert homk.dims() == diag
    assert diag == [3, 0, 3, 0]


def test_cup_unit_and_fundamental_square(a3, a3_spaces):
    pr, kd = a3
    coh, _hom = a3_spaces
    unit_vals = {i: pr.algebra.vertex_elem(i) for i in range(3)}
    one = kd.cochain_on_vertices(unit_vals)
    eA = kd.fundamental_cocycle()
    assert kd.cup(one, eA) == eA
    assert kd.cup(eA, one) == eA
    assert kd.cup(eA, eA).is_zero()


def test_cup_module_rules(a3):
    _pr, kd = a3
    f = kd.fundamental_cocycle()
    k_cochain = Cochain(kd, 0, MODULE_K, {0: kd.field.one})
    mixed = kd.cup(f, k_cochain)
    assert mixed.module == MODULE_K
    with pytest.raises(ModuleError):
        kd.cup(k_cochain, k_cochain)


def test_class_of_refuses_another_coefficient_module(a3, a3_spaces):
    """An A-valued cycle on k-coefficient spaces, and a k-valued cocycle on
    A-coefficient spaces, have no class there."""
    from koszulkit.duality import omega0
    _pr, kd = a3
    coh, _hom = a3_spaces
    with pytest.raises(ModuleError, match="A-valued element has no class in k-coefficient"):
        koszul_homology(kd, MODULE_K, "hom").class_of(omega0(kd))
    k_cochain = Cochain(kd, 0, MODULE_K, {0: kd.field.one})
    with pytest.raises(ModuleError, match="k-valued element has no class in A-coefficient"):
        coh.class_of(k_cochain)


def test_class_extraction_examples(a3, a3_spaces):
    pr, kd = a3
    coh, _hom = a3_spaces
    alg = pr.algebra
    ai = pr.quiver.arrow_index
    # any coboundary has zero class
    g = kd.cochain_on_vertices({0: alg.vertex_elem(0)})
    assert all(c == 0 for c in coh.class_of(kd.apply_bK(g)))
    # the central-multiple cochain cup the vertex-one relation cochain is a
    # coboundary: its class vanishes
    z1 = alg.multiply(alg.arrow_elem(ai["a1*"]), alg.arrow_elem(ai["a1"]))
    z1c = kd.cochain_on_vertices({1: z1})
    h1 = kd.cochain_on_relations({pr.presentation.relation_of_vertex[1]: alg.vertex_elem(1)})
    prod = kd.cup(z1c, h1)
    assert not prod.is_zero()
    assert all(c == 0 for c in coh.class_of(prod))
    # the fundamental class doubles the arrow-family class
    eA = kd.fundamental_cocycle()
    zeta0 = kd.cochain_on_arrows({ai["a0"]: alg.arrow_elem(ai["a0"]),
                                  ai["a1"]: alg.arrow_elem(ai["a1"])})
    assert coh.class_of(eA) == [2 * c for c in coh.class_of(zeta0)]
    with pytest.raises(NotClosedError):
        coh.class_of(kd.cochain_on_vertices({0: alg.arrow_elem(0)}))


def test_diagonal_cochain_splits_by_vertex(a3):
    pr, kd = a3
    alg = pr.algebra
    ai = pr.quiver.arrow_index
    loop = alg.multiply(alg.arrow_elem(ai["a1*"]), alg.arrow_elem(ai["a1"]))
    z = alg.unit_elem()
    QQ.add_into(z, loop, QQ.from_int(3))
    (m, pos), = loop
    vertex = alg.block_of[m][pos][0]
    by_vertex = {i: alg.vertex_elem(i) for i in range(pr.quiver.n_vertices)}
    QQ.add_into(by_vertex[vertex], loop, QQ.from_int(3))
    assert kd.diagonal_cochain(z) == kd.cochain_on_vertices(by_vertex)
    with pytest.raises(ValueError, match="outside the diagonal blocks"):
        kd.diagonal_cochain(alg.arrow_elem(0))


@pytest.mark.parametrize("name,field", [("D4", QQ), ("E6", GF(3))], ids=["D4-Q", "E6-F3"])
def test_class_of_by_weight_block(name, field):
    """class_of solves only the weight blocks an element touches: it stays
    additive across blocks and still refuses an element that is not closed."""
    pr = Preset(name, field)
    alg, q = pr.algebra, pr.quiver
    kd = KoszulCalculus(alg, 3)
    coh = koszul_homology(kd, MODULE_A, "coh")
    hom = koszul_homology(kd, MODULE_A, "hom")
    two = field.from_int(2)
    pairs = 0
    for spaces in (coh, hom):
        for p in range(3):
            # one representative per coefficient weight
            reps = [blk.reps[0] for _start, blk in spaces.layout(p)[1].values() if blk.reps]
            for f, g in zip(reps, reps[1:]):
                assert f.coefficient_weights() != g.coefficient_weights()
                want = [field.add(field.mul(two, a), b)
                        for a, b in zip(spaces.class_of(f), spaces.class_of(g))]
                assert spaces.class_of(f.scale(two).add(g)) == want
                pairs += 1
    assert pairs > 0
    # not closed, and supported in weight 0 only
    g = kd.cochain_on_vertices({0: alg.vertex_elem(0)})
    assert g.coefficient_weights() == [0] and not g.is_cocycle()
    with pytest.raises(NotClosedError):
        coh.class_of(g)
    # b* (x) b for an arrow b: a chain supported in weight 1 only
    chains = [Chain(kd, 1, MODULE_A, {kd.arrow_flat[b]: alg.arrow_elem(c)})
              for b in range(q.n_arrows) for c in range(q.n_arrows)
              if (q.source[c], q.target[c]) == (q.target[b], q.source[b])]
    z = next(z for z in chains if not z.is_cycle())
    assert z.coefficient_weights() == [1]
    with pytest.raises(NotClosedError):
        hom.class_of(z)


_NOT_CLOSED = {"coh": "not a cocycle: differential is nonzero",
               "hom": "not a cycle: differential is nonzero"}


def _count_differentials(monkeypatch):
    """Count the calls of apply_bK and apply_bK_chain, which still run."""
    calls = Counter()
    for name in ("apply_bK", "apply_bK_chain"):
        real = getattr(KoszulCalculus, name)

        def counted(self, obj, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, obj)
        monkeypatch.setattr(KoszulCalculus, name, counted)
    return calls


@pytest.mark.parametrize("name,field", [("D4", QQ), ("E6", GF(3))], ids=["D4-Q", "E6-F3"])
def test_class_of_reads_closedness_from_the_block_kernels(name, field, monkeypatch):
    """On weights of the layout, class_of tests closedness by the block
    cocycle (cycle) spaces alone: a closed mixed-weight element applies no
    differential, and one that fails to close in exactly one weight is
    refused with the side's message."""
    pr = Preset(name, field)
    kd = KoszulCalculus(pr.algebra, 3)
    calls = _count_differentials(monkeypatch)
    refused = mixed = 0
    for side in ("coh", "hom"):
        spaces = koszul_homology(kd, MODULE_A, side)
        for p in range(3):
            reps = {m: blk.reps[0] for m, (_start, blk) in spaces.layout(p)[1].items()
                    if blk.reps}
            if len(reps) > 1:
                closed = None
                for rep in reps.values():
                    closed = rep if closed is None else closed.add(rep)
                want = spaces.zero_class(p)
                for rep in reps.values():
                    want = [field.add(a, b) for a, b in zip(want, spaces.class_of(rep))]
                before = sum(calls.values())
                assert spaces.class_of(closed) == want
                assert sum(calls.values()) == before
                mixed += 1
            # a unit coordinate outside Z in one block, plus a representative
            # of another weight: not closed in exactly that one weight
            for (pp, m), blk in spaces.blocks.items():
                if pp != p:
                    continue
                unit = next(({k: field.one} for k in range(blk.space.dim)
                             if not blk.quotient.z.contains({k: field.one})), None)
                other = next((rep for w, rep in reps.items() if w != m), None)
                if unit is None or other is None:
                    continue
                bad = blk.space.unflatten(unit).add(other)
                assert len(bad.coefficient_weights()) == 2
                with pytest.raises(NotClosedError, match=_NOT_CLOSED[side]):
                    spaces.class_of(bad)
                refused += 1
    assert mixed > 0 and refused > 0
    assert not calls


def test_class_of_refuses_components_outside_the_layout(monkeypatch):
    """A nonzero component outside the class layout is refused, naming its
    weight, and no differential is applied: the top weight of a truncated
    algebra (A~2 at cutoff 8, on a 0-cochain and on a 0-chain) and an A3
    0-cochain valued in an arrow, at weight 1, outside the layout.  An A3
    0-cochain valued in a path of e_2 A e_0 has its weight in the layout but
    lies outside its vertex block, and is refused as well.  A zero k-valued
    1-cochain on A3 has no component: its class is empty."""
    pr = Preset("A~2", QQ, cutoff=8)
    alg = pr.algebra
    kd = KoszulCalculus(alg, 3)
    coh = koszul_homology(kd, MODULE_A, "coh")
    hom = koszul_homology(kd, MODULE_A, "hom")
    top = alg.max_weight
    assert alg.truncated and top == 8 and top not in coh.weights()
    pos = next(k for k, (j, i) in enumerate(alg.block_of[top]) if j == i)
    v = alg.block_of[top][pos][0]
    unit = kd.cochain_on_vertices({i: alg.vertex_elem(i) for i in range(3)})
    f = kd.cochain_on_vertices({v: {(top, pos): QQ.one}}).add(unit)
    rep = hom.representatives(0)[0]
    z = rep.add(Chain(kd, 0, MODULE_A, {kd.w(0).flat_of_block[(v, v)][0]: {(top, pos): QQ.one}}))
    assert f.coefficient_weights() == z.coefficient_weights() == [0, top]
    a3 = KoszulCalculus(Preset("A3", QQ).algebra, 3)
    a3_coh = koszul_homology(a3, MODULE_A, "coh")
    arrow = a3.algebra.arrow_elem(0)
    g = a3.cochain_on_vertices({a3.quiver.source[0]: arrow})
    # weight 2 is in the layout, but e_2 A e_0 is not the block of vertex 0
    path = a3.cochain_on_vertices({0: {(2, a3.algebra.block_of[2].index((2, 0))): QQ.one}})
    calls = _count_differentials(monkeypatch)
    with pytest.raises(NotClosedError, match="weight 8 lies outside the computed weights"):
        coh.class_of(f)
    with pytest.raises(NotClosedError, match="weight 8 lies outside the computed weights"):
        hom.class_of(z)
    with pytest.raises(NotClosedError, match=r"weight 1 lies outside the computed "
                                             r"weights \[0, 2\] of degree 0"):
        a3_coh.class_of(g)
    with pytest.raises(NotClosedError, match="a value at weight 2 lies outside its vertex "
                                             "block in degree 0"):
        a3_coh.class_of(path)
    assert not calls
    k_coh = koszul_homology(a3, MODULE_K, "coh")
    assert k_coh.dim(1) == 0 and k_coh.class_of(Cochain(a3, 1, MODULE_K, {})) == []


#: bigraded dimensions {p: {weight: dim}} of HK and of the higher calculus;
#: for a truncated algebra (name@cutoff) HK in degrees 0-2 only, and the
#: higher calculus, which treats the class-level map into the top weight as
#: zero, is not pinned
_BIGRADED = {
    ("A3", "coh"): ({0: {0: 1, 2: 1}, 1: {1: 1}, 2: {0: 3}, 3: {}},
                    {0: {2: 1}, 1: {}, 2: {0: 3}, 3: {}}),
    ("A3", "hom"): ({0: {0: 3}, 1: {1: 1}, 2: {0: 1, 2: 1}, 3: {}},
                    {0: {0: 3}, 1: {}, 2: {2: 1}, 3: {}}),
    ("E6", "coh"): ({0: {0: 1, 6: 1, 8: 1, 10: 2}, 1: {1: 1, 3: 1, 7: 1, 9: 1},
                     2: {0: 6, 4: 1}, 3: {}},) * 2,
    ("E6", "hom"): ({0: {0: 6, 4: 1}, 1: {1: 1, 3: 1, 7: 1, 9: 1},
                     2: {0: 1, 6: 1, 8: 1, 10: 2}, 3: {}},) * 2,
    ("A~2@8", "coh"): ({0: {0: 1, 2: 1, 3: 2, 4: 1, 5: 2, 6: 3, 7: 2},
                        1: {1: 2, 2: 2, 3: 2, 4: 4, 5: 4, 6: 4, 7: 6},
                        2: {0: 3, 2: 1, 3: 2, 4: 1, 5: 2, 6: 3, 7: 2}}, None),
    ("A~2@8", "hom"): ({0: {0: 3, 2: 1, 3: 2, 4: 1, 5: 2, 6: 3, 7: 2},
                        1: {1: 2, 2: 2, 3: 2, 4: 4, 5: 4, 6: 4, 7: 6},
                        2: {0: 1, 2: 1, 3: 2, 4: 1, 5: 2, 6: 3, 7: 2}}, None),
    ("D~4@6", "coh"): ({0: {0: 1, 4: 2}, 1: {1: 1, 3: 3, 5: 3}, 2: {0: 5, 4: 3}}, None),
    ("D~4@6", "hom"): ({0: {0: 5, 4: 3}, 1: {1: 1, 3: 3, 5: 3}, 2: {0: 1, 4: 2}}, None),
    ("A~3@7", "coh"): ({0: {0: 1, 2: 1, 4: 3, 6: 3}, 1: {1: 2, 3: 4, 5: 6},
                        2: {0: 4, 2: 1, 4: 3, 6: 3}}, None),
    ("A~3@7", "hom"): ({0: {0: 4, 2: 1, 4: 3, 6: 3}, 1: {1: 2, 3: 4, 5: 6},
                        2: {0: 1, 2: 1, 4: 3, 6: 3}}, None),
}


@pytest.mark.parametrize("name,field,cutoff", [
    ("A3", QQ, None), ("E6", GF(2), None), ("A~2", QQ, 8), ("D~4", GF(2), 6),
    ("A~3", GF(3), 7)], ids=["A3-Q", "E6-F2", "A~2@8-Q", "D~4@6-F2", "A~3@7-F3"])
def test_empty_blocks_run_no_elimination(name, field, cutoff, monkeypatch):
    """koszul_homology keeps a block exactly where the (co)chain space is
    nonzero, degree by degree in weight order, and higher_calculus exactly
    where the HK block is nonzero; _homology runs on those blocks alone, and
    no row reduction has an empty ambient space or no rows.  The bigraded
    dimensions are pinned, below the cutoff of a truncated algebra too,
    where the differential into the top computed weight must still be built."""
    from koszulkit import backend, homology, linalg
    from koszulkit.homology import CoordSpace
    pr = Preset(name, field, cutoff=cutoff)
    kd = KoszulCalculus(pr.algebra, 3)
    shapes = []
    for module, attr in ((linalg, "rref"), (backend, "rref_mod")):
        real = getattr(module, attr)

        def recorded(rows, ncols, *rest, _real=real):
            rows = list(rows)
            shapes.append((len(rows), ncols))
            return _real(rows, ncols, *rest)
        monkeypatch.setattr(module, attr, recorded)
    homology_dims = []

    def counted(mats, images, p, m, step, dim, field, _real=homology._homology):
        homology_dims.append(dim)
        return _real(mats, images, p, m, step, dim, field)
    monkeypatch.setattr(homology, "_homology", counted)
    key = name if cutoff is None else f"{name}@{cutoff}"
    blocks = 0
    for side in ("coh", "hom"):
        spaces = koszul_homology(kd, MODULE_A, side)
        higher = higher_calculus(spaces)
        keys = [(p, m) for p in range(spaces.p_max + 1) for m in spaces.weights()
                if CoordSpace(kd, p, m, MODULE_A, side).dim]
        assert list(spaces.blocks) == keys
        assert list(higher.blocks) == [k for k in keys if spaces.blocks[k].dim]
        blocks += len(spaces.blocks) + len(higher.blocks)
        want_hk, want_higher = _BIGRADED[(key, side)]
        assert {p: spaces.bigraded_dims(p) for p in want_hk} == want_hk
        assert [spaces.dim(p) for p in want_hk] == [sum(d.values()) for d in want_hk.values()]
        if want_higher is not None:
            assert {p: higher.bigraded_dims(p) for p in want_higher} == want_higher
            assert higher.dims() == [sum(d.values()) for d in want_higher.values()]
    assert len(homology_dims) == blocks and 0 not in homology_dims
    assert shapes
    assert [s for s in shapes if not s[0] or not s[1]] == []


def test_cap_examples(a3, a3_spaces):
    pr, kd = a3
    coh, hom = a3_spaces
    alg = pr.algebra
    ai = pr.quiver.arrow_index
    from koszulkit.duality import omega0
    w0 = omega0(kd)
    # unit 0-cochain acts as the identity on chains
    one = kd.cochain_on_vertices({i: alg.vertex_elem(i) for i in range(3)})
    assert kd.cap(one, w0, "left") == w0
    assert kd.cap(one, w0, "right") == w0
    # capping the fundamental cycle with the fundamental cocycle gives the
    # signed arrow pairing
    eA = kd.fundamental_cocycle()
    got = kd.cap(eA, w0, "right")
    spec = pr.spec
    expected_values = {}
    for a in range(pr.quiver.n_arrows):
        star = spec.star[a]
        flat = kd.arrow_flat[star]
        expected_values[flat] = alg.field.scale(alg.arrow_elem(a),
                                               Fraction(spec.eps[a]))
    from koszulkit.koszul import Chain
    assert got == Chain(kd, 1, MODULE_A, expected_values)
    # degenerate equal-degree cap lands in degree zero
    h1 = kd.cochain_on_relations({pr.presentation.relation_of_vertex[1]: alg.vertex_elem(1)})
    deg0 = kd.cap(h1, w0, "left")
    assert deg0.q == 0 and not deg0.is_zero()
    with pytest.raises(DegreeError):
        kd.cap(h1, deg0, "left")


def test_higher_calculus_a3_and_a4():
    for name, field, exp_coh, exp_hom in [
        ("A3", QQ, [1, 0, 3, 0], [3, 0, 1, 0]),
        ("A4", QQ, [0, 0, 4, 0], [4, 0, 0, 0]),
        ("A3", GF(2), [2, 1, 3, 0], [3, 1, 2, 0]),
    ]:
        pr = Preset(name, field)
        kd = KoszulCalculus(pr.algebra, 3)
        coh = koszul_homology(kd, MODULE_A, "coh")
        hom = koszul_homology(kd, MODULE_A, "hom")
        assert higher_calculus(coh).dims() == exp_coh
        assert higher_calculus(hom).dims() == exp_hom


def test_higher_degree0_weight0_is_the_ground_ring():
    # the weight-0 piece of the degree-0 higher homology is the vertex ring
    for name in ["A3", "D4", "A~2"]:
        pr = Preset(name, QQ, cutoff=6 if "~" in name else None)
        kd = KoszulCalculus(pr.algebra, 3)
        hom = koszul_homology(kd, MODULE_A, "hom")
        hih = higher_calculus(hom)
        assert hih.blocks[(0, 0)].dim == pr.quiver.n_vertices


def test_fundamental_cocycle_coboundary_verdicts():
    def fundamental_class(pres):
        kd = KoszulCalculus(build_graded_algebra(pres, 6), 3)
        coh = koszul_homology(kd, MODULE_A, "coh")
        return coh.class_of(kd.fundamental_cocycle())

    chain = PreprojectiveSpec(Graph(["0", "1", "2"], [("0", "1"), ("1", "2")]))
    # the doubled quiver has two-cycles, so no rational vertex potential
    assert any(c != 0 for c in fundamental_class(preprojective_presentation(chain, QQ)))
    # over GF(2) the tree is two-colourable: e_A is a coboundary
    assert not any(fundamental_class(preprojective_presentation(chain, GF(2))))
    # one-directional simple quiver without cycles
    from koszulkit.quiver import QuadraticPresentation, Quiver
    q3 = Quiver(["0", "1", "2"], [("x", "0", "1"), ("y", "1", "2")])
    pres3 = QuadraticPresentation(
        q3, [[(QQ.one, (q3.arrow_index["y"], q3.arrow_index["x"]))]], QQ)
    assert not any(fundamental_class(pres3))


def test_fundamental_class_nonzero_for_preprojective_char0():
    # no loops and characteristic not two: the fundamental class survives
    for name in ["A3", "D4", "A~2"]:
        pr = Preset(name, QQ, cutoff=6 if "~" in name else None)
        kd = KoszulCalculus(pr.algebra, 3)
        coh = koszul_homology(kd, MODULE_A, "coh")
        cls = coh.class_of(kd.fundamental_cocycle())
        assert any(c != 0 for c in cls)


def test_bimodule_homology_a3(a3):
    _pr, kd = a3
    bh = BimoduleHomology(kd, 3)
    table = bh.homology_table()
    assert {n: d for n, d in table[0].items()} == {0: 3, 1: 4, 2: 3}
    assert table[1] == {}
    assert sum(table[2].values()) > 0
    assert not bh.koszul_up_to_cutoff()


def test_bimodule_homology_non_dynkin_koszul():
    pr = Preset("A~2", QQ, cutoff=8)
    kd = KoszulCalculus(pr.algebra, 3)
    bh = BimoduleHomology(kd, 3, weight_cutoff=8)
    table = bh.homology_table()
    assert table[1] == {} and table[2] == {} and table[3] == {}
    assert bh.koszul_up_to_cutoff()
    # degree zero reproduces the algebra's graded dimensions
    for n, d in table[0].items():
        assert d == len(pr.algebra.block_of[n])


def _flatten(space, obj):
    """The coordinates of a weight-homogeneous A-valued element in a
    CoordSpace, every value required to have one."""
    out = {}
    for flat_idx, val in obj.values.items():
        for (m, pos), c in val.items():
            assert m == space.m
            out[space.index[(flat_idx, pos)]] = c
    return out


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("name,cutoff", [("A3", None), ("D4", None), ("E6", None),
                                         ("A~2", 6), ("D~4", 7)])
def test_block_assembler_matches_differentials_and_products(name, cutoff, field):
    """Every assembled column equals the flattened image of its basis element:
    under b_K for the differential blocks, and under e_A cup - / e_A cap -
    (computed through split_coords and multiply) for the higher half."""
    from koszulkit.homology import CoordSpace, _block_images
    pr = Preset(name, field, cutoff=cutoff)
    alg = pr.algebra
    kd = KoszulCalculus(alg, 3)
    eA = kd.fundamental_cocycle()
    weights = range(alg.max_weight if alg.truncated else alg.max_weight + 1)
    checked = 0
    for side, degrees, step in (("coh", range(0, 4), 1), ("hom", range(1, 5), -1)):
        for p in degrees:
            for m in weights:
                src = CoordSpace(kd, p, m, MODULE_A, side)
                dst = CoordSpace(kd, p + step, m + 1, MODULE_A, side)
                units = [{k: field.one} for k in range(src.dim)]
                cols = _block_images(src, dst, units)
                halves = _block_images(src, dst, units, higher=True)
                for unit, col, half in zip(units, cols, halves):
                    u = src.unflatten(unit)
                    if side == "coh":
                        diff, prod = kd.apply_bK(u), kd.cup(eA, u)
                    else:
                        diff, prod = kd.apply_bK_chain(u), kd.cap(eA, u, "left")
                    assert col == _flatten(dst, diff), (side, p, m, unit)
                    assert half == _flatten(dst, prod), (side, p, m, unit)
                    checked += 1
    assert checked > 0


def test_arrow_space_without_higher_degrees():
    """W_1 and the fundamental 1-cocycle exist whatever the degree bound."""
    alg = Preset("A3", QQ).algebra
    kd0, kd3 = KoszulCalculus(alg, 0), KoszulCalculus(alg, 3)
    assert kd0.w_dims() == kd3.w_dims()[:2]
    e0, e3 = kd0.fundamental_cocycle(), kd3.fundamental_cocycle()
    assert e0.p == 1 and len(e0.values) == kd0.w(1).dim
    assert e0.values == e3.values


def test_negative_degree_has_no_w_space():
    pr = Preset("A3", QQ)
    kd = KoszulCalculus(pr.algebra, 1)
    assert kd.w(2).p == 2 and kd.w(2).dim == 3
    with pytest.raises(DegreeError):
        kd.w(-1)


def test_negative_degree_bound_is_refused():
    with pytest.raises(DegreeError):
        KoszulCalculus(Preset("A3", QQ).algebra, -1)


def _hand_built_low_w(q):
    """W_0 and W_1 laid out by hand, vertex by vertex and arrow by arrow:
    blocks in sorted (target, source) order, the arrows of a block in index
    order.  Returns one (block keys, paths, path index, flat) per degree and
    the flat index of each arrow in W_1."""
    w0 = {(i, i): [()] for i in range(q.n_vertices)}
    keys = sorted({(q.target[a], q.source[a]) for a in range(q.n_arrows)})
    w1 = {key: [(a,) for a in range(q.n_arrows)
                if (q.target[a], q.source[a]) == key] for key in keys}
    layouts = []
    for blocks in (w0, w1):
        index = {key: {path: k for k, path in enumerate(paths)}
                 for key, paths in blocks.items()}
        flat = [(j, i, k) for (j, i), paths in blocks.items() for k in range(len(paths))]
        layouts.append((list(blocks), blocks, index, flat))
    arrow_flat = {w1[(j, i)][k][0]: n for n, (j, i, k) in enumerate(layouts[1][3])}
    return layouts, arrow_flat


#: two vertices, arrows declared against block order, two arrows 1 -> 0
#: that another block's arrow separates, and a loop at each vertex
UNSORTED_ARROWS = {
    "vertices": ["0", "1"],
    "arrows": [{"name": n, "src": s, "tgt": t}
               for n, s, t in [("c", "1", "0"), ("l", "1", "1"), ("a", "0", "1"),
                               ("b", "1", "0"), ("m", "0", "0")]],
    "relations": [[{"coeff": "1", "path": ["a", "c"]}, {"coeff": "-1", "path": ["l", "l"]}],
                  [{"coeff": "1", "path": ["b", "a"]}, {"coeff": "1", "path": ["m", "m"]}]],
}


def _low_w_case(name):
    if name == "k[z,y,x]":
        data = dict(POLYNOMIAL_XYZ, arrows=POLYNOMIAL_XYZ["arrows"][::-1])
        return build_graded_algebra(presentation_from_json(data, QQ), 4)
    if name == "unsorted":
        return build_graded_algebra(presentation_from_json(UNSORTED_ARROWS, QQ), 4)
    return Preset(name, QQ, cutoff=6 if "~" in name else None).algebra


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "D5", "E6", "E8", "A~2", "D~4",
                                  "k[z,y,x]", "unsorted"])
def test_low_w_spaces_keep_the_hand_built_layout(name):
    """W_0 and W_1 come from the same loop as the higher W spaces, with
    the layout they had when each was built by hand."""
    alg = _low_w_case(name)
    layouts, arrow_flat = _hand_built_low_w(alg.quiver)
    for p_max in (0, 3):
        kd = KoszulCalculus(alg, p_max)
        for ws, (keys, paths, index, flat) in zip(kd.wspaces, layouts):
            assert list(ws.flat_of_block) == keys and list(ws.block_space) == keys
            assert ws.block_paths == paths and ws.block_path_index == index
            assert ws.flat == flat
            assert [ws.vector(n) for n in range(ws.dim)] == [
                {k: alg.field.one} for _j, _i, k in flat]
        assert kd.arrow_flat == arrow_flat


def _w_graph_case(name, field):
    if name in ("double edge", "loop", "loop and edge"):
        edges = {"double edge": [("0", "1"), ("0", "1")], "loop": [("0", "0")],
                 "loop and edge": [("0", "0"), ("0", "1")]}[name]
        graph = Graph(sorted({v for e in edges for v in e}), edges)
        pres = preprojective_presentation(PreprojectiveSpec(graph), field)
        return graph, build_graded_algebra(pres, 6)
    pr = Preset(name, field, cutoff=6 if "~" in name else None)
    return pr.graph, pr.algebra


@pytest.mark.parametrize("name,field", [
    (name, field) for name in [f"A{n}" for n in range(1, 10)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8"] for field in (QQ, GF(2))]
    + [(name, QQ) for name in ["A~2", "A~3", "A~5", "D~4", "double edge", "loop"]]
    + [("loop and edge", GF(3))], ids=str)
def test_w_block_sizes_follow_the_adjacency_matrix(name, field):
    """For a connected graph with adjacency matrix C (a loop counts 2 on the
    diagonal), the vertex-block sizes of W_0..W_3 are I, C, I, 0: the matrix
    form of 1 - C t + t^2.  The exceptions are the paper's: W_2 = 0 for A1,
    and W_3 != 0 for A2."""
    graph, alg = _w_graph_case(name, field)
    kd = KoszulCalculus(alg, 2)
    n = len(graph.vertices)
    adjacency = [[0] * n for _ in range(n)]
    for u, v in graph.edges:
        adjacency[u][v] += 1
        adjacency[v][u] += 1
    identity = [[int(j == i) for i in range(n)] for j in range(n)]
    zero = [[0] * n for _ in range(n)]
    sizes = [[[len(kd.w(p).flat_of_block.get((j, i), ())) for i in range(n)]
              for j in range(n)] for p in range(4)]
    expected = [identity, adjacency, zero if name == "A1" else identity, zero]
    if name == "A2":
        assert kd.w(3).dim == 2
        sizes, expected = sizes[:3], expected[:3]
    assert sizes == expected


#: homology tables and nonzero ranks of the bimodule complex, recorded
#: before its assembly was moved onto the differential term table
BIMODULE_TABLES = {
    ("D4", 3, None): (
        {0: {0: 4, 1: 6, 2: 8, 3: 6, 4: 4}, 1: {}, 2: {6: 4, 7: 6, 8: 8, 9: 6, 10: 4},
         3: {}},
        {(1, 1): 6, (1, 2): 20, (1, 3): 30, (1, 4): 44, (1, 5): 36, (1, 6): 28,
         (1, 7): 12, (1, 8): 4, (2, 2): 4, (2, 3): 12, (2, 4): 28, (2, 5): 36,
         (2, 6): 44, (2, 7): 30, (2, 8): 20, (2, 9): 6}),
    ("E6", 2, None): (
        {0: {0: 6, 1: 10, 2: 14, 3: 18, 4: 20, 5: 20, 6: 20, 7: 18, 8: 14, 9: 10, 10: 6},
         1: {},
         2: {12: 6, 13: 10, 14: 14, 15: 18, 16: 20, 17: 20, 18: 20, 19: 18, 20: 14,
             21: 10, 22: 6},
         3: {}},
        {(1, 1): 10, (1, 2): 34, (1, 3): 74, (1, 4): 128, (1, 5): 192, (1, 6): 268,
         (1, 7): 338, (1, 8): 400, (1, 9): 446, (1, 10): 474, (1, 11): 456,
         (1, 12): 414, (1, 13): 356, (1, 14): 288, (1, 15): 212, (1, 16): 148,
         (1, 17): 92, (1, 18): 48, (1, 19): 20, (1, 20): 6, (2, 2): 6, (2, 3): 20,
         (2, 4): 48, (2, 5): 92, (2, 6): 148, (2, 7): 212, (2, 8): 288, (2, 9): 356,
         (2, 10): 414, (2, 11): 456, (2, 12): 474, (2, 13): 446, (2, 14): 400,
         (2, 15): 338, (2, 16): 268, (2, 17): 192, (2, 18): 128, (2, 19): 74,
         (2, 20): 34, (2, 21): 10}),
    ("D~4", 0, 6): (
        {0: {0: 5, 1: 8, 2: 15, 3: 16, 4: 25, 5: 24, 6: 35}, 1: {}, 2: {}, 3: {}},
        {(1, 1): 8, (1, 2): 35, (1, 3): 64, (1, 4): 150, (1, 5): 200, (1, 6): 385,
         (2, 2): 5, (2, 3): 16, (2, 4): 50, (2, 5): 80, (2, 6): 175}),
    ("A~2", 3, 8): (
        {0: {0: 3, 1: 6, 2: 9, 3: 12, 4: 15, 5: 18, 6: 21, 7: 24, 8: 27}, 1: {}, 2: {},
         3: {}},
        {(1, 1): 6, (1, 2): 21, (1, 3): 48, (1, 4): 90, (1, 5): 150, (1, 6): 231,
         (1, 7): 336, (1, 8): 468, (2, 2): 3, (2, 3): 12, (2, 4): 30, (2, 5): 60,
         (2, 6): 105, (2, 7): 168, (2, 8): 252}),
    # recorded before the assembly moved onto slot offsets and bit rows
    ("D~4", 2, 8): (
        {0: {0: 5, 1: 8, 2: 15, 3: 16, 4: 25, 5: 24, 6: 35, 7: 32, 8: 45}, 1: {}, 2: {},
         3: {}},
        {(1, 1): 8, (1, 2): 35, (1, 3): 64, (1, 4): 150, (1, 5): 200, (1, 6): 385,
         (1, 7): 448, (1, 8): 780, (2, 2): 5, (2, 3): 16, (2, 4): 50, (2, 5): 80,
         (2, 6): 175, (2, 7): 224, (2, 8): 420}),
    ("A~3", 2, 8): (
        {0: {0: 4, 1: 8, 2: 12, 3: 16, 4: 20, 5: 24, 6: 28, 7: 32, 8: 36}, 1: {}, 2: {},
         3: {}},
        {(1, 1): 8, (1, 2): 28, (1, 3): 64, (1, 4): 120, (1, 5): 200, (1, 6): 308,
         (1, 7): 448, (1, 8): 624, (2, 2): 4, (2, 3): 16, (2, 4): 40, (2, 5): 80,
         (2, 6): 140, (2, 7): 224, (2, 8): 336}),
}


@pytest.mark.parametrize("key", list(BIMODULE_TABLES), ids=lambda k: f"{k[0]}-char{k[1]}")
def test_bimodule_tables_pinned(key):
    name, char, cutoff = key
    pr = Preset(name, GF(char) if char else QQ, cutoff=cutoff)
    bh = BimoduleHomology(KoszulCalculus(pr.algebra, 3), 3, weight_cutoff=cutoff)
    table, ranks = BIMODULE_TABLES[key]
    assert bh.homology_table() == table
    assert {k: r for k, r in bh.ranks.items() if r} == ranks


def _reference_bimodule(kd, p_max, weight_cutoff):
    """dims and ranks of the bimodule complex, assembled as before the slot
    layout: one coordinate list per (u, v, p) and total weight, a dict index
    keyed (W index, left weight, left position, right position), and one
    dict column per coordinate."""
    from koszulkit.linalg import rank
    alg, field = kd.algebra, kd.field
    weights = range(alg.max_weight + 1)
    dims, ranks = {}, {}

    def coords(p, u, v):
        out = {}
        for (j, i), flats in kd.w(p).flat_of_block.items():
            lefts = [alg.block_positions(r, u, j) for r in weights]
            rights = [alg.block_positions(s, i, v) for s in weights]
            slots = [(r, r + p + s, lefts[r], rights[s]) for r in weights for s in weights
                     if lefts[r] and rights[s] and r + p + s <= weight_cutoff]
            for flat_idx in flats:
                for r, n, left, right in slots:
                    bucket = out.setdefault(n, [])
                    for posL in left:
                        for posR in right:
                            bucket.append((flat_idx, posL, posR, r))
        return out

    for u in range(kd.quiver.n_vertices):
        for v in range(kd.quiver.n_vertices):
            cs = {p: coords(p, u, v) for p in range(p_max + 2)}
            index = {p: {n: {(c[0], c[3], c[1], c[2]): k for k, c in enumerate(lst)}
                         for n, lst in cs[p].items()} for p in cs}
            for p in cs:
                for n, lst in cs[p].items():
                    dims[(p, n)] = dims.get((p, n), 0) + len(lst)
            for p in range(1, p_max + 2):
                terms = kd.terms(p, "hom")
                for n, lst in cs[p].items():
                    tgt_index = index[p - 1].get(n)
                    if not tgt_index:
                        continue
                    cols = []
                    for (wflat, posL, posR, r) in lst:
                        col = {}
                        rmul = alg.rmul_table(r)
                        s = n - p - r
                        for right, a, y, c in terms[wflat]:
                            prod = rmul.get((posL, a)) if right else alg.mono_product(1, a, s, posR)
                            for npos, w in (prod or {}).items():
                                k = tgt_index.get((y, r + 1, npos, posR) if right
                                                  else (y, r, posL, npos))
                                if k is not None:
                                    col[k] = col.get(k, 0) + c * w
                        cols.append(field.settle(col))
                    ranks[(p, n)] = ranks.get((p, n), 0) + rank(cols, len(cs[p - 1][n]), field)
    return dims, ranks


@pytest.mark.parametrize("name,char,cutoff", [("E6", 2, None), ("D~4", 2, 8), ("A~3", 2, 8),
                                              ("D~4", 0, 5), ("D5", 3, None), ("A4", 0, None),
                                              ("A~3", 3, 8), ("D5", 0, None), ("E7", 2, None)])
def test_bimodule_slot_assembly_matches_reference(name, char, cutoff):
    """Slots over whole vertex blocks, ranked as per-weight rows keyed by
    target coordinate (bit rows over GF(2), dict rows otherwise), give the
    dims and ranks of the per-coordinate assembly, zero ranks included."""
    pr = Preset(name, GF(char) if char else QQ, cutoff=cutoff)
    kd = KoszulCalculus(pr.algebra, 3)
    bh = BimoduleHomology(kd, 3, weight_cutoff=cutoff)
    assert (bh.dims, bh.ranks) == _reference_bimodule(kd, 3, bh.weight_cutoff)


#: arrows y: 0 -> 1, a, b: 1 -> 2, c: 2 -> 3 with a y = b y and c a = c b: the
#: left-acting terms of c a - c b send e_3 (x) (c a - c b) (x) y to
#: e_3 (x) c (x) a y and to -e_3 (x) c (x) b y, one target coordinate
COINCIDING_PRODUCTS = {
    "vertices": ["0", "1", "2", "3"],
    "arrows": [{"name": "y", "src": "0", "tgt": "1"}, {"name": "a", "src": "1", "tgt": "2"},
               {"name": "b", "src": "1", "tgt": "2"}, {"name": "c", "src": "2", "tgt": "3"}],
    "relations": [[{"coeff": "1", "path": ["a", "y"]}, {"coeff": "-1", "path": ["b", "y"]}],
                  [{"coeff": "1", "path": ["c", "a"]}, {"coeff": "-1", "path": ["c", "b"]}]]}


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
def test_bimodule_rows_sum_coinciding_products(field):
    """Two terms of one column that land on one target coordinate are summed
    (XORed over GF(2)) there, not written over: here they cancel, and the
    algebra is Koszul."""
    alg = build_graded_algebra(presentation_from_json(COINCIDING_PRODUCTS, field), 6)
    kd = KoszulCalculus(alg, 3)
    bh = BimoduleHomology(kd, 3)
    assert (bh.dims, bh.ranks) == _reference_bimodule(kd, 3, bh.weight_cutoff)
    assert bh.koszul_up_to_cutoff() and bh.homology_table()[1] == {}


def test_bimodule_refuses_a_cutoff_past_the_computed_weights():
    pr = Preset("D~4", GF(2), cutoff=6)
    kd = KoszulCalculus(pr.algebra, 3)
    with pytest.raises(ValueError, match=r"weight cutoff 9 .*up to 6"):
        BimoduleHomology(kd, 3, weight_cutoff=9)
    assert BimoduleHomology(kd, 3, weight_cutoff=6).koszul_up_to_cutoff()


def test_bimodule_cutoff_of_a_truncated_algebra_defaults_to_its_top_weight():
    kd = KoszulCalculus(Preset("D~4", GF(2), cutoff=6).algebra, 3)
    bh, explicit = BimoduleHomology(kd, 3), BimoduleHomology(kd, 3, weight_cutoff=6)
    assert bh.weight_cutoff == 6
    assert (bh.dims, bh.ranks) == (explicit.dims, explicit.ranks)


def _misplaced(alg, weight, pos, prod):
    """prod with monomial pos (of the given weight) moved to another vertex block."""
    block = alg.block_of[weight]
    other = next(q for q in range(len(block)) if block[q] != block[pos])
    out = dict(prod)
    out[other] = out.pop(pos)
    return out


@pytest.mark.parametrize("side", ["right", "left"])
def test_bimodule_refuses_a_product_outside_its_target_block(side, monkeypatch):
    """A product monomial outside its target slot's vertex block raises,
    whichever factor the term multiplies; it is never dropped or placed."""
    pr = Preset("D4", GF(2))
    alg = pr.algebra
    kd = KoszulCalculus(alg, 3)
    if side == "right":
        table = dict(alg.rmul_table(1))
        key, prod = next((k, nf) for k, nf in table.items() if nf)
        table[key] = _misplaced(alg, 2, next(iter(prod)), prod)
        real = alg.rmul_table
        monkeypatch.setattr(alg, "rmul_table", lambda m: table if m == 1 else real(m))
    else:
        real = alg.mono_product
        a = 0

        def mono_product(m, pos, n, qos):
            prod = real(m, pos, n, qos)
            if (m, pos, n) == (1, a, 1) and prod:
                return _misplaced(alg, 2, next(iter(prod)), prod)
            return prod
        monkeypatch.setattr(alg, "mono_product", mono_product)
    with pytest.raises(ValueError, match="outside its target slot's vertex block"):
        BimoduleHomology(kd, 3)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("target,message", [
    ("missing", "outside its target slot's vertex block"),
    ("other vertex", "moves the factor it does not act on")])
def test_bimodule_refuses_a_term_into_another_slot(side, target, message, monkeypatch):
    """A term whose target W index has no slot at (u, v) while its product is
    nonzero raises, and so does one whose target slot does not keep the
    factor it does not act on, whichever factor it multiplies: the product
    is never dropped, as a lookup of the target coordinate would drop it,
    nor placed in another slot."""
    pr = Preset("D4", GF(2))
    kd = KoszulCalculus(pr.algebra, 3)
    real = kd.terms
    table = [list(row) for row in real(1, "hom")]
    k = next(k for k, term in enumerate(table[0]) if term[0] == (side == "right"))
    right, a, y, c = table[0][k]
    # W_0 has no index kd.w(0).dim, so no vertex block holds it
    table[0][k] = (right, a, kd.w(0).dim if target == "missing" else (y + 1) % kd.w(0).dim, c)
    monkeypatch.setattr(kd, "terms", lambda p, s: table if (p, s) == (1, "hom") else real(p, s))
    with pytest.raises(ValueError, match=message):
        BimoduleHomology(kd, 3)


def _reference_product(kd, mod_f, mod_g, fval, gval, fblock, gblock):
    """fval gval in P (x)_A Q, as the per-degree products computed it."""
    field = kd.field
    if mod_f == MODULE_A and mod_g == MODULE_A:
        return kd.algebra.multiply(fval, gval)
    if mod_f == MODULE_A:
        mid = fblock[1]
        return field.mul(fval.get((0, mid), 0), gval) if fblock[0] == mid else 0
    mid = gblock[0]
    return field.mul(fval, gval.get((0, mid), 0)) if gblock[1] == mid else 0


def _reference_sum(kd, module, terms):
    """Values of the sum of c * value over (index, value, c) terms, summed
    one term at a time and reduced by the field."""
    field = kd.field
    values = {}
    for k, val, c in terms:
        if module == MODULE_A:
            field.add_into(values.setdefault(k, {}), val, c)
        else:
            values[k] = field.add(values.get(k, 0), field.mul(c, val))
    return {k: v for k, v in values.items()
            if (v if module == MODULE_A else not field.is_zero(v))}


def _reference_cup(kd, f, g):
    """The cup product with separate degree-0 branches, as it was written
    before the split table covered degree 0."""
    p, q = f.p, g.p
    out_module = MODULE_K if MODULE_K in (f.module, g.module) else MODULE_A
    sign = kd.field.one if (p * q) % 2 == 0 else kd.field.neg(kd.field.one)
    w0 = kd.w(0)
    terms = []
    if p == 0 or q == 0:
        inner = g if p == 0 else f
        for z, val in inner.values.items():
            j, i = kd.w(inner.p).block_of(z)
            if p == 0:
                fv = f.values.get(w0.flat_of_block[(j, j)][0])
                if fv is not None:
                    terms.append((z, _reference_product(kd, f.module, g.module, fv, val,
                                                        (j, j), (j, i)), sign))
            else:
                gv = g.values.get(w0.flat_of_block[(i, i)][0])
                if gv is not None:
                    terms.append((z, _reference_product(kd, f.module, g.module, val, gv,
                                                        (j, i), (i, i)), sign))
    else:
        wp, wq = kd.w(p), kd.w(q)
        for z, split in enumerate(kd.split_coords(p, q)):
            for (x, y), c in split.items():
                fv, gv = f.values.get(x), g.values.get(y)
                if fv is not None and gv is not None:
                    terms.append((z, _reference_product(kd, f.module, g.module, fv, gv,
                                                        wp.block_of(x), wq.block_of(y)),
                                  kd.field.mul(sign, c)))
    return Cochain(kd, p + q, out_module, _reference_sum(kd, out_module, terms))


def _reference_cap(kd, f, z, side):
    """The cap product with separate p = 0 and p = q branches on each side,
    as it was written before the split table covered degree 0."""
    p, q = f.p, z.q
    out_module = MODULE_K if MODULE_K in (f.module, z.module) else MODULE_A
    field = kd.field
    n = (q - p) * p if side == "left" else p * q
    sign = field.one if n % 2 == 0 else field.neg(field.one)
    ws_in, w0 = kd.w(q), kd.w(0)
    terms = []

    def left_product(fv, m, fblock, zblock):
        return _reference_product(kd, f.module, z.module, fv, m, fblock, zblock)

    def right_product(m, fv, zblock, fblock):
        return _reference_product(kd, z.module, f.module, m, fv, zblock, fblock)

    for wflat, m in z.values.items():
        j, i = ws_in.block_of(wflat)
        if p == 0:
            if side == "left":
                fv = f.values.get(w0.flat_of_block[(i, i)][0])
                prod = None if fv is None else left_product(fv, m, (i, i), (i, j))
            else:
                fv = f.values.get(w0.flat_of_block[(j, j)][0])
                prod = None if fv is None else right_product(m, fv, (i, j), (j, j))
            if prod is not None:
                terms.append((wflat, prod, sign))
        elif p == q:
            fv = f.values.get(wflat)
            if fv is None:
                continue
            if side == "left":
                terms.append((w0.flat_of_block[(j, j)][0],
                              left_product(fv, m, (j, i), (i, j)), sign))
            else:
                terms.append((w0.flat_of_block[(i, i)][0],
                              right_product(m, fv, (i, j), (j, i)), sign))
        elif side == "left":
            for (u, s), c in kd.split_coords(q - p, p)[wflat].items():
                fv = f.values.get(s)
                if fv is not None:
                    mid = kd.w(p).block_of(s)[0]
                    terms.append((u, left_product(fv, m, (mid, i), (i, j)),
                                  field.mul(sign, c)))
        else:
            for (s, u), c in kd.split_coords(p, q - p)[wflat].items():
                fv = f.values.get(s)
                if fv is not None:
                    mid = kd.w(p).block_of(s)[1]
                    terms.append((u, right_product(m, fv, (i, j), (j, mid)),
                                  field.mul(sign, c)))
    return Chain(kd, q - p, out_module, _reference_sum(kd, out_module, terms))


def _outcome(build):
    """What build() returns, or the type and message of what it raised."""
    try:
        return build()
    except Exception as exc:  # compared, not swallowed
        return (type(exc).__name__, str(exc))


def _basis_elements(kd, p, module, side, weights):
    """Every basis (co)chain of degree p, weight by weight over ``weights``
    for the module A."""
    from koszulkit.homology import CoordSpace
    out = []
    for m in weights if module == MODULE_A else [None]:
        space = CoordSpace(kd, p, m, module, side)
        out.extend(space.unflatten({k: kd.field.one}) for k in range(space.dim))
    return out


def _check_table(table, fs, gs, one_pair, reference, counts, key):
    """A product table over the lists fs and gs against its one-pair calls
    and the reference, each a result or what raised it (``_outcome``).  The
    one-pair call and the reference raise a ``WeightOverflowError`` on the
    same pairs, and the table exactly when one of its pairs does; elsewhere
    the values agree, with a table key absent exactly when it is zero."""
    raised = False
    for i, f in enumerate(fs):
        for j, g in enumerate(gs):
            got, want = _outcome(lambda: one_pair(f, g)), _outcome(lambda: reference(f, g))
            if isinstance(want, tuple):
                assert want[0] == "WeightOverflowError", want
                assert isinstance(got, tuple) and got[0] == want[0], (key, i, j)
                raised = True
                counts[key + ("raised",)] += 1
                continue
            assert (got.module, got.degree) == (want.module, want.degree)
            assert got.values == want.values, (key, i, j)
            if isinstance(table, dict):
                entry = table.get((i, j))
                assert (entry is None) == (not want.values), (key, i, j)
                if entry is not None:
                    assert (entry.module, entry.degree, entry.values) == (
                        want.module, want.degree, want.values), (key, i, j)
            counts[key + (bool(want.values),)] += 1
    if raised:
        assert isinstance(table, tuple) and table[0] == "WeightOverflowError", key
    else:
        assert isinstance(table, dict), key
        assert set(table) <= {(i, j) for i in range(len(fs)) for j in range(len(gs))}


@pytest.mark.parametrize("name,field,cutoff", [("A3", QQ, None), ("D4", GF(3), None),
                                               ("E6", GF(2), None), ("A~2", QQ, 8)],
                         ids=["A3-Q", "D4-F3", "E6-F2", "A~2@8-Q"])
def test_products_match_per_degree_reference(name, field, cutoff):
    """cup_table and cap_table over whole lists, and cup and cap on each
    pair, against the per-degree reference: cup with p + q <= 2, cap with
    p <= q <= 2 on both sides, and the module pairs A.A, A.k and k.A.  Each
    list holds every basis (co)chain and their sum, so a factor's support
    can meet many others at one W index and a product can cancel.  On a
    truncated algebra a product past the cutoff raises, and the lists are
    taken again with weights at most half the cutoff, where every table is
    defined."""
    kd = KoszulCalculus(Preset(name, field, cutoff=cutoff).algebra, 3)
    top = kd.algebra.max_weight
    pairs = [(MODULE_A, MODULE_A), (MODULE_A, MODULE_K), (MODULE_K, MODULE_A)]
    counts = Counter()
    for weights in [range(top + 1)] + ([range(top // 2 + 1)] if cutoff else []):
        basis = {}
        for p in range(3):
            for module in (MODULE_A, MODULE_K):
                for side in ("coh", "hom"):
                    elems = _basis_elements(kd, p, module, side, weights)
                    if elems:
                        elems.append(elems[0]._combination(*[(e.values, 1) for e in elems]))
                    basis[(p, module, side)] = elems
        for mod_f, mod_g in pairs:
            for p in range(3):
                fs = basis[(p, mod_f, "coh")]
                for q in range(3 - p):
                    gs = basis[(q, mod_g, "coh")]
                    _check_table(_outcome(lambda: kd.cup_table(fs, gs)), fs, gs, kd.cup,
                                 lambda f, g: _reference_cup(kd, f, g), counts,
                                 ("cup", p == 0 or q == 0))
                for q in range(p, 3):
                    zs = basis[(q, mod_g, "hom")]
                    for side in ("left", "right"):
                        kind = "p=0" if p == 0 else "p=q" if p == q else "split"
                        _check_table(_outcome(lambda: kd.cap_table(fs, zs, side)), fs, zs,
                                     lambda f, z: kd.cap(f, z, side),
                                     lambda f, z: _reference_cap(kd, f, z, side), counts,
                                     (side, kind))
    # every branch of the reference met a nonzero product, and only a
    # truncated algebra met a product past its cutoff
    for key in [("cup", True, True), ("cup", False, True)] + [
            (side, kind, True) for side in ("left", "right")
            for kind in ("p=0", "p=q", "split")]:
        assert counts[key] > 0, key
    assert any(key[-1] == "raised" for key in counts) == (cutoff is not None)


def _random_elements(kd, p, module, side, weights, rng, count):
    """``count`` random (co)chains of degree p: combinations of up to six
    basis elements over ``weights`` with coefficients in -3..3, so most are
    of mixed weight, and their products can cancel across pairs."""
    basis = _basis_elements(kd, p, module, side, weights)
    out = []
    for _ in range(count if basis else 0):
        picks = [rng.choice(basis) for _ in range(rng.randint(1, 6))]
        out.append(picks[0]._combination(
            *[(b.values, kd.field.from_int(rng.randint(-3, 3))) for b in picks]))
    return out


@pytest.mark.parametrize("name,field,cutoff", [("D5", QQ, None), ("E6", GF(3), None),
                                               ("D4", GF(2), None), ("A~2", QQ, 8),
                                               ("A~2", GF(3), 8)],
                         ids=["D5-Q", "E6-F3", "D4-F2", "A~2@8-Q", "A~2@8-F3"])
def test_pair_tables_on_random_elements_match_the_per_pair_reference(name, field, cutoff):
    """cup_table and cap_table (both sides) add every product straight into
    their outputs; on lists of random mixed-weight elements, A- and
    k-valued, each entry equals the per-pair reference, which multiplies
    each pair with ``multiply`` and adds the settled products one at a time.
    On A~2 at cutoff 8 a product past the cutoff still raises
    ``WeightOverflowError``, from the table and from the one pair."""
    kd = KoszulCalculus(Preset(name, field, cutoff=cutoff).algebra, 3)
    top = kd.algebra.max_weight
    rng = random.Random(17)
    counts = Counter()
    for weights in [range(top + 1)] + ([range(top // 2 + 1)] if cutoff else []):
        elems = {(p, module, side): _random_elements(kd, p, module, side, weights, rng, 5)
                 for p in range(3) for module in (MODULE_A, MODULE_K)
                 for side in ("coh", "hom")}
        for mod_f, mod_g in [(MODULE_A, MODULE_A), (MODULE_A, MODULE_K), (MODULE_K, MODULE_A)]:
            for p in range(3):
                fs = elems[(p, mod_f, "coh")]
                for q in range(3 - p):
                    gs = elems[(q, mod_g, "coh")]
                    if fs and gs:
                        _check_table(_outcome(lambda: kd.cup_table(fs, gs)), fs, gs, kd.cup,
                                     lambda f, g: _reference_cup(kd, f, g), counts,
                                     ("cup", mod_f, mod_g))
                for q in range(p, 3):
                    zs = elems[(q, mod_g, "hom")]
                    for side in ("left", "right"):
                        if fs and zs:
                            _check_table(_outcome(lambda: kd.cap_table(fs, zs, side)), fs, zs,
                                         lambda f, z: kd.cap(f, z, side),
                                         lambda f, z: _reference_cap(kd, f, z, side), counts,
                                         (side, mod_f, mod_g))
    for kind in ("cup", "left", "right"):
        for mods in [(MODULE_A, MODULE_A), (MODULE_A, MODULE_K), (MODULE_K, MODULE_A)]:
            assert counts[(kind,) + mods + (True,)] > 0, (kind, mods)
    assert any(key[-1] == "raised" for key in counts) == (cutoff is not None)


_REFUSALS = [("a component at weight", "layout"), ("a value", "block"), ("not a", "not closed")]


def _reference_class_of(spaces, obj):
    """Class coordinates read weight by weight, as ``class_of`` read them
    before its one-pass read: the weights the element touches, ascending,
    each checked against the layout, its component flattened on its own
    (refusing a value outside its vertex block) and reduced by the block."""
    from koszulkit.linalg import NotInSubspaceError
    field = spaces.kd.field
    not_closed = ("not a cocycle: differential is nonzero" if spaces.side == "coh"
                  else "not a cycle: differential is nonzero")
    total, offsets = spaces.layout(obj.degree)
    if obj.module == MODULE_A:
        touched = sorted({m for val in obj.values.values() for (m, _pos) in val})
    else:
        touched = [None] if obj.values else []
    coords = [field.zero] * total
    for m in touched:
        if m not in offsets:
            raise NotClosedError(f"a component at weight {m} lies outside the computed "
                                 f"weights {list(offsets)} of degree {obj.degree}")
        start, blk = offsets[m]
        vec = {}
        for x, val in obj.values.items():
            if obj.module == MODULE_A:
                parts = [(pos, c) for (mm, pos), c in val.items() if mm == m]
            else:
                parts = [(spaces.kd.w(obj.degree).block_of(x)[1], val)]
            for pos, c in parts:
                k = blk.space.index.get((x, pos))
                if k is None:
                    weight = "" if m is None else f" at weight {m}"
                    raise NotClosedError(f"a value{weight} lies outside its vertex block "
                                         f"in degree {obj.degree}")
                vec[k] = c
        try:
            coords[start:start + blk.dim] = blk.quotient.coords(vec)
        except NotInSubspaceError:
            raise NotClosedError(not_closed) from None
    return coords


@pytest.mark.parametrize("name,field,cutoff", [("D5", QQ, None), ("E6", GF(3), None),
                                               ("A4", GF(2), None), ("A~2", QQ, 8)],
                         ids=["D5-Q", "E6-F3", "A4-F2", "A~2@8-Q"])
def test_class_of_matches_the_weight_by_weight_reference(name, field, cutoff):
    """class_of reads an element once; on closed mixed-weight elements and
    on elements with one or two faults at random weights (a component not
    closed, a value outside its vertex block, a component at a weight
    outside the layout), it returns the reference's coordinates or raises
    the reference's refusal, so each message and the order in which they
    fire stay as they were.  k-valued elements are closed, and refused only
    off the diagonal blocks."""
    pr = Preset(name, field, cutoff=cutoff)
    alg = pr.algebra
    kd = KoszulCalculus(alg, 3)
    rng = random.Random(23)
    seen = Counter()
    for module in (MODULE_A, MODULE_K):
        for side in ("coh", "hom"):
            spaces = koszul_homology(kd, module, side)
            for p in range(3):
                _total, offsets = spaces.layout(p)
                reps = spaces.representatives(p)
                ws = kd.w(p)
                if not reps:
                    continue
                for _ in range(30):
                    elem = reps[0]._combination(
                        *[(rng.choice(reps).values, field.from_int(rng.randint(-2, 2)))
                          for _ in range(3)])
                    for _fault in range(rng.choice([0, 1, 1, 2])):
                        x = rng.randrange(ws.dim)
                        j, i = ws.block_of(x)
                        if module == MODULE_K:
                            value = field.one
                        else:
                            m = rng.randrange(alg.max_weight + 1)
                            pos = rng.randrange(len(alg.block_of[m]))
                            value = {(m, pos): field.one}
                        elem = elem.add(type(elem)(kd, p, module, {x: value}))
                    want = _outcome(lambda: _reference_class_of(spaces, elem))
                    got = _outcome(lambda: spaces.class_of(elem))
                    assert got == want, (module, side, p)
                    if isinstance(want, tuple):
                        assert want[0] == "NotClosedError"
                        seen[next(kind for prefix, kind in _REFUSALS
                                  if want[1].startswith(prefix))] += 1
                    else:
                        seen["class"] += 1
    assert set(seen) == {"class", "layout", "block", "not closed"}, seen


def test_product_tables_and_equals_refuse_mismatched_factors():
    from koszulkit.duality import omega0, unit_cochain
    kd = KoszulCalculus(Preset("A3", QQ).algebra, 3)
    eA, one = kd.fundamental_cocycle(), unit_cochain(kd)
    w0 = omega0(kd)
    with pytest.raises(DegreeError):
        kd.cup_table([eA, one], [eA])
    with pytest.raises(DegreeError):
        kd.cap_table([eA], [w0, kd.zero_chain(1)], "left")
    with pytest.raises(DegreeError):
        kd.cap_table([kd.cup(eA, eA)], [kd.zero_chain(1)], "left")
    with pytest.raises(ValueError):
        kd.cap_table([eA], [w0], "middle")
    assert kd.cup_table([], [eA]) == {} and kd.cap_table([eA], [], "right") == {}
    k_one = kd.cochain_on_vertices({i: 1 for i in range(kd.quiver.n_vertices)}, MODULE_K)
    for other in (w0, one, k_one):
        with pytest.raises(DegreeError):
            eA == other
    assert one == unit_cochain(kd) and one != one.scale(2)


def test_degree0_splits_are_trivial():
    kd = KoszulCalculus(Preset("D4", GF(3)).algebra, 3)
    vertex = kd.w(0).flat_of_block
    for q in range(4):
        ws = kd.w(q)
        assert kd.split_coords(0, q) == [{(vertex[(j, j)][0], z): 1}
                                         for z, (j, _i, _k) in enumerate(ws.flat)]
        assert kd.split_coords(q, 0) == [{(z, vertex[(i, i)][0]): 1}
                                         for z, (_j, i, _k) in enumerate(ws.flat)]
    for p, q in [(-1, 0), (0, -1), (-1, 2), (2, -1)]:
        with pytest.raises(DegreeError):
            kd.split_coords(p, q)


#: k[x, y, z]: one vertex, three loops, the three commutators
POLYNOMIAL_XYZ = {
    "vertices": ["0"],
    "arrows": [{"name": n, "src": "0", "tgt": "0"} for n in "xyz"],
    "relations": [[{"coeff": "1", "path": [a, b]}, {"coeff": "-1", "path": [b, a]}]
                  for a, b in [("x", "y"), ("y", "z"), ("x", "z")]],
}


def _split_case_calculus(name, field):
    if name == "k[x,y,z]":
        pres = presentation_from_json(POLYNOMIAL_XYZ, field)
        return KoszulCalculus(build_graded_algebra(pres, 6), 3)
    if name == "A~2":
        return KoszulCalculus(Preset(name, field, cutoff=6).algebra, 3)
    return KoszulCalculus(Preset(name, field).algebra, 3)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("name", ["A3", "D5", "E6", "A~2", "k[x,y,z]"])
def test_splits_reconstruct_their_w_vectors(name, field):
    """Every split is read back by path concatenation: the sum of c (x (x) y)
    over the split of a W_{p+q} basis vector is that vector.  The
    differential, cup, cap and e_A all read the split table, so this is the
    check of the table itself."""
    kd = _split_case_calculus(name, field)
    checked = 0
    for n in range(2, kd.p_max + 2):
        wn = kd.w(n)
        for p in range(1, n):
            wp, wq = kd.w(p), kd.w(n - p)
            for z, split in enumerate(kd.split_coords(p, n - p)):
                j, i = wn.block_of(z)
                index = wn.block_path_index[(j, i)]
                acc = {}
                for (x, y), c in split.items():
                    (xj, xi), (yj, yi) = wp.block_of(x), wq.block_of(y)
                    assert (xj, xi, yi) == (j, yj, i), (n, p, z, x, y)
                    xpaths, ypaths = wp.block_paths[(xj, xi)], wq.block_paths[(yj, yi)]
                    for t, a in wp.vector(x).items():
                        for s, b in wq.vector(y).items():
                            k = index[xpaths[t] + ypaths[s]]
                            acc[k] = acc.get(k, 0) + c * a * b
                assert field.settle(acc) == wn.vector(z), (n, p, z)
                checked += 1
    assert checked >= kd.w(2).dim


def _block_map(kd, src, step):
    """b_K out of one block's space, into the space at (p + step, m + 1), as
    its columns and target dimension, or None when that space is zero."""
    from koszulkit.homology import CoordSpace, _block_images
    if src.p + step < 0:
        return None
    dst = CoordSpace(kd, src.p + step, src.m + 1, MODULE_A, src.side)
    if not dst.dim:
        return None
    units = [{k: kd.field.one} for k in range(src.dim)]
    return _block_images(src, dst, units), dst.dim


_Z_CASES = ([(name, field, None) for name in adedata.listed_types()
             for field in (QQ, GF(2), GF(3))] + [("A~2", QQ, 8), ("D~4", GF(2), 6)])


@pytest.mark.parametrize("name,field,cutoff", _Z_CASES,
                         ids=[f"{n}-{f}" if c is None else f"{n}@{c}-{f}" for n, f, c in _Z_CASES])
def test_cycle_spaces_from_rank_nullity_equal_the_kernels(name, field, cutoff):
    """Where dim C - rank(d_out) = dim B, _homology takes Z = B and runs no
    kernel; every block's Z has the rows and pivots of kernel(d_out), with
    d_out built here from the block's own space."""
    from koszulkit.linalg import full_subspace, kernel
    kd = KoszulCalculus(Preset(name, field, cutoff=cutoff).algebra, 3)
    shared = 0
    for side, step in (("coh", 1), ("hom", -1)):
        for key, blk in koszul_homology(kd, MODULE_A, side).blocks.items():
            d_out = _block_map(kd, blk.space, step)
            ref = (full_subspace(blk.space.dim, field) if d_out is None
                   else kernel(*d_out, field))
            z = blk.quotient.z
            assert (z.rows, z.pivots) == (ref.rows, ref.pivots), (side, key)
            shared += z is blk.quotient.b and d_out is not None
    # type A has homology in every nonzero block, so no Z there is B
    assert bool(shared) != name.startswith("A")


@pytest.mark.parametrize("name,field", [("D5", QQ), ("E6", GF(2))], ids=["D5-Q", "E6-F2"])
def test_a_flipped_entry_is_caught_where_z_is_b(name, field, monkeypatch):
    """One entry of a cochain block map flipped so that its rank holds but
    d o d != 0 (the entry's column is a pivot of B): the block's Z is still
    read off B by rank-nullity, no kernel runs on the faulty map, and the
    check of B against d_out refuses it."""
    from koszulkit import homology, linalg
    kd = KoszulCalculus(Preset(name, field).algebra, 3)
    one = field.one

    def flipped(col, i):
        col = dict(col)
        col[i] = field.add(col.get(i, field.zero), one)
        return {k: c for k, c in col.items() if not field.is_zero(c)}

    fault = None
    for (p, m), blk in koszul_homology(kd, MODULE_A, "coh").blocks.items():
        d_out, b = _block_map(kd, blk.space, 1), blk.quotient.b
        if d_out is None or blk.quotient.z is not b or not b.dim:
            continue
        j = b.pivots[0]
        d_cols, codim = d_out
        for i in range(codim):
            cols = list(d_cols)
            cols[j] = flipped(cols[j], i)
            if linalg.rank(cols, codim, field) == linalg.rank(d_cols, codim, field):
                fault = (p, m, j, i)
                break
        if fault:
            break
    assert fault is not None
    faulty, kernels = [], []
    real_images, real_kernel = homology._block_images, homology.kernel

    def block_images(src, dst, vecs, higher=False):
        cols = real_images(src, dst, vecs, higher)
        if (src.p, src.m) == fault[:2] and not higher:
            cols[fault[2]] = flipped(cols[fault[2]], fault[3])
            faulty.append(cols)
        return cols

    def recorded_kernel(cols, codim, field):
        kernels.append(cols)
        return real_kernel(cols, codim, field)
    monkeypatch.setattr(homology, "_block_images", block_images)
    monkeypatch.setattr(homology, "kernel", recorded_kernel)
    with pytest.raises(linalg.NotInSubspaceError):
        koszul_homology(kd, MODULE_A, "coh")
    assert len(faulty) == 1 and kernels
    assert not any(cols is faulty[0] for cols in kernels)
