import hashlib
import json
import random

import pytest

from koszulkit import adedata
from koszulkit.algebra import GradedAlgebra
from koszulkit.fields import GF, QQ
from koszulkit.frobenius import (BarOracle, Degree2Comparison, FrobeniusError,
                                 FrobeniusStructure, cartan_kernel_dim)
from koszulkit.homology import koszul_homology
from koszulkit.koszul import KoszulCalculus, MODULE_A
from koszulkit.linalg import kernel, rref
from koszulkit.presets import Preset, expected_nakayama_on_arrows, socle_generators
from koszulkit.verify import (CheckLog, TypeCharComputation, _run_verify_job,
                              hochschild2_checks, verify_ade, verify_type_char)

from dynkin_tables import hand_nakayama


def make_frob(name, field):
    pr = Preset(name, field)
    return pr, FrobeniusStructure(pr.algebra, socle_generators(pr))


def test_dual_pairing_exhaustive_a3():
    _pr, frob = make_frob("A3", QQ)
    assert frob.dual_pairing_check()


def test_form_associative_and_symmetric_d4():
    _pr, frob = make_frob("D4", QQ)
    rng = random.Random(1)
    triples = [(rng.randrange(frob.dim), rng.randrange(frob.dim),
                rng.randrange(frob.dim)) for _ in range(100)]
    assert frob.form_is_associative(triples)
    assert frob.form_is_nakayama_symmetric()


def test_nakayama_type_a_formula():
    pr, frob = make_frob("A5", QQ)
    q = pr.quiver
    n = 5
    scal = frob.nakayama_arrow_scalars()
    for i in range(n - 1):
        beta, c = scal[q.arrow_index[f"a{i}"]]
        assert q.arrow_names[beta] == f"a{n-2-i}*" and c == 1
        beta, c = scal[q.arrow_index[f"a{i}*"]]
        assert q.arrow_names[beta] == f"a{n-2-i}" and c == 1
    assert frob.nu_bar == {i: n - 1 - i for i in range(n)}


@pytest.mark.parametrize("name", ["D4", "D6", "E7"])
def test_nakayama_permutation_identity_cases(name):
    _pr, frob = make_frob(name, QQ)
    assert frob.nu_bar == {i: i for i in range(len(frob.nu_bar))}


def test_nakayama_respects_relations_and_graph_rule():
    for name, field in [("A4", QQ), ("D5", QQ), ("E6", GF(3))]:
        pr, frob = make_frob(name, field)
        assert frob.nakayama_respects_relations()
        expected = expected_nakayama_on_arrows(pr)
        got = frob.nakayama_arrow_scalars()
        assert all(got[a] == (b, field.from_int(s))
                   for a, (b, s) in expected.items())
        assert frob.nu_bar == hand_nakayama(name) == pr.dynkin.nu


def test_a_swapped_nakayama_permutation_fails_its_checks():
    """With two vertices of the derived nu swapped, hochschild2_checks fails
    the permutation check and the arrow rule, and nothing else."""
    comp = TypeCharComputation("D4", 0, with_frobenius=False)
    nu = dict(comp.preset.dynkin.nu)
    nu[0], nu[1] = nu[1], nu[0]
    comp.preset.dynkin = comp.preset.dynkin._replace(nu=nu)
    failed = {key for key, ok, _detail in hochschild2_checks("D4", 0, comp=comp).entries
              if not ok}
    assert failed == {"D4.char0.frobenius.nubar", "D4.char0.frobenius.nu-matches-graph-rule"}


def test_degenerate_basis_rejected():
    pr = Preset("A3", QQ)
    bad = dict(socle_generators(pr))
    # a socle element in the wrong column cannot normalize the form
    bad[0] = QQ.scale(bad[0], QQ.zero)
    with pytest.raises(FrobeniusError):
        FrobeniusStructure(pr.algebra, bad).dual_basis()


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_singular_gram_block_rejected(field):
    _pr, frob = make_frob("D4", field)
    # eps zero on column 0's top monomial makes the form vanish on column 0,
    # which leaves that column's Gram blocks singular
    frob._eps[frob._top_pos[0]] = field.zero
    with pytest.raises(FrobeniusError, match="singular Gram block"):
        frob.dual_basis()


def _rref_dual_basis(frob):
    """The dual basis with every Gram block, 1x1 ones included, inverted by
    ``rref`` on ``[G | I]``."""
    field, gram, dual = frob.field, frob.gram(), {}
    for m, blocks in enumerate(frob.algebra.blocks):
        for vs in blocks.values():
            ws = list(gram[(m, vs[0])])
            n = len(ws)
            rows = []
            for r, vp in enumerate(vs):
                g = gram[(m, vp)]
                row = {k: g[w] for k, w in enumerate(ws) if not field.is_zero(g[w])}
                row[n + r] = field.one
                rows.append(row)
            reduced, pivots = rref(rows, 2 * n, field)
            assert pivots[-1] < n
            for col_v, v in enumerate(vs):
                dual[(m, v)] = {w: reduced[k][n + col_v] for k, w in enumerate(ws)
                                if n + col_v in reduced[k]}
    return dual


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("name", adedata.listed_types())
def test_dual_basis_equals_the_rref_reference(name, field):
    """The dual basis, with its 1x1 Gram blocks inverted by one inv, equals
    the one with every block through rref, value and type alike."""
    _pr, frob = make_frob(name, field)
    want = _rref_dual_basis(frob)
    got = frob.dual_basis()
    assert got == want
    assert all(type(c) is type(want[x][w]) for x, d in got.items() for w, c in d.items())
    assert any(len(vs) == 1 for blocks in frob.algebra.blocks for vs in blocks.values())


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_a_zero_1x1_gram_block_is_singular(field):
    _pr, frob = make_frob("E6", field)
    gram = frob.gram()
    (m, v), = [(m, vs[0]) for m, blocks in enumerate(frob.algebra.blocks)
               for vs in blocks.values() if len(vs) == 1][:1]
    (w, _value), = gram[(m, v)].items()
    gram[(m, v)][w] = field.zero
    with pytest.raises(FrobeniusError, match="^degenerate form: singular Gram block$"):
        frob.dual_basis()


def _count_forms(frob):
    form, calls = frob.form, []

    def counting_form(y, x):
        calls.append(x)
        return form(y, x)

    frob.form = counting_form
    return calls


def test_nakayama_solved_once():
    _pr, frob = make_frob("D5", QQ)
    scalars = frob.nakayama_arrow_scalars()
    calls = _count_forms(frob)
    images = [frob.nakayama_on_elem({t: QQ.one}) for t in frob.terms]
    assert calls == []
    assert frob.nakayama_arrow_scalars() == scalars
    assert all(images)


def _vertex_coords(alg, nu_bar, twisted):
    """Coordinates of the direct sum over vertices i of e_i A e_i, or of
    e_i A e_{nu_bar(i)} when twisted, weight by weight."""
    return [(m, pos) for m in range(alg.max_weight + 1)
            for i in range(alg.quiver.n_vertices)
            for pos in alg.block_positions(m, i, nu_bar[i] if twisted else i)]


def _vertex_columns(dcoords, tcoords, up_cols, down_cols):
    """Reference matrices of both degree-3 maps, over the diagonal and the
    twisted coordinates, in the form of ``delta_columns``: each weight-0
    column as an element, keyed by the vertex of its idempotent.  Every
    column of positive weight must be zero."""
    def columns(src, tgt, cols):
        out = {}
        for (m, pos), col in zip(src, cols):
            if m:
                assert col == {}
            else:
                out[pos] = {tgt[k]: c for k, c in col.items()}
        return out
    return columns(dcoords, tcoords, up_cols), columns(tcoords, dcoords, down_cols)


def test_delta_up_kills_positive_weight():
    """Every diagonal column of positive weight of delta_up, summed over
    every composable x, is zero; delta_columns holds one column per vertex."""
    pr, frob = make_frob("A4", QQ)
    up, _down = _delta_maps_every_column(frob)
    assert any(m for m, _pos in _vertex_coords(pr.algebra, frob.nu_bar, False))
    assert frob.delta_columns()[0] == up and sorted(up) == list(range(4))


def test_delta_image_escape_is_refused():
    """On A3 nu_bar swaps 0 and 2; a dual with dual(e_0) = e_0 puts
    dual(e_0) e_0 in e_0 A e_0, outside e_0 A e_{nu_bar(0)}."""
    _pr, frob = make_frob("A3", QQ)
    assert frob.nu_bar[0] == 2
    frob.dual_basis()
    frob._dual[(0, 0)] = {(0, 0): QQ.one}
    with pytest.raises(FrobeniusError, match="degree-3 image escaped its target"):
        frob.delta_columns()


def test_delta_down_on_middle_idempotent_type_a_odd():
    # for the odd chain, the twisted sum maps the fixed idempotent to
    # (m+1) times the middle socle element
    pr, frob = make_frob("A5", QQ)
    m_a = 2
    _up, down = frob.delta_columns()
    alg = pr.algebra
    # the middle vertex is the one that nu_bar fixes
    assert list(down) == [m_a]
    pi = socle_generators(pr)[m_a]
    assert down[m_a] == QQ.scale(pi, QQ.from_int(m_a + 1))


def _nu_trace_matrix(frob):
    """tr(nu restricted to e_j A e_i) for fixed vertices j, i of nu_bar."""
    alg, field = frob.algebra, frob.field
    fixed = [i for i in range(alg.quiver.n_vertices) if frob.nu_bar[i] == i]
    out = []
    for j in fixed:
        row = []
        for i in fixed:
            tr = field.zero
            for m in range(frob.top + 1):
                for pos in alg.block_positions(m, j, i):
                    image = frob.nakayama_on_elem({(m, pos): field.one})
                    tr = field.add(tr, image.get((m, pos), field.zero))
            row.append(tr)
        out.append(row)
    return out


def test_delta_down_trace_formula():
    # identity permutation case: each idempotent maps to the trace-weighted
    # sum of socle generators
    pr, frob = make_frob("D4", QQ)
    _up, down = frob.delta_columns()
    alg = pr.algebra
    traces = _nu_trace_matrix(frob)
    socle = socle_generators(pr)
    assert sorted(down) == list(range(4))
    for i in range(4):
        got = down[i]
        expected = {}
        for j in range(4):
            QQ.add_into(expected, socle[j], traces[j][i])
        assert got == expected


def test_cartan_kernel_dims():
    assert cartan_kernel_dim(Preset("A3", QQ).algebra) == 1
    assert cartan_kernel_dim(Preset("A4", QQ).algebra) == 2
    assert cartan_kernel_dim(Preset("E7", QQ).algebra) == 0
    # rank drops to one mod 2: six-dimensional kernel
    assert cartan_kernel_dim(Preset("E7", GF(2)).algebra) == 6
    assert cartan_kernel_dim(Preset("E6", QQ).algebra) == 2
    assert cartan_kernel_dim(Preset("E6", GF(2)).algebra) == 4


def test_bar_oracle_small_cases():
    # the one-vertex graph is the vertex ring: full degree 0, nothing higher
    pr1 = Preset("A1", QQ)
    oracle = BarOracle(pr1.algebra)
    assert oracle.hh0_dim == 1 and oracle.hh1_dim == 0
    for name, field in [("A3", QQ), ("A4", QQ), ("D4", QQ), ("A3", GF(2))]:
        pr = Preset(name, field)
        kd = KoszulCalculus(pr.algebra, 3)
        coh = koszul_homology(kd, MODULE_A, "coh")
        oracle = BarOracle(pr.algebra, max_space=400_000)
        assert oracle.hh0_dim == coh.dim(0)
        assert oracle.hh1_dim == coh.dim(1)


def test_bar_oracle_size_guard():
    pr = Preset("D4", QQ)
    with pytest.raises(FrobeniusError):
        BarOracle(pr.algebra, max_space=10)


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_bar_space_size_from_vertex_blocks(name):
    """The block-dimension sum equals the sizes of the enumerated C^1 and C^2."""
    from koszulkit.frobenius import _bar_space_size
    alg = Preset(name, QQ).algebra
    blocks = {t: alg.block_of[t[0]][t[1]] for t in alg.terms}
    c1 = [(x, y) for x in blocks for y in blocks if blocks[x] == blocks[y]]
    c2 = [(x1, x2, y) for x1 in blocks for x2 in blocks if blocks[x1][1] == blocks[x2][0]
          for y in blocks if blocks[y] == (blocks[x1][0], blocks[x2][1])]
    assert _bar_space_size(alg) == len(c1) + len(c2)


def test_bar_oracle_refuses_before_enumerating(monkeypatch):
    """E7/F:3 is refused from the block dimensions, before any C^1/C^2 list
    is built (the lists start from the monomial basis, ``terms``)."""
    from koszulkit.algebra import GradedAlgebra
    from koszulkit.frobenius import _bar_space_size
    alg = Preset("E7", GF(3)).algebra
    size = _bar_space_size(alg)
    monkeypatch.setattr(GradedAlgebra, "terms",
                        property(lambda self: pytest.fail("the oracle enumerated")))
    with pytest.raises(FrobeniusError, match=f"cochain space of size {size} exceeds the guard 10"):
        BarOracle(alg, max_space=10)


def test_degree2_comparison_a3(monkeypatch):
    comp = TypeCharComputation("A3", 0, with_frobenius=True)
    domains = []
    monkeypatch.setattr("koszulkit.frobenius.kernel",
                        lambda cols, codim, field: domains.append(len(cols))
                        or kernel(cols, codim, field))
    cmp2 = Degree2Comparison(comp.kd, comp.frob, comp.coh, comp.hom)
    # ker(delta_up) comes from one kernel over the vertex columns
    assert domains == [3]
    assert cmp2.hh2_dim == 1            # n - m_A - 1
    assert cmp2.hk2_dim == 3
    assert cmp2.hk_2_dim == 2
    assert cmp2.hh_2_dim == 1           # the top central chain is killed
    assert cmp2.ker_up_weight0_dim == cmp2.cartan_kernel_dim == 1


@pytest.mark.parametrize("name,char", [("A4", 0), ("D4", 2), ("E6", 3)])
def test_hochschild2_suite(name, char):
    log = hochschild2_checks(name, char)
    assert log.ok, log.failures()[:5]


def _adapted_reference(pr):
    """Nakayama scalars and delta maps over the adapted basis: every monomial,
    with the top one of each column replaced by that column's socle
    generator, and the form (y, x) read as the coefficient of the socle
    generator of x's column in yx.  The dual basis inverts the whole Gram
    matrix at once."""
    alg, field = pr.algebra, pr.field
    q, top, one = pr.quiver, alg.max_weight, field.one
    socle = socle_generators(pr)
    pi_coeff = {}
    for i, el in socle.items():
        ((_m, pos), c), = el.items()
        pi_coeff[i] = (pos, c)
    nu_bar = {i: alg.block_of[top][pos][0] for i, (pos, _c) in pi_coeff.items()}
    basis, columns = [], []
    for m in range(top + 1):
        for pos in range(len(alg.block_of[m])):
            i = alg.block_of[m][pos][1]
            basis.append(socle[i] if m == top else {(m, pos): one})
            columns.append(i)

    def form(y, x, i):
        """The coefficient of the socle generator of column i in yx."""
        pos, c = pi_coeff[i]
        return field.div(alg.multiply(y, x).get((top, pos), field.zero), c)

    n = len(basis)
    rows = []
    for v in range(n):
        row = {w: val for w in range(n)
               if not field.is_zero(val := form(basis[w], basis[v], columns[v]))}
        row[n + v] = one
        rows.append(row)
    reduced, pivots = rref(rows, 2 * n, field)
    assert pivots == list(range(n))
    dual = []
    for v in range(n):
        d = {}
        for w in range(n):
            if n + v in reduced[w]:
                field.add_into(d, basis[w], reduced[w][n + v])
        dual.append(d)

    scalars = {}
    for a in range(q.n_arrows):
        beta, = [b for b in range(q.n_arrows) if q.source[b] == nu_bar[q.source[a]]
                 and q.target[b] == nu_bar[q.target[a]]]
        ratios = set()
        for w in range(n):
            lhs = form(basis[w], alg.arrow_elem(a), q.source[a])
            rhs = form(alg.arrow_elem(beta), basis[w], columns[w])
            if not field.is_zero(rhs):
                ratios.add(field.div(lhs, rhs))
        c, = ratios
        scalars[a] = (beta, c)

    dcoords, tcoords = _vertex_coords(alg, nu_bar, False), _vertex_coords(alg, nu_bar, True)

    def matrix(src, tgt, up):
        index = {t: k for k, t in enumerate(tgt)}
        cols = []
        for t in src:
            col = {}
            for x, xh in zip(basis, dual):
                y = {t: one}
                term = (alg.multiply(xh, alg.multiply(y, x)) if up
                        else alg.multiply(x, alg.multiply(y, xh)))
                field.add_into(col, {index[s]: c for s, c in term.items()}, one)
            cols.append(col)
        return cols

    return scalars, _vertex_columns(dcoords, tcoords, matrix(dcoords, tcoords, True),
                                    matrix(tcoords, dcoords, False))


@pytest.mark.parametrize("name,field", [("D5", QQ), ("D6", GF(3)), ("E7", QQ)],
                         ids=["D5-Q", "D6-F3", "E7-Q"])
def test_monomial_basis_matches_the_adapted_basis(name, field):
    """The monomial basis with eps = sum_i z[top, pos_i] / c_i gives the
    Nakayama scalars and delta maps of the socle-rescaled basis; these
    presets have socle generators with coefficient -1."""
    pr, frob = make_frob(name, field)
    assert any(c != field.one for el in socle_generators(pr).values() for c in el.values())
    scalars, columns = _adapted_reference(pr)
    assert frob.nakayama_arrow_scalars() == scalars
    assert frob.delta_columns() == columns


def _all_pairs_reference(frob):
    """The all-pairs sweeps that the block-graded checks replace: the pairing
    check over every monomial pair, the Nakayama solve over every monomial,
    and the delta columns summed over every monomial x."""
    alg, field = frob.algebra, frob.field
    q, one = alg.quiver, field.one
    dual = frob.dual_basis()
    pairing = all(frob.form(dual[w], {v: one}) == (one if v == w else field.zero)
                  for v in frob.terms for w in frob.terms)

    scalars = {}
    for a in range(q.n_arrows):
        beta, = [b for b in range(q.n_arrows)
                 if q.source[b] == frob.nu_bar[q.source[a]]
                 and q.target[b] == frob.nu_bar[q.target[a]]]
        c = None
        for w in frob.terms:
            lhs = frob.form({w: one}, alg.arrow_elem(a))
            rhs = frob.form(alg.arrow_elem(beta), {w: one})
            if field.is_zero(rhs):
                assert field.is_zero(lhs)
                continue
            ratio = field.div(lhs, rhs)
            assert c is None or c == ratio
            c = ratio
        scalars[a] = (beta, c)

    dcoords = _vertex_coords(alg, frob.nu_bar, False)
    tcoords = _vertex_coords(alg, frob.nu_bar, True)

    def matrix(src, tgt, up):
        index = {t: k for k, t in enumerate(tgt)}
        cols = []
        for s in src:
            y, col = {s: one}, {}
            for t in frob.terms:
                x, xh = {t: one}, dual[t]
                term = (alg.multiply(xh, alg.multiply(y, x)) if up
                        else alg.multiply(x, alg.multiply(y, xh)))
                for u, c in term.items():
                    col[index[u]] = col.get(index[u], 0) + c
            cols.append(field.settle(col))
        return cols

    return pairing, scalars, _vertex_columns(dcoords, tcoords, matrix(dcoords, tcoords, True),
                                             matrix(tcoords, dcoords, False))


@pytest.mark.parametrize("name,field", [("D5", QQ), ("E6", GF(3)), ("E7", GF(2))],
                         ids=["D5-Q", "E6-F3", "E7-F2"])
def test_block_graded_sweeps_match_all_pairs_reference(name, field):
    _pr, frob = make_frob(name, field)
    pairing, scalars, columns = _all_pairs_reference(frob)
    assert pairing and frob.dual_pairing_check()
    assert frob.nakayama_arrow_scalars() == scalars
    assert frob.delta_columns() == columns


def _mutated_dual_fails(frob, w, entries):
    frob._dual = {**frob.dual_basis(), w: entries}
    return not frob.dual_pairing_check()


@pytest.mark.parametrize("name,field", [("D5", QQ), ("E6", GF(3))], ids=["D5-Q", "E6-F3"])
def test_dual_pairing_check_reads_the_computed_dual(name, field):
    _pr, frob = make_frob(name, field)
    dual = frob.dual_basis()
    assert frob.dual_pairing_check()
    for w in (frob.terms[0], frob.terms[len(frob.terms) // 2], frob.terms[-1]):
        m, pos = w
        j, i = frob.algebra.block_of[m][pos]
        paired = frob._paired(m, j, i)
        # an entry outside the paired block pairs to zero with w's block, so
        # only the support check can see it
        outside = next(t for t in frob.terms if t not in paired)
        assert _mutated_dual_fails(frob, w, {**dual[w], outside: field.one})
        u, c = next(iter(dual[w].items()))
        assert _mutated_dual_fails(frob, w, {**dual[w], u: field.mul(c, field.from_int(2))})
        frob._dual = dual
        assert frob.dual_pairing_check()


def _count_products(monkeypatch, frob):
    """The form calls of frob and the multiply calls of its algebra, as
    they happen."""
    forms, multiply, products = _count_forms(frob), frob.algebra.multiply, []
    monkeypatch.setattr(frob.algebra, "multiply",
                        lambda x, y: products.append(x) or multiply(x, y))
    return forms, products


@pytest.mark.parametrize("name,field,pairs,solve", [("D5", QQ, 68, 16), ("E6", GF(3), 208, 20)],
                         ids=["D5-Q", "E6-F3"])
def test_frobenius_sweeps_form_only_block_pairs(monkeypatch, name, field, pairs, solve):
    """The Gram table holds sum |block|^2 forms, one per pair inside a block
    and its paired block, and the dual basis, the pairing check and the
    symmetry check read it with no form or multiply call; the Nakayama solve
    takes 2 forms per paired monomial of each arrow.  The all-pairs sweeps
    took dim^2 and 2 * arrows * dim."""
    pr, frob = make_frob(name, field)
    alg, q = pr.algebra, pr.quiver
    forms, products = _count_products(monkeypatch, frob)
    frob.nakayama_arrow_scalars()
    assert len(forms) == solve == 2 * sum(
        len(alg.block_positions(frob.top - 1, frob.nu_bar[q.source[a]], q.target[a]))
        for a in range(q.n_arrows))
    assert solve < 2 * q.n_arrows * frob.dim
    forms.clear()
    products.clear()
    assert frob.dual_pairing_check() and frob.form_is_nakayama_symmetric()
    assert forms == products == []
    gram = frob.gram()
    assert sum(len(row) for row in gram.values()) == pairs == sum(
        len(vs) ** 2 for b in alg.blocks for vs in b.values())
    assert pairs < frob.dim ** 2
    for m, blocks in enumerate(alg.blocks):
        for (j, i), vs in blocks.items():
            assert all(list(gram[(m, v)]) == frob._paired(m, j, i) for v in vs)


@pytest.mark.parametrize("name,field", [("D5", QQ), ("E6", GF(3))], ids=["D5-Q", "E6-F3"])
def test_delta_maps_read_the_gram_table(monkeypatch, name, field):
    """Each dual(x) x and x dual(x) lies in a one-dimensional top block, so
    the degree-3 columns are read off the Gram table and the dual basis:
    no form, no multiply, and no new entry of the product table."""
    pr, frob = make_frob(name, field)
    frob.dual_basis()
    filled = len(pr.algebra._prod)
    forms, products = _count_products(monkeypatch, frob)
    up, _down = frob.delta_columns()
    assert forms == products == [] and len(pr.algebra._prod) == filled
    assert any(up.values())


def _delta_maps_every_column(frob):
    """The columns of both transported degree-3 maps, each summed over every
    composable x, the positive-weight columns too."""
    alg, field, dual = frob.algebra, frob.field, frob.dual_basis()
    one = field.one
    dcoords = _vertex_coords(alg, frob.nu_bar, False)
    tcoords = _vertex_coords(alg, frob.nu_bar, True)
    dindex = {c: k for k, c in enumerate(dcoords)}
    tindex = {c: k for k, c in enumerate(tcoords)}

    def column(yt, up):
        col = {}
        y = {yt: one}
        tgt, src = alg.block_of[yt[0]][yt[1]]
        for t in frob.terms:
            xt, xs = alg.block_of[t[0]][t[1]]
            if (xt if up else xs) != (src if up else tgt):
                continue
            x = {t: one}
            term = (alg.multiply(dual[t], alg.multiply(y, x)) if up
                    else alg.multiply(x, alg.multiply(y, dual[t])))
            for key, c in term.items():
                k = (tindex if up else dindex)[key]
                col[k] = col.get(k, 0) + c
        return field.settle(col)
    return _vertex_columns(dcoords, tcoords, [column(y, True) for y in dcoords],
                           [column(y, False) for y in tcoords])


@pytest.mark.parametrize("name,field", [("D5", QQ), ("E6", GF(3)), ("E8", GF(2))],
                         ids=["D5-Q", "E6-F3", "E8-F2"])
def test_delta_maps_equal_the_every_column_sum(name, field):
    """delta_columns builds the vertex columns only; both maps equal the sums
    over every column, whose positive-weight columns are zero.  delta_up is
    nonzero on D5/Q and E6/F:3; both maps are zero on E8/F:2."""
    pr, frob = make_frob(name, field)
    up, down = frob.delta_columns()
    assert (up, down) == _delta_maps_every_column(frob)
    assert sorted(up) == list(range(pr.quiver.n_vertices))
    assert sorted(down) == [i for i, j in frob.nu_bar.items() if i == j]
    assert any(m for m, _pos in _vertex_coords(pr.algebra, frob.nu_bar, False))
    assert any(up.values()) == (name != "E8")


#: sha256 of the JSON of the ``verify_type_char`` + ``hochschild2_checks``
#: log entries (key, ok, detail), recorded before the Frobenius data moved
#: to the monomial basis; the two E6 entries were recorded again when nu
#: came to be derived from the adjacency matrix, as the expected dict in the
#: ``frobenius.nubar`` detail now prints in vertex order; the two E8 entries
#: were recorded while the Frobenius checks still took each form as a
#: product, before they came to read the Gram table
RECORDED_LOG_DIGESTS = {
    ("D5", 0): (134, "64be777c0783d31044ea26ab318178a2bff57874618a7c6f37c47005885fc8f4"),
    ("E6", 3): (189, "9c82fe03274f962705fa5f81023c193aac9577ffc42e8d832d873f9565ca63cb"),
    ("E7", 2): (504, "0fee1f594e835240accd53235f1d9cb47cb716b70619ab31ddcc0a61c4499e27"),
    ("D4", 2): (130, "6d1cbe8086ff58ebc85f0af0c6416a1621a59b184c0dbe3a9c4ebde36e7299e0"),
    ("D6", 2): (311, "c4a5a0c72e1f59858c451981f27dbc0b759305813fd60032204488e36747cabe"),
    ("E6", 2): (187, "c421948a1ee43bdeb9bf022ee445b41cfdecb228a33e0fe1a733a3dbd660a310"),
    ("E8", 0): (500, "df0f84ee393d69444997356f18b6cd7c13cb81c7bbc6d653227093c6fb4bc3a5"),
    ("E8", 3): (620, "6ae81722c98bd3f858786d2ff9b540a51a145e0512d6c9ed25304fc78a221db0"),
}


@pytest.mark.parametrize("name,char", sorted(RECORDED_LOG_DIGESTS),
                         ids=[f"{n}-{c}" for n, c in sorted(RECORDED_LOG_DIGESTS)])
def test_verify_logs_match_recorded_digests(name, char):
    comp = TypeCharComputation(name, char, with_frobenius=False)
    log = CheckLog()
    verify_type_char(name, char, log=log, comp=comp)
    hochschild2_checks(name, char, log=log, comp=comp)
    digest = hashlib.sha256(json.dumps(log.entries).encode("utf-8")).hexdigest()
    assert (len(log.entries), digest) == RECORDED_LOG_DIGESTS[(name, char)]


def test_a_verify_ade_job_runs_the_degree2_comparison():
    """A verify-ade job runs hochschild2_checks on the computation its table
    checks built, so its entries are the recorded log of both."""
    entries, triple = _run_verify_job(("D5", 0))
    digest = hashlib.sha256(json.dumps(entries).encode("utf-8")).hexdigest()
    assert (len(entries), digest) == RECORDED_LOG_DIGESTS[("D5", 0)]
    assert triple == adedata.expected_higher_dims("D5", 0)


@pytest.mark.parametrize("name,char", [("D4", 0), ("D5", 0), ("D6", 3)],
                         ids=["D4-0", "D5-0", "D6-3"])
def test_a_changed_eps_value_turns_a_verify_ade_entry_red(name, char, monkeypatch):
    """eps doubled on one column of every Frobenius structure: verify-ade
    fails the Nakayama graph rule of the D type, and nothing else."""
    real = FrobeniusStructure.__init__

    def doubled_eps(self, algebra, socle):
        real(self, algebra, socle)
        pos = self._top_pos[0]
        self._eps[pos] = self.field.add(self._eps[pos], self._eps[pos])
    monkeypatch.setattr(FrobeniusStructure, "__init__", doubled_eps)
    log = verify_ade([name], [char])
    assert [key for key, ok, _detail in log.entries if not ok] == [
        f"{name}.char{char}.frobenius.nu-matches-graph-rule"]


ADE_MUTATION_CASES = [("A5", 0), ("D5", 0), ("E6", 3)]
ADE_MUTATION_IDS = [f"{n}-{c}" for n, c in ADE_MUTATION_CASES]


def _red_entries(name, char):
    return [key for key, ok, _detail in verify_ade([name], [char]).entries if not ok]


@pytest.mark.parametrize("name,char", ADE_MUTATION_CASES, ids=ADE_MUTATION_IDS)
def test_a_changed_nakayama_scalar_turns_a_verify_ade_entry_red(name, char, monkeypatch):
    """The Nakayama scalar of arrow 0 negated once solved: verify-ade fails
    an entry of that type, on A, D and E types alike."""
    real = FrobeniusStructure.nakayama_arrow_scalars

    def negated_scalar(self):
        solved = self._nu_scalars is not None
        scalars = real(self)
        if not solved:
            beta, c = scalars[0]
            scalars[0] = (beta, self.field.neg(c))
        return scalars
    monkeypatch.setattr(FrobeniusStructure, "nakayama_arrow_scalars", negated_scalar)
    assert _red_entries(name, char)


@pytest.mark.parametrize("name,char", ADE_MUTATION_CASES, ids=ADE_MUTATION_IDS)
def test_a_changed_right_arrow_product_turns_a_verify_ade_entry_red(name, char,
                                                                    monkeypatch):
    """One ``_rmul`` entry changed after the build, the last nonzero right
    product by an arrow into the top weight: verify-ade fails an entry."""
    real = GradedAlgebra._build

    def changed_build(self):
        real(self)
        table = self._rmul[self.top_weight - 1]
        key = [k for k, nf in table.items() if nf][-1]
        (pos, c), *_ = table[key].items()
        table[key] = {**table[key], pos: self.field.add(c, self.field.one)}
    monkeypatch.setattr(GradedAlgebra, "_build", changed_build)
    assert _red_entries(name, char)


def test_a_job_that_raises_is_one_red_entry_and_the_run_goes_on(monkeypatch):
    """The first nonzero ``_rmul[1]`` entry of A5/0 changed by +1 after the
    build: b_K no longer squares to zero and the A5 job raises
    NotInSubspaceError from the homology.  verify-ade records it as one red
    ``A5.char0.job`` entry, keeps its triple out of the triple checks, and
    runs the untouched A6/0 job after it with every entry present."""
    want, _triple = _run_verify_job(("A6", 0))
    real = GradedAlgebra._build
    changed = []

    def changed_build(self):
        real(self)
        if not changed:
            table = self._rmul[1]
            key = next(k for k, nf in table.items() if nf)
            (pos, c), *_ = table[key].items()
            table[key] = {**table[key], pos: self.field.add(c, self.field.one)}
            changed.append(key)
    monkeypatch.setattr(GradedAlgebra, "_build", changed_build)
    (key, ok, detail), *rest = verify_ade(["A5", "A6"], [0]).entries
    assert changed and (key, ok) == ("A5.char0.job", False)
    assert detail == "NotInSubspaceError: denominator is not contained in numerator"
    assert rest == want


@pytest.mark.parametrize("name,char", ADE_MUTATION_CASES, ids=ADE_MUTATION_IDS)
def test_a_changed_longer_product_turns_a_verify_ade_entry_red(name, char, monkeypatch):
    """One ``_prod`` entry doubled, the first product of two monomials, the
    right one of weight at least 2, that an associativity triple reads with
    a nonzero form: verify-ade fails an entry."""
    real = FrobeniusStructure.form_is_associative

    def doubled_product(self, samples):
        alg, one = self.algebra, self.field.one
        for idx in samples:
            y, z, x = (self.terms[k] for k in idx)
            for left, right, other, left_first in ((y, z, x, True), (z, x, y, False)):
                if right[0] < 2:
                    continue
                prod = alg.multiply({left: one}, {right: one})
                if not (self.form(prod, {other: one}) if left_first
                        else self.form({other: one}, prod)):
                    continue
                key = (*left, *right)
                alg._prod[key] = self.field.scale(alg._prod[key], self.field.from_int(2))
                return real(self, samples)
        raise AssertionError("no associativity triple reads a longer product")
    monkeypatch.setattr(FrobeniusStructure, "form_is_associative", doubled_product)
    assert _red_entries(name, char)


@pytest.mark.parametrize("name,char", [("D5", 0), ("E6", 3)], ids=["D5-0", "E6-3"])
def test_right_products_by_an_arrow_stay_out_of_the_product_table(name, char):
    """After both checklists the longer-product table holds no right
    product by an arrow (n == 1): those are read from the build's table."""
    comp = TypeCharComputation(name, char)
    assert verify_type_char(name, char, comp=comp).ok
    assert hochschild2_checks(name, char, comp=comp).ok
    prod = comp.preset.algebra._prod
    assert prod and [key for key in prod if key[2] == 1] == []


def test_a_changed_cup_table_entry_fails_its_check(monkeypatch):
    """verify_type_char compares each generator product with the cup table:
    one coefficient changed for D5 fails the D5 checks of that pair, in both
    orders, and no other check of D5 or of A4."""
    real = adedata.expected_cup_table

    def table(name, char):
        out = real(name, char)
        if name == "D5":
            (pair, combo), = out.items()
            out[pair] = {lbl: c + 1 for lbl, c in combo.items()}
        return out
    monkeypatch.setattr(adedata, "expected_cup_table", table)
    failed = {key for key, ok, _detail in verify_type_char("D5", 0).entries if not ok}
    assert failed == {"D5.char0.cup.z1*zeta0", "D5.char0.cup.zeta0*z1"}
    assert verify_type_char("A4", 0).ok


def test_a_class_outside_the_higher_kernel_fails_its_survivor_check(monkeypatch):
    """z0 listed as a D4/Q survivor: HK^0 = 5 and HKhi^0 = 4, and the class
    of z0 lies outside the kernel of the higher differential, so exactly its
    survivor check turns red."""
    real = adedata.expected_higher_zero_generators
    monkeypatch.setattr(adedata, "expected_higher_zero_generators",
                        lambda name, char: real(name, char) + ["z0"])
    comp = TypeCharComputation("D4", 0)
    assert (comp.coh.dim(0), comp.hi_coh.dim(0)) == (5, 4)
    assert verify_type_char("D4", 0, comp=comp).failures() == ["D4.char0.HKhi0.survivor.z0"]


GRAM_TYPES = [("D5", QQ), ("E6", GF(3)), ("E7", GF(2)), ("E8", GF(2))]
GRAM_IDS = ["D5-Q", "E6-F3", "E7-F2", "E8-F2"]


@pytest.mark.parametrize("name,field", GRAM_TYPES, ids=GRAM_IDS)
def test_gram_entries_equal_the_form(name, field):
    """Every entry of the Gram table, built along the left factor's
    monomial tree, equals eps of the product of the two monomials."""
    _pr, frob = make_frob(name, field)
    gram = frob.gram()
    assert sorted(gram) == sorted(frob.terms)
    for v, row in gram.items():
        for w, value in row.items():
            assert value == frob.form({w: field.one}, {v: field.one}), (w, v)


def _nu_by_path_walk(frob, t):
    """nu of the monomial t, walked arrow by arrow along its path: the
    image of its target idempotent times beta_a for each arrow a, scaled by
    the product of the c_a."""
    alg, field = frob.algebra, frob.field
    scalars = frob.nakayama_arrow_scalars()
    m, pos = t
    if m == 0:
        return alg.vertex_elem(frob.nu_bar[pos])
    cur, c = alg.vertex_elem(frob.nu_bar[alg.block_of[m][pos][0]]), field.one
    for a in alg.monomial_arrows(m, pos):
        beta, ca = scalars[a]
        c = field.mul(c, ca)
        cur = alg.multiply(cur, alg.arrow_elem(beta))
    return field.scale(cur, c)


@pytest.mark.parametrize("name,field", GRAM_TYPES, ids=GRAM_IDS)
def test_nu_table_equals_the_path_walk(name, field):
    _pr, frob = make_frob(name, field)
    for t in frob.terms:
        assert frob.nakayama_on_elem({t: field.one}) == _nu_by_path_walk(frob, t), t


def _frobenius_failures(comp):
    """What catches a fault put into comp's Frobenius data: the message of a
    FrobeniusError from dual_basis, else the frobenius checks that fail."""
    try:
        comp.frob.dual_basis()
    except FrobeniusError as exc:
        return {str(exc)}
    log = hochschild2_checks(comp.name, comp.char, comp=comp)
    return {key.split(".", 2)[2] for key, ok, _detail in log.entries
            if not ok and ".frobenius." in key}


MUTATION_CASES = [("D5", 0), ("E6", 3), ("E7", 2), ("E8", 2)]
MUTATION_IDS = [f"{n}-{c}" for n, c in MUTATION_CASES]


@pytest.mark.parametrize("name,char", MUTATION_CASES, ids=MUTATION_IDS)
@pytest.mark.parametrize("where", ["low", "middle", "high"])
def test_a_changed_left_arrow_product_is_caught(name, char, where):
    """One entry b v of the product table that the Gram recursion reads,
    changed where it meets a nonzero (w', u), fails a frobenius check or
    leaves a Gram block singular."""
    comp = TypeCharComputation(name, char, with_frobenius=True)
    frob, alg = comp.frob, comp.preset.algebra
    one = frob.field.one
    k = {"low": 1, "middle": frob.top // 2, "high": frob.top - 2}[where]
    n = frob.top - k

    def entry():
        for (j, i), vs in alg.blocks[k].items():
            for v in vs:
                for w in frob._paired(k, j, i):
                    parent, b = alg.parents[n][w[1]]
                    for u, c in alg.mono_product(1, b, k, v).items():
                        if frob.form({(n - 1, parent): one}, {(k + 1, u): one}):
                            return (1, b, k, v), u, c
    key, u, c = entry()
    # a right product by an arrow (k == 1) is read from the build's table
    table, key = (alg._rmul[1], (key[1], key[3])) if k == 1 else (alg._prod, key)
    table[key] = {**table[key], u: frob.field.add(c, one)}
    assert _frobenius_failures(comp)


@pytest.mark.parametrize("name,char", MUTATION_CASES, ids=MUTATION_IDS)
def test_a_changed_nakayama_scalar_fails_the_symmetry_check(name, char):
    comp = TypeCharComputation(name, char, with_frobenius=True)
    frob = comp.frob
    scalars = frob.nakayama_arrow_scalars()
    beta, c = scalars[0]
    scalars[0] = (beta, frob.field.neg(c) if char != 2 else frob.field.zero)
    assert "frobenius.nakayama-symmetric" in _frobenius_failures(comp)


@pytest.mark.parametrize("name,char", MUTATION_CASES, ids=MUTATION_IDS)
@pytest.mark.parametrize("solved", [False, True], ids=["before-solve", "after-solve"])
def test_a_changed_eps_value_is_caught(name, char, solved):
    """eps changed on one column: before the Nakayama solve, form and Gram
    table agree on another form, whose nu breaks the graph rule; after it,
    the Gram table no longer matches nu.  Over F:2 the only change is to
    zero, which leaves a Gram block singular."""
    comp = TypeCharComputation(name, char, with_frobenius=True)
    frob, field = comp.frob, comp.field
    if solved:
        frob.nakayama_arrow_scalars()
    pos = frob._top_pos[0]
    frob._eps[pos] = field.add(frob._eps[pos], frob._eps[pos])
    failures = _frobenius_failures(comp)
    if char == 2:
        assert failures == {"degenerate form: singular Gram block"}
    elif solved:
        assert "frobenius.nakayama-symmetric" in failures
    else:
        assert "frobenius.nu-matches-graph-rule" in failures


@pytest.mark.parametrize("name,char", [("D5", 0), ("E6", 3), ("E8", 2), ("A9", 0)],
                         ids=["D5-0", "E6-3", "E8-2", "A9-0"])
def test_associativity_triples_can_be_nonzero(name, char):
    """hochschild2_checks draws 20 triples (y, z, x) whose form (yz, x) the
    grading lets be nonzero, where uniform triples of monomials seldom
    compose to the top.  One product-table entry y z that a triple with a nonzero
    form reads, changed once the table holds every product the check takes,
    fails the check."""
    comp = TypeCharComputation(name, char, with_frobenius=True)
    frob, alg, field = comp.frob, comp.preset.algebra, comp.field
    triples = frob.paired_triples(random.Random(11), 20)
    assert len(triples) == 20
    values = []
    for idx in triples:
        y, z, x = (frob.terms[k] for k in idx)
        (ty, sy), (tz, sz), (tx, sx) = (alg.block_of[m][pos] for m, pos in (y, z, x))
        assert min(y[0], z[0], x[0]) >= 1 and y[0] + z[0] + x[0] == frob.top
        assert sy == tz and sz == tx and ty == frob.nu_bar[sx]
        values.append(frob.form(alg.multiply({y: field.one}, {z: field.one}), {x: field.one}))
    assert frob.form_is_associative(triples)
    (y, z, _x), = [(frob.terms[a], frob.terms[b], frob.terms[c])
                   for (a, b, c), value in zip(triples, values) if value][:1]
    # a right product by an arrow (z of weight 1) is read from the build's table
    table, key = ((alg._rmul[y[0]], (y[1], z[1])) if z[0] == 1
                  else (alg._prod, (y[0], y[1], z[0], z[1])))
    table[key] = field.scale(table[key], field.from_int(2 if char != 2 else 0))
    assert not frob.form_is_associative(triples)
