import random

import pytest

from koszulkit.fields import GF, QQ
from koszulkit.frobenius import (BarOracle, Degree2Comparison, FrobeniusError,
                                 FrobeniusStructure, cartan_kernel_dim)
from koszulkit.homology import koszul_homology
from koszulkit.koszul import KoszulCalculus, MODULE_A
from koszulkit.presets import (Preset, expected_nakayama_on_arrows,
                               nakayama_graph_permutation, socle_generators)
from koszulkit.verify import TypeCharComputation, hochschild2_checks


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
        assert frob.nu_bar == nakayama_graph_permutation(pr)


def test_degenerate_basis_rejected():
    pr = Preset("A3", QQ)
    bad = dict(socle_generators(pr))
    # a socle element in the wrong column cannot normalize the form
    bad[0] = pr.algebra.elem_scale(bad[0], QQ.zero)
    with pytest.raises(FrobeniusError):
        FrobeniusStructure(pr.algebra, bad).dual_basis()


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_singular_gram_block_rejected(field):
    _pr, frob = make_frob("D4", field)
    form = frob.form
    # a form that vanishes on column 0 leaves that column's Gram blocks singular
    frob.form = lambda y, x, src: field.zero if src == 0 else form(y, x, src)
    with pytest.raises(FrobeniusError, match="singular Gram block"):
        frob.dual_basis()


def test_nakayama_solved_once():
    _pr, frob = make_frob("D5", QQ)
    scalars = frob.nakayama_arrow_scalars()
    form = frob.form
    calls = []

    def counting_form(y, x, src):
        calls.append(src)
        return form(y, x, src)

    frob.form = counting_form
    images = [frob.nakayama_on_elem(b) for b in frob.basis]
    assert calls == []
    assert frob.nakayama_arrow_scalars() == scalars
    assert all(images)


def test_delta_up_kills_positive_weight():
    pr, frob = make_frob("A4", QQ)
    delta_up, _delta_down = frob.delta_maps()
    dcoords = frob.diagonal_coords()
    for k, (m, _pos) in enumerate(dcoords):
        if m > 0:
            assert delta_up.cols[k] == {}


def test_delta_down_on_middle_idempotent_type_a_odd():
    # for the odd chain, the twisted sum maps the fixed idempotent to
    # (m+1) times the middle socle element
    pr, frob = make_frob("A5", QQ)
    m_a = 2
    delta_up, delta_down = frob.delta_maps()
    tcoords = frob.twisted_coords()
    dcoords = frob.diagonal_coords()
    alg = pr.algebra
    k = next(i for i, (m, pos) in enumerate(tcoords)
             if m == 0 and alg.block_of[0][pos] == (m_a, m_a))
    col = delta_down.cols[k]
    got = {}
    for idx, c in col.items():
        mm, pos = dcoords[idx]
        got = alg.elem_add(got, {(mm, pos): QQ.one}, c)
    pi = socle_generators(pr)[m_a]
    assert alg.elem_equal(got, alg.elem_scale(pi, QQ.from_int(m_a + 1)))


def test_delta_down_trace_formula():
    # identity permutation case: each idempotent maps to the trace-weighted
    # sum of socle generators
    pr, frob = make_frob("D4", QQ)
    delta_up, delta_down = frob.delta_maps()
    tcoords = frob.twisted_coords()
    dcoords = frob.diagonal_coords()
    alg = pr.algebra
    traces = frob.nu_trace_matrix()
    socle = socle_generators(pr)
    for i in range(4):
        k = next(kk for kk, (m, pos) in enumerate(tcoords)
                 if m == 0 and alg.block_of[0][pos] == (i, i))
        got = {}
        for idx, c in delta_down.cols[k].items():
            mm, pos = dcoords[idx]
            got = alg.elem_add(got, {(mm, pos): QQ.one}, c)
        expected = {}
        for j in range(4):
            expected = alg.elem_add(expected, socle[j], traces[j][i])
        assert alg.elem_equal(got, expected)


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


def test_degree2_comparison_a3():
    comp = TypeCharComputation("A3", 0, with_frobenius=True)
    cmp2 = Degree2Comparison(comp.kd, comp.frob, comp.coh, comp.hom)
    assert cmp2.hh2_dim == 1            # n - m_A - 1
    assert cmp2.hk2_dim == 3
    assert cmp2.hk_2_dim == 2
    assert cmp2.hh_2_dim == 1           # the top central chain is killed
    assert cmp2.ker_up_weight0_dim == cmp2.cartan_kernel_dim == 1


@pytest.mark.parametrize("name,char", [("A4", 0), ("D4", 2), ("E6", 3)])
def test_hochschild2_suite(name, char):
    log = hochschild2_checks(name, char)
    assert log.ok, log.failures()[:5]
