import pytest

from koszulkit.algebra import build_graded_algebra
from koszulkit.fields import QQ
from koszulkit.homology import koszul_homology
from koszulkit.koszul import KoszulCalculus, MODULE_A
from koszulkit.presets import Preset
from koszulkit.quiver import QuadraticPresentation, Quiver
from koszulkit.verify import (TypeCharComputation, direct_higher0_dim, field_of_char,
                              identity_checks)


@pytest.mark.parametrize("name,char", [("A2", 0), ("A3", 0), ("A4", 2), ("D4", 0),
                                       ("E6", 3), ("E8", 0)])
def test_identity_suite(name, char):
    """Every identity passes and compared at least one nonzero side: none is
    vacuous, so all fifteen are logged.  A2 has W_3 != 0, so its Leibniz
    sides in degree 3 are compared too."""
    comp = TypeCharComputation(name, char, with_frobenius=False)
    log = identity_checks(comp.coh, comp.hom, preprojective=True)
    assert log.ok, log.failures()[:5]
    assert not log.vacuous and len(log.entries) == 15


def test_direct_higher0_description():
    for name, char, expected in [("A3", 0, 1), ("A4", 0, 0), ("A3", 2, 2),
                                 ("D4", 0, 4)]:
        comp = TypeCharComputation(name, char, with_frobenius=False)
        assert direct_higher0_dim(comp.preset.algebra) == expected
        assert comp.hi_coh.dim(0) == expected


def test_a_degree_without_blocks_draws_zero():
    """A path algebra without relations has W_2 = 0, so degree 2 has no
    block and no unit (co)chain.  The checks still run: every identity that
    reads degree-2 chains (b^K o b^K, b^K = -[eA, -]_cap and its biweight,
    the three cap compatibilities) compares zero with zero only, and is
    listed as vacuous instead of passing."""
    q = Quiver(["0", "1", "2"], [("x", "0", "1"), ("y", "1", "2")])
    kd = KoszulCalculus(build_graded_algebra(QuadraticPresentation(q, [], QQ), 6), 3)
    coh = koszul_homology(kd, MODULE_A, "coh")
    hom = koszul_homology(kd, MODULE_A, "hom")
    assert kd.w(2).dim == 0 and coh.layout(2) == hom.layout(2) == (0, {})
    log = identity_checks(coh, hom, preprojective=False)
    assert log.ok
    assert log.vacuous == ["b^K o b^K = 0", "b^K = -[eA, -]_cap",
                           "f cap (g cap z) = (f cup g) cap z",
                           "(z cap g) cap f = z cap (g cup f)",
                           "f cap (z cap g) = (f cap z) cap g", "b^K biweight (-1,+1)"]
    assert [key for key, _ok, _d in log.entries] == [
        "bK o bK = 0", "Leibniz", "bK = -[eA, -]_cup", "(f cup g) cup h assoc",
        "bK biweight (+1,+1)", "HK0 = center", "HK0_hi = direct solution set"]


def _faulty_calculus(name, char, weight):
    """The calculus of a preset with one product fault injected after its
    homology is built, so that only the checks can see it: the first
    single-term ``_rmul`` entry out of ``weight`` doubled, or, for weight
    None, the first coefficient of the (1, 1) split table negated."""
    field = field_of_char(char)
    alg = Preset(name, field).algebra
    kd = KoszulCalculus(alg, 3)
    coh = koszul_homology(kd, MODULE_A, "coh")
    hom = koszul_homology(kd, MODULE_A, "hom")
    if weight is None:
        row = next(r for r in kd.split_coords(1, 1) if r)
        key = next(iter(row))
        row[key] = field.neg(row[key])
    else:
        table = alg._rmul[weight]
        key = next(k for k, v in table.items() if len(v) == 1)
        (pos, c), = table[key].items()
        table[key] = {pos: field.add(c, c)}
    return coh, hom


#: The faults that the seed-0, 100-trial sampled suite, which these checks
#: replaced, turned red on (two by a failed entry, three by raising
#: NotClosedError), each with the entries red here.  Neither it nor these
#: checks catch the doubled weight-2 entry of E6/Q or the doubled weight-2
#: and weight-5 entries of D5/F:3.  The weight-5 one leaves A associative
#: on every monomial triple, so no identity of the calculus can see it; the
#: weight-2 ones make A non-associative on 137 (E6/Q) and 19 (D5/F:3)
#: monomial triples that these checks do not reach.  Leibniz on units x
#: representatives, instead of units x units, missed both weight-3 faults.
CAUGHT_FAULTS = {
    ("E6", 0, 3): ["Leibniz"],
    ("E6", 0, 5): ["Leibniz", "(f cup g) cup h assoc", "(z cap g) cap f = z cap (g cup f)",
                   "f cap (z cap g) = (f cap z) cap g"],
    ("E6", 0, None): ["Leibniz", "bK = -[eA, -]_cup", "b^K = -[eA, -]_cap",
                      "class cap graded symmetric"],
    ("D5", 3, 3): ["Leibniz"],
    ("D5", 3, None): ["Leibniz", "bK = -[eA, -]_cup", "b^K = -[eA, -]_cap",
                      "class cap graded symmetric"],
}


@pytest.mark.parametrize("name,char,weight", list(CAUGHT_FAULTS),
                         ids=[f"{n}-{c}-{'split' if w is None else f'rmul{w}'}"
                              for n, c, w in CAUGHT_FAULTS])
def test_an_injected_product_fault_turns_entries_red(name, char, weight):
    coh, hom = _faulty_calculus(name, char, weight)
    log = identity_checks(coh, hom, preprojective=True)
    assert [key for key, ok, _d in log.entries if not ok] == CAUGHT_FAULTS[(name, char, weight)]


def test_a_product_without_a_class_is_a_red_entry():
    """A cap product that is not a cycle fails its identity instead of
    raising NotClosedError out of the checks."""
    coh, hom = _faulty_calculus("E6", 0, None)
    entries = {key: (ok, detail) for key, ok, detail in identity_checks(coh, hom, True).entries}
    assert entries["class cap graded symmetric"] == (
        False, "a product has no class: not a cycle: differential is nonzero")


@pytest.mark.parametrize("p,q", [(0, 1), (1, 0), (1, 1), (0, 2)])
def test_a_sign_error_in_one_cup_term_turns_entries_red(p, q):
    """The first term of the cup rows of W_p (x) W_q negated on E6/Q: the
    cup product alone is wrong, the differential and the caps are not."""
    comp = TypeCharComputation("E6", 0, with_frobenius=False)
    row = next(r for r in comp.kd._split_rows(p, q, "cup") if r)
    y, z, c = row[0]
    row[0] = (y, z, comp.field.neg(c))
    log = identity_checks(comp.coh, comp.hom, preprojective=True)
    assert "Leibniz" in log.failures()[0] and not log.ok
