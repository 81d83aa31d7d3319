"""Cross-route consistency checks tying independent computations together."""

import pytest

from koszulkit.algebra import build_graded_algebra
from koszulkit.fields import GF, QQ
from koszulkit.frobenius import BarOracle
from koszulkit.homology import higher_calculus, koszul_homology
from koszulkit.koszul import KoszulCalculus, MODULE_A
from koszulkit.presets import Preset
from koszulkit.quiver import QuadraticPresentation, Quiver


def _full_relation_algebra(field):
    """A small non-preprojective quadratic algebra: kill all weight-2 paths."""
    q = Quiver(["0", "1", "2"],
               [("a", "0", "1"), ("b", "1", "2"), ("c", "2", "0"),
                ("d", "1", "0")])
    rels = []
    for left in range(q.n_arrows):
        for right in range(q.n_arrows):
            if q.source[left] == q.target[right]:
                rels.append([(field.one, (left, right))])
    return QuadraticPresentation(q, rels, field)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_degree01_agree_with_bar_complex_off_preset(field):
    """Koszul and bar-complex (co)homology coincide in degrees 0 and 1 for
    any quadratic algebra; checked on a non-preprojective example."""
    pres = _full_relation_algebra(field)
    alg = build_graded_algebra(pres, 6)
    assert alg.finite and alg.dims() == [3, 4]
    kd = KoszulCalculus(alg, 3)
    coh = koszul_homology(kd, MODULE_A, "coh")
    oracle = BarOracle(alg)
    assert coh.dim(0) == oracle.hh0_dim
    assert coh.dim(1) == oracle.hh1_dim


@pytest.mark.parametrize("name,field", [
    ("A3", QQ), ("A5", QQ), ("D4", QQ), ("D5", GF(2)), ("E6", QQ),
])
def test_top_weight_higher_degree0_is_spanned_by_top_cycles(name, field):
    """The top-weight piece of the degree-0 higher cohomology matches the
    diagonal part of the top component of the algebra."""
    pr = Preset(name, field)
    alg = pr.algebra
    top = alg.max_weight
    kd = KoszulCalculus(alg, 3)
    coh = koszul_homology(kd, MODULE_A, "coh")
    hi = higher_calculus(coh)
    diag_top = sum(len(alg.block_positions(top, i, i))
                   for i in range(alg.quiver.n_vertices))
    assert hi.bigraded_dims(0).get(top, 0) == diag_top


def test_cohomology_dims_field_independent_where_tables_say_so():
    """Type A dimensions are the same in every implemented characteristic."""
    dims = {}
    for field in (QQ, GF(2), GF(3), GF(5)):
        pr = Preset("A5", field)
        kd = KoszulCalculus(pr.algebra, 3)
        coh = koszul_homology(kd, MODULE_A, "coh")
        dims[field.char] = tuple(coh.dims()[:3])
    assert len(set(dims.values())) == 1


def test_duality_route_matches_direct_homology():
    """Homology dimensions computed directly equal the duality-image ranks."""
    from koszulkit import duality as du
    from koszulkit.linalg import echelonize
    pr = Preset("D4", GF(2))
    kd = KoszulCalculus(pr.algebra, 3)
    coh = koszul_homology(kd, MODULE_A, "coh")
    hom = koszul_homology(kd, MODULE_A, "hom")
    w0 = du.omega0(kd)
    field = pr.field
    for p in range(3):
        cols = []
        for rep in coh.representatives(p):
            vec = hom.class_of(du.theta(kd, rep, w0))
            cols.append({k: c for k, c in enumerate(vec) if not field.is_zero(c)})
        assert len(cols) == coh.dim(p)
        rank = echelonize(cols, hom.dim(2 - p), field).dim
        assert rank == coh.dim(p) == hom.dim(2 - p)
