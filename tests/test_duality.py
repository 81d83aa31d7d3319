import random
from collections import Counter
from fractions import Fraction

import pytest

from koszulkit import duality as du
from koszulkit.fields import GF, QQ
from koszulkit.homology import higher_calculus, koszul_homology
from koszulkit.koszul import Chain, Cochain, DegreeError, KoszulCalculus, \
    MODULE_A, MODULE_K
from koszulkit.presets import Preset


@pytest.fixture(scope="module")
def a3():
    pr = Preset("A3", QQ)
    kd = KoszulCalculus(pr.algebra, 3)
    coh = koszul_homology(kd, MODULE_A, "coh")
    hom = koszul_homology(kd, MODULE_A, "hom")
    return pr, kd, coh, hom


def test_omega0_is_a_nonzero_class(a3):
    pr, kd, _coh, hom = a3
    w0 = du.omega0(kd)
    assert w0.is_cycle()
    assert any(c != 0 for c in hom.class_of(w0))


def test_omega0_requires_preprojective():
    from koszulkit.algebra import build_graded_algebra
    from koszulkit.quiver import QuadraticPresentation, Quiver
    q = Quiver(["0"], [("x", "0", "0"), ("y", "0", "0")])
    xi, yi = q.arrow_index["x"], q.arrow_index["y"]
    pres = QuadraticPresentation(
        q, [[(QQ.one, (xi, yi)), (QQ.from_int(-1), (yi, xi))]], QQ)
    alg = build_graded_algebra(pres, 4)
    kd = KoszulCalculus(alg, 3)
    with pytest.raises(du.NotPreprojectiveError):
        du.omega0(kd)


def test_theta_images_match_worked_example(a3):
    pr, kd, coh, hom = a3
    alg = pr.algebra
    ai = pr.quiver.arrow_index
    w0 = du.omega0(kd)
    # degree 2 classes map onto the vertex-supported 0-chains
    for i in range(3):
        h_i = kd.cochain_on_relations({pr.relation_of_vertex(i):
                                       alg.vertex_elem(i)})
        ws0 = kd.w(0)
        expected = Chain(kd, 0, MODULE_A,
                         {ws0.flat_of_block[(i, i)][0]: alg.vertex_elem(i)})
        assert du.theta(kd, h_i, w0).equals(expected)
        assert hom.class_of(du.theta(kd, h_i, w0)) == hom.class_of(expected)
    # the arrow-family 1-class maps to the paired-arrow 1-chain
    zeta0 = kd.cochain_on_arrows({ai["a0"]: alg.arrow_elem(ai["a0"]),
                                  ai["a1"]: alg.arrow_elem(ai["a1"])})
    expected = Chain(kd, 1, MODULE_A,
                     {kd.arrow_flat[ai["a0*"]]: alg.arrow_elem(ai["a0"]),
                      kd.arrow_flat[ai["a1*"]]: alg.arrow_elem(ai["a1"])})
    assert du.theta(kd, zeta0, w0).equals(expected)
    # the unit 0-class maps to the fundamental cycle
    one = du.unit_cochain(kd)
    assert du.theta(kd, one, w0).equals(w0)


def test_eta_inverts_theta_on_random_cochains(a3):
    pr, kd, _coh, _hom = a3
    alg = pr.algebra
    rng = random.Random(6)
    for p in range(3):
        ws = kd.w(p)
        for _ in range(10):
            values = {}
            for flat in range(ws.dim):
                j, i = ws.block_of(flat)
                val = {}
                for m in range(alg.max_weight + 1):
                    for pos in alg.block_positions(m, j, i):
                        c = Fraction(rng.randint(-2, 2))
                        if c:
                            val[(m, pos)] = c
                if val:
                    values[flat] = val
            f = Cochain(kd, p, MODULE_A, values)
            assert du.eta(kd, du.theta(kd, f)).equals(f)
    with pytest.raises(DegreeError):
        du.theta(kd, Cochain(kd, 3, MODULE_A, {}))


@pytest.mark.parametrize("name,field", [
    ("A3", QQ), ("A4", GF(2)), ("D4", QQ), ("A5", GF(3)),
])
def test_full_duality_suite(name, field):
    pr = Preset(name, field)
    kd = KoszulCalculus(pr.algebra, 3)
    coh = koszul_homology(kd, MODULE_A, "coh")
    hom = koszul_homology(kd, MODULE_A, "hom")
    rep = du.verify_duality(kd, coh, hom, MODULE_A,
                            higher_calculus(coh), higher_calculus(hom))
    assert rep.ok, rep.failures[:5]


@pytest.mark.parametrize("name,field,n_basis,pairs", [
    ("D5", QQ, [16, 24, 16], 2112),
    ("E6", GF(3), [32, 56, 32], 9792),
], ids=["D5-Q", "E6-F3"])
def test_module_identities_cover_every_basis_pair(monkeypatch, name, field, n_basis, pairs):
    alg = Preset(name, field).algebra
    kd = KoszulCalculus(alg, 3)
    got = []
    for p in range(3):
        ws = kd.w(p)
        got.append(sum(len(alg.block_positions(m, *ws.block_of(k)))
                       for k in range(ws.dim) for m in range(alg.max_weight + 1)))
    assert got == n_basis
    assert sum(n_basis[p] * n_basis[q] for p in range(3) for q in range(3 - p)) == pairs
    counts = Counter()
    record = du.DualityReport.record

    def counting_record(self, check, ok, detail=""):
        counts[check] += 1
        record(self, check, ok, detail)

    monkeypatch.setattr(du.DualityReport, "record", counting_record)
    coh = koszul_homology(kd, MODULE_A, "coh")
    hom = koszul_homology(kd, MODULE_A, "hom")
    rep = du.verify_duality(kd, coh, hom, MODULE_A)
    assert rep.ok, rep.failures[:3]
    assert counts["theta(f cup g) = theta(f) cap g"] == pairs
    assert counts["theta(f cup g) = f cap theta(g)"] == pairs


def test_duality_with_trivial_coefficients(a3):
    pr, kd, _coh, _hom = a3
    cohk = koszul_homology(kd, MODULE_K, "coh")
    homk = koszul_homology(kd, MODULE_K, "hom")
    rep = du.verify_duality(kd, cohk, homk, MODULE_K)
    assert rep.ok, rep.failures[:5]


def test_cap_with_fundamental_class_is_nonzero_in_odd_characteristic(a3):
    pr, kd, _coh, hom = a3
    w0 = du.omega0(kd)
    eA = kd.fundamental_cocycle()
    z = kd.cap(eA, w0, side="right")
    cls = hom.class_of(z)
    assert any(c != 0 for c in cls)
    # degree-0 action: the unit acts as the identity; the positive-weight
    # central class annihilates degrees 0 and 1 and multiplies into the
    # degree-2 family through the duality images
    coh = koszul_homology(kd, MODULE_A, "coh")
    alg = pr.algebra
    ai = pr.quiver.arrow_index
    z1_elem = alg.multiply(alg.arrow_elem(ai["a1*"]), alg.arrow_elem(ai["a1"]))
    z1c = kd.cochain_on_vertices({1: z1_elem})
    one = du.unit_cochain(kd)
    for q in range(3):
        for zz in hom.representatives(q):
            assert hom.class_of(kd.cap(one, zz, "left")) == hom.class_of(zz)
            out = hom.class_of(kd.cap(z1c, zz, "left"))
            if q < 2:
                assert all(c == 0 for c in out)
    zcheck0 = du.theta(kd, du.unit_cochain(kd), w0)
    zcheck1 = du.theta(kd, z1c, w0)
    assert hom.class_of(kd.cap(z1c, zcheck0, "left")) == hom.class_of(zcheck1)
    assert all(c == 0 for c in hom.class_of(kd.cap(z1c, zcheck1, "left")))


def test_ae_route_dynkin_and_koszul(a3):
    pr, kd, _coh, _hom = a3
    ae = du.ae_coefficient_route(kd)
    assert ae["h0_is_algebra"] and ae["h1_zero"]
    assert ae["h2_dim"] > 0
    assert ae["hk2_ae_equals_dim_A"]
    assert ae["kc_calabi_yau_2"]
    assert not ae["koszul_up_to_cutoff"]
    pr2 = Preset("A~2", QQ, cutoff=8)
    kd2 = KoszulCalculus(pr2.algebra, 3)
    ae2 = du.ae_coefficient_route(kd2, weight_cutoff=8)
    assert ae2["h0_is_algebra"] and ae2["h1_zero"] and ae2["h2_dim"] == 0
    assert ae2["koszul_up_to_cutoff"] and ae2["kc_calabi_yau_2"]
