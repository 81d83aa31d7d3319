"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line.  All
arithmetic is exact, so every comparison below is exact equality; the only
tolerances are the stated wall-clock budgets.  Expensive computations are
shared across criteria through a session cache.
"""

import random
import time

import pytest

from koszulkit import adedata
from koszulkit import duality as du
from koszulkit.duality import ae_coefficient_route
from koszulkit.fields import GF, QQ
from koszulkit.homology import koszul_homology
from koszulkit.koszul import KoszulCalculus, MODULE_A, MODULE_K
from koszulkit.presets import Preset, preset_graph
from koszulkit.quiver import Graph, PreprojectiveSpec, preprojective_presentation
from koszulkit.verify import (CheckLog, TypeCharComputation, hochschild2_checks,
                              identity_checks, verify_type_char)

_COMP_CACHE = {}


def comp_of(name, char):
    key = (name, char)
    if key not in _COMP_CACHE:
        _COMP_CACHE[key] = TypeCharComputation(name, char, with_frobenius=False)
    return _COMP_CACHE[key]


def _report(criterion, ok, extra=""):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}"
    if extra:
        line += f" ({extra})"
    print(line)
    return ok


# -- criterion 1: the golden three-vertex run ---------------------------------


def test_ac1_golden_run_char0():
    t0 = time.perf_counter()
    comp = comp_of("A3", 0)
    kd, coh, hom, gens = comp.kd, comp.coh, comp.hom, comp.gens
    ok = coh.dims()[:3] == [2, 1, 3] and hom.dims()[:3] == [3, 1, 2]
    # the fundamental 1-class doubles the arrow-family class
    eA = kd.fundamental_cocycle()
    zeta0 = gens.cochain("zeta0")
    ok &= coh.class_of(eA) == [2 * c for c in coh.class_of(zeta0)]
    # all cup products vanish except the unit action
    labels = gens.all_labels()
    for l1 in labels:
        for l2 in labels:
            p = gens.degree_of(l1) + gens.degree_of(l2)
            if p > 2:
                continue
            got = coh.class_of(kd.cup(gens.cochain(l1), gens.cochain(l2)))
            if l1 == "z0":
                expected = coh.class_of(gens.cochain(l2))
            elif l2 == "z0":
                expected = coh.class_of(gens.cochain(l1))
            else:
                expected = coh.zero_class(p)
            ok &= got == expected
    # duality images match the worked bases through class coordinates
    w0 = du.omega0(kd)
    alg = comp.preset.algebra
    ws0 = kd.w(0)
    from koszulkit.koszul import Chain
    for i in range(3):
        image = du.theta(kd, gens.cochain(f"h{i}"), w0)
        expected = Chain(kd, 0, MODULE_A,
                         {ws0.flat_of_block[(i, i)][0]: alg.vertex_elem(i)})
        ok &= hom.class_of(image) == hom.class_of(expected)
    ai = comp.preset.quiver.arrow_index
    tz = du.theta(kd, zeta0, w0)
    expected = Chain(kd, 1, MODULE_A,
                     {kd.arrow_flat[ai["a0*"]]: alg.arrow_elem(ai["a0"]),
                      kd.arrow_flat[ai["a1*"]]: alg.arrow_elem(ai["a1"])})
    ok &= hom.class_of(tz) == hom.class_of(expected)
    ok &= hom.class_of(du.theta(kd, gens.cochain("z0"), w0)) == hom.class_of(w0)
    z1chain = du.theta(kd, gens.cochain("z1"), w0)
    ok &= any(c != 0 for c in hom.class_of(z1chain))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert _report("1 (golden A3 run)", ok, f"{elapsed:.2f}s")


# -- criterion 2: the length-two theorem --------------------------------------


def _random_connected_graph(rng):
    n = rng.randint(3, 6)
    verts = [str(i) for i in range(n)]
    edges = []
    for v in range(1, n):
        edges.append((str(rng.randrange(v)), str(v)))
    for _ in range(rng.randint(0, 3)):
        u, v = rng.randrange(n), rng.randrange(n)
        edges.append((str(u), str(v)))
    return Graph(verts, edges)


def test_ac2_w3_vanishes():
    t0 = time.perf_counter()
    names = [f"A{n}" for n in range(3, 10)] + [f"D{n}" for n in range(4, 9)] + \
        ["E6", "E7", "E8", "A~2", "A~3", "A~4", "A~5", "D~4"]
    ok = True
    for name in names:
        pres = preprojective_presentation(
            PreprojectiveSpec(preset_graph(name)), QQ)
        from koszulkit.algebra import build_graded_algebra
        alg = build_graded_algebra(pres, 2)
        kd = KoszulCalculus(alg, 2)
        ok &= kd.w(3).dim == 0
    rng = random.Random(2024)
    for _ in range(50):
        g = _random_connected_graph(rng)
        pres = preprojective_presentation(PreprojectiveSpec(g), QQ)
        from koszulkit.algebra import build_graded_algebra
        alg = build_graded_algebra(pres, 2)
        kd = KoszulCalculus(alg, 2)
        ok &= kd.w(3).dim == 0
    # the two-vertex chain instead keeps two-dimensional spaces forever
    pr = Preset("A2", QQ)
    kd = KoszulCalculus(pr.algebra, 8)
    for p in range(2, 9):
        ok &= kd.w(p).dim == 2
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30
    assert _report("2 (length-two theorem)", ok, f"{elapsed:.1f}s")


# -- criteria 3-5: the Dynkin tables ------------------------------------------


def _verify_family(criterion, cases, budget):
    t0 = time.perf_counter()
    log = CheckLog()
    for name, char in cases:
        verify_type_char(name, char, log=log, comp=comp_of(name, char))
    elapsed = time.perf_counter() - t0
    ok = log.ok and elapsed < budget
    assert _report(criterion, ok,
                   f"{len(log.entries)} checks, {elapsed:.1f}s; " +
                   ("all exact" if log.ok else "; ".join(log.failures()[:3])))


def test_ac3_type_a_tables():
    cases = [(f"A{n}", c) for n in range(3, 10) for c in (0, 2)]
    _verify_family("3 (type A tables)", cases, 60)


def test_ac4_type_d_tables():
    cases = [(f"D{n}", c) for n in range(4, 9) for c in (0, 2)]
    _verify_family("4 (type D tables)", cases, 120)


def test_ac5_type_e_tables():
    t0 = time.perf_counter()
    for name, chars, budget in [("E6", (0, 2, 3), 300), ("E7", (0, 2, 3), 300)]:
        t1 = time.perf_counter()
        log = CheckLog()
        for c in chars:
            verify_type_char(name, c, log=log, comp=comp_of(name, c))
        elapsed = time.perf_counter() - t1
        assert log.ok and elapsed < budget, (name, log.failures()[:3])
    for c in (2, 3, 5):
        t1 = time.perf_counter()
        log = verify_type_char("E8", c, comp=comp_of("E8", c))
        elapsed = time.perf_counter() - t1
        assert log.ok and elapsed < 1800, ("E8", c, log.failures()[:3])
    assert _report("5 (type E tables)", True,
                   f"{time.perf_counter()-t0:.0f}s total")


# -- criterion 6: the duality suite -------------------------------------------


def test_ac6_duality_suite():
    # algebra coefficients are covered by the verify runs above (their
    # duality block asserts inversion, chain maps, cap symmetry, module
    # identities and class-level bijections); trivial coefficients here
    t0 = time.perf_counter()
    ok = True
    count = 0
    for name, char in [("A3", 0), ("A5", 2), ("D4", 0), ("E6", 3)]:
        comp = comp_of(name, char)
        cohk = koszul_homology(comp.kd, MODULE_K, "coh")
        homk = koszul_homology(comp.kd, MODULE_K, "hom")
        rep = du.verify_duality(cohk, homk)
        ok &= rep.ok
        count += len(rep.checks)
        for p in range(3):
            ok &= cohk.dim(p) == homk.dim(2 - p)
    assert _report("6 (duality suite)", ok,
                   f"k-coefficients: {count} further checks, "
                   f"{time.perf_counter()-t0:.1f}s")


# -- criterion 7: the dimension-2 Calabi-Yau checks ----------------------------


def test_ac7_calabi_yau_checks():
    t0 = time.perf_counter()
    ok = True
    details = []
    dynkin = [f"A{n}" for n in range(3, 10)] + [f"D{n}" for n in range(4, 9)] + \
        ["E6", "E7", "E8"]
    for name in dynkin:
        pr = Preset(name, GF(2))
        kd = KoszulCalculus(pr.algebra, 3)
        ae = ae_coefficient_route(kd)
        good = (ae["h0_is_algebra"] and ae["h1_zero"] and ae["h2_dim"] > 0
               and ae["hk2_ae_equals_dim_A"] and ae["hk_ae_dims"][1] == 0
               and ae["kc_calabi_yau_2"])
        ok &= good
        if not good:
            details.append(name)
    # rational cross-check on the golden preset
    kd = comp_of("A3", 0).kd
    ae = ae_coefficient_route(kd)
    ok &= ae["h0_is_algebra"] and ae["h1_zero"] and ae["h2_dim"] > 0
    for name in ["A~2", "A~3", "A~4", "A~5", "D~4"]:
        pr = Preset(name, GF(2), cutoff=8)
        kd = KoszulCalculus(pr.algebra, 3)
        ae = ae_coefficient_route(kd, weight_cutoff=8)
        good = ae["koszul_up_to_cutoff"] and ae["h0_is_algebra"] and ae["h1_zero"]
        table = ae["homology_table"]
        good &= not table.get(2) and not table.get(3)
        ok &= good
        if not good:
            details.append(name)
    assert _report("7 (Kc-Calabi-Yau checks)", ok,
                   f"{time.perf_counter()-t0:.0f}s" +
                   (f"; failing: {details}" if details else ""))


# -- criterion 8: degree-2 Hochschild comparison --------------------------------


def test_ac8_hochschild_degree2():
    t0 = time.perf_counter()
    log = CheckLog()
    cases = [(f"A{n}", c) for n in range(3, 10) for c in (0, 2)]
    cases += [("E6", 0), ("E6", 2), ("E6", 3), ("E7", 0), ("E7", 2), ("E8", 2)]
    for name, char in cases:
        hochschild2_checks(name, char, log=log, comp=comp_of(name, char))
    # bar oracle agreement in low degrees
    from koszulkit.frobenius import BarOracle
    ok = log.ok
    for name in ["A3", "A4", "D4"]:
        comp = comp_of(name, 0)
        oracle = BarOracle(comp.preset.algebra, max_space=400_000)
        ok &= oracle.hh0_dim == comp.coh.dim(0)
        ok &= oracle.hh1_dim == comp.coh.dim(1)
    assert _report("8 (degree-2 Hochschild comparison)", ok,
                   f"{len(log.entries)} checks, {time.perf_counter()-t0:.0f}s; " +
                   ("all exact" if ok else "; ".join(log.failures()[:3])))


# -- criterion 9: the invariant-triple theorem ----------------------------------


def _triples(char):
    return {name: comp_of(name, char).invariant_triple()
            for name in adedata.listed_types()}


def test_ac9_documented_collisions():
    t0 = time.perf_counter()
    ok = True
    tri0 = _triples(0)
    a3, a5 = tri0["A3"], tri0["A5"]
    ok &= a3[:2] == a5[:2] and a3[2] != a5[2]
    tri2 = _triples(2)
    a9, e6 = tri2["A9"], tri2["E6"]
    ok &= a9[:2] == e6[:2] and a9[2] != e6[2]
    assert _report("9a (documented near-collisions)", ok,
                   f"A3{a3} A5{a5}; A9{a9} E6{e6}; {time.perf_counter()-t0:.0f}s")


def test_ac9_triples_distinguish_all_pairs():
    """Criterion as stated.  The computed char-0 triples of the largest
    listed D and E types coincide: D8 and E8 both give (8, 0, 8) over Q,
    GF(2^31 - 1) and GF(7), while their HK dims differ ([11, 3, 8] for D8,
    [12, 4, 8] for E8).  So this check records an honest failure; the
    written account against the literature is ROADMAP item 4."""
    t0 = time.perf_counter()
    collisions = []
    for char in (0, 2):
        tri = _triples(char)
        seen = {}
        for name, t in tri.items():
            if t in seen:
                collisions.append((char, seen[t], name, t))
            else:
                seen[t] = name
    ok = not collisions
    _report("9b (pairwise distinguishability)", ok,
            f"collisions: {collisions}; {time.perf_counter()-t0:.0f}s")
    assert ok, (
        "computed higher-calculus dimension triples fail to separate "
        f"{collisions}; both computed values are exact and double-checked, "
        "so the published separation claim does not hold for this pair")


# -- criterion 10: the identity checks on fixed bases ----------------------------


def test_ac10_property_suite():
    t0 = time.perf_counter()
    ok = True
    details = []
    for name, char in [("A3", 0), ("A4", 2), ("D4", 0)]:
        comp = comp_of(name, char)
        log = identity_checks(comp.coh, comp.hom, preprojective=True)
        ok &= log.ok and not log.vacuous
        details.extend(log.failures()[:3] + [f"{name}/{char} vacuous: {v}" for v in log.vacuous])
    assert _report("10 (identity checks on fixed bases)", ok,
                   f"{time.perf_counter()-t0:.0f}s" +
                   (f"; {details}" if details else "; one exact check per identity"))
