import random
from fractions import Fraction

import pytest

from koszulkit import duality as du
from koszulkit.algebra import build_graded_algebra
from koszulkit.fields import GF, QQ
from koszulkit.homology import CoordSpace, higher_calculus, koszul_homology
from koszulkit.koszul import Chain, Cochain, DegreeError, KoszulCalculus, \
    MODULE_A, MODULE_K, ModuleError
from koszulkit.presets import Preset
from koszulkit.quiver import QuadraticPresentation


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
        h_i = kd.cochain_on_relations({pr.presentation.relation_of_vertex[i]:
                                       alg.vertex_elem(i)})
        ws0 = kd.w(0)
        expected = Chain(kd, 0, MODULE_A,
                         {ws0.flat_of_block[(i, i)][0]: alg.vertex_elem(i)})
        assert du.theta(kd, h_i, w0) == expected
        assert hom.class_of(du.theta(kd, h_i, w0)) == hom.class_of(expected)
    # the arrow-family 1-class maps to the paired-arrow 1-chain
    zeta0 = kd.cochain_on_arrows({ai["a0"]: alg.arrow_elem(ai["a0"]),
                                  ai["a1"]: alg.arrow_elem(ai["a1"])})
    expected = Chain(kd, 1, MODULE_A,
                     {kd.arrow_flat[ai["a0*"]]: alg.arrow_elem(ai["a0"]),
                      kd.arrow_flat[ai["a1*"]]: alg.arrow_elem(ai["a1"])})
    assert du.theta(kd, zeta0, w0) == expected
    # the unit 0-class maps to the fundamental cycle
    one = du.unit_cochain(kd)
    assert du.theta(kd, one, w0) == w0


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
            assert du.eta_table(kd, [du.theta(kd, f)])[0] == f
    with pytest.raises(DegreeError):
        du.theta(kd, Cochain(kd, 3, MODULE_A, {}))


@pytest.mark.parametrize("name,field", [("A3", QQ), ("D5", GF(3)), ("E6", GF(2))])
@pytest.mark.parametrize("module", [MODULE_A, MODULE_K])
def test_theta_table_matches_per_cochain_caps(name, field, module):
    """theta_table on every basis cochain of degrees 0-2, and on zero, equals
    the right cap of omega0 with each cochain alone: same module, degree and
    values."""
    kd = KoszulCalculus(Preset(name, field).algebra, 3)
    w0 = du.omega0(kd)
    weights = range(kd.algebra.max_weight + 1) if module == MODULE_A else [None]
    for p in range(3):
        fs = [space.unflatten({k: field.one})
              for space in (CoordSpace(kd, p, m, module, "coh") for m in weights)
              for k in range(space.dim)]
        # k has no degree-1 basis: no arrow of a Dynkin quiver is a loop
        assert bool(fs) == (module == MODULE_A or p != 1)
        # the zero cochain has no entry in the table: its theta is read as zero
        fs.append(Cochain(kd, p, module, {}))
        got = du.theta_table(kd, fs, w0)
        assert len(got) == len(fs) and got[-1].is_zero()
        for f, t in zip(fs, got):
            ref = kd.cap(f, w0, side="right")
            assert (t.module, t.degree, t.values) == (ref.module, ref.degree, ref.values)
            assert (t.module, t.degree) == (module, 2 - p)
    assert du.theta_table(kd, [], w0) == []
    with pytest.raises(DegreeError):
        du.theta_table(kd, [Cochain(kd, 3, MODULE_A, {}), Cochain(kd, 3, MODULE_A, {})], w0)


def _unit_basis(spaces, p):
    """The unit (co)chains of degree p, block by block in the class layout."""
    return [blk.space.unflatten({k: spaces.kd.field.one})
            for _start, blk in spaces.layout(p)[1].values() for k in range(blk.space.dim)]


def reference_eta(kd, z):
    """The inverse of theta as it was written before ``eta_table``: one
    branch per chain degree, read off the relations, the star involution
    and the sign function of the preprojective presentation."""
    pres = kd.algebra.presentation
    spec = pres.preprojective
    acc = {}
    if z.q == 2:
        # m (x) sigma_i  ->  (e_j -> delta_ij e_j m e_i)
        ws = kd.w(2)
        for flat_idx, m in z.values.items():
            for r, c in ws.relation_coords[flat_idx].items():
                kd._mod_accumulate(z.module, acc, pres.sigma_vertices[r], m, c)
        return kd.cochain_on_vertices(acc, z.module)
    if z.q == 1:
        # m (x) a  ->  (b -> delta_{b,a*} eps(b) t(b) m s(b))
        ws = kd.w(1)
        for flat_idx, m in z.values.items():
            j, i, k = ws.flat[flat_idx]
            b = spec.star[ws.block_paths[(j, i)][k][0]]
            kd._mod_accumulate(z.module, acc, b, m, kd.field.from_int(spec.eps[b]))
        return kd.cochain_on_arrows(acc, z.module)
    assert z.q == 0
    # m (x) e_i  ->  (sigma_j -> delta_ij e_j m e_i)
    ws = kd.w(0)
    for flat_idx, m in z.values.items():
        r = pres.relation_of_vertex.get(ws.block_of(flat_idx)[0])
        if r is not None:
            kd._mod_accumulate(z.module, acc, r, m, kd.field.one)
    return kd.cochain_on_relations(acc, z.module)


@pytest.mark.parametrize("name,field", [("A3", QQ), ("D5", GF(3)), ("E6", GF(2)), ("E7", QQ)])
@pytest.mark.parametrize("module", [MODULE_A, MODULE_K])
def test_eta_table_matches_the_per_degree_reference(name, field, module):
    """eta_table, one formula over omega0's split pairing, equals the
    per-degree reference on every unit chain of degrees 0-2: same module,
    degree and values."""
    kd = KoszulCalculus(Preset(name, field).algebra, 3)
    hom = koszul_homology(kd, module, "hom")
    for q in range(3):
        zs = _unit_basis(hom, q)
        # k has no degree-1 basis: no arrow of a Dynkin quiver is a loop
        assert bool(zs) == (module == MODULE_A or q != 1)
        got = du.eta_table(kd, zs)
        assert len(got) == len(zs)
        for z, f in zip(zs, got):
            ref = reference_eta(kd, z)
            assert (f.module, f.degree, f.values) == (ref.module, ref.degree, ref.values)
            assert (f.module, f.degree) == (module, 2 - q)
        if zs:
            assert du.eta_table(kd, [zs[-1]])[0].values == got[-1].values


def test_eta_table_refusals(a3):
    _pr, kd, _coh, _hom = a3
    assert du.eta_table(kd, []) == []
    with pytest.raises(DegreeError):
        du.eta_table(kd, [Chain(kd, 3, MODULE_A, {})])
    with pytest.raises(DegreeError):
        du.eta_table(kd, [Chain(kd, 0, MODULE_A, {}), Chain(kd, 1, MODULE_A, {})])
    # A1 has no arrows, so omega0 is the zero chain and pairs W_0 with nothing
    kd1 = KoszulCalculus(Preset("A1", QQ).algebra, 3)
    assert du.omega0(kd1).is_zero()
    for q in (0, 2):
        with pytest.raises(du.NotPreprojectiveError):
            du.eta_table(kd1, [Chain(kd1, q, MODULE_A, {})])


@pytest.mark.parametrize("name,field", [
    ("A3", QQ), ("A4", GF(2)), ("D4", QQ), ("A5", GF(3)),
])
def test_full_duality_suite(name, field):
    pr = Preset(name, field)
    kd = KoszulCalculus(pr.algebra, 3)
    coh = koszul_homology(kd, MODULE_A, "coh")
    hom = koszul_homology(kd, MODULE_A, "hom")
    rep = du.verify_duality(coh, hom, higher_calculus(coh), higher_calculus(hom))
    assert rep.ok, rep.failures[:5]


def _fault_once(monkeypatch, owner, name, fault):
    """Replace ``owner.name`` by a wrapper that hands each call's arguments
    and result to ``fault`` until it returns a replacement (not None), and
    returns that replacement in place of the result once."""
    real = getattr(owner, name)
    done = []

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        if not done:
            faulty = fault(args, kwargs, out)
            if faulty is not None:
                done.append(name)
                return faulty
        return out
    monkeypatch.setattr(owner, name, wrapper)
    return done


def _on_table(side, change, omega0_cap=False):
    """A fault on one nonempty product table: the cup table when ``side`` is
    None, else a cap table of that side, against omega0 (one chain) when
    ``omega0_cap`` and against the theta columns of check (d) otherwise."""
    def fault(args, kwargs, table):
        _self, fs, others = args[:3]
        if not table or (side is not None and (kwargs.get("side") != side
                                               or (len(others) == 1) != omega0_cap)):
            return None
        return change(dict(table), len(fs), len(others))
    return fault


def _add_absent(table, n_f, n_g):
    """A nonzero product at the first pair absent from the table."""
    absent = next(((i, j) for i in range(n_f) for j in range(n_g) if (i, j) not in table), None)
    if absent is None:
        return None
    table[absent] = next(iter(table.values()))
    return table


def _drop_first(table, _n_f, _n_g):
    del table[next(iter(table))]
    return table


def _double_first(table, _n_f, _n_g):
    key = next(iter(table))
    table[key] = table[key].scale(table[key].kd.field.from_int(2))
    return table


def _twice(kd, c):
    return kd.field.mul(kd.field.from_int(2), c)


def _double_term(side):
    """A doubled coefficient in the first nonempty row of the first term
    table of ``side`` below degree 2, which only check (a) reads: omega0's
    own boundary reads the degree-2 chain terms."""
    def fault(args, kwargs, table):
        kd, p, side_read = args[:3]
        return None if side_read != side or p >= 2 else _doubled_first(table, kd)
    return fault


def _double_pairing(side):
    """A doubled entry in the first pairing of ``side`` read off omega0."""
    def fault(args, kwargs, pairing):
        kd = args[0]
        if (args[3] if len(args) > 3 else kwargs.get("side", "right")) != side or not pairing:
            return None
        pairing = {s: dict(row) for s, row in pairing.items()}
        row = next(iter(pairing.values()))
        u = next(iter(row))
        row[u] = _twice(kd, row[u])
        return pairing
    return fault


def _double_inverse(degree=None):
    """A doubled scalar in the first inverse of eta, of chain degree
    ``degree`` when given."""
    def fault(args, kwargs, inverse):
        kd, _w0, q = args[:3]
        if degree is not None and q != degree:
            return None
        inverse = dict(inverse)
        u = next(iter(inverse))
        s, c = inverse[u]
        inverse[u] = (s, _twice(kd, c))
        return inverse
    return fault


def _boundary_below(n):
    """A nonzero boundary for the first chain of degree below n: a theta
    column of the class representatives, not omega0."""
    def fault(args, kwargs, out):
        z = args[1]
        if z.q >= n:
            return None
        return Chain(z.kd, z.q - 1, z.module, {0: z.kd.algebra.vertex_elem(0)})
    return fault


def _on_representatives(spaces, fault):
    """``fault`` on the first call whose list holds class representatives of
    ``spaces`` (as objects, not as equal copies)."""
    def on_reps(args, kwargs, out):
        zs = args[1]
        if not zs or not any(zs[0] is r for r in spaces.representatives(zs[0].degree)):
            return None
        return fault(args, kwargs, out)
    return on_reps


def _double_first_eta(args, kwargs, out):
    return [out[0].scale(out[0].kd.field.from_int(2))] + out[1:] if out else None


def _double_scalar(side):
    """A doubled entry in the first nonempty ``module_table`` of ``side``."""
    def fault(args, kwargs, table):
        kd, side_read = args[0], args[4]
        if side_read != side or not table:
            return None
        table = dict(table)
        key = next(iter(table))
        table[key] = kd.field.mul(kd.field.from_int(2), table[key])
        return table
    return fault


_CUP_SIDES = {"theta(f cup g) = theta(f) cap g", "theta(f cup g) = f cap theta(g)"}
CHAIN_MAP, ETA_THETA, CAP_SYMMETRY, THETA_ETA = (
    du.CHAIN_MAP, du.ETA_THETA, du.CAP_SYMMETRY, du.THETA_ETA)
_TABLE_FAULTS = [
    (KoszulCalculus, "cup_table", None, _CUP_SIDES),
    (KoszulCalculus, "cap_table", "right", {"theta(f cup g) = theta(f) cap g"}),
    (KoszulCalculus, "cap_table", "left", {"theta(f cup g) = f cap theta(g)"}),
]
_W_TABLE_FAULTS = [
    ("cup", _CUP_SIDES),
    ("left", {"theta(f cup g) = theta(f) cap g"}),
    ("right", {"theta(f cup g) = f cap theta(g)"}),
]


@pytest.mark.parametrize("name,field,n_basis,pairs", [
    ("D5", QQ, [16, 24, 16], 2112),
    ("E6", GF(3), [32, 56, 32], 9792),
], ids=["D5-Q", "E6-F3"])
def test_duality_checks_fail_on_each_fault(monkeypatch, name, field, n_basis, pairs):
    """Check (d) compares three W tables and three product tables on the
    class representatives, the latter on the union of their keys.  A
    nonzero product added at a pair absent from all three, a present pair
    dropped or a present product doubled, in one product table at one
    degree pair, or a doubled entry of one W table, turns exactly the
    identities that read that table False, once each.

    (a)-(c) and theta o eta are each a W half and a class half.  A doubled
    entry of a term table below degree 2 turns (a) False alone, and so
    does a nonzero boundary of a theta column; a doubled scalar in the
    first inverse of eta (read by (b) at degree 0) or in the first of chain
    degree 0 (read by theta o eta at degree 0), or a doubled eta column of
    the representatives, turns that identity False alone; a doubled left
    pairing or a dropped left cap against omega0 turns (c) False alone.
    The pairing theta reads is theta itself: a doubled entry turns all four
    False.  ``n_basis`` and ``pairs`` count the unit cochains and their
    pairs, whose products the W tables stand in for."""
    alg = Preset(name, field).algebra
    kd = KoszulCalculus(alg, 3)
    got = []
    for p in range(3):
        ws = kd.w(p)
        got.append(sum(len(alg.block_positions(m, *ws.block_of(k)))
                       for k in range(ws.dim) for m in range(alg.max_weight + 1)))
    assert got == n_basis
    assert sum(n_basis[p] * n_basis[q] for p in range(3) for q in range(3 - p)) == pairs
    coh = koszul_homology(kd, MODULE_A, "coh")
    hom = koszul_homology(kd, MODULE_A, "hom")
    rep = du.verify_duality(coh, hom)
    assert rep.ok, rep.failures[:3]
    faults = [(owner, method, _on_table(side, change), expected)
              for owner, method, side, expected in _TABLE_FAULTS
              for change in (_add_absent, _drop_first, _double_first)]
    faults += [(du, "module_table", _double_scalar(side), expected)
               for side, expected in _W_TABLE_FAULTS]
    faults += [
        # the W halves of (a)-(c) and theta o eta
        (KoszulCalculus, "terms", _double_term("coh"), {CHAIN_MAP}),
        (KoszulCalculus, "terms", _double_term("hom"), {CHAIN_MAP}),
        (du, "eta_inverse", _double_inverse(), {ETA_THETA}),
        (du, "eta_inverse", _double_inverse(0), {THETA_ETA}),
        (du, "cap_pairing", _double_pairing("left"), {CAP_SYMMETRY}),
        (du, "cap_pairing", _double_pairing("right"),
         {CHAIN_MAP, ETA_THETA, CAP_SYMMETRY, THETA_ETA}),
        # their halves on the class representatives
        (KoszulCalculus, "apply_bK_chain", _boundary_below(2), {CHAIN_MAP}),
        (du, "eta_table", _double_first_eta, {ETA_THETA}),
        (KoszulCalculus, "cap_table", _on_table("left", _drop_first, omega0_cap=True),
         {CAP_SYMMETRY}),
        (du, "eta_table", _on_representatives(hom, _double_first_eta), {THETA_ETA}),
    ]
    for owner, method, fault, expected in faults:
        with monkeypatch.context() as m:
            done = _fault_once(m, owner, method, fault)
            rep = du.verify_duality(coh, hom)
        assert done == [method]
        assert {k for k, ok in rep.checks.items() if not ok} == expected, (method, expected)
        assert len(rep.failures) == len(expected), rep.failures
        assert set(rep.checks) >= _CUP_SIDES | {CHAIN_MAP, ETA_THETA, CAP_SYMMETRY, THETA_ETA}


def reference_identities(coh, hom):
    """(a)-(c) and theta o eta on unit (co)chains, the reference for the W
    halves: one table per identity over the unit bases of each degree.
    The verdicts keyed by check name, then degree."""
    kd = coh.kd
    w0 = du.omega0(kd)
    n = w0.q
    out = {CHAIN_MAP: {}, ETA_THETA: {}, CAP_SYMMETRY: {}, THETA_ETA: {}}
    for p in range(n + 1):
        fs = _unit_basis(coh, p)
        thetas = du.theta_table(kd, fs, w0)
        if p < n:
            out[CHAIN_MAP][p] = (du.theta_table(kd, [kd.apply_bK(f) for f in fs], w0)
                                 == [kd.apply_bK_chain(t) for t in thetas])
        out[ETA_THETA][p] = du.eta_table(kd, thetas) == fs
        out[CAP_SYMMETRY][p] = (kd.cap_table(fs, [w0], side="left")
                                == {(i, 0): t for i, t in enumerate(thetas)})
    for q in range(n + 1):
        zs = _unit_basis(hom, q)
        out[THETA_ETA][q] = du.theta_table(kd, du.eta_table(kd, zs), w0) == zs
    return out


def _failing_checks(verdicts):
    return {(name, d) for name, row in verdicts.items() for d, ok in row.items() if not ok}


def _doubled_first(table, kd):
    """A copy of a split or term table with the first entry of its first
    nonempty row doubled."""
    table = [dict(row) if isinstance(row, dict) else list(row) for row in table]
    row = next(row for row in table if row)
    if isinstance(row, dict):
        key = next(iter(row))
        row[key] = _twice(kd, row[key])
    else:
        right, a, t, c = row[0]
        row[0] = (right, a, t, _twice(kd, c))
    return table


@pytest.mark.parametrize("name,field", [("D5", QQ), ("E6", GF(3)), ("A4", GF(5))],
                         ids=["D5-Q", "E6-F3", "A4-F5"])
@pytest.mark.parametrize("module", [MODULE_A, MODULE_K])
def test_w_identities_against_the_unit_basis_checks(name, field, module):
    """The W halves of (a)-(c) and theta o eta give the unit-basis verdicts
    on the honest engine, over A and over k.  With one entry of a split
    table or of a term table doubled, they fail on every degree where the
    unit-basis check fails (on more where a product x a = 0 is forced,
    which the unit-basis check cannot see)."""
    alg = Preset(name, field).algebra

    def calculus():
        kd = KoszulCalculus(alg, 3)
        return kd, koszul_homology(kd, module, "coh"), koszul_homology(kd, module, "hom")

    kd, coh, hom = calculus()
    ref = reference_identities(coh, hom)
    assert du.w_identities(coh, hom, du.omega0(kd)) == ref
    assert not _failing_checks(ref)
    assert [sorted(row) for row in ref.values()] == [[0, 1], [0, 1, 2], [0, 1, 2], [0, 1, 2]]
    mutations = ([("split", key) for key in [(0, 2), (1, 1), (2, 0), (0, 1), (1, 0)]]
                 + [("terms", key) for key in [(0, "coh"), (1, "coh"), (1, "hom"), (2, "hom")]])
    seen = set()
    for kind, key in mutations:
        kd, coh, hom = calculus()  # the homology reads the honest tables
        if kind == "split":
            kd._split_memo[key] = _doubled_first(kd.split_coords(*key), kd)
            kd._terms_memo.clear()
        else:
            kd._terms_memo[key] = _doubled_first(kd.terms(*key), kd)
        kd._rows_memo.clear()
        ref_fails = _failing_checks(reference_identities(coh, hom))
        w_fails = _failing_checks(du.w_identities(coh, hom, du.omega0(kd)))
        assert ref_fails <= w_fails, key
        assert w_fails or module == MODULE_K, key
        seen |= {name for name, _d in ref_fails}
    # theta and eta read the same splits, so a doubled split keeps them inverse
    if module == MODULE_A:
        assert seen == {CHAIN_MAP, CAP_SYMMETRY}


@pytest.mark.parametrize("name", ["A~2", "A~3", "D~4"])
@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["Q", "F2"])
@pytest.mark.parametrize("module", [MODULE_A, MODULE_K])
def test_w_identities_agree_on_extended_types(monkeypatch, name, field, module):
    """The W halves read no product, so they run on the truncated extended
    types with ``multiply`` gone and give the unit-basis verdicts there."""
    kd = KoszulCalculus(Preset(name, field, cutoff=8).algebra, 3)
    coh, hom = koszul_homology(kd, module, "coh"), koszul_homology(kd, module, "hom")
    ref = reference_identities(coh, hom)
    monkeypatch.setattr(type(kd.algebra), "multiply", None)
    assert du.w_identities(coh, hom, du.omega0(kd)) == ref
    assert not _failing_checks(ref)


def reference_module_identities(coh):
    """Check (d) on unit cochains, the reference for the W tables: three
    product tables over the unit cochain bases of every degree pair,
    compared on the union of keys.  The verdicts of theta(f cup g) = theta(f) cap g and
    theta(f cup g) = f cap theta(g), keyed by (p, q)."""
    kd = coh.kd
    w0 = du.omega0(kd)
    n = w0.q
    basis = {p: _unit_basis(coh, p) for p in range(n + 1)}
    thetas = {p: du.theta_table(kd, fs, w0) for p, fs in basis.items()}
    out = {}
    for p in range(n + 1):
        for q in range(n + 1 - p):
            fs, gs = basis[p], basis[q]
            cups = kd.cup_table(fs, gs)
            t_cups = dict(zip(cups, du.theta_table(kd, list(cups.values()), w0)))
            lefts = {(i, j): c for (j, i), c in
                     kd.cap_table(gs, thetas[p], side="right").items()}
            rights = kd.cap_table(fs, thetas[q], side="left")
            out[(p, q)] = (t_cups == lefts, t_cups == rights)
    return out


def w_module_identities(kd):
    """The same verdicts read off the three ``module_table`` scalars."""
    w0 = du.omega0(kd)
    n = w0.q
    out = {}
    for p in range(n + 1):
        for q in range(n + 1 - p):
            cup, left, right = (du.module_table(kd, w0, p, q, side)
                                 for side in ("cup", "left", "right"))
            out[(p, q)] = (cup == left, cup == right)
    return out


def _failing(verdicts):
    return {(pq, k) for pq, oks in verdicts.items() for k, ok in enumerate(oks) if not ok}


@pytest.mark.parametrize("name,field", [("D5", QQ), ("E6", GF(3)), ("A4", GF(5))],
                         ids=["D5-Q", "E6-F3", "A4-F5"])
def test_w_tables_against_the_unit_basis_check(name, field):
    """The W tables give the unit-basis verdicts of (d) on the honest
    engine, and with one split entry doubled they fail on every degree pair
    where the unit-basis check fails (on more where x1 x2 = 0 is forced,
    which the unit-basis check cannot see)."""
    alg = Preset(name, field).algebra

    def calculus():
        kd = KoszulCalculus(alg, 3)
        return kd, koszul_homology(kd, MODULE_A, "coh")

    kd, coh = calculus()
    ref = reference_module_identities(coh)
    assert w_module_identities(kd) == ref
    assert not _failing(ref)
    for key in [(1, 1), (1, 0), (0, 1), (0, 2), (2, 0)]:
        kd, coh = calculus()  # the homology reads the honest splits
        table = [dict(row) for row in kd.split_coords(*key)]
        z = next(z for z, row in enumerate(table) if row)
        entry = next(iter(table[z]))
        table[z][entry] = field.mul(field.from_int(2), table[z][entry])
        kd._split_memo[key] = table
        kd._rows_memo.clear()
        ref_fails = _failing(reference_module_identities(coh))
        assert ref_fails, key
        assert ref_fails <= _failing(w_module_identities(kd)), key


@pytest.mark.parametrize("name", ["A~2", "A~3", "D~4"])
@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["Q", "F2"])
def test_w_tables_agree_on_extended_types(monkeypatch, name, field):
    """The W tables of (d) read no product, so they run on the truncated
    extended types, where a product past the cutoff would raise
    WeightOverflowError, and agree there."""
    kd = KoszulCalculus(Preset(name, field, cutoff=8).algebra, 3)
    monkeypatch.setattr(type(kd.algebra), "multiply", None)
    verdicts = w_module_identities(kd)
    assert len(verdicts) == 6 and not _failing(verdicts)


def test_duality_products_stay_at_class_size(monkeypatch):
    """verify_duality forms no product table, theta or eta over a unit
    (co)chain basis: every list that a cup or cap table, theta_table or
    eta_table takes is no longer than the largest HK dimension, except that
    check (d) takes theta of each degree pair's cup table of two class
    lists whole, in one theta_table call; and b_K runs on omega0 and on the
    theta columns of the representatives alone."""
    kd = KoszulCalculus(Preset("E6", GF(3)).algebra, 3)
    coh = koszul_homology(kd, MODULE_A, "coh")
    hom = koszul_homology(kd, MODULE_A, "hom")
    largest = max(coh.dims() + hom.dims())
    lengths, boundaries, cup_tables, whole_cups = [], [], [], []

    def is_whole_cup_table(xs):
        """xs is the value list of the last cup table, in table order."""
        return bool(cup_tables) and [id(x) for x in xs] == cup_tables[-1]
    for method in ("cup_table", "cap_table"):
        real = getattr(KoszulCalculus, method)

        def counted(self, xs, ys, *args, real=real, method=method, **kwargs):
            # theta of a whole cup table caps it with omega0: counted with theta
            if not is_whole_cup_table(xs):
                lengths.extend((len(xs), len(ys)))
            out = real(self, xs, ys, *args, **kwargs)
            if method == "cup_table":
                cup_tables.append([id(c) for c in out.values()])
            return out
        monkeypatch.setattr(KoszulCalculus, method, counted)
    for method in ("theta_table", "eta_table"):
        real = getattr(du, method)

        def counted(kd, xs, *args, real=real, method=method, **kwargs):
            if method == "theta_table" and is_whole_cup_table(xs):
                whole_cups.append(len(xs))
            else:
                lengths.append(len(xs))
            return real(kd, xs, *args, **kwargs)
        monkeypatch.setattr(du, method, counted)
    for method in ("apply_bK", "apply_bK_chain"):
        real = getattr(KoszulCalculus, method)

        def counted(self, x, real=real, method=method):
            boundaries.append((method, x.degree))
            return real(self, x)
        monkeypatch.setattr(KoszulCalculus, method, counted)
    rep = du.verify_duality(coh, hom, higher_calculus(coh), higher_calculus(hom))
    assert rep.ok, rep.failures[:3]
    # the unit cochain bases have 32, 56 and 32 elements
    assert lengths and largest == 7
    assert max(lengths) <= largest, lengths
    # one theta_table call per degree pair p + q <= 2, each on a whole cup table
    assert len(whole_cups) == len(cup_tables) == 6
    assert max(whole_cups) <= largest ** 2, whole_cups
    assert sorted(boundaries) == sorted(
        [("apply_bK_chain", 2)] + [("apply_bK_chain", 2 - p) for p in range(2)
                                   for _rep in coh.representatives(p)])


def _rescaled_algebra(name, field):
    """The preprojective algebra of ``name`` with every relation times 2.
    One common scalar keeps omega0 a cycle and the algebra unchanged; the
    preprojective data is copied from the presentation it scales."""
    pr = Preset(name, field)
    pres = pr.presentation
    two = field.from_int(2)
    scaled = QuadraticPresentation(
        pres.quiver, [[(field.mul(two, c), path) for c, path in rel] for rel in pres.relations],
        field)
    for attr in ("preprojective", "sigma_vertices", "relation_of_vertex"):
        setattr(scaled, attr, getattr(pres, attr))
    return build_graded_algebra(scaled, pr.algebra.cutoff)


@pytest.mark.parametrize("name,field,scalars", [
    ("A3", QQ, {2, -2}), ("D4", QQ, {2, -2}), ("D5", GF(5), {2, 3}),
], ids=["A3-Q", "D4-Q", "D5-F5"])
def test_eta_divides_by_omega0s_scalar(monkeypatch, name, field, scalars):
    """With every relation doubled, omega0's scalars are +-2, so eta must
    divide by lam: the checklist passes, and an eta_table that multiplies
    by lam (``inv`` read as the identity during the call) fails it."""
    kd = KoszulCalculus(_rescaled_algebra(name, field), 3)
    w0 = du.omega0(kd)
    assert {c for coeff in w0.values.values() for c in coeff.values()} == scalars
    coh = koszul_homology(kd, MODULE_A, "coh")
    hom = koszul_homology(kd, MODULE_A, "hom")
    hi_coh, hi_hom = higher_calculus(coh), higher_calculus(hom)
    rep = du.verify_duality(coh, hom, hi_coh, hi_hom)
    assert rep.ok, rep.failures[:5]
    real = du.eta_table

    def eta_times_lam(kd, zs, w0=None):
        with monkeypatch.context() as m:
            m.setattr(kd.field, "inv", lambda x: x)
            return real(kd, zs, w0)
    monkeypatch.setattr(du, "eta_table", eta_times_lam)
    rep = du.verify_duality(coh, hom, hi_coh, hi_hom)
    assert not rep.checks["eta o theta = id"]


def test_duality_with_trivial_coefficients(a3):
    pr, kd, _coh, hom = a3
    cohk = koszul_homology(kd, MODULE_K, "coh")
    homk = koszul_homology(kd, MODULE_K, "hom")
    rep = du.verify_duality(cohk, homk)
    assert rep.ok, rep.failures[:5]
    with pytest.raises(ModuleError):
        du.verify_duality(cohk, hom)
    kd2 = KoszulCalculus(pr.algebra, 3)
    with pytest.raises(ModuleError):
        du.verify_duality(cohk, koszul_homology(kd2, MODULE_K, "hom"))


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
