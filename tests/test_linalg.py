import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from koszulkit.fields import GF, QQ, FieldMismatchError
from koszulkit import backend, linalg as la
from koszulkit.quiver import Graph, PreprojectiveSpec, paths_of_weight, \
    preprojective_presentation


def vec_add_scaled(u, v, c, field):
    """u + c*v as a new sparse vector."""
    out = dict(u)
    field.add_into(out, v, c)
    return out


def zero_map(domain_dim, codomain_dim):
    """The columns of the zero map and its target dimension."""
    return [{} for _ in range(domain_dim)], codomain_dim


def identity_map(dim, field):
    return [{i: field.one} for i in range(dim)], dim


def test_echelonize_scaling_to_reduced_form():
    s = la.echelonize([{0: Fraction(2)}, {1: Fraction(3)}], 2, QQ)
    assert s.rows == [{0: Fraction(1)}, {1: Fraction(1)}]
    assert s.pivots == [0, 1]


def test_echelonize_empty_is_zero_subspace():
    s = la.echelonize([], 5, QQ)
    assert s.dim == 0 and s.pivots == []


def test_echelonize_idempotent():
    rng = random.Random(3)
    rows = [{j: Fraction(rng.randint(-3, 3)) for j in range(8)} for _ in range(5)]
    rows = [{j: c for j, c in r.items() if c} for r in rows]
    s = la.echelonize(rows, 8, QQ)
    again = la.echelonize(s.rows, 8, QQ)
    assert again.rows == s.rows and again.pivots == s.pivots


def test_mixed_field_tags_rejected():
    with pytest.raises(FieldMismatchError):
        la.QuotientSpace(la.echelonize([{0: 1}], 2, GF(3)),
                         la.echelonize([{0: Fraction(1)}], 2, QQ))


def _brute_force_weight3_relation_rank():
    """Independent oracle: expand V.R + R.V in the weight-3 path space of the
    doubled path graph on three vertices and row-reduce the raw rows."""
    g = Graph(["0", "1", "2"], [("0", "1"), ("1", "2")])
    spec = PreprojectiveSpec(g)
    pres = preprojective_presentation(spec, QQ)
    q = spec.quiver
    paths3 = [path for paths in paths_of_weight(q, 3).values() for path in paths]
    index = {path: k for k, path in enumerate(paths3)}
    rows = []
    for rel in pres.relations:
        for a in range(q.n_arrows):
            left: dict = {}
            right: dict = {}
            for coeff, (u, v) in rel:
                if q.target[a] == q.source[v]:
                    left[index[(u, v, a)]] = left.get(index[(u, v, a)], 0) + coeff
                if q.source[a] == q.target[u]:
                    right[index[(a, u, v)]] = right.get(index[(a, u, v)], 0) + coeff
            for row in (left, right):
                row = {k: Fraction(c) for k, c in row.items() if c}
                if row:
                    rows.append(row)
    return la.echelonize(rows, len(paths3), QQ), len(paths3)


def test_weight3_relation_rows_have_full_rank():
    # frozen from the brute-force oracle: the doubled path graph on three
    # vertices has eight weight-3 paths and the relation rows exhaust them,
    # so the weight-3 component of the algebra vanishes
    sub, n_paths = _brute_force_weight3_relation_rank()
    assert n_paths == 8
    assert sub.dim == 8


def test_kernel_identity_and_zero():
    assert la.kernel(*identity_map(3, QQ), QQ).dim == 0
    assert la.kernel(*zero_map(3, 3), QQ).dim == 3


def _reference_kernel(cols, codim, field):
    """The two-elimination kernel: free-column solutions of the row reduction,
    then a second reduction of them to the reduced echelon basis."""
    n = len(cols)
    rows = [{} for _ in range(codim)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            rows[i][j] = x
    red, pivots = la.rref(rows, n, field)
    free = [f for f in range(n) if f not in set(pivots)]
    basis = []
    for f in free:
        v = {f: field.one}
        for k, c in enumerate(pivots):
            x = red[k].get(f)
            if x is not None:
                v[c] = field.neg(x)
        basis.append(v)
    return la.echelonize(basis, n, field)


def _random_map(rng, field, n, m, density):
    scalars = ([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)] if field.char == 0
               else list(range(1, field.char)))
    cols = [{i: rng.choice(scalars) for i in range(m) if rng.random() < density}
            for _ in range(n)]
    return cols, m


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
def test_kernel_matches_two_elimination_reference(field):
    """One relabelled elimination gives the same reduced echelon kernel, entry
    for entry and key order included, as eliminating twice."""
    rng = random.Random(12)
    one = field.one
    maps = [([], 4),                                                  # zero domain
            ([{}, {}, {}], 0),                                        # zero codomain
            identity_map(5, field),                                   # full rank
            ([{0: one}, {1: one, 4: one}, {2: one}], 5),
            zero_map(4, 3)]                                           # the zero map
    for _ in range(120):
        maps.append(_random_map(rng, field, rng.randint(1, 14), rng.randint(1, 10),
                                rng.choice([0.15, 0.3, 0.6])))
    nontrivial = 0
    for cols, codim in maps:
        got, want = la.kernel(cols, codim, field), _reference_kernel(cols, codim, field)
        assert got.ambient == want.ambient == len(cols)
        assert got.pivots == want.pivots
        assert [list(r.items()) for r in got.rows] == [list(r.items()) for r in want.rows]
        for row in got.rows:
            image = {}
            for j, c in row.items():
                field.add_into(image, cols[j], c)
            assert not image
        nontrivial += 0 < got.dim < len(cols)
    assert nontrivial > 20


def test_kernel_of_weight1_cochain_differential_is_hyperplane():
    """The arrow-diagonal differential kills exactly the balanced scalars.

    Oracle: the only surviving value is the coefficient sum
    l0 + l0* - l1 - l1* on the middle relation, so the kernel is the
    hyperplane where it vanishes: dimension 3 inside dimension 4.
    """
    cols = [{0: Fraction(s)} for s in (1, -1, 1, -1)]
    ker = la.kernel(cols, 1, QQ)
    assert ker.dim == 3
    for row in ker.rows:
        assert sum(row.get(i, 0) * s for i, s in zip(range(4), (1, -1, 1, -1))) == 0


def test_intersect_examples():
    u = [{0: Fraction(1)}, {1: Fraction(1)}]
    v = [{0: Fraction(1), 1: Fraction(1)}]
    w = la.intersect(u, v, 2, QQ)
    assert w.dim == 1 and w.rows == [{0: Fraction(1), 1: Fraction(1)}]
    same = la.intersect(u, u, 2, QQ)
    assert same.rows == la.echelonize(u, 2, QQ).rows


def test_intersect_ambient_mismatch():
    """A row of either list with an entry outside 0..ambient-1 is refused
    before the rows are doubled: a key of ambient + i would land in the
    right half."""
    for us, vs in [([{2: 1}], [{0: 1}]), ([{0: 1}], [{0: 1, 2: 1}]),
                   ([{-1: 1}], [{0: 1}]), ([{0: 1}], [{-2: 1}])]:
        with pytest.raises(la.AmbientMismatchError):
            la.intersect(us, vs, 2, QQ)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("cols,codim", [([{0: 1}, {-1: 1}], 3), ([{3: 1}], 3),
                                        ([{0: 1}], 0), ([{}, {-3: 1}], 3)],
                         ids=["negative", "past-end", "zero-codim", "negative-wraps"])
def test_kernel_refuses_columns_outside_the_codomain(field, cols, codim):
    """A column key outside 0..codim-1 is refused, as rank and echelonize
    refuse it; a negative key used to index the transposed rows from the end
    and give a wrong kernel."""
    with pytest.raises(la.AmbientMismatchError):
        la.kernel(cols, codim, field)
    with pytest.raises(la.AmbientMismatchError):
        la.rank(cols, codim, field)


def reference_intersect(us, vs, ambient, field):
    """The two-step intersection: each span echelonized, the kernel of the
    stacked map (u_i | -v_j), and the u-parts of the kernel vectors summed
    and echelonized again."""
    u, v = la.echelonize(us, ambient, field), la.echelonize(vs, ambient, field)
    if u.dim == 0 or v.dim == 0:
        return la.zero_subspace(ambient, field)
    cols = [dict(r) for r in u.rows] + [field.scale(r, field.neg(field.one)) for r in v.rows]
    vecs = []
    for w in la.kernel(cols, ambient, field).rows:
        vec = {}
        for i, c in w.items():
            if i < u.dim:
                field.add_into(vec, u.rows[i], c)
        vecs.append(vec)
    return la.echelonize(vecs, ambient, field)


@st.composite
def _span_pairs(draw):
    """Two spanning lists: unrelated, one empty, equal, or each holding
    repeats and combinations of the other's vectors."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(2**61 - 1)]))
    ambient = draw(st.integers(1, 10))
    scalar = _scalars(field)
    vec = st.dictionaries(st.integers(0, ambient - 1), scalar, max_size=6).map(
        lambda r: {j: c for j, c in r.items() if not field.is_zero(c)})
    us = draw(st.lists(vec, max_size=6))
    kind = draw(st.sampled_from(["unrelated", "empty", "equal", "dependent"]))
    if kind == "unrelated":
        vs = draw(st.lists(vec, max_size=6))
    elif kind == "empty":
        vs = []
    elif kind == "equal":
        vs = list(us)
    else:
        combos = [_combination(us, draw(st.lists(scalar, min_size=len(us),
                                                  max_size=len(us))), field)
                  for _ in range(draw(st.integers(0, 3)))]
        vs = combos + draw(st.lists(vec, max_size=2)) + us[:1]
        us = us + us[:1]
    if draw(st.booleans()):
        us, vs = vs, us
    return field, ambient, us, vs


@given(_span_pairs())
@settings(max_examples=200, deadline=None)
def test_intersect_matches_the_two_step_reference(case):
    """One Zassenhaus reduction gives the reduced echelon basis of the
    two-step reference, entry for entry and key order included."""
    field, ambient, us, vs = case
    got, want = la.intersect(us, vs, ambient, field), reference_intersect(us, vs, ambient,
                                                                          field)
    assert got.ambient == want.ambient == ambient
    assert got.pivots == want.pivots
    assert [list(r.items()) for r in got.rows] == [list(r.items()) for r in want.rows]
    u, v = la.echelonize(us, ambient, field), la.echelonize(vs, ambient, field)
    assert all(u.contains(row) and v.contains(row) for row in got.rows)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
def test_intersect_runs_one_elimination(field, monkeypatch):
    """intersect reduces the doubled rows once, and nothing else; empty
    spanning lists included."""
    calls = []
    real = la.rref
    monkeypatch.setattr(la, "rref", lambda rows, ncols, fld: calls.append(ncols)
                        or real(rows, ncols, fld))
    one = field.one
    for us, vs in [([{0: one}, {1: one}], [{0: one, 1: one}]), ([], [{0: one}]), ([], [])]:
        calls.clear()
        la.intersect(us, vs, 3, field)
        assert calls == [6]


def _random_subspace(rng, ambient, field, max_rows=4):
    rows = []
    for _ in range(rng.randint(0, max_rows)):
        row = {j: field.from_int(rng.randint(-2, 2)) for j in range(ambient)}
        rows.append({j: c for j, c in row.items() if not field.is_zero(c)})
    return la.echelonize(rows, ambient, field)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
def test_dimension_formula_random(field):
    rng = random.Random(7)
    for _ in range(40):
        ambient = rng.randint(1, 12)
        u = _random_subspace(rng, ambient, field)
        v = _random_subspace(rng, ambient, field)
        total = la.echelonize(u.rows + v.rows, ambient, field)
        inter = la.intersect(u.rows, v.rows, ambient, field)
        assert u.dim + v.dim == total.dim + inter.dim


@given(st.integers(1, 8), st.integers(0, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_rank_nullity_random(n, m, data):
    cols = []
    for _ in range(n):
        col = {i: Fraction(data.draw(st.integers(-2, 2))) for i in range(m)}
        cols.append({i: c for i, c in col.items() if c})
    assert la.kernel(cols, m, QQ).dim + la.echelonize(cols, m, QQ).dim == n


def test_quotient_coords_examples():
    z = la.echelonize([{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}], 3, QQ)
    b = la.echelonize([{0: Fraction(1), 1: Fraction(1)}], 3, QQ)
    q = la.QuotientSpace(z, b)
    assert q.dim == 2
    # members of the denominator have zero coordinates
    assert q.coords({0: Fraction(2), 1: Fraction(2)}) == [0, 0]
    # chosen representatives have unit coordinates
    for k, rep in enumerate(q.representatives):
        coords = q.coords(rep)
        assert coords[k] == 1 and all(c == 0 for i, c in enumerate(coords) if i != k)


def test_quotient_requires_containment():
    z = la.echelonize([{0: Fraction(1)}], 2, QQ)
    b = la.echelonize([{1: Fraction(1)}], 2, QQ)
    with pytest.raises(la.NotInSubspaceError):
        la.QuotientSpace(z, b)


def test_quotient_coords_additive():
    rng = random.Random(5)
    field = GF(3)
    for _ in range(25):
        ambient = rng.randint(2, 10)
        z = la.full_subspace(ambient, field)
        b = _random_subspace(rng, ambient, field)
        q = la.QuotientSpace(z, b)
        v1 = {j: field.from_int(rng.randint(0, 2)) for j in range(ambient)}
        v2 = {j: field.from_int(rng.randint(0, 2)) for j in range(ambient)}
        v1 = {j: c for j, c in v1.items() if c}
        v2 = {j: c for j, c in v2.items() if c}
        s = vec_add_scaled(v1, v2, field.one, field)
        lhs = q.coords(s)
        rhs = [field.add(a, b2) for a, b2 in zip(q.coords(v1), q.coords(v2))]
        assert lhs == rhs


def test_span_solver_consistency():
    vecs = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}, {0: Fraction(1)}]
    solver = la.SpanSolver(vecs, 2, QQ)
    sol = solver.solve({0: Fraction(3), 1: Fraction(5)})
    out: dict = {}
    for c, v in zip(sol, vecs):
        out = vec_add_scaled(out, v, c, QQ)
    assert out == {0: Fraction(3), 1: Fraction(5)}
    assert solver.solve({0: Fraction(1)}) is not None


def test_prime_test_matches_trial_division():
    from koszulkit.fields import _is_prime

    def by_trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert all(_is_prime(n) == by_trial(n) for n in range(-3, 5000))
    # strong pseudoprimes to the first few prime bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051):
        assert not _is_prime(n)
    assert _is_prime(2**31 - 1) and _is_prime(2**61 - 1)


def test_prime_fields_beyond_the_certified_bound_are_refused():
    from koszulkit.fields import _MR_BOUND, field_from_tag

    # the largest prime below the bound is still a field
    assert GF(_MR_BOUND - 168).p == _MR_BOUND - 168
    for p in (_MR_BOUND, 2**89 - 1):
        with pytest.raises(ValueError, match=f"certified primality bound {_MR_BOUND}"):
            field_from_tag(f"F:{p}")


def _dense_rref(rows, ambient, field):
    """Textbook dense Gauss-Jordan: the reference for the sparse kernels."""
    m = [[row.get(j, field.zero) for j in range(ambient)] for row in rows]
    pivots, r = [], 0
    for c in range(ambient):
        k = next((i for i in range(r, len(m)) if not field.is_zero(m[i][c])), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(x, inv) for x in m[r]]
        for i in range(len(m)):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return [{j: x for j, x in enumerate(m[i]) if not field.is_zero(x)}
            for i in range(r)], pivots


KERNEL_FIELDS = [GF(2), GF(3), GF(2**31 - 1), GF(2**61 - 1), QQ]


def _scalars(field):
    scalar = st.integers(-3, 3).map(field.from_int)
    if field == QQ:
        # ints and non-integral Fractions, so that pivots of +-1 and others occur
        scalar = st.one_of(scalar, st.sampled_from([Fraction(1, 2), Fraction(-1, 2),
                                                    Fraction(2, 3)]))
    return scalar


@st.composite
def _row_systems(draw):
    field = draw(st.sampled_from(KERNEL_FIELDS))
    ambient = draw(st.sampled_from([1, 3, 9, 65, 130]))
    # most rows live in one window of columns, so that pivots interact
    width = draw(st.integers(1, min(ambient, 10)))
    offset = draw(st.integers(0, ambient - width))
    scalar = _scalars(field)
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["window", "window", "wide", "empty", "duplicate",
                                     "combination"]))
        if kind == "empty" or (kind in ("duplicate", "combination") and not rows):
            row = {}
        elif kind == "duplicate":
            row = dict(draw(st.sampled_from(rows)))
        elif kind == "combination":
            row = vec_add_scaled(draw(st.sampled_from(rows)), draw(st.sampled_from(rows)),
                                 draw(scalar), field)
        else:
            cols = (st.integers(offset, offset + width - 1) if kind == "window"
                    else st.integers(0, ambient - 1))
            row = draw(st.dictionaries(cols, scalar, max_size=6))
        rows.append({j: c for j, c in row.items() if not field.is_zero(c)})
    return field, ambient, rows


@given(_row_systems())
@settings(max_examples=150, deadline=None)
def test_kernels_match_dense_reference(system):
    field, ambient, rows = system
    want_rows, want_pivots = _dense_rref(rows, ambient, field)
    got_rows, got_pivots = la.rref(rows, ambient, field)
    assert got_pivots == want_pivots
    assert got_rows == want_rows
    assert la.rank(rows, ambient, field) == len(got_pivots)
    for row in got_rows:
        assert list(row) == sorted(row)
        if field == QQ:
            # integers until a division: int or Fraction, never float or bool
            assert all(type(x) in (int, Fraction) for x in row.values())
        else:
            assert all(type(x) is int and 0 < x < field.p for x in row.values())


def _reduce_reference(sub, v):
    """Subspace.reduce as it was: the vector is copied for every pivot it meets."""
    field = sub.field
    for k, c in enumerate(sub.pivots):
        x = v.get(c)
        if x is not None:
            v = vec_add_scaled(v, sub.rows[k], field.neg(x), field)
    return v


def _combination(vecs, coeffs, field):
    out: dict = {}
    for c, v in zip(coeffs, vecs):
        out = vec_add_scaled(out, v, c, field)
    return out


@st.composite
def _spans_with_vectors(draw):
    """A spanning list, a sub-list of it, members of its span and arbitrary vectors."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(2**61 - 1)]))
    ambient = draw(st.integers(1, 12))
    scalar = _scalars(field)
    vec = st.dictionaries(st.integers(0, ambient - 1), scalar, max_size=6).map(
        lambda r: {j: c for j, c in r.items() if not field.is_zero(c)})
    span = draw(st.lists(vec, max_size=7))
    sub_span = [v for v in span if draw(st.booleans())]
    members = [_combination(span, draw(st.lists(scalar, min_size=len(span),
                                                 max_size=len(span))), field)
               for _ in range(3)]
    return field, ambient, span, sub_span, members, draw(st.lists(vec, max_size=3))


@given(_spans_with_vectors())
@settings(max_examples=120, deadline=None)
def test_in_place_reduce_and_solve_match_copy_per_pivot(case):
    field, ambient, span, sub_span, members, others = case
    z = la.echelonize(span, ambient, field)
    for v in members + others:
        before = dict(v)
        got = z.reduce(v)
        assert v == before
        assert got == _reduce_reference(z, v)
        assert z.contains(v) == (not got)
    for v in members:
        coords = z.coords(v)
        assert _combination(z.rows, coords, field) == v
    # SpanSolver reduces the same way, tracking the coefficients
    solver = la.SpanSolver(span, ambient, field)
    for v in members + others:
        sol = solver.solve(v)
        assert (sol is None) == (not z.contains(v))
        if sol is not None:
            assert _combination(span, sol, field) == v
    # QuotientSpace.coords round trip: sum coords * representatives, plus
    # the part of v that reducing modulo B removes (a member of B), is v
    b = la.echelonize(sub_span, ambient, field)
    q = la.QuotientSpace(z, b)
    for v in members:
        coords = q.coords(v)
        assert len(coords) == q.dim
        in_b = vec_add_scaled(v, b.reduce(v), field.neg(field.one), field)
        assert b.contains(in_b)
        assert vec_add_scaled(_combination(q.representatives, coords, field), in_b,
                              field.one, field) == v
    for v in others:
        if not z.contains(v):
            with pytest.raises(la.NotInSubspaceError):
                q.coords(v)


def test_rank_bits_matches_linalg_rank():
    """Rows packed by the caller have the rank that linalg.rank finds for the
    dict rows over GF(2), and the dense reference; seeded sparse rows, with
    empty, even-valued and repeated rows among them."""
    rnd = random.Random(16)
    for _ in range(300):
        ncols = rnd.choice([1, 5, 40, 130])
        rows = []
        for _ in range(rnd.randint(0, 12)):
            kind = rnd.random()
            if kind < 0.15:
                rows.append({})
            elif kind < 0.35 and rows:
                rows.append(dict(rnd.choice(rows)))
            else:
                rows.append({rnd.randrange(ncols): rnd.randint(0, 3)
                             for _ in range(rnd.randint(1, 5))})
        bits = [sum(1 << c for c, v in row.items() if v % 2) for row in rows]
        assert [backend.pack(row) for row in rows] == bits
        want = len(_dense_rref([{c: v % 2 for c, v in row.items()} for row in rows],
                               ncols, GF(2))[1])
        assert backend.rank_bits(bits) == la.rank(rows, ncols, GF(2)) == want
        assert backend.rank_bits(iter(bits)) == want


def _coords_reference(q, v):
    """QuotientSpace.coords as it was: reduce by Z to test membership, then
    by B to read the coordinates."""
    if not q.z.contains(v):
        raise la.NotInSubspaceError("not a cocycle/cycle: vector outside the numerator")
    reduced = q.b.reduce(v)
    return [reduced.get(c, q.z.field.zero) for c in q.rep_pivots]


@given(_spans_with_vectors())
@settings(max_examples=120, deadline=None)
def test_quotient_coords_match_the_two_reduction_reference(case):
    """One reduction by B, then the representatives subtracted, reads the
    same coordinates as the two reductions did, and refuses the same
    vectors: members of Z, and a member plus a unit vector at a column that
    is not a pivot of Z, which is never a member."""
    field, ambient, span, sub_span, members, others = case
    z = la.echelonize(span, ambient, field)
    q = la.QuotientSpace(z, la.echelonize(sub_span, ambient, field))
    outside = [vec_add_scaled(v, {c: field.one}, field.one, field)
               for v in members for c in range(ambient) if c not in z.pivot_pos]
    for v in members + others + outside:
        if z.contains(v):
            assert q.coords(v) == _coords_reference(q, v)
        else:
            with pytest.raises(la.NotInSubspaceError):
                q.coords(v)
    for v in outside:
        assert not z.contains(v)


def test_rational_division_by_a_unit_builds_no_fraction():
    """QQ.div by +-1 equals the Fraction path, and is an int for an int
    input, as QQ.inv of +-1 is."""
    from koszulkit.fields import whole
    for a in (0, 1, -1, 7, -12, 10 ** 30, Fraction(3, 4), Fraction(-5, 2), Fraction(6, 3)):
        for b in (1, -1, Fraction(1), Fraction(-1)):
            got = QQ.div(a, b)
            want = whole(Fraction(a) / b)
            assert got == want and type(got) is type(want), (a, b)
            if type(a) is int:
                assert type(got) is int
    assert QQ.div(3, 2) == Fraction(3, 2) and QQ.div(4, -2) == -2
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)
