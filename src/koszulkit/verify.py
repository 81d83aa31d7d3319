"""Verification engines: the Dynkin table checks and the identity checks.

``verify_type_char`` recomputes the whole calculus of one preset over one
field and compares dimensions, generator bases, class-level products and
higher calculus against the expected tables, recording a keyed failure for
every mismatch.  ``identity_checks`` checks the exact identities of the
calculus once on fixed bases (differentials square to zero, Leibniz,
associativity, fundamental formulas, biweight homogeneity, graded
commutativity, and the two independent descriptions of the degree-0
spaces).
"""

from __future__ import annotations

import random
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

from . import adedata
from .adedata import ExpectedCombo
from .algebra import Elem
from .duality import theta_table, verify_duality
from .fields import GF, QQ, Field
from .frobenius import Degree2Comparison, FrobeniusStructure
from .homology import CalculusSpaces, HigherSpaces, higher_calculus, koszul_homology
from .koszul import Cochain, KoszulCalculus, MODULE_A, NotClosedError
from .linalg import SparseVec, kernel, rank
from .presets import (NamedGenerators, Preset, PresetError, expected_nakayama_on_arrows,
                      socle_generators)


def field_of_char(char: int) -> Field:
    return QQ if char == 0 else GF(char)


class CheckLog:
    def __init__(self):
        self.entries: List[Tuple[str, bool, str]] = []
        #: identities that compared zero with zero only, so verified nothing
        self.vacuous: List[str] = []

    def record(self, key: str, ok: bool, detail: str = "") -> None:
        self.entries.append((key, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _k, ok, _d in self.entries)

    def failures(self) -> List[str]:
        return [f"{k}: {d}" if d else k for k, ok, d in self.entries if not ok]


class TypeCharComputation:
    """Everything computed for one preset over one field."""

    def __init__(self, name: str, char: int, with_frobenius: bool = True):
        self.name = name
        self.char = char
        self.field = field_of_char(char)
        self.preset = Preset(name, self.field)
        self.kd = KoszulCalculus(self.preset.algebra, 3)
        self.coh = koszul_homology(self.kd, MODULE_A, "coh")
        self.hom = koszul_homology(self.kd, MODULE_A, "hom")
        self.hi_coh = higher_calculus(self.coh)
        self.hi_hom = higher_calculus(self.hom)
        self.gens = NamedGenerators(self.preset, self.kd, self.coh)
        self._frob: Optional[FrobeniusStructure] = None
        if with_frobenius:
            self.ensure_frobenius()

    def ensure_frobenius(self) -> FrobeniusStructure:
        if self._frob is None:
            self._frob = FrobeniusStructure(self.preset.algebra,
                                            socle_generators(self.preset))
        return self._frob

    def invariant_triple(self) -> Tuple[int, int, int]:
        return (self.hi_coh.dim(0), self.hi_coh.dim(1), self.hi_coh.dim(2))


def _combo_vector(comp: TypeCharComputation, combo: ExpectedCombo,
                  class_vectors: Dict[str, List[object]], dim: int) -> List[object]:
    field = comp.field
    acc: SparseVec = {}
    for lbl, coeff in combo.items():
        field.add_into(acc, dict(enumerate(class_vectors[lbl])), field.from_int(coeff))
    return [acc.get(k, field.zero) for k in range(dim)]


def verify_type_char(name: str, char: int, log: Optional[CheckLog] = None,
                     comp: Optional[TypeCharComputation] = None) -> CheckLog:
    """Compare one preset/characteristic against the expected tables."""
    if log is None:
        log = CheckLog()
    if comp is None:
        comp = TypeCharComputation(name, char, with_frobenius=False)
    field = comp.field
    key = f"{name}.char{char}"

    def dims(check: str, spaces, expected: Tuple[int, int, int]) -> None:
        got = tuple(spaces.dims()[:3])
        log.record(f"{key}.{check}", got == expected, f"computed {got}, table {expected}")

    exp_dims = adedata.expected_hk_dims(name, char)
    dims("HK.dims", comp.coh, exp_dims)
    dims("HK_.dims", comp.hom, tuple(reversed(exp_dims)))

    # the named generators must be cocycles whose classes form bases
    by_degree: Dict[int, List[str]] = {0: [], 1: [], 2: []}
    for lbl in comp.gens.all_labels():
        by_degree[comp.gens.degree_of(lbl)].append(lbl)
    class_vectors: Dict[str, List[object]] = {}
    for p in range(3):
        labels = by_degree[p]
        dim = comp.coh.dim(p)
        log.record(f"{key}.HK{p}.generator-count", len(labels) == dim,
                   f"{len(labels)} generators for dimension {dim}")
        rows = []
        for lbl in labels:
            f = comp.gens.cochain(lbl)
            ok = f.is_cocycle()
            log.record(f"{key}.cocycle.{lbl}", ok)
            vec = comp.coh.class_of(f)
            class_vectors[lbl] = vec
            rows.append({k: c for k, c in enumerate(vec) if not field.is_zero(c)})
        r = rank(rows, dim, field)
        log.record(f"{key}.HK{p}.generators-form-basis", r == dim == len(labels),
                   f"rank {r} of {len(labels)} classes in dimension {dim}")

    # class-level cup products against the table, from one cup table and
    # one dimension per degree pair
    table = adedata.expected_cup_table(name, char)
    all_labels = comp.gens.all_labels()
    cochains = comp.gens.table
    position = {lbl: k for labels in by_degree.values() for k, lbl in enumerate(labels)}
    cups = {(p1, p2): comp.kd.cup_table([cochains[l] for l in by_degree[p1]],
                                        [cochains[l] for l in by_degree[p2]])
            for p1 in range(3) for p2 in range(3 - p1)}
    prod_dims = [comp.coh.dim(p) for p in range(3)]
    for l1 in all_labels:
        p1 = comp.gens.degree_of(l1)
        for l2 in all_labels:
            p2 = comp.gens.degree_of(l2)
            if p1 + p2 > 2:
                continue
            prod = cups[(p1, p2)].get((position[l1], position[l2]))
            got = comp.coh.zero_class(p1 + p2) if prod is None else comp.coh.class_of(prod)
            if l1 == "z0":
                expected = list(class_vectors[l2])
            elif l2 == "z0":
                expected = list(class_vectors[l1])
            else:
                combo = table.get((l1, l2))
                sign = 1
                if combo is None and (l2, l1) in table:
                    combo = table[(l2, l1)]
                    sign = -1 if (p1 * p2) % 2 == 1 else 1
                expected = _combo_vector(comp, combo or {}, class_vectors,
                                         prod_dims[p1 + p2])
                if sign == -1:
                    expected = [field.neg(x) for x in expected]
            # both sides are settled, so equal classes are equal lists
            log.record(f"{key}.cup.{l1}*{l2}", got == expected,
                       f"computed {got}, table {expected}")

    # higher calculus
    exp_hi = adedata.expected_higher_dims(name, char)
    dims("HKhi.dims", comp.hi_coh, exp_hi)
    dims("HKhi_.dims", comp.hi_hom, tuple(reversed(exp_hi)))
    for lbl in adedata.expected_higher_zero_generators(name, char):
        ok = comp.hi_coh.class_in_kernel(cochains[lbl])
        log.record(f"{key}.HKhi0.survivor.{lbl}", ok)

    rep = verify_duality(comp.coh, comp.hom, comp.hi_coh, comp.hi_hom)
    log.record(f"{key}.duality", rep.ok, "; ".join(rep.failures[:3]))
    return log


def hochschild2_checks(name: str, char: int, log: Optional[CheckLog] = None,
                       comp: Optional[TypeCharComputation] = None) -> CheckLog:
    """Degree-2 Hochschild comparison for one preset/characteristic."""
    if log is None:
        log = CheckLog()
    if comp is None:
        comp = TypeCharComputation(name, char, with_frobenius=True)
    field = comp.field
    key = f"{name}.char{char}"
    frob = comp.ensure_frobenius()

    log.record(f"{key}.frobenius.dual-pairing", frob.dual_pairing_check())
    log.record(f"{key}.frobenius.nakayama-symmetric",
               frob.form_is_nakayama_symmetric())
    triples = frob.paired_triples(random.Random(11), 20)
    log.record(f"{key}.frobenius.associative", frob.form_is_associative(triples))
    log.record(f"{key}.frobenius.nu-respects-relations",
               frob.nakayama_respects_relations())
    expected_nu = expected_nakayama_on_arrows(comp.preset)
    got_nu = frob.nakayama_arrow_scalars()
    nu_ok = all(got_nu[a] == (beta, field.from_int(sign))
                for a, (beta, sign) in expected_nu.items())
    log.record(f"{key}.frobenius.nu-matches-graph-rule", nu_ok,
               f"computed {got_nu}")
    nbar = comp.preset.dynkin.nu
    log.record(f"{key}.frobenius.nubar", frob.nu_bar == nbar,
               f"computed {frob.nu_bar}, expected {nbar}")

    cmp2 = Degree2Comparison(comp.kd, frob, comp.coh, comp.hom)

    def tabulated_span(check: str, vectors, subspace, computed: str) -> None:
        """The tabulated class vectors lie in the computed subspace and span it."""
        rows = [{k: c for k, c in enumerate(vec) if not field.is_zero(c)} for vec in vectors]
        inside = all(subspace.contains(row) for row in rows)
        span_dim = rank(rows, subspace.ambient, field)
        log.record(f"{key}.{check}", inside and span_dim == subspace.dim,
                   f"tabulated span {span_dim}, {computed} {subspace.dim}, "
                   f"contained: {inside}")

    exp_hh2 = adedata.expected_hh2_dim(name, char)
    if exp_hh2 is not None:
        log.record(f"{key}.HH2.dim", cmp2.hh2_dim == exp_hh2,
                   f"computed {cmp2.hh2_dim}, table {exp_hh2}")
    basis = adedata.expected_hh2_basis(name, char)
    if basis is not None:
        class_vectors = {lbl: comp.coh.class_of(comp.gens.cochain(lbl))
                         for lbl in comp.gens.all_labels()
                         if comp.gens.degree_of(lbl) == 2}
        dim2 = comp.coh.dim(2)
        tabulated_span("HH2.basis", [_combo_vector(comp, combo, class_vectors, dim2)
                                     for combo in basis],
                       cmp2.hh2_subspace, "computed dim")
    defect = adedata.expected_hh_2_defect(name, char)
    if defect is not None:
        got = cmp2.hk_2_dim - cmp2.hh_2_dim
        log.record(f"{key}.HH_2.defect", got == defect,
                   f"computed defect {got}, table {defect}")
    killed = adedata.hh_2_killed_generators(name, char)
    if killed is not None:
        # theta of each tabulated combination of generators
        combos = [reduce(Cochain.add, [comp.gens.cochain(lbl).scale(field.from_int(coeff))
                                       for lbl, coeff in combo.items()])
                  for combo in killed]
        cycles = [comp.hom.class_of(z) for z in theta_table(comp.kd, combos)]
        tabulated_span("HH_2.killed-span", cycles, cmp2.killed_subspace, "computed")
    log.record(f"{key}.cartan-kernel", cmp2.ker_up_weight0_dim == cmp2.cartan_kernel_dim,
               f"weight-0 kernel {cmp2.ker_up_weight0_dim}, Cartan kernel "
               f"{cmp2.cartan_kernel_dim}")
    return log


def _run_verify_job(args: Tuple[str, int]) -> Tuple[List[Tuple[str, bool, str]],
                                                   Tuple[int, int, int]]:
    """Table checks and the degree-2 Hochschild comparison for one
    (type, char), on one computation, and its computed invariant triple."""
    name, char = args
    comp = TypeCharComputation(name, char, with_frobenius=False)
    log = verify_type_char(name, char, comp=comp)
    hochschild2_checks(name, char, log=log, comp=comp)
    return log.entries, comp.invariant_triple()


def verify_ade(types: Sequence[str], chars: Sequence[int]) -> CheckLog:
    """Tables plus the invariant-triple theorem across the given types, one
    (type, char) job after another in this process.

    An empty or repeated list of types or characteristics is refused, and
    so is a characteristic that is neither 0 nor a prime.  A job that
    raises a ``ValueError`` is recorded as a failed ``<type>.char<c>.job``
    entry with the error, its triple left out of the triple checks, and
    the run goes on.
    """
    for what, items in (("types", types), ("characteristics", chars)):
        repeated = [str(x) for x in dict.fromkeys(items) if items.count(x) > 1]
        if not items or repeated:
            raise ValueError(f"repeated {what}: {', '.join(repeated)}" if repeated
                             else f"no {what} given")
    for char in chars:
        field_of_char(char)
    untabulated = [t for t in types if not adedata.tabulated(t)]
    if untabulated:
        raise PresetError(f"no tables for {', '.join(untabulated)} "
                          "(tabulated: A3.., D4.., E6, E7, E8)")
    log = CheckLog()
    computed: Dict[Tuple[str, int], Tuple[int, int, int]] = {}
    for t in types:
        for c in chars:
            try:
                entries, computed[(t, c)] = _run_verify_job((t, c))
            except ValueError as exc:
                log.record(f"{t}.char{c}.job", False, f"{type(exc).__name__}: {exc}")
                continue
            log.entries.extend(entries)
    for char in chars:
        triples = {t: computed[(t, char)] for t in types if (t, char) in computed}
        # distinguishability among the computed set
        seen: Dict[Tuple[int, int, int], str] = {}
        for t, tri in triples.items():
            if tri in seen:
                log.record(f"triples.char{char}.distinct", False,
                           f"{seen[tri]} and {t} share {tri}")
            else:
                seen[tri] = t
        for (t1, t2) in adedata.documented_triple_collisions(char):
            if t1 in triples and t2 in triples:
                a, b = triples[t1], triples[t2]
                log.record(f"triples.char{char}.collision.{t1}-{t2}",
                           a[:2] == b[:2] and a[2] != b[2],
                           f"{t1}:{a} {t2}:{b}")
    return log


# -- identity checks on fixed bases ----------------------------------------------


def _units(spaces: CalculusSpaces, p: int) -> list:
    """The unit (co)chains of degree p, one per coordinate of each block."""
    one = spaces.kd.field.one
    return [blk.space.unflatten({k: one}) for _start, blk in spaces.layout(p)[1].values()
            for k in range(blk.space.dim)]


def _values(table: Dict) -> Dict:
    """The value dicts of a table of elements, zero elements dropped."""
    return {key: e.values for key, e in table.items() if e.values}


def _sum(*terms) -> Dict:
    """The sum of c times each (table, c) term, tables of elements keyed
    alike, as value dicts; a missing key is zero."""
    out: Dict = {}
    for table, c in terms:
        for key, e in table.items():
            out[key] = out[key].add(e, c) if key in out else e.scale(c)
    return _values(out)


def _nested(inner: Dict, outer, first: bool) -> Dict:
    """``outer`` applied to the elements of ``inner``, a table keyed by
    tuples: the pair table ``outer(elements)`` is keyed (a, l) with the
    a-th element in its first slot when ``first``, else (l, a), and each
    key is spread out to the inner key with l after or before it."""
    keys = list(inner)
    table = outer([inner[key] for key in keys])
    if first:
        return {keys[a] + (l,): e for (a, l), e in table.items()}
    return {(l,) + keys[a]: e for (l, a), e in table.items()}


def _classes(spaces: CalculusSpaces, table: Dict) -> Dict:
    """The nonzero class coordinates of a table of closed elements."""
    return {key: vec for key, e in table.items()
            if (vec := {k: c for k, c in enumerate(spaces.class_of(e)) if c})}


def _over(degrees, compare):
    """One identity over its degree tuples, as a check giving (ok, detail),
    or None when no comparison had a nonzero side.  ``compare(*d)`` gives
    the number of comparisons in degrees d and the tables of their two
    sides, keyed alike, that hold the comparisons with a nonzero side; a
    key missing from one table reads zero there."""
    def check():
        n = live = unequal = 0
        for d in degrees:
            dn, lhs, rhs = compare(*d)
            keys = lhs.keys() | rhs.keys()
            n += dn
            live += len(keys)
            unequal += sum(lhs.get(key, {}) != rhs.get(key, {}) for key in keys)
        if not live:
            return None
        detail = f"{live} of {n} comparisons with a nonzero side"
        return not unequal, detail + (f", {unequal} unequal" if unequal else "")
    return check


def identity_checks(coh: CalculusSpaces, hom: CalculusSpaces,
                    preprojective: bool) -> CheckLog:
    """The identities of the Koszul calculus, each checked once on fixed bases.

    The identities are multilinear, so each is compared on the unit
    (co)chains of every computed block (``_units``) and on the class
    representatives, through one cup or cap table per degree tuple, in
    total degree at most 2: b o b = 0, b = -[e_A, -] and biweight
    homogeneity on the units; Leibniz on units x units; cup associativity
    on units x representatives^2; the cap compatibilities on
    representatives^2 x degree-2 chain units; for a preprojective algebra,
    graded commutativity and cap symmetry on pairs of representatives.
    Each identity is one entry, detailed "k of n comparisons with a nonzero
    side" (for b o b = 0, the units u with b u nonzero).  An identity with
    k = 0 compared zero with zero only: it is listed in ``vacuous``, not
    logged.  A product that has no class fails its identity.
    """
    kd = coh.kd
    field = kd.field
    one, minus = field.one, field.neg(field.one)
    eA = kd.fundamental_cocycle()
    top = coh.p_max
    fs = [_units(coh, p) for p in range(top + 1)]
    zs = [_units(hom, q) for q in range(top + 1)]
    bfs = [[kd.apply_bK(f) for f in us] for us in fs]
    bzs = [[kd.apply_bK_chain(z) for z in us] for us in zs]
    reps = [coh.representatives(p) for p in range(3)]
    pairs = [(p1, p2) for p1 in range(3) for p2 in range(3 - p1)]
    cochain_degrees = [(p,) for p in range(top + 1)]
    chain_degrees = [(q,) for q in range(1, top + 1)]

    def squares(bs, apply):
        return len(bs), {k: apply(b).values for k, b in enumerate(bs) if b.values}, {}

    def biweight(us, bs):
        weights = {k: b.coefficient_weights() for k, b in enumerate(bs) if b.values}
        return len(us), weights, {k: [m + 1 for m in us[k].coefficient_weights()]
                                  for k in weights}

    def fundamental(bs, left, right, p):
        """b u against -[eA, u] = -left + (-1)^p right, the tables keyed (0, u)."""
        return (len(bs), {(0, k): b.values for k, b in enumerate(bs) if b.values},
                _sum((left, minus), (right, field.sign(p))))

    def leibniz(p1, p2):
        n = len(fs[p1]) * len(fs[p2])
        if not kd.w(p1 + p2 + 1).dim:
            return n, {}, {}  # both sides lie in a zero space
        fg = kd.cup_table(fs[p1], fs[p2])
        return (n, _values({key: kd.apply_bK(e) for key, e in fg.items()}),
                _sum((kd.cup_table(bfs[p1], fs[p2]), one),
                     (kd.cup_table(fs[p1], bfs[p2]), field.sign(p1))))

    def associative(p1, p2, p3):
        lhs = _nested(kd.cup_table(fs[p1], reps[p2]), lambda es: kd.cup_table(es, reps[p3]),
                      True)
        rhs = _nested(kd.cup_table(reps[p2], reps[p3]), lambda es: kd.cup_table(fs[p1], es),
                      False)
        return len(fs[p1]) * len(reps[p2]) * len(reps[p3]), _values(lhs), _values(rhs)

    def cap_compatible(outer, inner):
        """f cap_outer (g cap_inner z), keyed (f, g, z): against (f cup g)
        cap z, z cap (g cup f) when both sides are right, and g cap_inner
        (f cap_outer z) when they differ."""
        def compare(p1, p2):
            lhs = _nested(kd.cap_table(reps[p2], zs[2], inner),
                          lambda es: kd.cap_table(reps[p1], es, outer), False)
            if outer != inner:
                rhs = _nested(kd.cap_table(reps[p1], zs[2], outer),
                              lambda es: kd.cap_table(reps[p2], es, inner), False)
                rhs = {(i, j, z): e for (j, i, z), e in rhs.items()}
            else:
                fg = (kd.cup_table(reps[p1], reps[p2]) if outer == "left" else
                      {(i, j): e for (j, i), e in kd.cup_table(reps[p2], reps[p1]).items()})
                rhs = _nested(fg, lambda es: kd.cap_table(es, zs[2], outer), True)
            return len(reps[p1]) * len(reps[p2]) * len(zs[2]), _values(lhs), _values(rhs)
        return _over(pairs, compare)

    def commutative(pa, pb):
        ba = kd.cup_table(reps[pb], reps[pa])
        sign = field.sign(pa * pb)
        return (len(reps[pa]) * len(reps[pb]), _classes(coh, kd.cup_table(reps[pa], reps[pb])),
                _classes(coh, {(i, j): e.scale(sign) for (j, i), e in ba.items()}))

    def symmetric(pa, qb):
        zreps = hom.representatives(qb)
        right = kd.cap_table(reps[pa], zreps, "right")
        sign = field.sign(pa * qb)
        return (len(reps[pa]) * len(zreps), _classes(hom, kd.cap_table(reps[pa], zreps, "left")),
                _classes(hom, {key: e.scale(sign) for key, e in right.items()}))

    def center():
        basis = kd.algebra.center_basis()
        rows = _classes(coh, dict(enumerate(map(kd.diagonal_cochain, basis))))
        dim0 = coh.dim(0)
        return (rank(list(rows.values()), dim0, field) == dim0 == len(basis),
                f"center dim {len(basis)}, HK0 dim {dim0}")

    def higher0():
        hi0, direct = HigherSpaces(coh).dim(0), direct_higher0_dim(kd.algebra)
        return hi0 == direct, f"higher {hi0}, direct {direct}"

    checks = [
        ("bK o bK = 0", _over(cochain_degrees[:-1], lambda p: squares(bfs[p], kd.apply_bK))),
        ("b^K o b^K = 0", _over(chain_degrees[1:],
                                lambda q: squares(bzs[q], kd.apply_bK_chain))),
        ("Leibniz", _over(pairs, leibniz)),
        ("bK = -[eA, -]_cup", _over(cochain_degrees, lambda p: fundamental(
            bfs[p], kd.cup_table([eA], fs[p]),
            {(0, k): e for (k, _e), e in kd.cup_table(fs[p], [eA]).items()}, p))),
        ("b^K = -[eA, -]_cap", _over(chain_degrees, lambda q: fundamental(
            bzs[q], kd.cap_table([eA], zs[q], "left"), kd.cap_table([eA], zs[q], "right"), q))),
        ("(f cup g) cup h assoc", _over([(p1, p2, p3) for p1, p2 in pairs
                                         for p3 in range(3 - p1 - p2)], associative)),
        ("f cap (g cap z) = (f cup g) cap z", cap_compatible("left", "left")),
        ("(z cap g) cap f = z cap (g cup f)", cap_compatible("right", "right")),
        ("f cap (z cap g) = (f cap z) cap g", cap_compatible("left", "right")),
        ("bK biweight (+1,+1)", _over(cochain_degrees, lambda p: biweight(fs[p], bfs[p]))),
        ("b^K biweight (-1,+1)", _over(chain_degrees, lambda q: biweight(zs[q], bzs[q]))),
    ]
    if preprojective:
        checks += [("class cup graded commutative",
                    _over([(pa, pb) for pa, pb in pairs if pa <= pb], commutative)),
                   ("class cap graded symmetric",
                    _over([(pa, qb) for pa in range(3) for qb in range(pa, 3)], symmetric))]
    checks += [("HK0 = center", center), ("HK0_hi = direct solution set", higher0)]
    log = CheckLog()
    for name, check in checks:
        try:
            outcome = check()
        except NotClosedError as exc:
            outcome = False, f"a product has no class: {exc}"
        if outcome is None:
            log.vacuous.append(name)
        else:
            log.record(name, *outcome)
    return log


def direct_higher0_dim(alg) -> int:
    """dim of {u central : exists v with u a = v a - a v for all arrows}."""
    field = alg.field
    center = alg.center_basis()
    terms = alg.terms
    # column of each unknown, keyed by equation (arrow, term): a center
    # element z gives z a, a monomial v gives -(v a - a v)
    minus = field.neg(field.one)
    keyed: List[Dict[Tuple[int, Tuple[int, int]], object]] = []
    arrows = [alg.arrow_elem(a) for a in range(alg.quiver.n_arrows)]
    for zel in center:
        keyed.append({(a, t): c for a, arrow in enumerate(arrows)
                      for t, c in alg.multiply(zel, arrow).items()})
    for t in terms:
        col: Dict[Tuple[int, Tuple[int, int]], object] = {}
        for a, arrow in enumerate(arrows):
            comm: Elem = {}
            field.add_into(comm, alg.multiply({t: field.one}, arrow), minus)
            field.add_into(comm, alg.multiply(arrow, {t: field.one}), field.one)
            col.update(((a, tt), c) for tt, c in comm.items())
        keyed.append(col)
    # kernel of the stacked system, projected to the center coordinates
    eq_index = {key: i for i, key in enumerate(sorted({key for col in keyed for key in col}))}
    cols: List[SparseVec] = [{eq_index[key]: c for key, c in col.items()} for col in keyed]
    ker = kernel(cols, len(eq_index), field)
    proj = [{k: c for k, c in vec.items() if k < len(center)} for vec in ker.rows]
    return rank(proj, len(center), field)
