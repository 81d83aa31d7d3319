"""Verification engines: the Dynkin table checks and the identity suite.

``verify_type_char`` recomputes the whole calculus of one preset over one
field and compares dimensions, generator bases, class-level products and
higher calculus against the expected tables, recording a keyed failure for
every mismatch.  ``property_suite`` drives the randomized exact identity
checks (differentials square to zero, Leibniz, associativity, fundamental
formulas, biweight homogeneity, graded commutativity, and the two
independent descriptions of the degree-0 spaces).
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Optional, Sequence, Tuple

from . import adedata
from .adedata import ExpectedCombo
from .algebra import Elem
from .duality import omega0, verify_duality
from .fields import GF, QQ, Field
from .frobenius import Degree2Comparison, FrobeniusStructure
from .homology import (CalculusSpaces, CoordSpace, HigherSpaces, higher_calculus,
                       koszul_homology)
from .koszul import Chain, Cochain, KoszulCalculus, MODULE_A
from .linalg import LinearMap, SparseVec, kernel, rank
from .presets import (NamedGenerators, Preset, expected_nakayama_on_arrows,
                      nakayama_graph_permutation, socle_generators)


def field_of_char(char: int) -> Field:
    return QQ if char == 0 else GF(char)


class CheckLog:
    def __init__(self):
        self.entries: List[Tuple[str, bool, str]] = []

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

    @property
    def frob(self) -> Optional[FrobeniusStructure]:
        return self._frob

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

    exp_dims = adedata.expected_hk_dims(name, char)
    got_dims = tuple(comp.coh.dims()[:3])
    log.record(f"{key}.HK.dims", got_dims == exp_dims,
               f"computed {got_dims}, table {exp_dims}")
    got_hom = tuple(comp.hom.dims()[:3])
    log.record(f"{key}.HK_.dims", got_hom == tuple(reversed(exp_dims)),
               f"computed {got_hom}, table {tuple(reversed(exp_dims))}")

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

    # class-level cup products against the table
    table = adedata.expected_cup_table(name, char)
    all_labels = comp.gens.all_labels()
    cochains = {lbl: comp.gens.cochain(lbl) for lbl in all_labels}
    for l1 in all_labels:
        p1 = comp.gens.degree_of(l1)
        for l2 in all_labels:
            p2 = comp.gens.degree_of(l2)
            if p1 + p2 > 2:
                continue
            prod = comp.kd.cup(cochains[l1], cochains[l2])
            got = comp.coh.class_of(prod)
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
                dim = comp.coh.dim(p1 + p2)
                expected = _combo_vector(comp, combo or {}, class_vectors, dim)
                if sign == -1:
                    expected = [field.neg(x) for x in expected]
            match = all(field.is_zero(field.sub(a, b)) for a, b in zip(got, expected))
            log.record(f"{key}.cup.{l1}*{l2}", match,
                       f"computed {got}, table {expected}")

    # higher calculus
    exp_hi = adedata.expected_higher_dims(name, char)
    got_hi = tuple(comp.hi_coh.dims()[:3])
    log.record(f"{key}.HKhi.dims", got_hi == exp_hi,
               f"computed {got_hi}, table {exp_hi}")
    got_hi_hom = tuple(comp.hi_hom.dims()[:3])
    log.record(f"{key}.HKhi_.dims", got_hi_hom == tuple(reversed(exp_hi)),
               f"computed {got_hi_hom}, table {tuple(reversed(exp_hi))}")
    for lbl in adedata.expected_higher_zero_generators(name, char):
        ok = comp.hi_coh.class_in_kernel(cochains[lbl])
        log.record(f"{key}.HKhi0.survivor.{lbl}", ok)

    rep = verify_duality(comp.kd, comp.coh, comp.hom, MODULE_A,
                         comp.hi_coh, comp.hi_hom)
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
    rng = random.Random(11)
    triples = [(rng.randrange(frob.dim), rng.randrange(frob.dim),
                rng.randrange(frob.dim)) for _ in range(60)]
    log.record(f"{key}.frobenius.associative", frob.form_is_associative(triples))
    log.record(f"{key}.frobenius.nu-respects-relations",
               frob.nakayama_respects_relations())
    expected_nu = expected_nakayama_on_arrows(comp.preset)
    got_nu = frob.nakayama_arrow_scalars()
    nu_ok = all(got_nu[a] == (beta, field.from_int(sign))
                for a, (beta, sign) in expected_nu.items())
    log.record(f"{key}.frobenius.nu-matches-graph-rule", nu_ok,
               f"computed {got_nu}")
    nbar = nakayama_graph_permutation(comp.preset)
    log.record(f"{key}.frobenius.nubar", frob.nu_bar == nbar,
               f"computed {frob.nu_bar}, expected {nbar}")

    cmp2 = Degree2Comparison(comp.kd, frob, comp.coh, comp.hom)
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
        rows = []
        inside = True
        for combo in basis:
            vec = _combo_vector(comp, combo, class_vectors, dim2)
            svec = {k: c for k, c in enumerate(vec) if not field.is_zero(c)}
            rows.append(svec)
            if not cmp2.hh2_subspace.contains(svec):
                inside = False
        span_dim = rank(rows, dim2, field)
        log.record(f"{key}.HH2.basis", inside and span_dim == cmp2.hh2_dim,
                   f"tabulated span {span_dim}, computed dim {cmp2.hh2_dim}, "
                   f"contained: {inside}")
    defect = adedata.expected_hh_2_defect(name, char)
    if defect is not None:
        got = cmp2.hk_2_dim - cmp2.hh_2_dim
        log.record(f"{key}.HH_2.defect", got == defect,
                   f"computed defect {got}, table {defect}")
    killed = adedata.hh_2_killed_generators(name, char)
    if killed is not None:
        w0 = omega0(comp.kd)
        rows = []
        inside = True
        dimh2 = comp.hom.dim(2)
        for combo in killed:
            z = comp.kd.zero_chain(2)
            for lbl, coeff in combo.items():
                zc = comp.kd.cap(comp.gens.cochain(lbl), w0, side="right")
                z = z.add(zc, field.from_int(coeff))
            vec = comp.hom.class_of(z)
            svec = {k: c for k, c in enumerate(vec) if not field.is_zero(c)}
            rows.append(svec)
            if not cmp2.killed_subspace.contains(svec):
                inside = False
        span_dim = rank(rows, dimh2, field)
        log.record(f"{key}.HH_2.killed-span",
                   inside and span_dim == cmp2.killed_subspace.dim,
                   f"tabulated span {span_dim}, computed "
                   f"{cmp2.killed_subspace.dim}, contained: {inside}")
    log.record(f"{key}.cartan-kernel", cmp2.ker_up_weight0_dim == cmp2.cartan_kernel_dim,
               f"weight-0 kernel {cmp2.ker_up_weight0_dim}, Cartan kernel "
               f"{cmp2.cartan_kernel_dim}")
    return log


def _run_verify_job(args: Tuple[str, int]) -> Tuple[List[Tuple[str, bool, str]],
                                                   Tuple[int, int, int]]:
    """Table checks for one (type, char) and its computed invariant triple."""
    name, char = args
    comp = TypeCharComputation(name, char, with_frobenius=False)
    log = verify_type_char(name, char, comp=comp)
    return log.entries, comp.invariant_triple()


def pool_size(requested, n_jobs: int, cpus: Optional[int]) -> int:
    """Worker processes for ``n_jobs`` jobs on ``cpus`` processors.

    ``requested`` is a count or the raw ``KOSZULKIT_THREADS`` string.  It is
    clamped to ``min(cpus, n_jobs)`` and to at least 1; a non-numeric
    request means 1.
    """
    try:
        n = int(requested)
    except (TypeError, ValueError):
        n = 1
    return max(1, min(n, cpus or 1, n_jobs))


def verify_ade(types: Sequence[str], chars: Sequence[int],
               threads=1) -> CheckLog:
    """Tables plus the invariant-triple theorem across the given types.

    ``threads`` asks for that many worker processes (see ``pool_size``).
    """
    log = CheckLog()
    jobs = [(t, c) for t in types for c in chars]
    workers = pool_size(threads, len(jobs), os.cpu_count())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_verify_job, jobs))
    else:
        results = [_run_verify_job(job) for job in jobs]
    computed: Dict[Tuple[str, int], Tuple[int, int, int]] = {}
    for job, (entries, triple) in zip(jobs, results):
        log.entries.extend(entries)
        computed[job] = triple
    for char in chars:
        triples = {t: computed[(t, char)] for t in types}
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


# -- randomized identity suite -------------------------------------------------


class PropertySuite:
    """Randomized exact identity checks over one computed calculus."""

    def __init__(self, comp_or_kd, coh: Optional[CalculusSpaces] = None,
                 hom: Optional[CalculusSpaces] = None, seed: int = 0,
                 trials: int = 100):
        if isinstance(comp_or_kd, KoszulCalculus):
            self.kd = comp_or_kd
            self.coh = coh
            self.hom = hom
        else:
            self.kd = comp_or_kd.kd
            self.coh = comp_or_kd.coh
            self.hom = comp_or_kd.hom
        self.rng = random.Random(seed)
        self.trials = trials
        self.log = CheckLog()

    # random objects ---------------------------------------------------------

    def _rand_scalar(self):
        field = self.kd.field
        if field.char == 0:
            return field.from_int(self.rng.randint(-4, 4))
        return field.from_int(self.rng.randrange(field.char))

    def random_cochain(self, p: int, m: Optional[int] = None) -> Cochain:
        return self._random_element(p, m, "coh")

    def random_chain(self, q: int, n: Optional[int] = None) -> Chain:
        return self._random_element(q, n, "hom")

    def _random_element(self, p: int, m: Optional[int], side: str):
        """A random (co)chain of degree p in coefficient weight m (random
        when None), one scalar drawn per coordinate in CoordSpace order."""
        if m is None:
            m = self.rng.randrange(self.kd.algebra.max_weight + 1)
        space = CoordSpace(self.kd, p, m, MODULE_A, side)
        vec: SparseVec = {}
        for k in range(space.dim):
            c = self._rand_scalar()
            if not self.kd.field.is_zero(c):
                vec[k] = c
        return space.unflatten(vec)

    def random_cocycle(self, p: int) -> Optional[Cochain]:
        assert self.coh is not None
        weights = [m for (pp, m), blk in self.coh.blocks.items()
                   if pp == p and blk.quotient.z.dim > 0]
        if not weights:
            return None
        m = self.rng.choice(weights)
        blk = self.coh.blocks[(p, m)]
        vec = self._random_member(blk.quotient.z)
        return blk.space.unflatten(vec)

    def random_cycle(self, q: int) -> Optional[Chain]:
        assert self.hom is not None
        weights = [n for (qq, n), blk in self.hom.blocks.items()
                   if qq == q and blk.quotient.z.dim > 0]
        if not weights:
            return None
        n = self.rng.choice(weights)
        blk = self.hom.blocks[(q, n)]
        vec = self._random_member(blk.quotient.z)
        return blk.space.unflatten(vec)

    def _random_member(self, sub) -> SparseVec:
        field = self.kd.field
        vec: SparseVec = {}
        for row in sub.rows:
            field.add_into(vec, row, self._rand_scalar())
        return vec

    # identity checks -----------------------------------------------------------

    def run(self, preprojective: bool = True) -> CheckLog:
        kd = self.kd
        field = kd.field
        trials = self.trials
        eA = kd.fundamental_cocycle()

        def repeat(name, once):
            for _ in range(trials):
                self.log.record(name, once())

        repeat("bK o bK = 0", lambda: kd.apply_bK(
            kd.apply_bK(self.random_cochain(self.rng.randrange(0, 3)))).is_zero())
        repeat("b^K o b^K = 0", lambda: kd.apply_bK_chain(
            kd.apply_bK_chain(self.random_chain(2))).is_zero())

        def leibniz():
            p1 = self.rng.randrange(0, 2)
            p2 = self.rng.randrange(0, 2 - p1 + 1)
            g1 = self.random_cochain(p1)
            g2 = self.random_cochain(p2)
            lhs = kd.apply_bK(kd.cup(g1, g2))
            rhs = kd.cup(kd.apply_bK(g1), g2).add(kd.cup(g1, kd.apply_bK(g2)),
                                                   field.sign(p1))
            return lhs.equals(rhs)

        repeat("Leibniz", leibniz)

        def funda_cup():
            f = self.random_cochain(self.rng.randrange(0, 3))
            return kd.apply_bK(f).equals(
                kd.cup_bracket(eA, f).scale(field.neg(field.one)))

        repeat("bK = -[eA, -]_cup", funda_cup)

        def funda_cap():
            z = self.random_chain(self.rng.randrange(1, 3))
            return kd.apply_bK_chain(z).equals(
                kd.cap_bracket(eA, z).scale(field.neg(field.one)))

        repeat("b^K = -[eA, -]_cap", funda_cap)

        repeat("(f cup g) cup h assoc", self._assoc_cup)
        repeat("f cap (g cap z) = (f cup g) cap z",
               lambda: self._assoc_cap_left(self.random_chain(2)))
        repeat("(z cap g) cap f = z cap (g cup f)",
               lambda: self._assoc_cap_right(self.random_chain(2)))
        repeat("f cap (z cap g) = (f cap z) cap g",
               lambda: self._assoc_cap_mixed(self.random_chain(2)))

        def biweight_cochain():
            m = self.rng.randrange(0, kd.algebra.max_weight)
            fh = self.random_cochain(self.rng.randrange(0, 3), m)
            return set(kd.apply_bK(fh).coefficient_weights()) <= {m + 1}

        repeat("bK biweight (+1,+1)", biweight_cochain)

        def biweight_chain():
            m = self.rng.randrange(0, kd.algebra.max_weight)
            zh = self.random_chain(self.rng.randrange(1, 3), m)
            return set(kd.apply_bK_chain(zh).coefficient_weights()) <= {m + 1}

        repeat("b^K biweight (-1,+1)", biweight_chain)

        if preprojective and self.coh is not None and self.hom is not None:
            def class_commutative():
                while True:
                    pa = self.rng.randrange(0, 3)
                    pb = self.rng.randrange(0, 3 - pa)
                    fa = self.random_cocycle(pa)
                    fb = self.random_cocycle(pb)
                    if fa is None or fb is None:
                        continue
                    ab = self.coh.class_of(kd.cup(fa, fb))
                    ba = self.coh.class_of(kd.cup(fb, fa))
                    sign = field.sign(pa * pb)
                    return all(field.is_zero(field.sub(x, field.mul(sign, y)))
                               for x, y in zip(ab, ba))

            repeat("class cup graded commutative", class_commutative)

            def class_symmetric():
                while True:
                    pa = self.rng.randrange(0, 3)
                    qb = self.rng.randrange(pa, 3)
                    fa = self.random_cocycle(pa)
                    zb = self.random_cycle(qb)
                    if fa is None or zb is None:
                        continue
                    left = self.hom.class_of(kd.cap(fa, zb, "left"))
                    right = self.hom.class_of(kd.cap(fa, zb, "right"))
                    sign = field.sign(pa * qb)
                    return all(field.is_zero(field.sub(x, field.mul(sign, y)))
                               for x, y in zip(left, right))

            repeat("class cap graded symmetric", class_symmetric)
        if self.coh is not None:
            self._check_center()
        return self.log

    def _assoc_cup(self) -> bool:
        kd = self.kd
        degs = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 0), (0, 0, 2), (0, 2, 0)]
        p1, p2, p3 = self.rng.choice(degs)
        f = self.random_cochain(p1)
        g = self.random_cochain(p2)
        h = self.random_cochain(p3)
        return kd.cup(kd.cup(f, g), h).equals(kd.cup(f, kd.cup(g, h)))

    def _assoc_cap_left(self, z: Chain) -> bool:
        kd = self.kd
        p1 = self.rng.randrange(0, 2)
        p2 = self.rng.randrange(0, 3 - p1 - 0)
        if p1 + p2 > z.q:
            p1 = p2 = 0
        f = self.random_cochain(p1)
        g = self.random_cochain(p2)
        return kd.cap(f, kd.cap(g, z, "left"), "left").equals(
            kd.cap(kd.cup(f, g), z, "left"))

    def _assoc_cap_right(self, z: Chain) -> bool:
        kd = self.kd
        p1 = self.rng.randrange(0, 2)
        p2 = self.rng.randrange(0, 3 - p1)
        if p1 + p2 > z.q:
            p1 = p2 = 0
        f = self.random_cochain(p1)
        g = self.random_cochain(p2)
        return kd.cap(f, kd.cap(g, z, "right"), "right").equals(
            kd.cap(kd.cup(g, f), z, "right"))

    def _assoc_cap_mixed(self, z: Chain) -> bool:
        kd = self.kd
        p1 = self.rng.randrange(0, 2)
        p2 = self.rng.randrange(0, 3 - p1)
        if p1 + p2 > z.q:
            p1 = p2 = 0
        f = self.random_cochain(p1)
        g = self.random_cochain(p2)
        return kd.cap(f, kd.cap(g, z, "right"), "left").equals(
            kd.cap(g, kd.cap(f, z, "left"), "right"))

    def _check_center(self) -> None:
        kd = self.kd
        field = kd.field
        alg = kd.algebra
        center = alg.center_basis()
        dim0 = self.coh.dim(0)
        rows = []
        for zel in center:
            values = {}
            for i in range(alg.quiver.n_vertices):
                part = {t: c for t, c in zel.items()
                        if alg.block_of[t[0]][t[1]] == (i, i)}
                if part:
                    values[i] = part
            f = kd.cochain_on_vertices(values)
            vec = self.coh.class_of(f)
            rows.append({k: c for k, c in enumerate(vec) if not field.is_zero(c)})
        r = rank(rows, dim0, field)
        self.log.record("HK0 = center", r == dim0 == len(center),
                        f"center dim {len(center)}, HK0 dim {dim0}")
        # degree-0 higher space versus the direct linear description
        hi0 = HigherSpaces(self.coh).dim(0)
        direct = direct_higher0_dim(alg)
        self.log.record("HK0_hi = direct solution set", hi0 == direct,
                        f"higher {hi0}, direct {direct}")


def direct_higher0_dim(alg) -> int:
    """dim of {u central : exists v with u a = v a - a v for all arrows}."""
    field = alg.field
    center = alg.center_basis()
    terms = [(m, pos) for m in range(alg.max_weight + 1)
             for pos in range(len(alg.monomials[m]))]
    n_unknowns = len(center) + len(terms)
    # column of each unknown, keyed by equation (arrow, term): a center
    # element z gives z a, a monomial v gives -(v a - a v)
    minus = field.neg(field.one)
    keyed: List[Dict[Tuple[int, Tuple[int, int]], object]] = []
    for zel in center:
        keyed.append({(a, t): c for a in range(alg.quiver.n_arrows)
                      for t, c in alg.rmul_arrow(zel, a).items()})
    for t in terms:
        col: Dict[Tuple[int, Tuple[int, int]], object] = {}
        for a in range(alg.quiver.n_arrows):
            comm: Elem = {}
            field.add_into(comm, alg.rmul_arrow({t: field.one}, a), minus)
            field.add_into(comm, alg.lmul_arrow(a, {t: field.one}), field.one)
            col.update(((a, tt), c) for tt, c in comm.items())
        keyed.append(col)
    # kernel of the stacked system, projected to the center coordinates
    eq_index = {key: i for i, key in enumerate(sorted({key for col in keyed for key in col}))}
    cols: List[SparseVec] = [{eq_index[key]: c for key, c in col.items()} for col in keyed]
    ker = kernel(LinearMap(n_unknowns, len(eq_index), cols, field))
    proj = [{k: c for k, c in vec.items() if k < len(center)} for vec in ker.rows]
    return rank(proj, len(center), field)
