"""Cap-product duality machinery for preprojective algebras.

The weight-0 fundamental cycle omega0 = sum_i e_i (x) sigma_i has degree n,
read off omega0.  Capped on the right with the cochains of degree p <= n it
realizes the isomorphism theta onto chains of degree n-p: ``theta_table`` is
its one evaluation, a cap table, and ``eta_table`` its inverse, read off the
split pairing of omega0 (``cap_pairing``, ``eta_inverse``).
``verify_duality`` certifies the chain-map, inversion, symmetry and module
identities exactly, each on tables of the size of W and on the class
representatives: the first three on omega0's pairing and the
differential's term tables (``w_identities``), the module identities on
the scalar tables of ``module_table``.  ``ae_coefficient_route`` reads the
enveloping coefficients off the bimodule complex instead of materializing
them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .homology import BimoduleHomology, CalculusSpaces, HigherSpaces
from .koszul import (Chain, Cochain, DegreeError, KoszulCalculus, MODULE_A, ModuleError,
                     _common_grading)
from .linalg import rank


class NotPreprojectiveError(ValueError):
    pass


#: the names of checks (a), (b), (c) and theta o eta in a ``DualityReport``
CHAIN_MAP, ETA_THETA, CAP_SYMMETRY, THETA_ETA = (
    "theta chain map", "eta o theta = id", "f cap w0 = w0 cap f", "theta o eta = id")


def omega0(kd: KoszulCalculus) -> Chain:
    """The fundamental cycle: sum over vertices of e_i tensor sigma_i."""
    pres = kd.algebra.presentation
    if not hasattr(pres, "preprojective"):
        raise NotPreprojectiveError("operation requires a preprojective presentation")
    return kd.chain_on_relations([(kd.algebra.vertex_elem(i), r)
                                  for r, i in enumerate(pres.sigma_vertices)])


def theta_table(kd: KoszulCalculus, fs: Sequence[Cochain],
                w0: Optional[Chain] = None) -> List[Chain]:
    """Duality map on every cochain of ``fs`` (one degree, at most n): the
    fundamental n-cycle capped with each, from one right cap table.  A
    cochain whose cap is absent from the table maps to the zero chain of
    the product's module."""
    w0 = omega0(kd) if w0 is None else w0
    n = w0.q
    if any(f.p > n for f in fs):
        raise DegreeError(f"duality is defined in degrees 0..{n}")
    caps = kd.cap_table(fs, [w0], side="right")
    return [caps[(i, 0)] if (i, 0) in caps else
            kd.zero_chain(n - f.p, kd._out_module(f.module, w0.module))
            for i, f in enumerate(fs)]


def theta(kd: KoszulCalculus, f: Cochain, w0: Optional[Chain] = None) -> Chain:
    """Duality map on one cochain, the one-cochain case of ``theta_table``."""
    return theta_table(kd, [f], w0)[0]


def cap_pairing(kd: KoszulCalculus, w0: Chain, p: int,
                side: str = "right") -> Dict[int, Dict[int, object]]:
    """omega0's pairing lam(s, u) of W_p with W_{n-p}, keyed s then u, zeros
    dropped.

    omega0's coefficients are lam e_i, and e_i x = x by the vertex blocks,
    so the cap of omega0 with the unit cochain s -> x is
    sum_u lam(s, u) x (x) u.  ``side="right"``, theta's cap, reads lam off
    the (p, n-p) splits with sign (-1)^{pn}; ``"left"``, the cap of the
    cochain with omega0, off the (n-p, p) splits with sign (-1)^{(n-p)p}."""
    n = w0.q
    if side == "right":
        splits, sign = kd.split_coords(p, n - p), p * n
    elif side == "left":
        splits, sign = kd.split_coords(n - p, p), (n - p) * p
    else:
        raise ValueError("side must be 'left' or 'right'")
    field = kd.field
    sign = field.sign(sign)
    acc: Dict[int, Dict[int, object]] = {}
    for x, coeff in w0.values.items():
        for lam in coeff.values():  # omega0's coefficients are scalars times e_i
            for (a, b), c in splits[x].items():
                s, u = (a, b) if side == "right" else (b, a)
                row = acc.setdefault(s, {})
                row[u] = row.get(u, 0) + sign * lam * c
    rows = {s: field.settle(row) for s, row in acc.items()}
    return {s: row for s, row in rows.items() if row}


def eta_inverse(kd: KoszulCalculus, w0: Chain, q: int) -> Dict[int, Tuple[int, object]]:
    """The inverse of theta's pairing on chains of degree q <= n: each u of
    W_q goes to the one s of W_{n-q} with lam(s, u) != 0, and 1 / lam(s, u)."""
    n = w0.q
    if q > n:
        raise DegreeError(f"duality is defined in degrees 0..{n}")
    pairs = [(u, s, lam) for s, row in cap_pairing(kd, w0, n - q).items()
             for u, lam in row.items()]
    inverse = {u: (s, kd.field.inv(lam)) for u, s, lam in pairs}
    if not (len(pairs) == len(inverse) == len({s for _u, s, _lam in pairs})
            == kd.w(q).dim == kd.w(n - q).dim):
        raise NotPreprojectiveError(f"omega0 does not pair W_{q} one-to-one with W_{n - q}")
    return inverse


def eta_table(kd: KoszulCalculus, zs: Sequence[Chain],
              w0: Optional[Chain] = None) -> List[Cochain]:
    """Inverse of the duality map on every chain of ``zs`` (one degree q <= n):
    theta(s -> m) has lam(s, u) m on the one u paired with s
    (``cap_pairing``), so m (x) u goes to the cochain s -> m / lam(s, u)."""
    if not zs:
        return []
    q, module = _common_grading(zs)
    w0 = omega0(kd) if w0 is None else w0
    inverse = eta_inverse(kd, w0, q)
    out = []
    for z in zs:
        acc: Dict[int, object] = {}
        for u, m in z.values.items():
            s, c = inverse[u]
            kd._mod_accumulate(module, acc, s, m, c)
        out.append(Cochain(kd, w0.q - q, module, kd._mod_settle(module, acc)))
    return out


def unit_cochain(kd: KoszulCalculus) -> Cochain:
    return kd.diagonal_cochain(kd.algebra.unit_elem())


class DualityReport:
    def __init__(self):
        self.checks: Dict[str, bool] = {}
        self.failures: List[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = self.checks.get(name, True) and ok
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def module_table(kd: KoszulCalculus, w0: Chain, p: int, q: int,
                 side: str) -> Dict[Tuple[int, int, int], object]:
    """The scalars of one side of the module identities at degrees (p, q).

    For unit cochains f = (w1 -> x1) of degree p and g = (w2 -> x2) of
    degree q, each side is sum_u T(w1, w2, u) (x1 x2) (x) u: omega0's
    coefficients are lam e_i, and e_i x1 x2 = x1 x2 by the vertex blocks.
    T is keyed (w1, w2, u), zeros dropped, and contracts two splits of
    omega0's support with lam: ``side="cup"`` is theta(f cup g), through
    the (p+q, n-p-q) and (p, q) splits; ``"left"`` is theta(f) cap g,
    through (p, n-p) and (q, n-p-q); ``"right"`` is f cap theta(g), through
    (q, n-q) and (n-q-p, p), read as (u, w1)."""
    n = w0.q
    if side == "cup":
        outer, inner, sign = (p + q, n - p - q), (p, q), (p + q) * n + p * q
    elif side == "left":
        outer, inner, sign = (p, n - p), (q, n - p - q), p * n + q * (n - p)
    elif side == "right":
        outer, inner, sign = (q, n - q), (n - q - p, p), q * n + (n - q - p) * p
    else:
        raise ValueError("side must be 'cup', 'left' or 'right'")
    field = kd.field
    sign = field.sign(sign)
    outer, inner = kd.split_coords(*outer), kd.split_coords(*inner)
    acc: Dict[Tuple[int, int, int], object] = {}
    for x, coeff in w0.values.items():
        for lam in coeff.values():  # omega0's coefficients are scalars times e_i
            for (a, b), c in outer[x].items():
                for (s, t), d in inner[a if side == "cup" else b].items():
                    key = ((s, t, b) if side == "cup" else
                           (a, s, t) if side == "left" else (t, a, s))
                    acc[key] = acc.get(key, 0) + sign * lam * c * d
    return field.settle(acc)


def _carriers(spaces: CalculusSpaces, p: int) -> List[int]:
    """The W_p indices that carry a unit (co)chain of ``spaces``, ascending."""
    return sorted({flat for _start, blk in spaces.layout(p)[1].values()
                   for flat, _pos in blk.space.coords})


def _chain_map_holds(kd: KoszulCalculus, n: int, p: int, rows: Sequence[int],
                     lam: Dict[int, Dict[int, object]],
                     lam_next: Dict[int, Dict[int, object]]) -> bool:
    """theta(b_K f) = b_K theta(f) for every unit cochain s -> x of degree
    p < n with s in ``rows``, read off the pairings ``lam`` of W_p and
    ``lam_next`` of W_{p+1}.  Both sides are sums of x a (x) v and a x (x) v,
    so it holds when the cochain terms of s taken through lam_next equal
    lam(s, .) taken through the chain terms of W_{n-p}, keyed
    (right, arrow, v)."""
    field = kd.field
    coh_terms, hom_terms = kd.terms(p, "coh"), kd.terms(n - p, "hom")
    for s in rows:
        image: Dict[Tuple[bool, int, int], object] = {}
        for right, a, z, c in coh_terms[s]:
            for v, lam_zv in lam_next.get(z, {}).items():
                image[(right, a, v)] = image.get((right, a, v), 0) + c * lam_zv
        boundary: Dict[Tuple[bool, int, int], object] = {}
        for u, lam_su in lam.get(s, {}).items():
            for right, a, v, c in hom_terms[u]:
                boundary[(right, a, v)] = boundary.get((right, a, v), 0) + lam_su * c
        if field.settle(image) != field.settle(boundary):
            return False
    return True


def w_identities(coh: CalculusSpaces, hom: CalculusSpaces,
                 w0: Chain) -> Dict[str, Dict[int, bool]]:
    """The W halves of (a)-(c) and theta o eta: each identity on every unit
    (co)chain of ``coh`` and ``hom``, per degree, from tables of size
    |W_p| |W_{n-p}|.

    theta(s -> x) is sum_u lam(s, u) x (x) u (``cap_pairing``), so each
    identity is one on lam, on the W indices that carry a unit (co)chain:
    (a) the chain map, on the differential's term tables
    (``_chain_map_holds``; b_K is zero on k, which keeps only the class
    half); (b) eta o theta = id and theta o eta = id, lam and the inverse
    eta reads (``eta_inverse``) composing to the identity on W_p and on
    W_q; (c) f cap omega0 = omega0 cap f, the left pairing equal to lam.
    Each identity reads its own inverse or left pairing, so a fault in one
    read fails one identity; lam is theta itself and is read once."""
    kd = coh.kd
    field, one, n = kd.field, kd.field.one, w0.q
    lams = [cap_pairing(kd, w0, p) for p in range(n + 1)]
    out: Dict[str, Dict[int, bool]] = {CHAIN_MAP: {}, ETA_THETA: {}, CAP_SYMMETRY: {},
                                       THETA_ETA: {}}
    for d in range(n + 1):
        rows = _carriers(coh, d)
        if d < n:
            out[CHAIN_MAP][d] = (coh.module != MODULE_A or
                                 _chain_map_holds(kd, n, d, rows, lams[d], lams[d + 1]))
        inverse = eta_inverse(kd, w0, n - d)
        out[ETA_THETA][d] = True
        for s in rows:
            acc: Dict[int, object] = {}
            for u, lam in lams[d].get(s, {}).items():
                t, c = inverse[u]
                acc[t] = acc.get(t, 0) + lam * c
            if field.settle(acc) != {s: one}:
                out[ETA_THETA][d] = False
                break
        left = cap_pairing(kd, w0, d, "left")
        out[CAP_SYMMETRY][d] = all(lams[d].get(s) == left.get(s) for s in rows)
        inverse = eta_inverse(kd, w0, d)
        out[THETA_ETA][d] = all(
            field.settle({v: c * lam for v, lam in lams[n - d].get(s, {}).items()}) == {u: one}
            for u in _carriers(hom, d) for s, c in [inverse[u]])
    return out


def verify_duality(coh: CalculusSpaces, hom: CalculusSpaces,
                   hi_coh: Optional[HigherSpaces] = None,
                   hi_hom: Optional[HigherSpaces] = None) -> DualityReport:
    """Exact duality checklist over the calculus and coefficient module of
    ``coh`` and ``hom``: each identity is one ``==`` of two tables per degree
    or degree pair, every theta from ``theta_table``.

    (a) theta is a chain map, (b) eta o theta = id, (c) f cap omega0 =
    omega0 cap f, and theta o eta = id each hold on every unit (co)chain
    when their ``w_identities`` W table comparison does, at |W_p| |W_{n-p}|
    entries per degree.  Those tables read no product either, so each
    identity is recorded as the AND of that comparison and one on the
    class representatives: theta of each is a cycle, eta inverts it, the
    left cap with omega0 equals it, and theta inverts eta on the chain
    representatives.

    (d), the module identities theta(f cup g) = theta(f) cap g =
    f cap theta(g), holds on every pair of unit cochains when the three
    ``module_table`` scalars T(w1, w2, u) agree, which costs
    |W_p| |W_q| entries per degree pair.  Those tables read no product, so
    (d) also compares the three product tables on the class
    representatives, and records each identity as the AND of the two
    comparisons.  Product tables leave out zero products and theta is
    one-to-one, so that comparison runs on the union of keys: a pair absent
    from all three tables is zero on every side.  (d) passes a product
    table that is wrong but used consistently: omega0's coefficients are
    idempotents, so both sides of each identity multiply the same values
    by the same table.
    tests/test_quiver_algebra.py::test_multiply_matches_arrow_by_arrow_reference,
    the ``frobenius.associative`` check of ``hochschild2_checks`` and
    tests/test_frobenius.py::test_a_changed_left_arrow_product_is_caught
    catch such a table."""
    kd, module = coh.kd, coh.module
    if hom.kd is not kd or hom.module != module:
        raise ModuleError("the cochain and chain spaces come from different calculi "
                          "or coefficient modules")
    report = DualityReport()
    w0 = omega0(kd)
    n = w0.q
    report.record("omega0 is a cycle", w0.is_cycle())

    w_ok = w_identities(coh, hom, w0)
    reps = {p: coh.representatives(p) for p in range(n + 1)}
    rep_thetas = {p: theta_table(kd, fs, w0) for p, fs in reps.items()}
    # (a) chain map, (b) mutual inversion and (c) cap symmetry with the
    # fundamental cycle, on the W tables and on the class representatives
    for p in range(n + 1):
        fs, thetas = reps[p], rep_thetas[p]
        if p < n:
            report.record(CHAIN_MAP, w_ok[CHAIN_MAP][p] and all(t.is_cycle() for t in thetas),
                          f"degree {p}")
        report.record(ETA_THETA, w_ok[ETA_THETA][p] and eta_table(kd, thetas, w0) == fs,
                      f"degree {p}")
        report.record(CAP_SYMMETRY, w_ok[CAP_SYMMETRY][p]
                      and kd.cap_table(fs, [w0], side="left")
                      == {(i, 0): t for i, t in enumerate(thetas)}, f"degree {p}")
    for q in range(n + 1):
        zs = hom.representatives(q)
        report.record(THETA_ETA, w_ok[THETA_ETA][q]
                      and theta_table(kd, eta_table(kd, zs, w0), w0) == zs, f"degree {q}")

    # (d) module identities, on the W tables and on the class representatives
    if module == MODULE_A:
        for p in range(n + 1):
            for q in range(n + 1 - p):
                t_cup, t_left, t_right = (module_table(kd, w0, p, q, side)
                                          for side in ("cup", "left", "right"))
                fs, gs = reps[p], reps[q]
                cups = kd.cup_table(fs, gs)
                t_cups = dict(zip(cups, theta_table(kd, list(cups.values()), w0)))
                lefts = {(i, j): c for (j, i), c in
                         kd.cap_table(gs, rep_thetas[p], side="right").items()}
                rights = kd.cap_table(fs, rep_thetas[q], side="left")
                report.record("theta(f cup g) = theta(f) cap g",
                              t_cup == t_left and t_cups == lefts, f"degrees ({p},{q})")
                report.record("theta(f cup g) = f cap theta(g)",
                              t_cup == t_right and t_cups == rights, f"degrees ({p},{q})")

    # (e) induced class-level bijection
    field = kd.field
    for p in range(n + 1):
        dim_c = coh.dim(p)
        dim_h = hom.dim(n - p)
        report.record("dim HK^p = dim HK_{2-p}", dim_c == dim_h,
                      f"p={p}: {dim_c} vs {dim_h}")
        cols = [{k: c for k, c in enumerate(hom.class_of(t)) if not field.is_zero(c)}
                for t in rep_thetas[p]]
        r = rank(cols, dim_h, field)
        report.record("H(theta) bijective", r == dim_c == dim_h, f"p={p} rank {r}")

    # fundamental class: the duality image of the unit 0-class
    if module == MODULE_A:
        report.record("theta(1) = omega0", theta(kd, unit_cochain(kd), w0) == w0)

    # (f) higher duality dimensions
    if hi_coh is not None and hi_hom is not None:
        for p in range(n + 1):
            report.record("higher duality dims",
                          hi_coh.dim(p) == hi_hom.dim(n - p),
                          f"p={p}: {hi_coh.dim(p)} vs {hi_hom.dim(n - p)}")
    return report


def ae_coefficient_route(kd: KoszulCalculus, p_max: int = 3,
                         weight_cutoff: Optional[int] = None) -> Dict[str, object]:
    """Enveloping-coefficient dimensions via the bimodule complex.

    HK^p with enveloping coefficients is read off degree 2-p of the homology
    of the bimodule complex; the dimension-2 checklist verifies the length-2
    property together with the identification of degree 0 with the algebra.
    """
    bh = BimoduleHomology(kd, p_max, weight_cutoff)
    table = bh.homology_table()
    alg = kd.algebra
    h0_graded = table.get(0, {})
    h1_total = sum(table.get(1, {}).values())
    h2_total = sum(table.get(2, {}).values())
    dims_match_algebra = all(
        h0_graded.get(n, 0) == len(alg.block_of[n]) for n in range(alg.max_weight + 1)
    ) and all(n <= alg.max_weight for n in h0_graded)
    w3_zero = kd.w(3).dim == 0
    out = {
        "homology_table": table,
        "h_dims": {p: sum(table.get(p, {}).values()) for p in range(p_max + 1)},
        "hk_ae_dims": {p: sum(table.get(2 - p, {}).values()) if 0 <= 2 - p <= p_max else 0
                       for p in range(3)},
        "h0_is_algebra": dims_match_algebra,
        "h1_zero": h1_total == 0,
        "h2_dim": h2_total,
        "w3_zero": w3_zero,
        "kc_calabi_yau_2": bool(w3_zero and dims_match_algebra and h1_total == 0),
        "koszul_up_to_cutoff": bh.koszul_up_to_cutoff(),
        "weight_cutoff": bh.weight_cutoff,
        "inconclusive": bh.inconclusive,
    }
    if alg.finite:
        out["hk2_ae_equals_dim_A"] = (out["hk_ae_dims"][2] == alg.total_dim)
    return out
