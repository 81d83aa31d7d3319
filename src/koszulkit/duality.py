"""Cap-product duality machinery for preprojective algebras.

The weight-0 fundamental cycle omega0 = sum_i e_i (x) sigma_i has degree n,
read off omega0.  Capped on the right with the cochains of degree p <= n it
realizes the isomorphism theta onto chains of degree n-p: ``theta_table`` is
its one evaluation, a cap table, and ``eta_table`` its inverse, read off the
split pairing of omega0.  ``verify_duality`` certifies the chain-map,
inversion, symmetry and module identities exactly, the last on the scalar
tables of ``module_table`` and on the class representatives, and
``ae_coefficient_route`` reads the enveloping coefficients off the bimodule
complex instead of materializing them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .homology import BimoduleHomology, CalculusSpaces, HigherSpaces
from .koszul import (Chain, Cochain, DegreeError, KoszulCalculus, MODULE_A, ModuleError,
                     _common_grading)
from .linalg import LinearMap


class NotPreprojectiveError(ValueError):
    pass


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


def eta_table(kd: KoszulCalculus, zs: Sequence[Chain]) -> List[Cochain]:
    """Inverse of the duality map on every chain of ``zs`` (one degree q <= n).
    theta(f) has lam f(s) on u for the one split s (x) u of omega0 in
    W_{n-q} (x) W_q that holds u, lam = (-1)^{(n-q)n} (split coefficient)
    (omega0's scalar there); so m (x) u goes to the cochain s -> m / lam."""
    if not zs:
        return []
    q, module = _common_grading(zs)
    w0 = omega0(kd)
    n = w0.q
    if q > n:
        raise DegreeError(f"duality is defined in degrees 0..{n}")
    sign, splits = kd.field.sign((n - q) * n), kd.split_coords(n - q, q)
    pairs = [(u, s, sign * c * scalar)
             for x, coeff in w0.values.items()
             for scalar in coeff.values()  # omega0's coefficients are scalars times e_i
             for (s, u), c in splits[x].items()]
    inverse = {u: (s, kd.field.inv(lam)) for u, s, lam in pairs}
    if not (len(pairs) == len(inverse) == len({s for _u, s, _lam in pairs})
            == kd.w(q).dim == kd.w(n - q).dim):
        raise NotPreprojectiveError(f"omega0 does not pair W_{q} one-to-one with W_{n - q}")
    out = []
    for z in zs:
        acc: Dict[int, object] = {}
        for u, m in z.values.items():
            s, c = inverse[u]
            kd._mod_accumulate(module, acc, s, m, c)
        out.append(Cochain(kd, n - q, module, kd._mod_settle(module, acc)))
    return out


def eta(kd: KoszulCalculus, z: Chain) -> Cochain:
    """Inverse of the duality map on one chain, the one-chain case of ``eta_table``."""
    return eta_table(kd, [z])[0]


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


def _unit_basis(spaces: CalculusSpaces, p: int) -> list:
    """The unit (co)chains of degree p, block by block in the class layout."""
    return [blk.space.unflatten({k: spaces.kd.field.one})
            for _start, blk in spaces.layout(p)[1].values() for k in range(blk.space.dim)]


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


def verify_duality(coh: CalculusSpaces, hom: CalculusSpaces,
                   hi_coh: Optional[HigherSpaces] = None,
                   hi_hom: Optional[HigherSpaces] = None) -> DualityReport:
    """Exact duality checklist over the calculus and coefficient module of
    ``coh`` and ``hom``: each identity is one ``==`` of two tables per degree
    or degree pair, every theta from ``theta_table``.

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
    tests/test_quiver_algebra.py::test_multiply_matches_arrow_by_arrow_reference
    and the ``frobenius.nakayama-symmetric`` check of ``hochschild2_checks``
    catch such a table."""
    kd, module = coh.kd, coh.module
    if hom.kd is not kd or hom.module != module:
        raise ModuleError("the cochain and chain spaces come from different calculi "
                          "or coefficient modules")
    report = DualityReport()
    w0 = omega0(kd)
    n = w0.q
    report.record("omega0 is a cycle", w0.is_cycle())

    # (a) chain map, (b) mutual inversion and (c) cap symmetry with the
    # fundamental cycle, on full cochain bases; theta as its columns, one
    # per basis cochain
    for p in range(n + 1):
        fs = _unit_basis(coh, p)
        thetas = theta_table(kd, fs, w0)
        if p < n:
            report.record("theta chain map",
                          theta_table(kd, [kd.apply_bK(f) for f in fs], w0)
                          == [kd.apply_bK_chain(t) for t in thetas], f"degree {p}")
        report.record("eta o theta = id", eta_table(kd, thetas) == fs, f"degree {p}")
        report.record("f cap w0 = w0 cap f", kd.cap_table(fs, [w0], side="left")
                      == {(i, 0): t for i, t in enumerate(thetas)}, f"degree {p}")
    # theta o eta = id on chain bases
    for q in range(n + 1):
        zs = _unit_basis(hom, q)
        report.record("theta o eta = id", theta_table(kd, eta_table(kd, zs), w0) == zs,
                      f"degree {q}")

    reps = {p: coh.representatives(p) for p in range(n + 1)}
    rep_thetas = {p: theta_table(kd, fs, w0) for p, fs in reps.items()}
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
        r = LinearMap(dim_c, dim_h, cols, field).rank()
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
        h0_graded.get(n, 0) == len(alg.monomials[n]) for n in range(alg.max_weight + 1)
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
