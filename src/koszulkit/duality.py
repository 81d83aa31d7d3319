"""Cap-product duality machinery for preprojective algebras.

The weight-0 2-cycle pairing each vertex with its relation realizes an
isomorphism between Koszul cochains of degree p and chains of degree 2-p:
capping with it on the left, with the explicit inverse given arrowwise by
the star involution and the sign function.  The checks collected in
``verify_duality`` certify the chain-map, inversion, symmetry and module
identities exactly, and ``ae_coefficient_route`` reads the enveloping
coefficients off the bimodule complex instead of materializing them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .algebra import Term
from .homology import BimoduleHomology, CalculusSpaces, HigherSpaces
from .koszul import Chain, Cochain, DegreeError, KoszulCalculus, MODULE_A
from .linalg import LinearMap


class NotPreprojectiveError(ValueError):
    pass


def _preprojective_data(kd: KoszulCalculus):
    pres = kd.algebra.presentation
    spec = getattr(pres, "preprojective", None)
    if spec is None:
        raise NotPreprojectiveError("operation requires a preprojective presentation")
    return pres, spec


def omega0(kd: KoszulCalculus) -> Chain:
    """The fundamental 2-cycle: sum over vertices of e_i tensor sigma_i."""
    pres, _spec = _preprojective_data(kd)
    return kd.chain_on_relations([(kd.algebra.vertex_elem(i), r)
                                  for r, i in enumerate(pres.sigma_vertices)])


def theta(kd: KoszulCalculus, f: Cochain, w0: Optional[Chain] = None) -> Chain:
    """Duality map: cap the fundamental 2-cycle with the cochain."""
    if f.p > 2:
        raise DegreeError("duality is defined in degrees 0..2")
    if w0 is None:
        w0 = omega0(kd)
    return kd.cap(f, w0, side="right")


def eta(kd: KoszulCalculus, z: Chain) -> Cochain:
    """Explicit inverse of the duality map, degreewise."""
    pres, spec = _preprojective_data(kd)
    acc: Dict[int, object] = {}
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
            b = spec.star[ws.block_paths[(j, i)][k].arrows[0]]
            kd._mod_accumulate(z.module, acc, b, m, kd.field.from_int(spec.eps[b]))
        return kd.cochain_on_arrows(acc, z.module)
    if z.q == 0:
        # m (x) e_i  ->  (sigma_j -> delta_ij e_j m e_i)
        ws = kd.w(0)
        for flat_idx, m in z.values.items():
            r = pres.relation_of_vertex.get(ws.block_of(flat_idx)[0])
            if r is not None:
                kd._mod_accumulate(z.module, acc, r, m, kd.field.one)
        return kd.cochain_on_relations(acc, z.module)
    raise DegreeError("duality is defined in degrees 0..2")


def unit_cochain(kd: KoszulCalculus) -> Cochain:
    return kd.cochain_on_vertices(
        {i: kd.algebra.vertex_elem(i) for i in range(kd.quiver.n_vertices)})


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


def verify_duality(kd: KoszulCalculus, coh: CalculusSpaces, hom: CalculusSpaces,
                   module: str = MODULE_A,
                   hi_coh: Optional[HigherSpaces] = None,
                   hi_hom: Optional[HigherSpaces] = None) -> DualityReport:
    """Exact duality checklist on cochain bases and class bases."""
    report = DualityReport()
    field = kd.field
    w0 = omega0(kd)
    report.record("omega0 is a cycle", w0.is_cycle())

    # theta is stored as its columns: one cap per basis cochain, laid out
    # weight by weight in the coordinates of each biweight
    basis_cochains: Dict[int, List[Cochain]] = {}
    basis_index: Dict[int, Dict[Tuple[int, Term], int]] = {}
    for p in range(3):
        units: List[Cochain] = []
        index = basis_index[p] = {}
        for m in coh.weights():
            space = coh.blocks[(p, m)].space
            for k, (flat_idx, pos) in enumerate(space.coords):
                index[(flat_idx, (m, pos))] = len(units)
                units.append(space.unflatten({k: field.one}))
        basis_cochains[p] = units
    theta_cols = {p: [theta(kd, f, w0) for f in basis_cochains[p]] for p in range(3)}

    def theta_of(f: Cochain) -> Chain:
        """theta(f) by linearity from the columns of theta.  Only algebra
        values are read: on k, the cochains passed here (b_K f) are zero."""
        index = basis_index[f.p]
        cols = theta_cols[f.p]
        acc: Dict[int, object] = {}
        for flat_idx, val in f.values.items():
            for t, c in val.items():
                for k, v in cols[index[(flat_idx, t)]].values.items():
                    kd._mod_accumulate(f.module, acc, k, v, c)
        return Chain(kd, 2 - f.p, f.module, kd._mod_settle(f.module, acc))

    # (a) chain map and (b) mutual inversion, on full cochain bases
    for p in range(3):
        for f, tf in zip(basis_cochains[p], theta_cols[p]):
            if p < 2:
                lhs = theta_of(kd.apply_bK(f))
                rhs = kd.apply_bK_chain(tf)
                report.record("theta chain map", lhs.equals(rhs),
                              f"degree {p} basis cochain")
            back = eta(kd, tf)
            report.record("eta o theta = id", back.equals(f), f"degree {p}")
            # (c) cap symmetry with the fundamental cycle
            left = kd.cap(f, w0, side="left")
            report.record("f cap w0 = w0 cap f", left.equals(tf), f"degree {p}")
    # theta o eta = id on chain bases
    for q in range(3):
        for m in hom.weights():
            space = hom.blocks[(q, m)].space
            for k in range(space.dim):
                z = space.unflatten({k: field.one})
                again = theta(kd, eta(kd, z), w0)
                report.record("theta o eta = id", again.equals(z), f"degree {q}")

    # (d) module identities theta(f cup g) = theta(f) cap g = f cap theta(g),
    # on every pair of basis cochains; a pair absent from a table is zero
    if module == MODULE_A:
        for p in range(3):
            for q in range(3 - p):
                fs, gs = basis_cochains[p], basis_cochains[q]
                cups = kd.cup_table(fs, gs)
                lefts = kd.cap_table(gs, theta_cols[p], side="right")
                rights = kd.cap_table(fs, theta_cols[q], side="left")
                zero = kd.zero_chain(2 - p - q)
                for i in range(len(fs)):
                    for j in range(len(gs)):
                        cup = cups.get((i, j))
                        t_cup = zero if cup is None else theta_of(cup)
                        left = lefts.get((j, i), zero)
                        right = rights.get((i, j), zero)
                        report.record("theta(f cup g) = theta(f) cap g",
                                      t_cup.equals(left), f"degrees ({p},{q})")
                        report.record("theta(f cup g) = f cap theta(g)",
                                      t_cup.equals(right), f"degrees ({p},{q})")

    # (e) induced class-level bijection
    for p in range(3):
        dim_c = coh.dim(p)
        dim_h = hom.dim(2 - p)
        report.record("dim HK^p = dim HK_{2-p}", dim_c == dim_h,
                      f"p={p}: {dim_c} vs {dim_h}")
        cols = []
        for rep in coh.representatives(p):
            cols.append({k: c for k, c in enumerate(hom.class_of(theta(kd, rep, w0)))
                         if not field.is_zero(c)})
        r = LinearMap(dim_c, dim_h, cols, field).rank()
        report.record("H(theta) bijective", r == dim_c == dim_h, f"p={p} rank {r}")

    # fundamental class: the duality image of the unit 0-class
    if module == MODULE_A:
        unit = unit_cochain(kd)
        report.record("theta(1) = omega0", theta(kd, unit, w0).equals(w0))

    # (f) higher duality dimensions
    if hi_coh is not None and hi_hom is not None:
        for p in range(3):
            report.record("higher duality dims",
                          hi_coh.dim(p) == hi_hom.dim(2 - p),
                          f"p={p}: {hi_coh.dim(p)} vs {hi_hom.dim(2 - p)}")
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
