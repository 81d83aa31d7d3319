"""Frobenius form, Nakayama data, and the degree-2 Hochschild comparison.

Works over a finite-dimensional self-injective quiver algebra whose basis
of paths has been adapted so that the top graded piece of each column is
spanned by a chosen socle generator.  The bilinear form pairs y with x
through the coefficient of the socle generator of x's column in the
product yx; the Nakayama automorphism is solved from the form and then
cross-checked as an algebra automorphism.

:class:`FrobeniusStructure` derives each piece of this data once and keeps
it on the instance: the basis indices of each (weight, target, source)
block in ``_by_block`` (built with the basis), the dual basis in ``_dual``
(each Gram block inverted by ``linalg.rref`` on ``[G | I]``), and the
Nakayama scalars ``{arrow: (beta, c)}`` in ``_nu_scalars``, from which
``nakayama_on_elem`` extends nu along paths without touching the form.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import Elem, GradedAlgebra
from .homology import CalculusSpaces
from .koszul import Chain, Cochain, KoszulCalculus
from .linalg import LinearMap, SparseVec, echelonize, image, kernel, rank, rref


class FrobeniusError(ValueError):
    pass


class FrobeniusStructure:
    """Adapted basis, bilinear form, dual basis and Nakayama automorphism."""

    def __init__(self, algebra: GradedAlgebra, socle: Dict[int, Elem]):
        if not algebra.finite:
            raise FrobeniusError("the Frobenius form needs a finite-dimensional algebra")
        self.algebra = algebra
        self.field = algebra.field
        q = algebra.quiver
        top = algebra.max_weight
        self.top = top
        # socle normalization: pi_i spans the top component of Ae_i
        self.pi: Dict[int, Elem] = {}
        self.nu_bar: Dict[int, int] = {}
        self._pi_coeff: Dict[int, Tuple[int, object]] = {}
        for i in range(q.n_vertices):
            cols = [(j, algebra.block_positions(top, j, i)) for j in range(q.n_vertices)]
            cols = [(j, pos) for j, pos in cols if pos]
            if len(cols) != 1 or len(cols[0][1]) != 1:
                raise FrobeniusError(
                    f"top component of column {i} is not one-dimensional")
            j, (pos,) = cols[0]
            self.nu_bar[i] = j
            pi = socle.get(i)
            if pi is None:
                pi = {(top, pos): self.field.one}
            c = pi.get((top, pos))
            if c is None or len(pi) != 1 or self.field.is_zero(c):
                raise FrobeniusError(
                    f"socle generator of column {i} must be a multiple of the "
                    "top basis monomial")
            self.pi[i] = pi
            self._pi_coeff[i] = (pos, c)
        if sorted(self.nu_bar.values()) != list(range(q.n_vertices)):
            raise FrobeniusError("socle targets do not permute the vertices")
        # adapted basis: all monomials, top ones rescaled to the socle generators
        self.basis: List[Elem] = []
        self.basis_block: List[Tuple[int, int, int]] = []  # (weight, tgt, src)
        self._by_block: Dict[Tuple[int, int, int], List[int]] = {}
        for m in range(top + 1):
            for pos, path in enumerate(algebra.monomials[m]):
                j, i = algebra.block_of[m][pos]
                if m == top:
                    self.basis.append(self.pi[i])
                else:
                    self.basis.append({(m, pos): self.field.one})
                self._by_block.setdefault((m, j, i), []).append(len(self.basis_block))
                self.basis_block.append((m, j, i))
        self.dim = len(self.basis)
        self._dual: Optional[List[Elem]] = None
        self._nu_scalars: Optional[Dict[int, Tuple[int, object]]] = None

    # -- the bilinear form ---------------------------------------------------

    def pi_coefficient(self, x: Elem, i: int):
        """Coefficient of the socle generator of column i in x."""
        pos, c = self._pi_coeff[i]
        top = x.get((self.top, pos))
        return self.field.div(top, c) if top else self.field.zero

    def form(self, y: Elem, x: Elem, src: int):
        """(y, x) for x in the column of vertex src."""
        prod = self.algebra.multiply(y, x)
        return self.pi_coefficient(prod, src)

    def _paired_block(self, block: Tuple[int, int, int]) -> List[int]:
        """Basis indices w whose form (basis[w], basis[v]) can be nonzero for v in block."""
        m, j, i = block
        return self._by_block.get((self.top - m, self.nu_bar[i], j), [])

    def dual_basis(self) -> List[Elem]:
        """Basis with (dual[v], basis[w]) = delta_{vw}; errors if degenerate."""
        if self._dual is not None:
            return self._dual
        field = self.field
        dual: List[Elem] = [{}] * self.dim
        for blk, vs in self._by_block.items():
            ws = self._paired_block(blk)
            n = len(ws)
            if n != len(vs):
                raise FrobeniusError("degenerate form: unbalanced paired blocks")
            # want dual[v] = sum_w c_w basis[w] with (dual[v], basis[v']) = delta;
            # row v' of [G | I] holds G[v'][w] = (basis[w], basis[v']), and its
            # reduced form is [I | G^-1] exactly when G is invertible
            rows = []
            for r, vp in enumerate(vs):
                row = {}
                for k, w in enumerate(ws):
                    val = self.form(self.basis[w], self.basis[vp], blk[2])
                    if not field.is_zero(val):
                        row[k] = val
                row[n + r] = field.one
                rows.append(row)
            reduced, pivots = rref(rows, 2 * n, field)
            if pivots[-1] >= n:
                raise FrobeniusError("degenerate form: singular Gram block")
            for col_v, v in enumerate(vs):
                d: Elem = {}
                for k, w in enumerate(ws):
                    c = reduced[k].get(n + col_v)
                    if c is not None:
                        d = self.algebra.elem_add(d, self.basis[w], c)
                dual[v] = d
        self._dual = dual
        return dual

    # -- Nakayama automorphism -------------------------------------------------

    def nakayama_arrow_scalars(self) -> Dict[int, Tuple[int, object]]:
        """nu(a) = c * beta as {a: (beta, c)}, solved once from (nu(x), y) = (y, x).

        Every basis element y is read, so the solve also checks that the form
        determines nu on each arrow and that all the ratios agree.
        """
        if self._nu_scalars is not None:
            return self._nu_scalars
        q = self.algebra.quiver
        field = self.field
        out: Dict[int, Tuple[int, object]] = {}
        for a in range(q.n_arrows):
            s, t = q.source[a], q.target[a]
            ns, nt = self.nu_bar[s], self.nu_bar[t]
            betas = [b for b in range(q.n_arrows)
                     if q.source[b] == ns and q.target[b] == nt]
            if len(betas) != 1:
                raise FrobeniusError(
                    "Nakayama image of an arrow is not unique (non-simple graph)")
            beta = betas[0]
            x = self.algebra.arrow_elem(a)
            bel = self.algebra.arrow_elem(beta)
            c = None
            for w in range(self.dim):
                lhs = self.form(self.basis[w], x, s)  # (y, x)
                _mw, _jw, iw = self.basis_block[w]
                rhs = self.form(bel, self.basis[w], iw)  # (beta, y)
                if field.is_zero(rhs):
                    if not field.is_zero(lhs):
                        raise FrobeniusError("form does not determine nu on an arrow")
                    continue
                ratio = field.div(lhs, rhs)
                if c is None:
                    c = ratio
                elif c != ratio:
                    raise FrobeniusError("inconsistent Nakayama solution on an arrow")
            if c is None or field.is_zero(c):
                raise FrobeniusError("degenerate pairing against an arrow")
            out[a] = (beta, c)
        self._nu_scalars = out
        return out

    def nakayama_on_elem(self, x: Elem) -> Elem:
        """Extend nu multiplicatively along basis paths."""
        scalars = self.nakayama_arrow_scalars()
        alg = self.algebra
        field = self.field
        out: Elem = {}
        for (m, pos), coeff in x.items():
            if m == 0:
                out = alg.elem_add(out, alg.vertex_elem(self.nu_bar[pos]), coeff)
                continue
            path = alg.monomials[m][pos]
            cur = alg.vertex_elem(self.nu_bar[path.target])
            c = coeff
            for a in path.arrows:
                beta, ca = scalars[a]
                c = field.mul(c, ca)
                cur = alg.rmul_arrow(cur, beta)
                if not cur:
                    break
            if cur:
                out = alg.elem_add(out, cur, c)
        return out

    def nakayama_respects_relations(self) -> bool:
        """nu(sigma_i) proportional to sigma_{nu_bar(i)} before reduction."""
        pres = self.algebra.presentation
        field = self.field
        q = self.algebra.quiver
        scalars = self.nakayama_arrow_scalars()
        paths2 = {}
        for r, rel in enumerate(pres.relations):
            vec = {}
            for coeff, (left, right) in rel:
                vec[(left, right)] = vec.get((left, right), 0) + coeff
            paths2[r] = field.settle(vec)
        for r, rel in enumerate(pres.relations):
            img: Dict[Tuple[int, int], object] = {}
            for coeff, (left, right) in rel:
                bl, cl = scalars[left]
                br, cr = scalars[right]
                img[(bl, br)] = img.get((bl, br), 0) + coeff * cl * cr
            img = field.settle(img)
            i = pres.sigma_vertices[r]
            target = next(rr for rr, v in enumerate(pres.sigma_vertices)
                          if v == self.nu_bar[i])
            tvec = paths2[target]
            # img must be a scalar multiple of tvec
            ratio = None
            if set(img) != set(tvec):
                return False
            for key, c in img.items():
                rr = field.div(c, tvec[key])
                if ratio is None:
                    ratio = rr
                elif ratio != rr:
                    return False
        return True

    def form_is_nakayama_symmetric(self) -> bool:
        """(y, x) = (nu(x), y) on all basis pairs, block-sparsely."""
        for v in range(self.dim):
            iv = self.basis_block[v][2]
            nx = self.nakayama_on_elem(self.basis[v])
            for w in self._paired_block(self.basis_block[v]):
                _mw, _jw, iw = self.basis_block[w]
                if self.form(self.basis[w], self.basis[v], iv) != \
                        self.form(nx, self.basis[w], iw):
                    return False
        return True

    def form_is_associative(self, samples: Sequence[Tuple[int, int, int]]) -> bool:
        """(y z, x) = (y, z x) on the given basis index triples."""
        alg = self.algebra
        for (y, z, x) in samples:
            _m, _j, ix = self.basis_block[x]
            _m2, _j2, iz = self.basis_block[z]
            lhs = self.form(alg.multiply(self.basis[y], self.basis[z]), self.basis[x], ix)
            zx = alg.multiply(self.basis[z], self.basis[x])
            rhs = self.form(self.basis[y], zx, ix)
            if lhs != rhs:
                return False
        return True

    def dual_pairing_check(self) -> bool:
        dual = self.dual_basis()
        field = self.field
        for v in range(self.dim):
            _mv, _jv, iv = self.basis_block[v]
            for w in range(self.dim):
                val = self.form(dual[w], self.basis[v], iv)
                want = field.one if v == w else field.zero
                if val != want:
                    return False
        return True

    # -- the degree-3 transported differentials ----------------------------------

    def diagonal_coords(self) -> List[Tuple[int, int]]:
        """Coordinates of the direct sum over vertices of e_i A e_i."""
        alg = self.algebra
        out = []
        for m in range(self.top + 1):
            for i in range(alg.quiver.n_vertices):
                for pos in alg.block_positions(m, i, i):
                    out.append((m, pos))
        return out

    def twisted_coords(self) -> List[Tuple[int, int]]:
        """Coordinates of the direct sum over vertices of e_i A e_{nu_bar(i)}."""
        alg = self.algebra
        out = []
        for m in range(self.top + 1):
            for i in range(alg.quiver.n_vertices):
                for pos in alg.block_positions(m, i, self.nu_bar[i]):
                    out.append((m, pos))
        return out

    def delta_maps(self) -> Tuple[LinearMap, LinearMap]:
        """Exact matrices of the two transported degree-3 differentials.

        delta_up: diagonal -> twisted, y -> sum_x dual(x) y x
        delta_down: twisted -> diagonal, y -> sum_x x y dual(x)
        """
        alg = self.algebra
        field = self.field
        dual = self.dual_basis()
        dcoords = self.diagonal_coords()
        tcoords = self.twisted_coords()
        dindex = {c: k for k, c in enumerate(dcoords)}
        tindex = {c: k for k, c in enumerate(tcoords)}

        def column(y: Elem, up: bool) -> SparseVec:
            col: SparseVec = {}
            for x_idx in range(self.dim):
                x = self.basis[x_idx]
                xh = dual[x_idx]
                if up:
                    term = alg.multiply(xh, alg.multiply(y, x))
                else:
                    term = alg.multiply(x, alg.multiply(y, xh))
                for (m, pos), c in term.items():
                    idx = (tindex if up else dindex).get((m, pos))
                    if idx is None:
                        # products outside the expected columns must vanish
                        raise FrobeniusError("degree-3 image escaped its target")
                    col[idx] = col.get(idx, 0) + c
            return field.settle(col)

        up_cols = [column({dc: field.one}, True) for dc in dcoords]
        down_cols = [column({tc: field.one}, False) for tc in tcoords]
        delta_up = LinearMap(len(dcoords), len(tcoords), up_cols, field)
        delta_down = LinearMap(len(tcoords), len(dcoords), down_cols, field)
        return delta_up, delta_down

    def nu_trace_matrix(self) -> List[List[object]]:
        """tr(nu restricted to e_j A e_i) for fixed vertices j, i of nu_bar."""
        alg = self.algebra
        field = self.field
        fixed = [i for i in range(alg.quiver.n_vertices) if self.nu_bar[i] == i]
        out = []
        for j in fixed:
            row = []
            for i in fixed:
                tr = field.zero
                for m in range(self.top + 1):
                    for pos in alg.block_positions(m, j, i):
                        img = self.nakayama_on_elem({(m, pos): field.one})
                        tr = field.add(tr, img.get((m, pos), field.zero))
                row.append(tr)
            out.append(row)
        return out


def cartan_kernel_dim(algebra: GradedAlgebra) -> int:
    field = algebra.field
    cart = algebra.cartan_matrix()
    n = len(cart)
    cols = [{r: field.from_int(cart[r][c]) for r in range(n)
             if not field.is_zero(field.from_int(cart[r][c]))} for c in range(n)]
    return n - rank(cols, n, field)


class Degree2Comparison:
    """Second Hochschild (co)homology extracted from the Koszul spaces."""

    def __init__(self, kd: KoszulCalculus, frob: FrobeniusStructure,
                 coh: CalculusSpaces, hom: CalculusSpaces):
        self.kd = kd
        self.frob = frob
        alg = kd.algebra
        field = kd.field
        pres = alg.presentation
        delta_up, delta_down = frob.delta_maps()
        dcoords = frob.diagonal_coords()
        tcoords = frob.twisted_coords()
        # HH^2 = ker(delta_up) / Im(b_K^2), inside HK^2 classes
        ker_up = kernel(delta_up)
        rel_of_vertex = {v: r for r, v in enumerate(pres.sigma_vertices)}
        hh2_class_vectors: List[SparseVec] = []
        self._hh2_cocycles: List[Cochain] = []
        for row in ker_up.rows:
            rel_values: Dict[int, Elem] = {}
            for k, c in row.items():
                m, pos = dcoords[k]
                i = alg.block_of[m][pos][0]
                r = rel_of_vertex[i]
                cur = rel_values.get(r, {})
                rel_values[r] = alg.elem_add(cur, {(m, pos): field.one}, c)
            f = kd.cochain_on_relations(rel_values)
            self._hh2_cocycles.append(f)
            vec = {k: c for k, c in enumerate(coh.class_of(f))
                   if not field.is_zero(c)}
            hh2_class_vectors.append(vec)
        n2 = len(coh.class_basis(2))
        self.hh2_subspace = echelonize(hh2_class_vectors, n2, field)
        self.hh2_dim = self.hh2_subspace.dim
        # HH_2 = HK_2 / (classes of Im(delta_down))
        img_down = image(delta_down)
        killed: List[SparseVec] = []
        self.delta3_image_cycles: List[Chain] = []
        for row in img_down.rows:
            # identify the diagonal sum with chains: y at vertex i -> y (x) sigma_i
            pairs = []
            for k, c in row.items():
                m, pos = dcoords[k]
                i = alg.block_of[m][pos][0]
                pairs.append(({(m, pos): c}, rel_of_vertex[i]))
            z = kd.chain_on_relations(pairs)
            self.delta3_image_cycles.append(z)
            if not z.is_cycle():
                raise FrobeniusError("transported degree-3 image is not a cycle")
            killed.append({k: c for k, c in enumerate(hom.class_of(z))
                           if not field.is_zero(c)})
        nh2 = len(hom.class_basis(2))
        self.killed_subspace = echelonize(killed, nh2, field)
        self.hh_2_dim = hom.dim(2) - self.killed_subspace.dim
        self.hk2_dim = coh.dim(2)
        self.hk_2_dim = hom.dim(2)
        # weight-0 part of ker(delta_up) against the Cartan kernel
        w0_rows = [row for row in ker_up.rows
                   if all(dcoords[k][0] == 0 for k in row)]
        self.ker_up_weight0_dim = rank(w0_rows, len(dcoords), field)
        self.cartan_kernel_dim = cartan_kernel_dim(alg)


class BarOracle:
    """Independent Hochschild dimensions in degrees 0 and 1 from the bar complex."""

    def __init__(self, algebra: GradedAlgebra, max_space: int = 200_000):
        if not algebra.finite:
            raise FrobeniusError("bar oracle needs a finite-dimensional algebra")
        alg = algebra
        field = alg.field
        q = alg.quiver
        terms = [(m, pos) for m in range(alg.max_weight + 1)
                 for pos in range(len(alg.monomials[m]))]
        blocks = {t: alg.block_of[t[0]][t[1]] for t in terms}
        # C^0: diagonal coordinates
        c0 = [t for t in terms if blocks[t][0] == blocks[t][1]]
        # C^1: Hom(e_j A e_i, e_j A e_i)
        c1 = [(x, y) for x in terms for y in terms if blocks[x] == blocks[y]]
        # C^2: Hom over pairs with matching middle vertex
        c2 = []
        for x1 in terms:
            for x2 in terms:
                if blocks[x1][1] != blocks[x2][0]:
                    continue
                outer = (blocks[x1][0], blocks[x2][1])
                for y in terms:
                    if blocks[y] == outer:
                        c2.append((x1, x2, y))
        if len(c1) + len(c2) > max_space:
            raise FrobeniusError(
                f"bar oracle refused: cochain space of size {len(c1) + len(c2)} "
                f"exceeds the guard {max_space}")
        c1_index = {c: k for k, c in enumerate(c1)}
        c2_index = {c: k for k, c in enumerate(c2)}
        pairs = sorted({(x1, x2) for (x1, x2, _y) in c2})

        one, minus = field.one, field.neg(field.one)

        def b1_column(t) -> SparseVec:
            # f = unit at diagonal t; (b f)(a) = f(e_{t(a)}) a - a f(e_{s(a)})
            col: SparseVec = {}
            i = blocks[t][0]
            for a in terms:
                ja, ia = blocks[a]
                val: Elem = {}
                if ja == i:
                    field.add_into(val, alg.multiply({t: one}, {a: one}), one)
                if ia == i:
                    field.add_into(val, alg.multiply({a: one}, {t: one}), minus)
                field.add_into(col, {c1_index[(a, tt)]: c for tt, c in val.items()
                                     if (a, tt) in c1_index}, one)
            return col

        def b2_column(pair) -> SparseVec:
            # f = unit cochain x -> delta_{x, x0} y0;
            # (b f)(a1, a2) = f(a1) a2 - f(a1 a2) + a1 f(a2)
            x0, y0 = pair
            col: SparseVec = {}
            for (a1, a2) in pairs:
                val: Elem = {}
                if a1 == x0:
                    field.add_into(val, alg.multiply({y0: one}, {a2: one}), one)
                c = alg.multiply({a1: one}, {a2: one}).get(x0)
                if c:
                    field.add_into(val, {y0: c}, minus)
                if a2 == x0:
                    field.add_into(val, alg.multiply({a1: one}, {y0: one}), one)
                field.add_into(col, {c2_index[(a1, a2, tt)]: c for tt, c in val.items()
                                     if (a1, a2, tt) in c2_index}, one)
            return col

        b1 = LinearMap(len(c0), len(c1), [b1_column(t) for t in c0], field)
        b2 = LinearMap(len(c1), len(c2), [b2_column(p) for p in c1], field)
        rank_b1 = b1.rank()
        rank_b2 = b2.rank()
        self.hh0_dim = len(c0) - rank_b1
        self.hh1_dim = len(c1) - rank_b2 - rank_b1
