"""Frobenius form, Nakayama data, and the degree-2 Hochschild comparison.

Works over a finite-dimensional self-injective quiver algebra on its own
monomial basis, ``GradedAlgebra.terms``.  The top piece of each column
A e_i is spanned by one monomial (top, pos_i), and the chosen socle
generator of that column is c_i times it.  The form is (y, x) = eps(yx)
with eps(z) = sum_i z[(top, pos_i)] / c_i: for x in one column, the
coefficient of that column's socle generator in yx.  The Nakayama
automorphism is solved from the form and then cross-checked as an algebra
automorphism.  The transported degree-3 maps read the Casimir element
sum_x dual(x) (x) x; a change of basis x' = P x turns the dual basis into
P^-T dual, the two cancel in the sum, and so rescaling the top monomials
to the socle generators changes neither map.

The checks follow the vertex-block grading.  A monomial y in e_a A_n e_b
and a monomial x in e_j A_m e_i have yx in e_a A_{n+m} e_i, zero unless
b = j, and eps reads only the top monomial of column i, which lies in
e_{nu_bar(i)} A_top e_i.  So (y, x) can be nonzero only when y lies in the
paired block e_{nu_bar(i)} A_{top-m} e_j of x's block (``_paired``).  As
nu_bar permutes the vertices, distinct blocks have disjoint paired blocks.

The forms on those pairs are the Gram table (``gram``), built once, weight
by weight down from the top: (e_j, v) = eps(v) for v of top weight, and a
monomial w = w' b of positive weight, with w' its parent in
``algebra.parents`` and b its last arrow, has (w, v) = sum_u (b v)_u (w', u)
over the monomials u one weight up, so each entry reads one left-arrow
product ``mono_product(1, b, |v|, v)`` and entries already made.  The dual
basis inverts its blocks, the pairing check takes D G = I on each block, and
the symmetry check compares (y, x) with sum_u nu(x)_u (u, y).  nu of every
monomial is built along the monomial tree, nu(x' b) = c_b nu(x') beta_b,
from arrow scalars solved through ``form``, which multiplies along the right
factor's tree: the symmetry check compares two independent computations.
``frobenius.associative`` still multiplies, on triples (y, z, x) of positive
weights whose form (yz, x) the grading lets be nonzero.  As dual(x) has
weight top - |x|, dual(x) y x and x y dual(x) lie in weight top + |y|: the
degree-3 maps kill every y of positive weight, and are held as their
columns at the idempotents e_i.  There each dual(x) x and x dual(x) lies in
a one-dimensional top block, so it is its Gram value over eps times that
block's top monomial, and no product is formed.

:class:`FrobeniusStructure` derives each piece of this data once, lazily,
and keeps it on the instance: the Gram table in ``_gram``, keyed by
monomial v as {w: (w, v)}; the dual basis in ``_dual``, keyed by monomial
(a 1x1 Gram block inverted by one ``inv``, a larger one by ``linalg.rref``
on ``[G | I]``); the Nakayama scalars ``{arrow: (beta, c)}`` in
``_nu_scalars``; and nu of every monomial in ``_nu``, which
``nakayama_on_elem`` reads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import Elem, GradedAlgebra, Term
from .duality import eta_table, theta_table
from .homology import CalculusSpaces
from .koszul import Chain, KoszulCalculus, MODULE_A
from .linalg import SparseVec, echelonize, kernel, rank, rref


class FrobeniusError(ValueError):
    pass


class FrobeniusStructure:
    """Bilinear form, dual basis and Nakayama automorphism on the monomial basis."""

    def __init__(self, algebra: GradedAlgebra, socle: Dict[int, Elem]):
        if not algebra.finite:
            raise FrobeniusError("the Frobenius form needs a finite-dimensional algebra")
        self.algebra = algebra
        self.field = algebra.field
        q = algebra.quiver
        top = algebra.max_weight
        self.top = top
        self.nu_bar: Dict[int, int] = {}
        # eps reads the top monomial of column i, at pos_i, as 1/c_i
        self._eps: Dict[int, object] = {}
        self._top_pos: Dict[int, int] = {}
        for i in range(q.n_vertices):
            tops = [(j, pos) for j in range(q.n_vertices)
                    for pos in algebra.block_positions(top, j, i)]
            if len(tops) != 1:
                raise FrobeniusError(
                    f"top component of column {i} is not one-dimensional")
            (j, pos), = tops
            self.nu_bar[i] = j
            self._top_pos[i] = pos
            pi = socle.get(i)
            if pi is None:
                pi = {(top, pos): self.field.one}
            c = pi.get((top, pos))
            if c is None or len(pi) != 1 or self.field.is_zero(c):
                raise FrobeniusError(
                    f"socle generator of column {i} must be a multiple of the "
                    "top basis monomial")
            self._eps[pos] = self.field.inv(c)
        if sorted(self.nu_bar.values()) != list(range(q.n_vertices)):
            raise FrobeniusError("socle targets do not permute the vertices")
        self.terms: List[Term] = algebra.terms
        self.dim = len(self.terms)
        self._gram: Optional[Dict[Term, Dict[Term, object]]] = None
        self._dual: Optional[Dict[Term, Elem]] = None
        self._nu_scalars: Optional[Dict[int, Tuple[int, object]]] = None
        self._nu: Optional[Dict[Term, Elem]] = None

    # -- the bilinear form ---------------------------------------------------

    def form(self, y: Elem, x: Elem):
        """(y, x) = eps(yx)."""
        field = self.field
        out = field.zero
        # every top monomial is the top of one column, so _eps covers them all
        for (m, pos), c in self.algebra.multiply(y, x).items():
            if m == self.top:
                out = field.add(out, field.mul(c, self._eps[pos]))
        return out

    def _paired(self, m: int, j: int, i: int) -> List[Term]:
        """Monomials w whose form (w, x) can be nonzero for x in e_j A_m e_i."""
        n = self.top - m
        return [(n, pos) for pos in self.algebra.block_positions(n, self.nu_bar[i], j)]

    def gram(self) -> Dict[Term, Dict[Term, object]]:
        """{v: {w: (w, v)}} for every monomial v and every w in the paired
        block of v's block, zeros included: sum |block|^2 entries.

        Built weight by weight from the top, where (e_j, v) = eps(v).  A
        monomial w of weight n >= 1 is w' b with w' = ``parents[n][w]`` and
        b its last arrow, so (w, v) = eps(w' (b v)) = sum_u (b v)_u (w', u),
        with b v = ``mono_product(1, b, |v|, v)`` over the weight |v| + 1
        monomials u, each in the block whose paired block holds w'.
        """
        if self._gram is not None:
            return self._gram
        alg, field, top = self.algebra, self.field, self.top
        zero = field.zero
        gram: Dict[Term, Dict[Term, object]] = {}
        for k in range(top, -1, -1):
            n = top - k
            for (j, i), vs in alg.blocks[k].items():
                ws = self._paired(k, j, i)
                for v in vs:
                    if not n:
                        # v is the top monomial of column i, ws = [e_nu_bar(i)]
                        gram[(k, v)] = {w: self._eps[v] for w in ws}
                        continue
                    acc = {}
                    for w in ws:
                        parent, b = alg.parents[n][w[1]]
                        acc[w] = sum(c * gram[(k + 1, u)][(n - 1, parent)]
                                     for u, c in alg.mono_product(1, b, k, v).items())
                    acc = field.settle(acc)
                    gram[(k, v)] = {w: acc.get(w, zero) for w in ws}
        self._gram = gram
        return gram

    def dual_basis(self) -> Dict[Term, Elem]:
        """{x: dual(x)} with (dual(x), x') = delta_{x x'}; errors if degenerate."""
        if self._dual is not None:
            return self._dual
        field = self.field
        one = field.one
        gram = self.gram()
        dual: Dict[Term, Elem] = {}
        for m, blocks in enumerate(self.algebra.blocks):
            for vs in blocks.values():
                # every Gram row of the block runs over its paired block
                ws = list(gram[(m, vs[0])])
                n = len(ws)
                if n != len(vs):
                    raise FrobeniusError("degenerate form: unbalanced paired blocks")
                if n == 1:
                    # a 1x1 block: dual(v) = w / (w, v)
                    g = gram[(m, vs[0])][ws[0]]
                    if field.is_zero(g):
                        raise FrobeniusError("degenerate form: singular Gram block")
                    dual[(m, vs[0])] = {ws[0]: field.inv(g)}
                    continue
                # want dual(v) = sum_w c_w w with (dual(v), v') = delta; row v'
                # of [G | I] holds G[v'][w] = (w, v'), and its reduced form is
                # [I | G^-1] exactly when G is invertible
                rows = []
                for r, vp in enumerate(vs):
                    g = gram[(m, vp)]
                    row = {k: g[w] for k, w in enumerate(ws) if not field.is_zero(g[w])}
                    row[n + r] = one
                    rows.append(row)
                reduced, pivots = rref(rows, 2 * n, field)
                if pivots[-1] >= n:
                    raise FrobeniusError("degenerate form: singular Gram block")
                for col_v, v in enumerate(vs):
                    dual[(m, v)] = {w: reduced[k][n + col_v] for k, w in enumerate(ws)
                                    if n + col_v in reduced[k]}
        self._dual = dual
        return dual

    # -- Nakayama automorphism -------------------------------------------------

    def nakayama_arrow_scalars(self) -> Dict[int, Tuple[int, object]]:
        """nu(a) = c * beta as {a: (beta, c)}, solved once from (nu(x), y) = (y, x).

        For an arrow a from s to t, both (y, a) and (beta, y) vanish by the
        grading unless y lies in the paired block e_{nu_bar(s)} A_{top-1} e_t
        of a's block, so only the monomials y of that block are read.  The
        solve checks there that the form determines nu on each arrow and
        that all the ratios agree.
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
            for w in self._paired(1, t, s):
                y = {w: field.one}
                lhs = self.form(y, x)  # (y, x)
                rhs = self.form(bel, y)  # (beta, y)
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

    def _nu_table(self) -> Dict[Term, Elem]:
        """nu of every monomial, along the monomial tree: nu(e_i) = e_nu_bar(i)
        and nu(x' b) = c_b nu(x') beta_b, one product by an arrow each."""
        if self._nu is not None:
            return self._nu
        scalars = self.nakayama_arrow_scalars()
        alg, field = self.algebra, self.field
        nu: Dict[Term, Elem] = {(0, i): alg.vertex_elem(j) for i, j in self.nu_bar.items()}
        for m in range(1, self.top + 1):
            for pos, (parent, b) in enumerate(alg.parents[m]):
                beta, c = scalars[b]
                nu[(m, pos)] = field.settle(alg.multiply_into(
                    {}, nu[(m - 1, parent)], alg.arrow_elem(beta), c))
        self._nu = nu
        return nu

    def nakayama_on_elem(self, x: Elem) -> Elem:
        """nu(x), read off the table of nu on the monomials."""
        nu = self._nu_table()
        out: Elem = {}
        for t, coeff in x.items():
            self.field.add_into(out, nu[t], coeff)
        return out

    def nakayama_respects_relations(self) -> bool:
        """nu(sigma_i) proportional to sigma_{nu_bar(i)} before reduction."""
        pres = self.algebra.presentation
        field = self.field
        scalars = self.nakayama_arrow_scalars()
        for rel, i in zip(pres.relations, pres.sigma_vertices):
            img: Dict[Tuple[int, int], object] = {}
            for coeff, (left, right) in rel:
                bl, cl = scalars[left]
                br, cr = scalars[right]
                img[(bl, br)] = img.get((bl, br), 0) + coeff * cl * cr
            img = field.settle(img)
            target = pres.relations[pres.relation_of_vertex[self.nu_bar[i]]]
            # img must be a scalar multiple of the target relation, whose
            # arrow pairs are distinct with nonzero coefficients
            if set(img) != {pair for _c, pair in target}:
                return False
            ratios = {field.div(img[pair], c) for c, pair in target}
            if len(ratios) != 1:
                return False
        return True

    def form_is_nakayama_symmetric(self) -> bool:
        """(y, x) = (nu(x), y) on all monomial pairs, block-sparsely: each Gram
        entry (y, x) against sum_u nu(x)_u (u, y).  nu(x) lies in the paired
        block of y's block, so every (u, y) it reads is an entry of y's row."""
        field, gram, nu = self.field, self.gram(), self._nu_table()
        zero = field.zero
        for x, row in gram.items():
            nx = nu[x]
            for y, val in row.items():
                g = gram[y]
                if not field.is_zero(sum(c * g.get(u, zero) for u, c in nx.items()) - val):
                    return False
        return True

    def paired_triples(self, rng, count: int) -> List[Tuple[int, int, int]]:
        """``count`` triples of monomial indices (y, z, x), drawn with ``rng``,
        whose form (yz, x) the grading lets be nonzero: positive weights that
        sum to top, y z x composable, and y's target nu_bar of x's source.
        A draw that finds no z or no y is dropped, after 50 * count draws
        the list is returned short, and it is empty when top < 3, where no
        such triple exists."""
        alg, top = self.algebra, self.top
        index = {t: k for k, t in enumerate(self.terms)}
        xs = [t for t in self.terms if 1 <= t[0] <= top - 2]
        out: List[Tuple[int, int, int]] = []
        attempts = 50 * count if xs else 0
        while len(out) < count and attempts:
            attempts -= 1
            x = rng.choice(xs)
            tx, sx = alg.block_of[x[0]][x[1]]
            mz = rng.randrange(1, top - x[0])
            zs = [(mz, pos) for (_t, s), ps in alg.blocks[mz].items() if s == tx for pos in ps]
            if not zs:
                continue
            z = rng.choice(zs)
            ys = self._paired(x[0] + mz, alg.block_of[mz][z[1]][0], sx)
            if ys:
                out.append((index[rng.choice(ys)], index[z], index[x]))
        return out

    def form_is_associative(self, samples: Sequence[Tuple[int, int, int]]) -> bool:
        """(y z, x) = (y, z x) on the given triples of monomial indices."""
        alg = self.algebra
        one = self.field.one
        for idx in samples:
            y, z, x = ({self.terms[k]: one} for k in idx)
            if self.form(alg.multiply(y, z), x) != self.form(y, alg.multiply(z, x)):
                return False
        return True

    def dual_pairing_check(self) -> bool:
        """(dual(w), v) = delta_{vw} on every pair of monomials.

        First every computed dual(w) must be supported on the paired block of
        w's block.  By the grading, (dual(w), v) then vanishes for v in any
        other block, since distinct blocks have disjoint paired blocks, and
        delta_{vw} is zero there too.  So D G = I is checked on each block:
        (dual(w), v) = sum_u dual(w)_u (u, v), read off v's Gram row.
        """
        dual, gram, field = self.dual_basis(), self.gram(), self.field
        for m, blocks in enumerate(self.algebra.blocks):
            for vs in blocks.values():
                rows = [gram[(m, v)] for v in vs]
                if any(not rows[0].keys() >= dual[(m, w)].keys() for w in vs):
                    return False
                for v, g in zip(vs, rows):
                    for w in vs:
                        pairing = sum(c * g[u] for u, c in dual[(m, w)].items())
                        if not field.is_zero(pairing - (field.one if v == w else field.zero)):
                            return False
        return True

    # -- the degree-3 transported differentials ----------------------------------

    def delta_columns(self) -> Tuple[Dict[int, Elem], Dict[int, Elem]]:
        """The transported degree-3 maps, diagonal -> twisted
        y -> sum_x dual(x) y x and twisted -> diagonal y -> sum_x x y dual(x),
        on the idempotents e_i: they kill every y of positive weight.

        ``up[i]`` = sum dual(x) x over the x with target i, at every vertex;
        ``down[i]`` = sum x dual(x) over the x with source i, at the vertices
        that nu_bar fixes, as e_i A_0 e_{nu_bar(i)} is zero at the others.
        For x in e_j A_m e_i with dual(x) in the paired block, dual(x) x lies
        in the one-dimensional top block e_{nu_bar(i)} A_top e_i, and
        x dual(x) in e_j A_top e_j, which is the top block of column j when
        nu_bar fixes j and zero otherwise; each is its Gram value
        eps(product) times that block's top monomial over eps.  A dual
        supported outside its paired block is refused.
        """
        field, dual, gram = self.field, self.dual_basis(), self.gram()
        block_of, nu_bar, top = self.algebra.block_of, self.nu_bar, self.top
        up: Dict[int, Elem] = {i: {} for i in nu_bar}
        down: Dict[int, Elem] = {i: {} for i, j in nu_bar.items() if i == j}

        def add(col: Elem, column: int, value, twisted: bool) -> None:
            """Add value / eps times the top monomial of the column."""
            if field.is_zero(value):
                return
            pos = self._top_pos[column]
            j, i = block_of[top][pos]
            if i != (nu_bar[j] if twisted else j):
                # products outside e_j A e_nu_bar(j), or e_j A e_j, must vanish
                raise FrobeniusError("degree-3 image escaped its target")
            col[(top, pos)] = col.get((top, pos), 0) + field.div(value, self._eps[pos])

        for t in self.terms:
            tgt, src = block_of[t[0]][t[1]]
            d, g = dual[t], gram[t]
            if not g.keys() >= d.keys():
                raise FrobeniusError("degree-3 image escaped its target")
            add(up[tgt], src, sum(c * g[w] for w, c in d.items()), True)
            if src in down and nu_bar[tgt] == tgt:
                add(down[src], tgt, sum(c * gram[u][t] for u, c in d.items()), False)
        return ({i: field.settle(col) for i, col in up.items()},
                {i: field.settle(col) for i, col in down.items()})


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
        field = kd.field
        up, down = frob.delta_columns()
        # ker(delta_up): every diagonal monomial of positive weight, and the
        # kernel {i: c} = sum_i c e_i of the vertex columns
        touched: Dict[Term, int] = {}
        cols = [{touched.setdefault(t, len(touched)): c for t, c in col.items()}
                for col in up.values()]
        ker_up0 = kernel(cols, len(touched), field)
        block_of = kd.algebra.block_of
        ker_up = [{(0, i): c for i, c in row.items()} for row in ker_up0.rows] + [
            {(m, pos): field.one} for m, pos in frob.terms
            if m and block_of[m][pos][0] == block_of[m][pos][1]]

        def class_vectors(spaces: CalculusSpaces, elements) -> List[SparseVec]:
            return [{k: c for k, c in enumerate(spaces.class_of(e)) if not field.is_zero(c)}
                    for e in elements]

        # HH^2 = ker(delta_up) / Im(b_K^2), inside HK^2 classes: y = sum_i y_i
        # is the 2-cochain sigma_i -> y_i, eta of the 0-chain with y's values.
        # W_3 = 0 makes every 2-cochain a cocycle, and its class lies in the
        # (2, m) block of its weight m: only the weights of nonzero blocks
        # can give a class
        class_weights = coh.bigraded_dims(2)
        hh2 = eta_table(kd, [Chain(kd, 0, MODULE_A, kd.diagonal_cochain(y).values)
                             for y in ker_up if next(iter(y))[0] in class_weights])
        self.hh2_subspace = echelonize(class_vectors(coh, hh2), coh.dim(2), field)
        self.hh2_dim = self.hh2_subspace.dim
        # HH_2 = HK_2 / (classes of Im(delta_down)): theta carries y to the
        # 2-chain sum_i y_i (x) sigma_i; it is linear, so the columns span
        # the classes of the image
        killed = theta_table(kd, [kd.diagonal_cochain(y) for y in down.values()])
        if not all(z.is_cycle() for z in killed):
            raise FrobeniusError("transported degree-3 image is not a cycle")
        self.killed_subspace = echelonize(class_vectors(hom, killed), hom.dim(2), field)
        self.hh_2_dim = hom.dim(2) - self.killed_subspace.dim
        self.hk2_dim = coh.dim(2)
        self.hk_2_dim = hom.dim(2)
        # weight-0 part of ker(delta_up) against the Cartan kernel
        self.ker_up_weight0_dim = ker_up0.dim
        self.cartan_kernel_dim = cartan_kernel_dim(kd.algebra)


def _bar_space_size(algebra: GradedAlgebra) -> int:
    """|C^1| + |C^2| of the bar complex from the vertex-block dimensions
    d(a, b) = dim e_a A e_b: C^1 pairs two monomials of one block, sum_b d_b^2;
    C^2 takes x1 in (a, b), x2 in (b, c) and y in (a, c), summed over the
    vertex triples."""
    d = list(zip(*algebra.cartan_matrix()))
    n = len(d)
    return (sum(x * x for row in d for x in row)
            + sum(d[a][b] * d[b][c] * d[a][c]
                  for a in range(n) for b in range(n) for c in range(n)))


class BarOracle:
    """Independent Hochschild dimensions in degrees 0 and 1 from the bar complex."""

    def __init__(self, algebra: GradedAlgebra, max_space: int = 200_000):
        if not algebra.finite:
            raise FrobeniusError("bar oracle needs a finite-dimensional algebra")
        alg = algebra
        size = _bar_space_size(alg)
        if size > max_space:
            raise FrobeniusError(
                f"bar oracle refused: cochain space of size {size} "
                f"exceeds the guard {max_space}")
        field = alg.field
        q = alg.quiver
        terms = alg.terms
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

        rank_b1 = rank([b1_column(t) for t in c0], len(c1), field)
        rank_b2 = rank([b2_column(p) for p in c1], len(c2), field)
        self.hh0_dim = len(c0) - rank_b1
        self.hh1_dim = len(c1) - rank_b2 - rank_b1
