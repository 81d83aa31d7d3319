"""Koszul calculus: weight spaces, differentials, (co)homology, cup and cap.

The homological generators W_p live inside the weight-p path space, and one
loop builds them all: it lists the weight-p paths of each vertex block and
keeps every path for p <= 1 (the vertex and arrow spaces), the relations at
p = 2, and above that the intersection of V (x) W_{p-1} and W_{p-1} (x) V,
read per block off one reduction of their two spanning lists
(:func:`koszulkit.linalg.intersect`).
Every basis vector is vertex-pair homogeneous, and each vertex block
of W_p is kept as the reduced echelon subspace of its path space
(:class:`koszulkit.linalg.Subspace`), so a vector of W_p has its
coordinates read at the block's pivots, with no elimination.

Cochains assign to each W_p basis vector a value in the coefficient module
(the algebra itself or the trivial module on the vertices); chains pair a
coefficient with a W_p basis vector in the transposed vertex block.
Everything is graded by the biweight (homological degree, coefficient
weight); homology is computed blockwise in that grading.

The one factorization table is the split table
(:meth:`KoszulCalculus.split_coords`): the coordinates of each W_{p+q} basis
vector in W_p (x) W_q.  It covers every p, q >= 0; a split with a degree-0
factor is the trivial one, e_j (x) z or z (x) e_i at the target j or the
source i of z.  The differential reads the splits with a degree-1 factor,
the cup and cap products all of them.

The differential b_K is stated once, as a term table
(:meth:`KoszulCalculus.terms`): for each W_p basis index it lists
``(right, arrow, target W index, signed c)``, meaning "multiply the
coefficient by the arrow (on its right if ``right``, else on its left),
scale by c and add it at the target".  Below, a is the arrow of the W_1
factor of a split.

- Chains (and the bimodule complex A (x) W_p (x) A) read the splits of x
  in W_p: each ``(a, y): c`` of the (1, p-1) split gives
  ``(True, a, y, c)`` (m -> m a), each ``(y, a): c`` of the (p-1, 1) split
  gives ``(False, a, y, (-1)^p c)`` (m -> a m).
- Cochains read the splits of every z in W_{p+1}, transposed: each
  ``(y, a): c`` of the (p, 1) split gives ``(True, a, z, c)`` (f(y) a),
  each ``(a, y): c`` of the (1, p) split gives ``(False, a, z, -(-1)^p c)``
  (a f(y)).

Since b_K = -[e_A, -] for the fundamental 1-cocycle e_A, the left-acting
terms (``right`` false) with their sign flipped are e_A cup f on cochains
and e_A cap z (left) on chains: the higher calculus reads the same table.

The cup and cap products are stated once as well, as pair tables over one
walk of the split table.  :meth:`KoszulCalculus.cup_table` (fs, gs) and
:meth:`KoszulCalculus.cap_table` (fs, zs, side) return the product of every
pair from two lists of equal degree and module, keyed ``(i, j)`` by the
positions of the cochain f_i and the other factor; a key is absent exactly
when the product is zero.  Both are thin callers of ``_pair_table``: each
picks a row view of the split table (``_split_rows``), the sign and the
factor order.  The walk indexes the other list once by W support; for each
element of the walked list (the cochains for cup, the chains for cap) and
each W index of its support, it reads that index's row and meets only the
factors whose support holds the matching W index, so a pair that is not
composable costs nothing.  Each hit is added by ``_add_product`` straight
into the accumulator of its output element, at its output W index, with
plain + and *: an A value through ``GradedAlgebra.multiply_into``, which
adds the monomial products without settling them, and a k value through
the augmentation at the joining vertex.  Each output is reduced once by
``_mod_settle``; each pair is summed in the order of the one-pair loop, so
its settled values do not depend on the lists it came in.  ``cup`` and
``cap`` are the one-pair tables.  Finite, truncated and k-valued products
take this one path; on a truncated algebra a product past the cutoff
raises ``WeightOverflowError`` from ``multiply_into``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import Elem, GradedAlgebra
from .linalg import SparseVec, SpanSolver, Subspace, echelonize, full_subspace, intersect
from .quiver import paths_of_weight, relation_vector


class ModuleError(ValueError):
    """Raised for coefficient-module combinations outside {A, k} rules."""


class NotClosedError(ValueError):
    """Raised when a class is requested for a non-cocycle / non-cycle."""


class DegreeError(ValueError):
    pass


MODULE_A = "A"
MODULE_K = "k"

#: one differential term: (right, arrow, target W index, signed coefficient)
DiffTerm = Tuple[bool, int, int, object]


class WSpace:
    """Basis of W_p blocked by (target, source) vertex pairs.

    Each block is a reduced echelon subspace of its weight-p path space,
    whose basis paths are arrow tuples in ``block_paths``, so the
    coordinates of a vector of W_p are read at the block's pivots."""

    def __init__(self, p: int):
        self.p = p
        self.block_paths: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
        self.block_path_index: Dict[Tuple[int, int], Dict[Tuple[int, ...], int]] = {}
        self.block_space: Dict[Tuple[int, int], Subspace] = {}
        self.flat: List[Tuple[int, int, int]] = []  # (tgt, src, local index)
        self.flat_of_block: Dict[Tuple[int, int], List[int]] = {}
        self.relation_coords: List[SparseVec] = []  # p == 2 only

    @property
    def dim(self) -> int:
        return len(self.flat)

    def finish(self) -> None:
        """Lay the basis out block by block, in the order block_space was filled."""
        for key, space in self.block_space.items():
            idxs = []
            for k in range(space.dim):
                idxs.append(len(self.flat))
                self.flat.append((key[0], key[1], k))
            self.flat_of_block[key] = idxs

    def block_of(self, flat_idx: int) -> Tuple[int, int]:
        j, i, _k = self.flat[flat_idx]
        return (j, i)

    def vector(self, flat_idx: int) -> SparseVec:
        """The basis vector, in the path coordinates of its block."""
        j, i, k = self.flat[flat_idx]
        return self.block_space[(j, i)].rows[k]

    def coords(self, key: Tuple[int, int], vec: SparseVec) -> List[Tuple[int, object]]:
        """The nonzero (flat index, coefficient) of vec, a vector in the path
        coordinates of block ``key``, over the basis of W_p."""
        space = self.block_space.get(key)
        if space is None and not vec:
            return []
        sol = None if space is None else space.coords(vec)
        if sol is None:
            raise ValueError(f"vector outside W_{self.p} in block {key}")
        flats = self.flat_of_block[key]
        return [(flats[k], c) for k, c in enumerate(sol) if c]


class KoszulCalculus:
    """W-spaces, differentials and products for one graded algebra."""

    def __init__(self, algebra: GradedAlgebra, p_max: int):
        self.algebra = algebra
        self.field = algebra.field
        self.quiver = algebra.quiver
        pres = algebra.presentation
        if p_max < 0:
            raise DegreeError(f"no W space in negative degree {p_max}")
        self.p_max = p_max
        self.wspaces: List[WSpace] = []
        self._split_memo: Dict[Tuple[int, int], List[Dict[Tuple[int, int], object]]] = {}
        self._rows_memo: Dict[Tuple[int, int, str], List[List[Tuple[int, int, object]]]] = {}
        self._terms_memo: Dict[Tuple[int, str], List[List[DiffTerm]]] = {}
        self._build_wspaces(pres)

    # -- W spaces ----------------------------------------------------------

    def _build_wspaces(self, pres) -> None:
        q = self.quiver
        field = self.field
        for p in range(self.p_max + 2):
            ws = WSpace(p)
            self.wspaces.append(ws)
            if p and self.wspaces[p - 1].dim == 0:
                continue  # past a zero W space every W space is zero
            ws.block_paths = paths_of_weight(q, p)
            for key, paths in ws.block_paths.items():
                ws.block_path_index[key] = {path: k for k, path in enumerate(paths)}
            # finish() lays the blocks out in the order they are set: sorted
            if p <= 1:
                # W_0 and W_1 are the whole vertex and arrow spaces
                for key in sorted(ws.block_paths):
                    ws.block_space[key] = full_subspace(len(ws.block_paths[key]), field)
            elif p == 2:
                # W_2 is the relation space itself; each basis vector also
                # gets its coordinates over the input relations, in flat order
                rel_by_block: Dict[Tuple[int, int], List[int]] = {}
                for r, key in enumerate(pres.relation_blocks):
                    rel_by_block.setdefault(key, []).append(r)
                for key in sorted(rel_by_block):
                    rels = rel_by_block[key]
                    vecs = [relation_vector(pres, r, ws.block_path_index[key])
                            for r in rels]
                    sub = echelonize(vecs, len(ws.block_paths[key]), field)
                    if sub.dim:
                        ws.block_space[key] = sub
                        solver = SpanSolver(vecs, sub.ambient, field)
                        for vec in sub.rows:
                            sol = solver.solve(vec)
                            ws.relation_coords.append(
                                {rels[t]: c for t, c in enumerate(sol)
                                 if not field.is_zero(c)})
            else:
                # spanning vectors of V (x) W_{p-1} and W_{p-1} (x) V per block
                prev = self.wspaces[p - 1]
                left_span: Dict[Tuple[int, int], List[SparseVec]] = {}
                right_span: Dict[Tuple[int, int], List[SparseVec]] = {}
                for yflat, (jy, iy, _k) in enumerate(prev.flat):
                    yvec = prev.vector(yflat)
                    ypaths = prev.block_paths[(jy, iy)]
                    for a in range(q.n_arrows):
                        # left: a (x) y, the arrow is the last applied
                        idx = ws.block_path_index.get((q.target[a], iy))
                        if q.source[a] == jy and idx is not None:
                            left_span.setdefault((q.target[a], iy), []).append(
                                {idx[(a,) + ypaths[t]]: c for t, c in yvec.items()})
                        # right: y (x) a, the arrow is applied first
                        idx = ws.block_path_index.get((jy, q.source[a]))
                        if q.target[a] == iy and idx is not None:
                            right_span.setdefault((jy, q.source[a]), []).append(
                                {idx[ypaths[t] + (a,)]: c for t, c in yvec.items()})
                for key in sorted(ws.block_paths):
                    if key not in left_span or key not in right_span:
                        continue
                    sub = intersect(left_span[key], right_span[key],
                                    len(ws.block_paths[key]), field)
                    if sub.dim:
                        ws.block_space[key] = sub
            ws.finish()
        w1 = self.wspaces[1]
        self.arrow_flat: Dict[int, int] = {
            w1.block_paths[(j, i)][k][0]: flat_idx
            for flat_idx, (j, i, k) in enumerate(w1.flat)}

    def w(self, p: int) -> WSpace:
        if p < 0:
            raise DegreeError(f"no W space in negative degree {p}")
        if p < len(self.wspaces):
            return self.wspaces[p]
        # W_p lies in W_{p-1} (x) V: past a zero W space every W space is zero
        if self.wspaces[-1].dim:
            raise DegreeError(f"W_{p} is not computed: the degrees are 0..{len(self.wspaces) - 1}")
        ws = WSpace(p)
        ws.finish()
        return ws

    def w_dims(self) -> List[int]:
        return [ws.dim for ws in self.wspaces]

    # -- coefficient modules -------------------------------------------------

    def _mod_accumulate(self, module: str, acc: Dict[int, object], k: int, y, c) -> None:
        """acc[k] += c*y with plain + and *; _mod_settle reduces the sums."""
        if module == MODULE_A:
            out = acc.setdefault(k, {})
            for t, w in y.items():
                out[t] = out.get(t, 0) + c * w
        else:
            acc[k] = acc.get(k, 0) + c * y

    def _mod_settle(self, module: str, acc: Dict[int, object]) -> Dict[int, object]:
        """The accumulated values reduced by the field, zero values dropped."""
        if not acc:
            return acc
        settle = self.field.settle
        if module != MODULE_A:
            return settle(acc)
        values: Dict[int, object] = {}
        for k, v in acc.items():
            v = settle(v)
            if v:
                values[k] = v
        return values

    # -- cochains and chains --------------------------------------------------

    # The constructors below take module values as sums from _mod_accumulate
    # or as field elements, and settle them: zero values are dropped.

    def cochain_on_relations(self, rel_values: Dict[int, Elem],
                             module: str = MODULE_A) -> "Cochain":
        """Degree-2 cochain from its values on the presentation's relations."""
        ws = self.w(2)
        acc: Dict[int, object] = {}
        for flat_idx in range(ws.dim):
            for r, c in ws.relation_coords[flat_idx].items():
                if r in rel_values:
                    self._mod_accumulate(module, acc, flat_idx, rel_values[r], c)
        return Cochain(self, 2, module, self._mod_settle(module, acc))

    def cochain_on_arrows(self, arrow_values: Dict[int, Elem],
                          module: str = MODULE_A) -> "Cochain":
        return Cochain(self, 1, module, self._mod_settle(
            module, {self.arrow_flat[a]: val for a, val in arrow_values.items()}))

    def cochain_on_vertices(self, vertex_values: Dict[int, Elem],
                            module: str = MODULE_A) -> "Cochain":
        flat = self.w(0).flat_of_block
        return Cochain(self, 0, module, self._mod_settle(
            module, {flat[(i, i)][0]: val for i, val in vertex_values.items()}))

    def diagonal_cochain(self, elem: Elem) -> "Cochain":
        """The 0-cochain of an element of the diagonal blocks e_i A e_i,
        taking its e_i A e_i part on e_i; an off-diagonal term is refused."""
        block_of = self.algebra.block_of
        values: Dict[int, Elem] = {}
        for (m, pos), c in elem.items():
            j, i = block_of[m][pos]
            if i != j:
                raise ValueError(f"term {(m, pos)} lies outside the diagonal blocks")
            values.setdefault(i, {})[(m, pos)] = c
        return self.cochain_on_vertices(dict(sorted(values.items())))

    def fundamental_cocycle(self) -> "Cochain":
        """The identity map on the arrow space, as a 1-cochain."""
        return self.cochain_on_arrows(
            {a: self.algebra.arrow_elem(a) for a in range(self.quiver.n_arrows)})

    def zero_chain(self, q: int, module: str = MODULE_A) -> "Chain":
        return Chain(self, q, module, {})

    def chain_on_relations(self, pairs: Sequence[Tuple[Elem, int]]) -> "Chain":
        """Degree-2 chain sum of m (x) sigma_r over (coefficient m, relation r) pairs."""
        pres = self.algebra.presentation
        ws = self.w(2)
        acc: Dict[int, object] = {}
        for m, r in pairs:
            key = pres.relation_blocks[r]
            vec = relation_vector(pres, r, ws.block_path_index[key])
            for x, c in ws.coords(key, vec):
                self._mod_accumulate(MODULE_A, acc, x, m, c)
        return Chain(self, 2, MODULE_A, self._mod_settle(MODULE_A, acc))

    # -- differentials ---------------------------------------------------------

    def terms(self, p: int, side: str) -> List[List[DiffTerm]]:
        """The differential on degree p as (right, arrow, target, signed c) per W_p index.

        ``side="hom"`` (chains, bimodule complex) targets W_{p-1};
        ``side="coh"`` (cochains) targets W_{p+1}.  See the module docstring.
        """
        key = (p, side)
        table = self._terms_memo.get(key)
        if table is not None:
            return table
        field = self.field
        arrow_of = {u: a for a, u in self.arrow_flat.items()}
        table = [[] for _ in range(self.w(p).dim)]
        if side == "hom":
            # x in W_p from its (1, p-1) and (p-1, 1) splits
            if p > 0:
                sign = field.sign(p)
                lefts, rights = self.split_coords(1, p - 1), self.split_coords(p - 1, 1)
                for x, row in enumerate(table):
                    for (u, y), c in lefts[x].items():
                        row.append((True, arrow_of[u], y, c))
                    for (y, u), c in rights[x].items():
                        row.append((False, arrow_of[u], y, field.mul(sign, c)))
        elif side == "coh":
            # every z in W_{p+1} from its (p, 1) and (1, p) splits
            sign = field.sign(p + 1)
            lefts, rights = self.split_coords(1, p), self.split_coords(p, 1)
            for z in range(self.w(p + 1).dim):
                for (y, u), c in rights[z].items():
                    table[y].append((True, arrow_of[u], z, c))
                for (u, y), c in lefts[z].items():
                    table[y].append((False, arrow_of[u], z, field.mul(sign, c)))
        else:
            raise ValueError("side must be 'coh' or 'hom'")
        self._terms_memo[key] = table
        return table

    def _apply(self, obj: "KoszulElement", side: str) -> Dict[int, object]:
        """Values of b_K obj, read off the term table from obj's support: each
        term's product with its arrow is added by ``multiply_into`` straight
        into the accumulator of its target, and each target settled once."""
        if obj.module != MODULE_A:
            return {}  # arrows act by zero on k
        multiply_into = self.algebra.multiply_into
        one = self.field.one
        terms = self.terms(obj.degree, side)
        acc: Dict[int, object] = {}
        for x, val in obj.values.items():
            for right, a, t, c in terms[x]:
                arrow = {(1, a): one}
                if right:
                    multiply_into(acc.setdefault(t, {}), val, arrow, c)
                else:
                    multiply_into(acc.setdefault(t, {}), arrow, val, c)
        return self._mod_settle(MODULE_A, acc)

    def apply_bK(self, f: "Cochain") -> "Cochain":
        """Cochain differential: f(x_1..x_p).x_{p+1} - (-1)^p x_1.f(x_2..x_{p+1})."""
        return Cochain(self, f.p + 1, f.module, self._apply(f, "coh"))

    def apply_bK_chain(self, z: "Chain") -> "Chain":
        """Chain differential: m.x_1 (x) x_2..x_q + (-1)^q x_q.m (x) x_1..x_{q-1}."""
        return Chain(self, z.q - 1, z.module, self._apply(z, "hom"))

    # -- splits and products -----------------------------------------------------

    def split_coords(self, p: int, q: int) -> List[Dict[Tuple[int, int], object]]:
        """Coordinates of each W_{p+q} basis vector in W_p (x) W_q.

        A degree-0 factor splits trivially: z in the vertex block (j, i) is
        e_j (x) z when p = 0 and z (x) e_i when q = 0."""
        if p < 0 or q < 0:
            raise DegreeError("split requires nonnegative degrees on both sides")
        memo = self._split_memo.get((p, q))
        if memo is not None:
            return memo
        field = self.field
        wp, wq, wpq = self.w(p), self.w(q), self.w(p + q)
        out: List[Dict[Tuple[int, int], object]] = []
        if p == 0 or q == 0:
            vertex = self.w(0).flat_of_block
            for z, (j, i, _k) in enumerate(wpq.flat):
                out.append({(vertex[(j, j)][0], z) if p == 0 else (z, vertex[(i, i)][0]):
                            field.one})
            self._split_memo[(p, q)] = out
            return out
        for z, (j, i, _k) in enumerate(wpq.flat):
            paths = wpq.block_paths[(j, i)]
            # group path coordinates by the suffix (last q arrows)
            by_suffix: Dict[Tuple[int, ...], Dict[Tuple[int, ...], object]] = {}
            for t, c in wpq.vector(z).items():
                arrows = paths[t]
                by_suffix.setdefault(arrows[p:], {})[arrows[:p]] = c
            # the prefixes in W_p, then each W_p coefficient's suffixes in W_q
            rows: Dict[int, Dict[Tuple[int, ...], object]] = {}
            for suffix, pref_vec in by_suffix.items():
                pkey = (j, self.quiver.target[suffix[0]])
                index = wp.block_path_index[pkey]
                for x, c in wp.coords(pkey, {index[pref]: c for pref, c in pref_vec.items()}):
                    rows.setdefault(x, {})[suffix] = c
            coords: Dict[Tuple[int, int], object] = {}
            for x, suffix_vec in rows.items():
                qkey = (wp.flat[x][1], i)  # from the source vertex of the prefix
                index = wq.block_path_index[qkey]
                for y, c in wq.coords(qkey, {index[suf]: c for suf, c in suffix_vec.items()}):
                    coords[(x, y)] = c
            out.append(coords)
        self._split_memo[(p, q)] = out
        return out

    def _split_rows(self, p: int, q: int, view: str) -> List[List[Tuple[int, int, object]]]:
        """The split table of W_p (x) W_q as the rows a pair table walks:
        ``(other factor's W index, output W index, c)``.  ``view="cup"`` has
        a row per W_p index x, with (y, z, c) for (x, y): c in the split of z;
        ``"left"`` and ``"right"`` have a row per W_{p+q} index, with (y, x, c)
        and (x, y, c) for each (x, y): c of its split."""
        rows = self._rows_memo.get((p, q, view))
        if rows is None:
            splits = self.split_coords(p, q)
            if view == "cup":
                rows = [[] for _ in range(self.w(p).dim)]
                for z, coords in enumerate(splits):
                    for (x, y), c in coords.items():
                        rows[x].append((y, z, c))
            elif view == "left":
                rows = [[(y, x, c) for (x, y), c in coords.items()] for coords in splits]
            else:
                rows = [[(x, y, c) for (x, y), c in coords.items()] for coords in splits]
            self._rows_memo[(p, q, view)] = rows
        return rows

    def _out_module(self, mod_f: str, mod_g: str) -> str:
        """The coefficient module of a product: k if a factor is k, else A."""
        if mod_f == MODULE_K and mod_g == MODULE_K:
            raise ModuleError("at least one coefficient module must be the algebra")
        return MODULE_K if MODULE_K in (mod_f, mod_g) else MODULE_A

    def _add_product(self, acc: Dict[int, object], t: int, mod_f: str, mod_g: str,
                     fval, gval, fblock: Tuple[int, int], gblock: Tuple[int, int],
                     c) -> None:
        """acc[t] += c fval gval in P (x)_A Q for modules in {A, k}, with plain
        + and *; _mod_settle reduces the sums.  fblock and gblock are the
        vertex blocks of the W basis vectors the two values sit on.  Only
        whether the A value's block is diagonal is read, so a chain may pass
        its W block, not the transposed block of its coefficient."""
        if mod_f == MODULE_A and mod_g == MODULE_A:
            self.algebra.multiply_into(acc.setdefault(t, {}), fval, gval, c)
            return
        # A (x)_A k: the augmentation of the A value at the joining vertex,
        # nonzero only when the A value has a vertex component there
        if mod_f == MODULE_A:
            mid = fblock[1]
            fval = fval.get((0, mid), 0) if fblock[0] == mid else 0
        else:
            mid = gblock[0]
            gval = gval.get((0, mid), 0) if gblock[1] == mid else 0
        if fval and gval:
            acc[t] = acc.get(t, 0) + c * fval * gval

    def _pair_table(self, walked: Sequence["KoszulElement"], mod_w: str,
                    others: Sequence["KoszulElement"], mod_o: str,
                    rows: List[List[Tuple[int, int, object]]], sign, walked_first: bool,
                    degree: int) -> Dict[Tuple[int, int], "KoszulElement"]:
        """The one walk behind the pair tables: every nonzero product of an
        element of ``walked`` with one of ``others``, as an element of the
        walked type and ``degree``, keyed (cochain's list index, other list
        index).  ``rows[w]`` holds the (other W index, output W index, c)
        that the walked W index w meets in the split table; each hit adds
        sign * c times the product of the two values, the walked value first
        when ``walked_first``, straight into the output's accumulator."""
        out_module = self._out_module(mod_w, mod_o)
        make = type(walked[0])
        cochains_walked = make is Cochain
        wblock_of, oblock_of = self.w(walked[0].degree).block_of, self.w(others[0].degree).block_of
        o_at: Dict[int, List[Tuple[int, object]]] = {}
        for m, e in enumerate(others):
            for o, v in e.values.items():
                o_at.setdefault(o, []).append((m, v))
        add, settle = self._add_product, self._mod_settle
        table: Dict[Tuple[int, int], KoszulElement] = {}
        for n, e in enumerate(walked):
            accs: Dict[int, Dict[int, object]] = {}
            for w, wv in e.values.items():
                wblock = wblock_of(w)
                for o, t, c in rows[w]:
                    hits = o_at.get(o)
                    if hits is None:
                        continue
                    oblock = oblock_of(o)
                    sc = sign * c
                    for m, ov in hits:
                        acc = accs.setdefault(m, {})
                        if walked_first:
                            add(acc, t, mod_w, mod_o, wv, ov, wblock, oblock, sc)
                        else:
                            add(acc, t, mod_o, mod_w, ov, wv, oblock, wblock, sc)
            for m, acc in accs.items():
                values = settle(out_module, acc)
                if values:
                    key = (n, m) if cochains_walked else (m, n)
                    table[key] = make(self, degree, out_module, values)
        return table

    def cup_table(self, fs: Sequence["Cochain"],
                  gs: Sequence["Cochain"]) -> Dict[Tuple[int, int], "Cochain"]:
        """Every nonzero f_i cup g_j, keyed (i, j); see the module docstring."""
        if not fs or not gs:
            return {}
        (p, mod_f), (q, mod_g) = _common_grading(fs), _common_grading(gs)
        return self._pair_table(fs, mod_f, gs, mod_g, self._split_rows(p, q, "cup"),
                                self.field.sign(p * q), True, p + q)

    def cap_table(self, fs: Sequence["Cochain"], zs: Sequence["Chain"],
                  side: str = "left") -> Dict[Tuple[int, int], "Chain"]:
        """Every nonzero cap of f_i with z_j on ``side``, keyed (i, j).

        side="left":  f cap z = (-1)^{(q-p)p} (f(x_{q-p+1}..x_q) m) (x) x_1..x_{q-p}
        side="right": z cap f = (-1)^{pq} (m f(x_1..x_p)) (x) x_{p+1}..x_q
        """
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if not fs or not zs:
            return {}
        (p, mod_f), (q, mod_z) = _common_grading(fs), _common_grading(zs)
        if p > q:
            raise DegreeError("cap requires the cochain degree at most the chain degree")
        if side == "left":
            # split x = u (x) s with s in W_p: f(s) m on u
            rows, sign = self._split_rows(q - p, p, side), self.field.sign((q - p) * p)
        else:
            # split x = s (x) u with s in W_p: m f(s) on u
            rows, sign = self._split_rows(p, q - p, side), self.field.sign(p * q)
        return self._pair_table(zs, mod_z, fs, mod_f, rows, sign, side == "right", q - p)

    def cup(self, f: "Cochain", g: "Cochain") -> "Cochain":
        """(f cup g)(x_1..x_{p+q}) = (-1)^{pq} f(x_1..x_p) g(x_{p+1}..), as
        the one pair of :meth:`cup_table`."""
        prod = self.cup_table([f], [g]).get((0, 0))
        if prod is None:
            prod = Cochain(self, f.p + g.p, self._out_module(f.module, g.module), {})
        return prod

    def cap(self, f: "Cochain", z: "Chain", side: str = "left") -> "Chain":
        """The cap product of f with z on ``side``, as the one pair of
        :meth:`cap_table`."""
        prod = self.cap_table([f], [z], side).get((0, 0))
        if prod is None:
            prod = Chain(self, z.q - f.p, self._out_module(f.module, z.module), {})
        return prod

    def cup_bracket(self, f: "Cochain", g: "Cochain") -> "Cochain":
        return self.cup(f, g).add(self.cup(g, f), self.field.sign(f.p * g.p + 1))

    def cap_bracket(self, f: "Cochain", z: "Chain") -> "Chain":
        return self.cap(f, z, "left").add(self.cap(f, z, "right"),
                                          self.field.sign(f.p * z.q + 1))


def _common_grading(elems: Sequence["KoszulElement"]) -> Tuple[int, str]:
    """The degree and module shared by the factors of a product table."""
    first = elems[0]
    for e in elems:
        if type(e) is not type(first) or e.degree != first.degree or e.module != first.module:
            raise DegreeError("product table factors differ in type, degree or module")
    return first.degree, first.module


class KoszulElement:
    """A cochain or chain: values in the coefficient module by W-basis index."""

    def __init__(self, kd: KoszulCalculus, degree: int, module: str,
                 values: Dict[int, object]):
        self.kd = kd
        self.degree = degree
        self.module = module
        self.values = values

    def _with(self, values: Dict[int, object]):
        return type(self)(self.kd, self.degree, self.module, values)

    def is_zero(self) -> bool:
        return not self.values

    def _combination(self, *terms) -> "KoszulElement":
        """The sum of c * values over the (values, c) terms, settled once."""
        kd = self.kd
        acc: Dict[int, object] = {}
        for values, c in terms:
            for k, v in values.items():
                kd._mod_accumulate(self.module, acc, k, v, c)
        return self._with(kd._mod_settle(self.module, acc))

    def add(self, other, c=None):
        if (type(other) is not type(self) or other.degree != self.degree
                or other.module != self.module):
            raise DegreeError(f"{type(self).__name__.lower()} mismatch in addition")
        one = self.kd.field.one
        return self._combination((self.values, one), (other.values, one if c is None else c))

    def scale(self, c):
        return self._combination((self.values, c))

    def __eq__(self, other) -> bool:
        """Equality, read off the settled value dicts, so lists and product
        tables of elements compare with ``==``.

        The calculus settles every value dict it builds (reduced, zeros
        dropped), so equal elements have equal dicts.  A dict left unreduced
        or holding a zero can only make equal elements compare unequal, a
        false failure; equal dicts always mean equal elements, so there is
        no false pass.  Elements of another type, degree or module are
        refused, not unequal; a non-element is left to Python.  Like any
        class with ``__eq__`` and no ``__hash__``, elements are unhashable."""
        if not isinstance(other, KoszulElement):
            return NotImplemented
        if (type(other) is not type(self) or other.degree != self.degree
                or other.module != self.module):
            raise DegreeError(f"{type(self).__name__.lower()} mismatch in comparison")
        return self.values == other.values

    def coefficient_weights(self) -> List[Optional[int]]:
        """Weights of the values, ascending; k is the one weight None."""
        if self.module != MODULE_A:
            return [None] if self.values else []
        out = set()
        for v in self.values.values():
            out.update(m for (m, _pos) in v)
        return sorted(out)


class Cochain(KoszulElement):
    """Element of Hom_{k^e}(W_p, M), stored by W-basis index."""

    @property
    def p(self) -> int:
        return self.degree

    def is_cocycle(self) -> bool:
        return self.kd.apply_bK(self).is_zero()


class Chain(KoszulElement):
    """Element of M (x)_{k^e} W_q, stored by W-basis index."""

    @property
    def q(self) -> int:
        return self.degree

    def is_cycle(self) -> bool:
        return self.kd.apply_bK_chain(self).is_zero()
