"""Weight-graded quadratic quiver algebras with monomial normal forms.

The weight-m component is built from weight m-1 as a quotient of the
product space (basis of weight m-1) x (arrows): the degree-m relations are
the images of (weight m-2 basis) x (relation space).  This avoids ever
materializing the full path space, whose size grows exponentially with the
weight, while still selecting a monomial (path) basis: the surviving
product pairs, taken in right-factor-most-significant path order.

Products come from one table of monomial products (``mono_product``),
filled on demand along the right factor's monomial tree and storing zero
products as well; ``multiply`` and left multiplication by an arrow both
read it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .linalg import LinearMap, SparseVec, echelonize, kernel
from .quiver import Path, QuadraticPresentation, QuiverError


class WeightOverflowError(ValueError):
    """Raised when a product exceeds the computed weight range."""


class InfiniteDimensionalError(ValueError):
    """Raised by operations requiring a finite-dimensional algebra."""


Term = Tuple[int, int]  # (weight, position within that weight's basis)
Elem = Dict[Term, object]


class GradedAlgebra:
    """A = kQ/(R) with per-weight monomial bases and normal forms."""

    def __init__(self, presentation: QuadraticPresentation, cutoff: int):
        self.presentation = presentation
        self.quiver = presentation.quiver
        self.field = presentation.field
        self.cutoff = cutoff
        self.monomials: List[List[Path]] = []
        self.blocks: List[Dict[Tuple[int, int], List[int]]] = []
        self.block_of: List[List[Tuple[int, int]]] = []
        # parent[m][pos] = (position at weight m-1, last arrow) for m >= 1
        self.parents: List[List[Tuple[int, int]]] = []
        # rmul[m][(pos, arrow)] = normal form of monomial*arrow at weight m+1
        self._rmul: List[Dict[Tuple[int, int], SparseVec]] = []
        # prod[(m, pos, n, qos)] = normal form of the product of two composable
        # monomials of positive weight, over weight m+n positions, zero products
        # included; filled on demand
        self._prod: Dict[Tuple[int, int, int, int], SparseVec] = {}
        self.finite = False
        self.truncated = False
        self.top_weight: Optional[int] = None
        self._build()

    # -- construction -----------------------------------------------------

    def _register_weight(self, paths: List[Path]) -> None:
        self.monomials.append(paths)
        blocks: Dict[Tuple[int, int], List[int]] = {}
        per_pos = []
        for pos, p in enumerate(paths):
            key = (p.target, p.source)
            blocks.setdefault(key, []).append(pos)
            per_pos.append(key)
        self.blocks.append(blocks)
        self.block_of.append(per_pos)

    def _build(self) -> None:
        q = self.quiver
        field = self.field
        self._register_weight([Path.trivial(q, i) for i in range(q.n_vertices)])
        self.parents.append([])
        m = 1
        while True:
            prev = self.monomials[m - 1]
            # product pairs in path order: rightmost arrow most significant
            pairs: List[Tuple[int, int]] = []  # (prev position, arrow)
            for a in range(q.n_arrows):
                tgt = q.target[a]
                for pos, p in enumerate(prev):
                    if p.source == tgt:
                        pairs.append((pos, a))
            pair_index = {pa: k for k, pa in enumerate(pairs)}
            # degree-m relation generators: (weight m-2 basis) x relations
            gens: List[SparseVec] = []
            if m >= 2:
                prev2 = self.monomials[m - 2]
                rmul_prev = self._rmul[m - 2]
                for r, rel in enumerate(self.presentation.relations):
                    j0 = self.presentation.relation_blocks[r][0]
                    for ypos, y in enumerate(prev2):
                        if y.source != j0:
                            continue
                        gen: SparseVec = {}
                        for coeff, (left, right) in rel:
                            yu = rmul_prev.get((ypos, left))
                            if not yu:
                                continue
                            for xpos, w in yu.items():
                                idx = pair_index[(xpos, right)]
                                gen[idx] = gen.get(idx, 0) + coeff * w
                        gen = field.settle(gen)
                        if gen:
                            gens.append(gen)
            sub = echelonize(gens, len(pairs), field)
            if m == 2 and sub.dim < self.presentation.n_relations:
                raise QuiverError("relations are linearly dependent")
            pivot_set = set(sub.pivots)
            survivors = [k for k in range(len(pairs)) if k not in pivot_set]
            new_paths: List[Path] = []
            new_parents: List[Tuple[int, int]] = []
            new_pos_of_pair: Dict[int, int] = {}
            for new_pos, k in enumerate(survivors):
                pos, a = pairs[k]
                parent_path = prev[pos]
                # trivial parents satisfy target == t(a), so this is uniform
                new_paths.append(Path(q, parent_path.arrows + (a,), q.source[a],
                                      parent_path.target))
                new_parents.append((pos, a))
                new_pos_of_pair[k] = new_pos
            # normal-form table for (weight m-1 basis) x arrow
            rmul: Dict[Tuple[int, int], SparseVec] = {}
            for k, (pos, a) in enumerate(pairs):
                if k in new_pos_of_pair:
                    rmul[(pos, a)] = {new_pos_of_pair[k]: field.one}
                else:
                    row = sub.rows[sub.pivots.index(k)] if k in pivot_set else None
                    nf: SparseVec = {}
                    for col, c in row.items():
                        if col == k:
                            continue
                        nf[new_pos_of_pair[col]] = field.neg(c)
                    rmul[(pos, a)] = nf
            self._rmul.append(rmul)
            if not new_paths:
                self.finite = True
                self.top_weight = m - 1
                return
            self._register_weight(new_paths)
            self.parents.append(new_parents)
            if m >= self.cutoff:
                self.truncated = True
                self.top_weight = None
                return
            m += 1

    # -- basic queries -----------------------------------------------------

    @property
    def max_weight(self) -> int:
        """Largest weight with a computed basis."""
        return len(self.monomials) - 1

    def dims(self) -> List[int]:
        return [len(ms) for ms in self.monomials]

    @property
    def total_dim(self) -> int:
        if not self.finite:
            raise InfiniteDimensionalError("algebra not finite dimensional within cutoff")
        return sum(self.dims())

    def block_positions(self, m: int, tgt: int, src: int) -> List[int]:
        if m > self.max_weight:
            return []
        return self.blocks[m].get((tgt, src), [])

    def block_dim(self, tgt: int, src: int) -> int:
        return sum(len(self.blocks[m].get((tgt, src), [])) for m in range(self.max_weight + 1))

    def cartan_matrix(self) -> List[List[int]]:
        """C[i][j] = dim e_j A e_i."""
        n = self.quiver.n_vertices
        return [[self.block_dim(j, i) for j in range(n)] for i in range(n)]

    # -- element helpers ---------------------------------------------------

    def unit_elem(self) -> Elem:
        return {(0, i): self.field.one for i in range(self.quiver.n_vertices)}

    def vertex_elem(self, i: int) -> Elem:
        return {(0, i): self.field.one}

    def arrow_elem(self, a: int) -> Elem:
        return {(1, a): self.field.one}

    def elem_add(self, x: Elem, y: Elem, c=None) -> Elem:
        out = dict(x)
        self.field.add_into(out, y, self.field.one if c is None else c)
        return out

    def elem_scale(self, x: Elem, c) -> Elem:
        return self.field.scale(x, c)

    def elem_equal(self, x: Elem, y: Elem) -> bool:
        return not self.elem_add(x, self.elem_scale(y, self.field.neg(self.field.one)))

    def _beyond(self, m: int) -> bool:
        """Weight m is beyond the computed range; zero if finite, else error."""
        if m <= self.max_weight:
            return False
        if self.finite:
            return True
        raise WeightOverflowError(
            f"weight {m} exceeds cutoff {self.cutoff} of a non-vanishing algebra")

    def rmul_table(self, m: int) -> Dict[Tuple[int, int], SparseVec]:
        """Normal forms of (weight-m monomial) * arrow over weight m+1 positions,
        keyed by (position, arrow); empty when weight m+1 is not computed."""
        return self._rmul[m] if m < len(self._rmul) else {}

    def rmul_arrow(self, x: Elem, a: int) -> Elem:
        """Normal form of x * a (the arrow acts first)."""
        acc: Elem = {}
        for (m, pos), c in x.items():
            if self._beyond(m + 1):
                continue
            nf = self._rmul[m].get((pos, a))
            if not nf:
                continue
            for npos, w in nf.items():
                t = (m + 1, npos)
                acc[t] = acc.get(t, 0) + c * w
        return self.field.settle(acc)

    def _rmul_vec(self, vec: SparseVec, m: int, a: int) -> SparseVec:
        """Normal form of vec * a, for vec over weight-m positions."""
        if not vec or self._beyond(m + 1):
            return {}
        table = self._rmul[m]
        acc: SparseVec = {}
        for pos, c in vec.items():
            for npos, w in table.get((pos, a), {}).items():
                acc[npos] = acc.get(npos, 0) + c * w
        return self.field.settle(acc)

    def lmul_arrow(self, a: int, x: Elem) -> Elem:
        """Normal form of a * x (the arrow acts last)."""
        return self.multiply(self.arrow_elem(a), x)

    def mono_product(self, m: int, pos: int, n: int, qos: int) -> SparseVec:
        """Normal form of monomial (m, pos) times the composable monomial
        (n, qos), over weight m+n positions.  The table is filled along the
        right factor's monomial tree, x (y' a) = (x y') a, one rmul step per
        entry; zero products are stored too, so a product that vanishes is
        looked up, not recomputed."""
        if n == 0:
            return {pos: self.field.one}
        if m == 0:
            return {qos: self.field.one}
        key = (m, pos, n, qos)
        nf = self._prod.get(key)
        if nf is None:
            parent, a = self.parents[n][qos]
            nf = self._rmul_vec(self.mono_product(m, pos, n - 1, parent), m + n - 1, a)
            self._prod[key] = nf
        return nf

    def multiply(self, x: Elem, y: Elem) -> Elem:
        """Normal form of the product x y (y acts first), bilinear in the
        monomial products.  Pairs that are not composable, or whose weights
        sum past the top of a finite algebra, are zero without a lookup; on a
        truncated algebra a product beyond the cutoff raises."""
        block_of = self.block_of
        top = self.top_weight
        acc: Elem = {}
        for (n, qos), d in y.items():
            tgt = block_of[n][qos][0]
            for (m, pos), c in x.items():
                if block_of[m][pos][1] != tgt or (top is not None and m + n > top):
                    continue
                cd = c * d
                for npos, w in self.mono_product(m, pos, n, qos).items():
                    t = (m + n, npos)
                    acc[t] = acc.get(t, 0) + cd * w
        return self.field.settle(acc)

    def path_normal_form(self, path: Path) -> Elem:
        cur = self.vertex_elem(path.target)
        for a in path.arrows:
            cur = self.rmul_arrow(cur, a)
            if not cur:
                return {}
        return cur

    def elem_weights(self, x: Elem) -> List[int]:
        return sorted({m for (m, _pos) in x})

    # -- center and socle ---------------------------------------------------

    def _require_finite(self) -> None:
        if not self.finite:
            raise InfiniteDimensionalError(
                "center/socle require a finite-dimensional algebra")

    def center_basis(self) -> List[Elem]:
        """Graded basis of the center: solutions of x a = a x for all arrows."""
        self._require_finite()
        q = self.quiver
        field = self.field
        out: List[Elem] = []
        for m in range(self.max_weight + 1):
            diag = [pos for pos in range(len(self.monomials[m]))
                    if self.block_of[m][pos][0] == self.block_of[m][pos][1]]
            if not diag:
                continue
            next_dim = len(self.monomials[m + 1]) if m + 1 <= self.max_weight else 0
            cols: List[SparseVec] = []
            for pos in diag:
                x = {(m, pos): field.one}
                col: SparseVec = {}
                for a in range(q.n_arrows):
                    diff = self.elem_add(self.rmul_arrow(x, a), self.lmul_arrow(a, x),
                                         field.neg(field.one))
                    for (_m1, npos), v in diff.items():
                        col[a * next_dim + npos] = v
                cols.append(col)
            ker = kernel(LinearMap(len(diag), q.n_arrows * max(next_dim, 1), cols, field))
            for row in ker.rows:
                out.append({(m, diag[i]): c for i, c in row.items()})
        return out

    def socle_basis(self) -> List[Elem]:
        """Graded basis of the two-sided annihilator of the arrow ideal."""
        self._require_finite()
        q = self.quiver
        field = self.field
        out: List[Elem] = []
        for m in range(self.max_weight + 1):
            dim_m = len(self.monomials[m])
            next_dim = len(self.monomials[m + 1]) if m + 1 <= self.max_weight else 0
            cols: List[SparseVec] = []
            for pos in range(dim_m):
                x = {(m, pos): field.one}
                col: SparseVec = {}
                for a in range(q.n_arrows):
                    for (_m1, npos), v in self.rmul_arrow(x, a).items():
                        col[(2 * a) * next_dim + npos] = v
                    for (_m1, npos), v in self.lmul_arrow(a, x).items():
                        col[(2 * a + 1) * next_dim + npos] = v
                cols.append(col)
            ker = kernel(LinearMap(dim_m, 2 * q.n_arrows * max(next_dim, 1), cols, field))
            for row in ker.rows:
                out.append({(m, i): c for i, c in row.items()})
        return out


def build_graded_algebra(presentation: QuadraticPresentation, cutoff: int) -> GradedAlgebra:
    """Bases and normal forms up to the cutoff, stopping at a zero component."""
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    return GradedAlgebra(presentation, cutoff)


def default_cutoff(n_vertices: int) -> int:
    return 2 * n_vertices + 4
