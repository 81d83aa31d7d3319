"""Weight-graded quadratic quiver algebras with monomial normal forms.

The weight-m component is built from weight m-1 as a quotient of the
product space (basis of weight m-1) x (arrows): the degree-m relations are
the images of (weight m-2 basis) x (relation space).  This avoids ever
materializing the full path space, whose size grows exponentially with the
weight, while still selecting a monomial (path) basis: the surviving
product pairs, taken in right-factor-most-significant path order.  The
monomials are recorded once, as a tree: each monomial of positive weight
is its parent (a monomial one weight lower) times its last-applied arrow
(``parents``), and ``block_of`` holds its (target, source) vertex block.

Products come from the build's table of right products by an arrow
(``_rmul``) and one table of longer monomial products (``mono_product``),
filled on demand along the right factor's monomial tree and storing zero
products as well, and go through one loop, ``multiply_into``, which adds
c x y into an unsettled accumulator: ``multiply`` settles it from an empty
one, the Koszul pair tables add every product of a table straight into its
outputs and settle each output once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .linalg import SparseVec, echelonize, kernel
from .quiver import QuadraticPresentation, QuiverError


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
        self.blocks: List[Dict[Tuple[int, int], List[int]]] = []
        self.block_of: List[List[Tuple[int, int]]] = []
        # parent[m][pos] = (position at weight m-1, last arrow) for m >= 1
        self.parents: List[List[Tuple[int, int]]] = []
        # rmul[m][(pos, arrow)] = normal form of monomial*arrow at weight m+1
        self._rmul: List[Dict[Tuple[int, int], SparseVec]] = []
        # prod[(m, pos, n, qos)] = normal form of the product of two composable
        # monomials of positive weight, n >= 2, over weight m+n positions, zero
        # products included; filled on demand
        self._prod: Dict[Tuple[int, int, int, int], SparseVec] = {}
        self.finite = False
        self.truncated = False
        self.top_weight: Optional[int] = None
        self._build()

    # -- construction -----------------------------------------------------

    def _register_weight(self, keys: List[Tuple[int, int]]) -> List[List[int]]:
        """Record one weight's monomials by their (target, source) blocks, and
        return their positions grouped by source vertex."""
        blocks: Dict[Tuple[int, int], List[int]] = {}
        by_source: List[List[int]] = [[] for _ in range(self.quiver.n_vertices)]
        for pos, key in enumerate(keys):
            blocks.setdefault(key, []).append(pos)
            by_source[key[1]].append(pos)
        self.blocks.append(blocks)
        self.block_of.append(keys)
        return by_source

    def _build(self) -> None:
        q = self.quiver
        field = self.field
        prev_src = self._register_weight([(i, i) for i in range(q.n_vertices)])
        prev2_src: List[List[int]] = []
        self.parents.append([])
        m = 1
        while True:
            # product pairs in path order: rightmost arrow most significant
            pairs = [(pos, a) for a in range(q.n_arrows) for pos in prev_src[q.target[a]]]
            pair_index = {pa: k for k, pa in enumerate(pairs)}
            # degree-m relation generators: (weight m-2 basis) x relations
            gens: List[SparseVec] = []
            if m >= 2:
                rmul_prev = self._rmul[m - 2]
                for r, rel in enumerate(self.presentation.relations):
                    for ypos in prev2_src[self.presentation.relation_blocks[r][0]]:
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
            survivors = [k for k in range(len(pairs)) if k not in sub.pivot_pos]
            prev_block_of = self.block_of[m - 1]
            new_keys: List[Tuple[int, int]] = []
            new_parents: List[Tuple[int, int]] = []
            new_pos_of_pair: Dict[int, int] = {}
            for new_pos, k in enumerate(survivors):
                pos, a = pairs[k]
                # trivial parents satisfy target == t(a), so this is uniform
                new_keys.append((prev_block_of[pos][0], q.source[a]))
                new_parents.append((pos, a))
                new_pos_of_pair[k] = new_pos
            # normal-form table for (weight m-1 basis) x arrow
            rmul: Dict[Tuple[int, int], SparseVec] = {}
            for k, (pos, a) in enumerate(pairs):
                if k in new_pos_of_pair:
                    rmul[(pos, a)] = {new_pos_of_pair[k]: field.one}
                else:
                    nf: SparseVec = {}
                    for col, c in sub.rows[sub.pivot_pos[k]].items():
                        if col == k:
                            continue
                        nf[new_pos_of_pair[col]] = field.neg(c)
                    rmul[(pos, a)] = nf
            self._rmul.append(rmul)
            if not new_keys:
                self.finite = True
                self.top_weight = m - 1
                return
            prev2_src, prev_src = prev_src, self._register_weight(new_keys)
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
        return len(self.block_of) - 1

    def dims(self) -> List[int]:
        return [len(keys) for keys in self.block_of]

    @property
    def terms(self) -> List[Term]:
        """Every monomial (m, pos), weight by weight, in basis order."""
        return [(m, pos) for m, keys in enumerate(self.block_of) for pos in range(len(keys))]

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

    def monomial_arrows(self, m: int, pos: int) -> Tuple[int, ...]:
        """The arrows of monomial (m, pos) in written (leftmost-first) order,
        read up the parents tree: each step gives the last-applied arrow."""
        arrows = []
        for w in range(m, 0, -1):
            pos, a = self.parents[w][pos]
            arrows.append(a)
        return tuple(reversed(arrows))

    def mono_product(self, m: int, pos: int, n: int, qos: int) -> SparseVec:
        """Normal form of monomial (m, pos) times the composable monomial
        (n, qos), over weight m+n positions.  A right product by an arrow
        (n == 1) is the build's ``_rmul`` entry.  Longer ones are filled
        along the right factor's monomial tree, x (y' a) = (x y') a, one rmul
        step per entry; zero products are stored too, so a product that
        vanishes is looked up, not recomputed."""
        if n == 0:
            return {pos: self.field.one}
        if m == 0:
            return {qos: self.field.one}
        if n == 1:
            return {} if self._beyond(m + 1) else self._rmul[m].get((pos, qos), {})
        key = (m, pos, n, qos)
        nf = self._prod.get(key)
        if nf is None:
            parent, a = self.parents[n][qos]
            nf = self._rmul_vec(self.mono_product(m, pos, n - 1, parent), m + n - 1, a)
            self._prod[key] = nf
        return nf

    def multiply_into(self, acc: Elem, x: Elem, y: Elem, c) -> Elem:
        """Add c x y (y acts first) into ``acc`` with plain + and *, unsettled,
        and return ``acc``: the one product loop, bilinear in the monomial
        products.  Pairs that are not composable, or whose weights sum past
        the top of a finite algebra, add nothing without a lookup; on a
        truncated algebra a product beyond the cutoff raises."""
        block_of = self.block_of
        top = self.top_weight
        mono_product = self.mono_product
        for (n, qos), d in y.items():
            tgt = block_of[n][qos][0]
            dc = d * c
            for (m, pos), e in x.items():
                if block_of[m][pos][1] != tgt or (top is not None and m + n > top):
                    continue
                edc = e * dc
                for npos, w in mono_product(m, pos, n, qos).items():
                    t = (m + n, npos)
                    acc[t] = acc.get(t, 0) + edc * w
        return acc

    def multiply(self, x: Elem, y: Elem) -> Elem:
        """Normal form of the product x y (y acts first): ``multiply_into``
        an empty accumulator, settled."""
        return self.field.settle(self.multiply_into({}, x, y, self.field.one))

    # -- center -------------------------------------------------------------

    def center_basis(self) -> List[Elem]:
        """Graded basis of the center: solutions of x a = a x for all arrows."""
        if not self.finite:
            raise InfiniteDimensionalError("the center requires a finite-dimensional algebra")
        q = self.quiver
        field = self.field
        out: List[Elem] = []
        for m in range(self.max_weight + 1):
            diag = [pos for pos, (j, i) in enumerate(self.block_of[m]) if j == i]
            if not diag:
                continue
            next_dim = len(self.block_of[m + 1]) if m + 1 <= self.max_weight else 0
            cols: List[SparseVec] = []
            for pos in diag:
                x = {(m, pos): field.one}
                col: SparseVec = {}
                for a in range(q.n_arrows):
                    arrow = self.arrow_elem(a)
                    diff = self.multiply(x, arrow)
                    field.add_into(diff, self.multiply(arrow, x), field.neg(field.one))
                    for (_m1, npos), v in diff.items():
                        col[a * next_dim + npos] = v
                cols.append(col)
            ker = kernel(cols, q.n_arrows * max(next_dim, 1), field)
            for row in ker.rows:
                out.append({(m, diag[i]): c for i, c in row.items()})
        return out


def build_graded_algebra(presentation: QuadraticPresentation, cutoff: int) -> GradedAlgebra:
    """Bases and normal forms up to the cutoff, stopping at a zero component."""
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    return GradedAlgebra(presentation, cutoff)


def default_cutoff(n_vertices: int) -> int:
    return 2 * n_vertices + 4
