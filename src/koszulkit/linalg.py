"""Exact linear algebra over the rationals and prime fields.

Vectors are sparse maps ``index -> scalar`` (zeros never stored); matrices
are lists of sparse rows or columns.  Every elimination is sparse and has
two entry points:

- ``rank(rows, ambient, field)`` runs the forward phase only and returns the
  dimension of the row span; no basis is built;
- ``rref(rows, ambient, field)`` adds back-substitution and returns the
  reduced row echelon basis (keys ascending) with its pivot columns.

Rows are taken in input order and each is reduced on its leftmost nonzero
column, so every derived basis (kernels, intersections, quotient
representatives) is reproducible byte for byte.  The one dict-row
eliminator is here and serves Q and every odd p: a row enters through
``Field.settle``, is reduced with ``Field.add_into`` and scaled to a leading
1 with ``Field.scale``, so its scalars follow :mod:`koszulkit.fields` (over
Q ints, with a ``Fraction`` only where a pivot other than +-1 divides).
GF(2) goes to the bit-row kernel in :mod:`koszulkit.backend`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import backend
from .fields import Field

SparseVec = Dict[int, object]


class AmbientMismatchError(ValueError):
    """Raised when subspaces of different ambient spaces are combined."""


def vec_is_zero(v: SparseVec) -> bool:
    return not v


def vec_add_scaled(u: SparseVec, v: SparseVec, c, field: Field) -> SparseVec:
    """u + c*v as a new sparse vector."""
    out = dict(u)
    field.add_into(out, v, c)
    return out


def vec_add(u: SparseVec, v: SparseVec, field: Field) -> SparseVec:
    return vec_add_scaled(u, v, field.one, field)


def _echelon(rows: Iterable[SparseVec], field: Field) -> Dict[int, SparseVec]:
    """Forward elimination: echelon rows keyed by pivot, each with a leading 1."""
    by_pivot: Dict[int, SparseVec] = {}
    for row in rows:
        row = field.settle(row)
        while row:
            lead = min(row)
            piv = by_pivot.get(lead)
            if piv is None:
                x = row[lead]
                if x != 1:
                    row = field.scale(row, field.inv(x))
                by_pivot[lead] = row
                break
            field.add_into(row, piv, field.neg(row[lead]))
    return by_pivot


def _rref(rows: Iterable[SparseVec], field: Field) -> Tuple[List[SparseVec], List[int]]:
    """Reduced row echelon form: forward phase, then back-substitution."""
    by_pivot = _echelon(rows, field)
    pivots = sorted(by_pivot)
    out: List[SparseVec] = [{}] * len(pivots)
    # a row only meets pivots right of its own, which are reduced already
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        row = by_pivot[c]
        for other in sorted(o for o in row if o != c and o in by_pivot):
            field.add_into(row, by_pivot[other], field.neg(row[other]))
        out[k] = {j: row[j] for j in sorted(row)}
    return out, pivots


def _check_ambient(rows: Sequence[SparseVec], ambient: int) -> None:
    for row in rows:
        if row and (min(row) < 0 or max(row) >= ambient):
            raise AmbientMismatchError(
                f"coordinates {min(row)}..{max(row)} outside ambient {ambient}")


def rref(rows: Sequence[SparseVec], ambient: int, field: Field) -> Tuple[List[SparseVec], List[int]]:
    """Reduced row echelon basis of the row span and its pivot columns."""
    if field.char == 2:
        return backend.rref_mod(rows, ambient, 2)
    return _rref(rows, field)


def rank(rows: Iterable[SparseVec], ambient: int, field: Field) -> int:
    """Dimension of the row span; forward elimination only, no basis built."""
    rows = list(rows)
    _check_ambient(rows, ambient)
    if field.char == 2:
        return backend.rank_mod(rows, 2)
    return len(_echelon(rows, field))


class Subspace:
    """A linear subspace held as a reduced-echelon row basis."""

    def __init__(self, ambient: int, field: Field, rows: List[SparseVec], pivots: List[int]):
        self.ambient = ambient
        self.field = field
        self.rows = rows
        self.pivots = pivots
        self._pivot_pos = {c: k for k, c in enumerate(pivots)}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient} over {self.field})"

    def reduce(self, v: SparseVec) -> SparseVec:
        """Eliminate this subspace's pivots from v; zero iff v is a member.

        One in-place pass over the pivots that v meets, ascending: a reduced
        echelon row is zero at every other pivot, so a step never touches
        the pivot entries that the later steps read."""
        v = dict(v)
        field = self.field
        pos = self._pivot_pos
        for c in sorted(c for c in v if c in pos):
            field.add_into(v, self.rows[pos[c]], field.neg(v[c]))
        return v

    def contains(self, v: SparseVec) -> bool:
        return vec_is_zero(self.reduce(v))

    def coords(self, v: SparseVec) -> Optional[List[object]]:
        """Coordinates of v in the echelon basis, or None if v is outside."""
        if not self.contains(v):
            return None
        return [v.get(c, self.field.zero) for c in self.pivots]

    def basis_checked(self) -> List[SparseVec]:
        return list(self.rows)


def echelonize(rows: Iterable[SparseVec], ambient: int, field: Field) -> Subspace:
    """Reduced echelon subspace spanned by the given rows."""
    rows = list(rows)
    _check_ambient(rows, ambient)
    red, pivots = rref(rows, ambient, field)
    return Subspace(ambient, field, red, pivots)


def zero_subspace(ambient: int, field: Field) -> Subspace:
    return Subspace(ambient, field, [], [])


def full_subspace(ambient: int, field: Field) -> Subspace:
    rows = [{i: field.one} for i in range(ambient)]
    return Subspace(ambient, field, rows, list(range(ambient)))


class LinearMap:
    """A linear map in coordinates, stored column-wise (images of basis vectors)."""

    def __init__(self, domain_dim: int, codomain_dim: int, cols: List[SparseVec], field: Field):
        if len(cols) != domain_dim:
            raise ValueError("one column per domain basis vector required")
        self.domain_dim = domain_dim
        self.codomain_dim = codomain_dim
        self.cols = cols
        self.field = field

    @classmethod
    def zero(cls, domain_dim: int, codomain_dim: int, field: Field) -> "LinearMap":
        return cls(domain_dim, codomain_dim, [{} for _ in range(domain_dim)], field)

    @classmethod
    def identity(cls, dim: int, field: Field) -> "LinearMap":
        return cls(dim, dim, [{i: field.one} for i in range(dim)], field)

    def rows(self) -> List[SparseVec]:
        out: List[SparseVec] = [dict() for _ in range(self.codomain_dim)]
        for j, col in enumerate(self.cols):
            for i, x in col.items():
                out[i][j] = x
        return out

    def rank(self) -> int:
        return rank(self.cols, self.codomain_dim, self.field)


def kernel(m: LinearMap) -> Subspace:
    """Null space of a linear map; rank-nullity holds exactly."""
    field = m.field
    red, pivots = rref(m.rows(), m.domain_dim, field)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.domain_dim) if c not in pivot_set]
    basis: List[SparseVec] = []
    for f in free_cols:
        v: SparseVec = {f: field.one}
        for k, c in enumerate(pivots):
            x = red[k].get(f)
            if x is not None:
                v[c] = field.neg(x)
        basis.append(v)
    return echelonize(basis, m.domain_dim, field)


def image(m: LinearMap) -> Subspace:
    return echelonize(m.cols, m.codomain_dim, m.field)


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space."""
    u.field.require_same(v.field)
    if u.ambient != v.ambient:
        raise AmbientMismatchError(f"ambient mismatch: {u.ambient} vs {v.ambient}")
    field = u.field
    if u.dim == 0 or v.dim == 0:
        return zero_subspace(u.ambient, field)
    # solve sum a_i u_i - sum b_j v_j = 0; columns indexed by (a, b)
    cols: List[SparseVec] = [dict(r) for r in u.rows]
    cols += [field.scale(r, field.neg(field.one)) for r in v.rows]
    m = LinearMap(u.dim + v.dim, u.ambient, cols, field)
    ker = kernel(m)
    vecs = []
    for w in ker.rows:
        vec: SparseVec = {}
        for i, c in w.items():
            if i < u.dim:
                field.add_into(vec, u.rows[i], c)
        vecs.append(vec)
    return echelonize(vecs, u.ambient, field)


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    u.field.require_same(v.field)
    if u.ambient != v.ambient:
        raise AmbientMismatchError(f"ambient mismatch: {u.ambient} vs {v.ambient}")
    return echelonize(list(u.rows) + list(v.rows), u.ambient, u.field)


class SpanSolver:
    """Solve for coordinates of vectors in the span of a fixed sequence.

    The spanning vectors need not be independent; coordinates returned are
    the deterministic ones obtained from the tracked row reduction.
    """

    def __init__(self, vectors: Sequence[SparseVec], ambient: int, field: Field):
        self.vectors = list(vectors)
        self.ambient = ambient
        self.field = field
        n = len(self.vectors)
        # reduce rows while tracking the transform in trailing coordinates
        shifted = []
        for k, vec in enumerate(self.vectors):
            row = dict(vec)
            row[ambient + k] = field.one
            shifted.append(row)
        red, pivots = rref(shifted, ambient + n, field)
        self._n = n
        # per pivot inside the ambient space: the row's ambient part and its
        # transform part, shifted back to vector indices
        self._split = {c: ({i: y for i, y in row.items() if i < ambient},
                           {i - ambient: y for i, y in row.items() if i >= ambient})
                       for row, c in zip(red, pivots) if c < ambient}

    def solve(self, target: SparseVec) -> Optional[List[object]]:
        """Coefficients c with sum c_k * vectors[k] = target, or None.

        Reduces in place over the pivots that target meets, as
        :meth:`Subspace.reduce` does."""
        field = self.field
        split = self._split
        v = dict(target)
        coeffs: SparseVec = {}
        for c in sorted(c for c in v if c in split):
            x = v[c]
            head, tail = split[c]
            field.add_into(v, head, field.neg(x))
            field.add_into(coeffs, tail, x)
        if v:
            return None
        return [coeffs.get(k, field.zero) for k in range(self._n)]


class NotInSubspaceError(ValueError):
    """Raised when a vector expected inside a subspace is not a member."""


class QuotientSpace:
    """Quotient Z/B with deterministic representatives.

    Representatives extend an echelon basis of B to Z: they are the reduced
    echelon vectors of Z whose pivots are not pivots of B, in pivot order.
    """

    def __init__(self, z: Subspace, b: Subspace):
        z.field.require_same(b.field)
        if z.ambient != b.ambient:
            raise AmbientMismatchError("numerator and denominator ambient mismatch")
        for row in b.rows:
            if not z.contains(row):
                raise NotInSubspaceError("denominator is not contained in numerator")
        self.z = z
        self.b = b
        b_pivots = set(b.pivots)
        self.rep_pivots = [c for c in z.pivots if c not in b_pivots]
        self.representatives = [z.rows[z._pivot_pos[c]] for c in self.rep_pivots]

    @property
    def dim(self) -> int:
        return self.z.dim - self.b.dim

    def coords(self, v: SparseVec) -> List[object]:
        """Coordinates of v modulo B in the representative basis."""
        if not self.z.contains(v):
            raise NotInSubspaceError("not a cocycle/cycle: vector outside the numerator")
        reduced = self.b.reduce(v)
        return [reduced.get(c, self.z.field.zero) for c in self.rep_pivots]
