"""Exact linear algebra over the rationals and prime fields.

Vectors are sparse maps ``index -> scalar`` (zeros never stored); matrices
are lists of sparse rows or columns.  Each function takes its rows (or a
map's columns), the number of coordinates they live in and the field, and
runs one sparse elimination:

- ``rank(rows, ambient, field)`` runs the forward phase only and returns the
  dimension of the row span; no basis is built;
- ``rref(rows, ambient, field)`` adds back-substitution and returns the
  reduced row echelon basis (keys ascending) with its pivot columns;
- ``echelonize(rows, ambient, field)`` holds that basis as a ``Subspace``;
- ``kernel(cols, codim, field)`` is the null space of the map whose columns
  are given, with ``codim`` coordinates in its target;
- ``intersect(us, vs, ambient, field)`` is the intersection of two spans;
- ``SpanSolver(vectors, ambient, field)`` is a span with the coordinates of
  its basis rows over the spanning list.

Coordinates outside ``0..ambient-1`` are refused with
``AmbientMismatchError``.  Rows are taken in input order and each is
reduced on its leftmost nonzero column, so every derived basis (kernels,
intersections, quotient representatives) is reproducible byte for byte.
A kernel is read off one ``rref`` of the rows with the columns relabelled
right to left: its free-column solutions are then already the reduced
echelon basis (see ``kernel``).  An intersection is read off one ``rref``
of the doubled rows (x, x) and (y, 0) (Zassenhaus, see ``intersect``), so
neither span is eliminated on its own.  The one dict-row
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
        return backend.rref_mod(rows, ambient)
    return _rref(rows, field)


def rank(rows: Iterable[SparseVec], ambient: int, field: Field) -> int:
    """Dimension of the row span; forward elimination only, no basis built."""
    rows = list(rows)
    _check_ambient(rows, ambient)
    if field.char == 2:
        return backend.rank_bits(map(backend.pack, rows))
    return len(_echelon(rows, field))


class Subspace:
    """A linear subspace held as a reduced-echelon row basis."""

    def __init__(self, ambient: int, field: Field, rows: List[SparseVec], pivots: List[int]):
        self.ambient = ambient
        self.field = field
        self.rows = rows
        self.pivots = pivots
        self.pivot_pos = {c: k for k, c in enumerate(pivots)}

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
        pos = self.pivot_pos
        for c in sorted(c for c in v if c in pos):
            field.add_into(v, self.rows[pos[c]], field.neg(v[c]))
        return v

    def contains(self, v: SparseVec) -> bool:
        return not self.reduce(v)

    def coords(self, v: SparseVec) -> Optional[List[object]]:
        """Coordinates of v in the echelon basis, or None if v is outside."""
        if not self.contains(v):
            return None
        return [v.get(c, self.field.zero) for c in self.pivots]


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


def kernel(cols: Sequence[SparseVec], codim: int, field: Field) -> Subspace:
    """Null space of the map with the given columns into ``codim``
    coordinates, as its reduced echelon basis, from one elimination;
    rank-nullity holds exactly.

    The rows are reduced with the columns relabelled c -> n-1-c, so each
    reduced row is x_P + sum r_F x_F = 0 over free columns F left of its
    pivot P.  The kernel vector of a free column f, e_f - sum_k r_{k,f} e_{P_k},
    then leads at f and is zero at every other free column: these vectors
    are the unique reduced echelon basis, with the free columns as pivots.
    A map out of or into the zero space needs no elimination."""
    n = len(cols)
    last = n - 1
    flipped: List[SparseVec] = [dict() for _ in range(codim)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            if not 0 <= i < codim:
                raise AmbientMismatchError(f"coordinate {i} outside ambient {codim}")
            flipped[i][last - j] = x
    if not n or not codim:
        return full_subspace(n, field)
    red, pivots = rref(flipped, n, field)
    pivot_set = {last - c for c in pivots}
    free = [f for f in range(n) if f not in pivot_set]
    basis = {f: {f: field.one} for f in free}
    # original pivot columns ascending, so each vector's keys stay ascending
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        for j, x in red[k].items():
            if j != c:
                basis[last - j][last - c] = field.neg(x)
    return Subspace(n, field, [basis[f] for f in free], free)


def intersect(us: Sequence[SparseVec], vs: Sequence[SparseVec], ambient: int,
              field: Field) -> Subspace:
    """Intersection of the spans of ``us`` and ``vs`` (Zassenhaus), from one
    elimination.

    The rows (x, x) for x in us and (y, 0) for y in vs, the right half
    shifted by ``ambient``, are reduced together.  A row of the span with
    a zero left half is (sum a_i u_i, sum a_i u_i) + (sum b_j v_j, 0) with
    sum a_i u_i = -sum b_j v_j, so its right half lies in both spans, and
    every vector of both is one.  Those rows are the reduced rows with a
    pivot in the right half: their right halves are the unique reduced
    echelon basis of the intersection."""
    for span in (us, vs):
        _check_ambient(span, ambient)
    rows = [{**x, **{ambient + i: c for i, c in x.items()}} for x in us]
    red, pivots = rref(rows + list(vs), 2 * ambient, field)
    k = sum(c < ambient for c in pivots)  # pivots ascend: the tail is the intersection
    basis = [{i - ambient: c for i, c in row.items()} for row in red[k:]]
    return Subspace(ambient, field, basis, [c - ambient for c in pivots[k:]])


class SpanSolver:
    """The span of a fixed list of vectors, with each basis row's
    coordinates over that list, from one elimination.

    The rows v_k + e_(ambient+k) are reduced together.  Each reduced row
    with its pivot below ``ambient`` is (b, t) with b = sum_k t_k v_k, and
    the b are the reduced echelon basis of the span, which is unique, so
    ``span`` is the ``Subspace`` that ``echelonize`` builds and ``coords[i]``
    holds the nonzero t_k of ``span.rows[i]``, keys ascending."""

    def __init__(self, vectors: Sequence[SparseVec], ambient: int, field: Field):
        _check_ambient(vectors, ambient)
        rows = [{**vec, ambient + k: field.one} for k, vec in enumerate(vectors)]
        red, pivots = rref(rows, ambient + len(rows), field)
        k = sum(c < ambient for c in pivots)  # pivots ascend: the head is the span
        self.span = Subspace(ambient, field,
                             [{i: c for i, c in row.items() if i < ambient} for row in red[:k]],
                             pivots[:k])
        self.coords: List[SparseVec] = [
            {i - ambient: c for i, c in row.items() if i >= ambient} for row in red[:k]]


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
        if z is not b and not all(z.contains(row) for row in b.rows):
            raise NotInSubspaceError("denominator is not contained in numerator")
        self.z = z
        self.b = b
        b_pivots = set(b.pivots)
        self.rep_pivots = [c for c in z.pivots if c not in b_pivots]
        self.representatives = [z.rows[z.pivot_pos[c]] for c in self.rep_pivots]

    @property
    def dim(self) -> int:
        return self.z.dim - self.b.dim

    def coords(self, v: SparseVec) -> List[object]:
        """Coordinates of v modulo B in the representative basis, from one
        reduction.  The pivots of Z are those of B and the representative
        pivots, disjointly, so v is in Z iff what is left of v after reducing
        by B and subtracting each representative times its pivot entry is
        zero; those entries are the coordinates."""
        field = self.z.field
        reduced = self.b.reduce(v)
        out = [reduced.get(c, field.zero) for c in self.rep_pivots]
        for c, rep in zip(out, self.representatives):
            if not field.is_zero(c):
                field.add_into(reduced, rep, field.neg(c))
        if reduced:
            raise NotInSubspaceError("not a cocycle/cycle: vector outside the numerator")
        return out
