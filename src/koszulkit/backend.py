"""Sparse row reduction over GF(2) on bit rows.

A row comes in as a sparse map ``column -> int`` (zero entries may be absent
or present, values are taken mod 2) and is packed into a Python int, one bit
per column, eliminated by XOR with the pivot keyed by its lowest set bit (the
packed-row idea of M4RI).  Two entry points share one forward elimination:

- ``rref_mod(rows, ncols, p)`` returns ``(reduced_rows, pivot_cols)``: the
  reduced row echelon basis (values 1, keys ascending), rows ordered by
  pivot column;
- ``rank_mod(rows, p)`` returns the rank and builds no reduced basis.

Both refuse every p other than 2: odd p and the rationals go to the dict-row
eliminator in :mod:`koszulkit.linalg`.  Rows are taken in input order and
each is reduced on its leftmost nonzero column, so the echelon form is
deterministic; the reduced form is unique.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

KERNEL_KIND = "pure"

Row = Dict[int, int]


def _require_gf2(p: int) -> None:
    if p != 2:
        raise ValueError(f"the bit-row kernel works over GF(2) only, not GF({p})")


def rank_mod(rows: Iterable[Row], p: int) -> int:
    """Rank over GF(2) of the sparse rows."""
    _require_gf2(p)
    return len(_echelon_gf2(rows))


def rref_mod(rows: Iterable[Row], ncols: int, p: int) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form over GF(2) of sparse rows in ``ncols`` columns."""
    _require_gf2(p)
    return _rref_gf2(rows)


def _echelon_gf2(rows: Iterable[Row]) -> Dict[int, int]:
    """Echelon bit rows keyed by pivot column (the lowest set bit)."""
    by_pivot: Dict[int, int] = {}
    for row in rows:
        x = 0
        for c, v in row.items():
            if v & 1:
                x |= 1 << c
        while x:
            lead = (x & -x).bit_length() - 1
            piv = by_pivot.get(lead)
            if piv is None:
                by_pivot[lead] = x
                break
            x ^= piv
    return by_pivot


def _rref_gf2(rows: Iterable[Row]) -> Tuple[List[Row], List[int]]:
    by_pivot = _echelon_gf2(rows)
    pivots = sorted(by_pivot)
    mask = 0
    for c in pivots:
        mask |= 1 << c
    out: List[Row] = [{}] * len(pivots)
    # a row only meets pivots right of its own, which are reduced already
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        x = by_pivot[c]
        others = (x & mask) ^ (1 << c)
        while others:
            low = others & -others
            x ^= by_pivot[low.bit_length() - 1]
            others ^= low
        by_pivot[c] = x
        out[k] = _bits_to_row(x)
    return out, pivots


def _bits_to_row(x: int) -> Row:
    bits = bin(x)[:1:-1]
    out: Row = {}
    i = bits.find("1")
    while i >= 0:
        out[i] = 1
        i = bits.find("1", i + 1)
    return out
