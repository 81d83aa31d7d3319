"""Sparse row reduction over prime fields.

Rows are sparse maps ``column -> int``; zero entries may be absent or
present, and values are reduced mod p on entry.  Two entry points share one
forward elimination:

- ``rref_mod(rows, ncols, p)`` returns ``(reduced_rows, pivot_cols)``: the
  reduced row echelon basis (values in ``[0, p)``, keys ascending), rows
  ordered by pivot column;
- ``rank_mod(rows, p)`` returns the rank and builds no reduced basis.

Rows are taken in input order and each is reduced on its leftmost nonzero
column, so the echelon form is deterministic; the reduced form is unique.
Over GF(2) a row is a Python int, one bit per column, eliminated by XOR with
the pivot keyed by its lowest set bit (the packed-row idea of M4RI).  Over
odd p a row stays a dict and the arithmetic is inline ``% p``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

KERNEL_KIND = "pure"

Row = Dict[int, int]


def rank_mod(rows: Iterable[Row], p: int) -> int:
    """Rank over GF(p) of the sparse rows."""
    if p == 2:
        return len(_echelon_gf2(rows))
    return len(_echelon_odd(rows, p))


def rref_mod(rows: Iterable[Row], ncols: int, p: int) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form over GF(p) of sparse rows in ``ncols`` columns."""
    if p == 2:
        return _rref_gf2(rows)
    return _rref_odd(rows, p)


# -- GF(2): bit rows ------------------------------------------------------------


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


# -- odd p: dict rows ------------------------------------------------------------


def _echelon_odd(rows: Iterable[Row], p: int) -> Dict[int, Row]:
    """Echelon rows keyed by pivot column, each scaled to a leading 1."""
    by_pivot: Dict[int, Row] = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            lead = min(row)
            piv = by_pivot.get(lead)
            if piv is None:
                inv = pow(row[lead], p - 2, p)
                if inv != 1:
                    row = {c: v * inv % p for c, v in row.items()}
                by_pivot[lead] = row
                break
            _sub_multiple(row, piv, row[lead], p)
    return by_pivot


def _sub_multiple(row: Row, piv: Row, f: int, p: int) -> None:
    """row -= f * piv mod p in place, dropping the entries that cancel."""
    f = p - f
    for c, v in piv.items():
        x = (row.get(c, 0) + f * v) % p
        if x:
            row[c] = x
        else:
            row.pop(c, None)


def _rref_odd(rows: Iterable[Row], p: int) -> Tuple[List[Row], List[int]]:
    by_pivot = _echelon_odd(rows, p)
    pivots = sorted(by_pivot)
    out: List[Row] = [{}] * len(pivots)
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        row = by_pivot[c]
        for other in sorted(o for o in row if o != c and o in by_pivot):
            _sub_multiple(row, by_pivot[other], row[other], p)
        out[k] = {j: row[j] for j in sorted(row)}
    return out, pivots
