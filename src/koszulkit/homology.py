"""Graded (co)homology of the Koszul complexes, classes, higher calculus.

All spaces are computed blockwise in the biweight: the differentials are
homogeneous (degree +1, coefficient weight +1 on cochains; degree -1,
coefficient weight +1 on chains), so each (degree, weight) block is an
independent exact-linear-algebra problem.  Representatives follow the
deterministic quotient rule of :mod:`koszulkit.linalg`.

Every matrix here is read off the term table of
:meth:`koszulkit.koszul.KoszulCalculus.terms` (its conventions are in the
:mod:`koszulkit.koszul` docstring).  The (co)chain blocks of b_K use all of
its terms; the higher calculus, e_A cup - on cochains and e_A cap - (left)
on chains, uses the left-acting terms with their sign flipped; the bimodule
complex A (x) W_p (x) A uses the chain terms, a right-acting term
multiplying the left coefficient slot on its right and a left-acting term
multiplying the right slot on its left.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .koszul import Chain, Cochain, KoszulCalculus, MODULE_A, MODULE_K, NotClosedError
from .linalg import (LinearMap, QuotientSpace, SparseVec, full_subspace, image,
                     kernel, rank, zero_subspace)


class CoordSpace:
    """Flat coordinates of a cochain or chain space at one biweight."""

    def __init__(self, kd: KoszulCalculus, p: int, m: Optional[int], module: str,
                 side: str):
        self.kd = kd
        self.p = p
        self.m = m
        self.module = module
        self.side = side
        ws = kd.w(p)
        coords: List[Tuple[int, int]] = []
        if module == MODULE_A:
            alg = kd.algebra
            for flat_idx in range(ws.dim):
                j, i = ws.block_of(flat_idx)
                tgt, src = (j, i) if side == "coh" else (i, j)
                for pos in alg.block_positions(m, tgt, src):
                    coords.append((flat_idx, pos))
        else:
            for flat_idx in range(ws.dim):
                j, i = ws.block_of(flat_idx)
                if j == i:
                    coords.append((flat_idx, i))
        self.coords = coords
        self.index = {c: k for k, c in enumerate(coords)}

    @property
    def dim(self) -> int:
        return len(self.coords)

    def flatten(self, obj) -> SparseVec:
        field = self.kd.field
        out: SparseVec = {}
        for flat_idx, val in obj.values.items():
            if self.module == MODULE_A:
                for (m, pos), c in val.items():
                    if m != self.m:
                        raise ValueError("flatten requires a weight-homogeneous value")
                    out[self.index[(flat_idx, pos)]] = c
            else:
                j, i = self.kd.w(self.p).block_of(flat_idx)
                if not field.is_zero(val):
                    out[self.index[(flat_idx, i)]] = val
        return out

    def unflatten(self, vec: SparseVec):
        values: Dict[int, object] = {}
        for k, c in vec.items():
            flat_idx, pos = self.coords[k]
            if self.module == MODULE_A:
                cur = values.setdefault(flat_idx, {})
                cur[(self.m, pos)] = c
            else:
                values[flat_idx] = c
        if self.side == "coh":
            return Cochain(self.kd, self.p, self.module, values)
        return Chain(self.kd, self.p, self.module, values)


def _block_images(src: CoordSpace, dst: CoordSpace, vecs: Sequence[SparseVec],
                  higher: bool = False) -> List[SparseVec]:
    """Images in dst coordinates of src coordinate vectors under b_K, or,
    when ``higher``, under e_A cup - / e_A cap - (left-acting terms negated)."""
    if src.module != MODULE_A:
        return [{} for _ in vecs]  # arrows act by zero on k
    kd = src.kd
    field = kd.field
    m = src.m
    terms = kd.terms(src.p, src.side)
    rmul = kd.algebra.rmul_table(m)
    mono = kd.algebra.mono_product
    index = dst.index
    out: List[SparseVec] = []
    for vec in vecs:
        col: SparseVec = {}
        for k, x in vec.items():
            flat, pos = src.coords[k]
            for right, a, t, c in terms[flat]:
                if right:
                    if higher:
                        continue
                    prod = rmul.get((pos, a))
                else:
                    prod = mono(1, a, m, pos)
                    if higher:
                        c = -c
                if not prod:
                    continue
                xc = x * c
                for npos, w in prod.items():
                    kk = index[(t, npos)]
                    col[kk] = col.get(kk, 0) + xc * w
        out.append(field.settle(col))
    return out


def _shifted(m: Optional[int], dm: int) -> Optional[int]:
    """Coefficient weight m + dm; None (the module k) stays None."""
    return None if m is None else m + dm


def _homology(mats: Dict[Tuple[int, Optional[int]], LinearMap], p: int,
              m: Optional[int], step: int, dim: int, field) -> QuotientSpace:
    """ker(d out of block (p, m)) / im(d into it), for the maps of a complex
    of degree ``step`` and weight +1 keyed by source block; a missing map
    is zero."""
    d_out = mats.get((p, m))
    d_in = mats.get((p - step, _shifted(m, -1)))
    z = kernel(d_out) if d_out is not None else full_subspace(dim, field)
    b = image(d_in) if d_in is not None else zero_subspace(dim, field)
    return QuotientSpace(z, b)


class _GradedDims:
    """Dimensions of a family of (degree, weight) blocks, each with a dim."""

    blocks: Dict[Tuple[int, Optional[int]], object]
    p_max: int

    def dim(self, p: int) -> int:
        return sum(blk.dim for (pp, _m), blk in self.blocks.items() if pp == p)

    def dims(self) -> List[int]:
        return [self.dim(p) for p in range(self.p_max + 1)]

    def bigraded_dims(self, p: int) -> Dict[Optional[int], int]:
        out = {}
        for (pp, m), blk in sorted(self.blocks.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0)):
            if pp == p and blk.dim:
                out[m] = blk.dim
        return out


class HomologyBlock:
    def __init__(self, space: CoordSpace, quotient: QuotientSpace):
        self.space = space
        self.quotient = quotient
        self.reps = [space.unflatten(r) for r in quotient.representatives]

    @property
    def dim(self) -> int:
        return self.quotient.dim


class CalculusSpaces(_GradedDims):
    """HK^p(A, M) or HK_p(A, M) with biweight grading and representatives."""

    def __init__(self, kd: KoszulCalculus, module: str, side: str, p_max: int):
        self.kd = kd
        self.module = module
        self.side = side
        self.p_max = p_max
        self.blocks: Dict[Tuple[int, Optional[int]], HomologyBlock] = {}
        self._layouts: Dict[int, Tuple[int, Dict[Optional[int], Tuple[int, HomologyBlock]]]] = {}
        self._compute()

    def weights(self) -> List[Optional[int]]:
        """Coefficient weights of the blocks, ascending; [None] for k."""
        if self.module == MODULE_K:
            return [None]
        alg = self.kd.algebra
        if alg.truncated:
            # differentials raise the coefficient weight: stay below the cutoff
            return list(range(alg.max_weight))
        return list(range(alg.max_weight + 1))

    def _compute(self) -> None:
        kd = self.kd
        field = kd.field
        one = field.one
        step = 1 if self.side == "coh" else -1
        top = self.p_max + 1
        spaces: Dict[Tuple[int, Optional[int]], CoordSpace] = {}

        def space(p: int, m: Optional[int]) -> CoordSpace:
            if (p, m) not in spaces:
                spaces[(p, m)] = CoordSpace(kd, p, m, self.module, self.side)
            return spaces[(p, m)]

        # b_K out of every block that a kernel or an image below needs
        mats: Dict[Tuple[int, Optional[int]], LinearMap] = {}
        for p in range(top + 1):
            if not 0 <= p + step <= top:
                continue
            for m in self.weights():
                src, dst = space(p, m), space(p + step, _shifted(m, 1))
                units = [{k: one} for k in range(src.dim)]
                mats[(p, m)] = LinearMap(src.dim, dst.dim, _block_images(src, dst, units),
                                         field)
        for p in range(self.p_max + 1):
            for m in self.weights():
                sp = space(p, m)
                self.blocks[(p, m)] = HomologyBlock(
                    sp, _homology(mats, p, m, step, sp.dim, field))

    # -- classes ------------------------------------------------------------

    def class_basis(self, p: int) -> List[Tuple[Optional[int], int]]:
        out = []
        for m in self.weights():
            blk = self.blocks.get((p, m))
            if blk:
                out.extend((m, k) for k in range(blk.dim))
        return out

    def representatives(self, p: int):
        out = []
        for m, k in self.class_basis(p):
            out.append(self.blocks[(p, m)].reps[k])
        return out

    def class_of(self, obj) -> List[object]:
        """Coordinates of a closed cochain/chain in the representative basis.

        Closedness is checked on the whole element first; then only the
        weight blocks it touches are solved, and the others read zero."""
        kd = self.kd
        if self.side == "coh":
            if not isinstance(obj, Cochain) or obj.p > self.p_max:
                raise NotClosedError("not a cochain in the computed range")
            if not kd.apply_bK(obj).is_zero():
                raise NotClosedError("not a cocycle: differential is nonzero")
        else:
            if not isinstance(obj, Chain) or obj.q > self.p_max:
                raise NotClosedError("not a chain in the computed range")
            if not kd.apply_bK_chain(obj).is_zero():
                raise NotClosedError("not a cycle: differential is nonzero")
        p = obj.p if self.side == "coh" else obj.q
        total, offsets = self._layout(p)
        coords: List[object] = [kd.field.zero] * total
        touched = obj.coefficient_weights() if self.module == MODULE_A else [None]
        for m in touched:
            hit = offsets.get(m)
            if hit is None:
                continue
            start, blk = hit
            comp = obj if len(touched) == 1 else obj.weight_component(m)
            coords[start:start + blk.dim] = blk.quotient.coords(blk.space.flatten(comp))
        return coords

    def _layout(self, p: int) -> Tuple[int, Dict[Optional[int], Tuple[int, HomologyBlock]]]:
        """Length of the class coordinates of degree p, and the offset of each
        weight block with a nonzero cochain or chain space, in class_basis order."""
        layout = self._layouts.get(p)
        if layout is None:
            offsets: Dict[Optional[int], Tuple[int, HomologyBlock]] = {}
            total = 0
            for m in self.weights():
                blk = self.blocks.get((p, m))
                if blk is None or blk.space.dim == 0:
                    continue
                offsets[m] = (total, blk)
                total += blk.dim
            layout = self._layouts[p] = (total, offsets)
        return layout

    def zero_class(self, p: int) -> List[object]:
        return [self.kd.field.zero] * len(self.class_basis(p))


def koszul_homology(kd: KoszulCalculus, module: str, side: str,
                    p_max: Optional[int] = None) -> CalculusSpaces:
    """Compute HK^*(A, M) (side="coh") or HK_*(A, M) (side="hom").

    For M = k the Koszul differentials vanish and the result is checked
    against the closed form: the diagonal blocks of the W spaces.
    """
    if p_max is None:
        p_max = kd.p_max
    spaces = CalculusSpaces(kd, module, side, p_max)
    if module == MODULE_K:
        for p in range(p_max + 1):
            expected = sum(len(idxs) for (j, i), idxs in kd.w(p).flat_of_block.items()
                           if j == i)
            if spaces.dim(p) != expected:
                raise AssertionError(
                    f"scalar Koszul homology at degree {p} differs from the diagonal "
                    f"W block dimension ({spaces.dim(p)} vs {expected})")
    return spaces


# -- higher Koszul calculus ---------------------------------------------------


class HigherSpaces(_GradedDims):
    """Homology of the class-level complexes of the fundamental 1-cocycle:
    e_A cup - on HK^ and e_A cap - (left) on HK_."""

    def __init__(self, spaces: CalculusSpaces):
        self.spaces = spaces
        self.p_max = spaces.p_max
        field = spaces.kd.field
        step = 1 if spaces.side == "coh" else -1
        self.blocks: Dict[Tuple[int, Optional[int]], QuotientSpace] = {}
        mats: Dict[Tuple[int, Optional[int]], LinearMap] = {}
        for (p, m), blk in spaces.blocks.items():
            tblk = spaces.blocks.get((p + step, _shifted(m, 1)))
            if tblk is None or tblk.dim == 0:
                mats[(p, m)] = LinearMap.zero(blk.dim, 0, field)
                continue
            imgs = _block_images(blk.space, tblk.space, blk.quotient.representatives,
                                 higher=True)
            cols = [{k: c for k, c in enumerate(tblk.quotient.coords(img))
                     if not field.is_zero(c)} for img in imgs]
            mats[(p, m)] = LinearMap(blk.dim, tblk.dim, cols, field)
        for (p, m), blk in spaces.blocks.items():
            self.blocks[(p, m)] = _homology(mats, p, m, step, blk.dim, field)

    def class_in_kernel(self, obj) -> bool:
        """Whether a closed element's higher differential vanishes at class level."""
        spaces = self.spaces
        coords = spaces.class_of(obj)
        field = spaces.kd.field
        # blockwise kernel membership, over the class coordinate segments
        _total, offsets = spaces._layout(obj.degree)
        for m, (start, blk) in offsets.items():
            vec = {i: c for i, c in enumerate(coords[start:start + blk.dim])
                   if not field.is_zero(c)}
            if vec and not self.blocks[(obj.degree, m)].z.contains(vec):
                return False
        return True


def higher_calculus(spaces: CalculusSpaces) -> HigherSpaces:
    return HigherSpaces(spaces)


# -- homology of the bimodule Koszul complex ----------------------------------


class BimoduleHomology:
    """Graded dimensions of H_*(K(A)) with K_p = A (x) W_p (x) A."""

    def __init__(self, kd: KoszulCalculus, p_max: int, weight_cutoff: Optional[int] = None):
        self.kd = kd
        self.p_max = p_max
        alg = kd.algebra
        field = kd.field
        if weight_cutoff is None:
            if not alg.finite:
                raise ValueError("a weight cutoff is required for non-vanishing algebras")
            weight_cutoff = 2 * alg.max_weight + max(
                (kd.w(p).p for p in range(p_max + 2) if kd.w(p).dim), default=0)
        self.weight_cutoff = weight_cutoff
        self.inconclusive = alg.truncated
        dims: Dict[Tuple[int, int], int] = {}
        ranks: Dict[Tuple[int, int], int] = {}
        n_vertices = kd.quiver.n_vertices
        for u in range(n_vertices):
            for v in range(n_vertices):
                self._process_pair(u, v, dims, ranks)
        self.dims = dims
        self.ranks = ranks

    def _coords(self, p: int, u: int, v: int) -> Dict[int, List[Tuple[int, int, int, int]]]:
        """Coordinates (wflat, posL, posR, r) of e_u K_p e_v grouped by total weight."""
        alg = self.kd.algebra
        weights = range(alg.max_weight + 1)
        out: Dict[int, List[Tuple[int, int, int, int]]] = {}
        for (j, i), flats in self.kd.w(p).flat_of_block.items():
            lefts = [alg.block_positions(r, u, j) for r in weights]
            rights = [alg.block_positions(s, i, v) for s in weights]
            # (left weight, total weight, left positions, right positions)
            slots = [(r, r + p + s, lefts[r], rights[s]) for r in weights for s in weights
                     if lefts[r] and rights[s] and r + p + s <= self.weight_cutoff]
            for flat_idx in flats:
                for r, n, left, right in slots:
                    bucket = out.setdefault(n, [])
                    for posL in left:
                        for posR in right:
                            bucket.append((flat_idx, posL, posR, r))
        return out

    def _process_pair(self, u: int, v: int, dims, ranks) -> None:
        kd = self.kd
        alg = kd.algebra
        field = kd.field
        mono = alg.mono_product
        coords = {p: self._coords(p, u, v) for p in range(self.p_max + 2)}
        # index keys carry the left weight: a bare position is ambiguous
        index = {p: {n: {(c[0], c[3], c[1], c[2]): k for k, c in enumerate(cs)}
                     for n, cs in coords[p].items()}
                 for p in coords}
        for p in range(self.p_max + 2):
            for n, cs in coords[p].items():
                dims[(p, n)] = dims.get((p, n), 0) + len(cs)
        for p in range(1, self.p_max + 2):
            terms = kd.terms(p, "hom")
            for n, cs in coords[p].items():
                tgt_index = index[p - 1].get(n)
                if not tgt_index:
                    continue
                cols: List[SparseVec] = []
                for (wflat, posL, posR, r) in cs:
                    col: SparseVec = {}
                    rmul = alg.rmul_table(r)
                    s = n - p - r
                    # a right-acting term multiplies the left slot on its right,
                    # a left-acting term the right slot on its left
                    for right, a, y, c in terms[wflat]:
                        prod = rmul.get((posL, a)) if right else mono(1, a, s, posR)
                        if not prod:
                            continue
                        for npos, w in prod.items():
                            k = tgt_index.get((y, r + 1, npos, posR) if right
                                              else (y, r, posL, npos))
                            if k is not None:
                                col[k] = col.get(k, 0) + c * w
                    cols.append(field.settle(col))
                ranks[(p, n)] = ranks.get((p, n), 0) + rank(cols, len(coords[p - 1][n]), field)

    def homology_dim(self, p: int, n: int) -> int:
        return (self.dims.get((p, n), 0) - self.ranks.get((p, n), 0)
                - self.ranks.get((p + 1, n), 0))

    def homology_table(self) -> Dict[int, Dict[int, int]]:
        out: Dict[int, Dict[int, int]] = {}
        for p in range(self.p_max + 1):
            row = {}
            for n in sorted({n for (pp, n) in self.dims if pp == p}):
                h = self.homology_dim(p, n)
                if h:
                    row[n] = h
            out[p] = row
        return out

    def koszul_up_to_cutoff(self) -> bool:
        """H_p of K(A) vanishes for every p >= 2 up to the weight cutoff."""
        table = self.homology_table()
        return all(not table.get(p) for p in range(2, self.p_max + 1))
