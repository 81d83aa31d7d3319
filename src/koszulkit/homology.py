"""Graded (co)homology of the Koszul complexes, classes, higher calculus.

All spaces are computed blockwise in the biweight: the differentials are
homogeneous (degree +1, coefficient weight +1 on cochains; degree -1,
coefficient weight +1 on chains), so each (degree, weight) block is an
independent exact-linear-algebra problem.  Representatives follow the
deterministic quotient rule of :mod:`koszulkit.linalg`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .koszul import Chain, Cochain, KoszulCalculus, MODULE_A, MODULE_K, NotClosedError
from .linalg import (LinearMap, QuotientSpace, SparseVec, echelonize, image,
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

    def unit(self, k: int):
        return self.unflatten({k: self.kd.field.one})


def _differential_matrix(src: CoordSpace, dst: CoordSpace) -> LinearMap:
    kd = src.kd
    cols: List[SparseVec] = []
    for k in range(src.dim):
        obj = src.unit(k)
        img = kd.apply_bK(obj) if src.side == "coh" else kd.apply_bK_chain(obj)
        cols.append(dst.flatten(img))
    return LinearMap(src.dim, dst.dim, cols, kd.field)


class HomologyBlock:
    def __init__(self, space: CoordSpace, quotient: QuotientSpace):
        self.space = space
        self.quotient = quotient
        self.reps = [space.unflatten(r) for r in quotient.representatives]

    @property
    def dim(self) -> int:
        return self.quotient.dim


class CalculusSpaces:
    """HK^p(A, M) or HK_p(A, M) with biweight grading and representatives."""

    def __init__(self, kd: KoszulCalculus, module: str, side: str, p_max: int):
        self.kd = kd
        self.module = module
        self.side = side
        self.p_max = p_max
        self.blocks: Dict[Tuple[int, Optional[int]], HomologyBlock] = {}
        self._compute()

    def _weights(self) -> List[Optional[int]]:
        if self.module == MODULE_K:
            return [None]
        alg = self.kd.algebra
        if alg.truncated:
            # differentials raise the coefficient weight: stay below the cutoff
            return list(range(alg.max_weight))
        return list(range(alg.max_weight + 1))

    def _space(self, p: int, m: Optional[int]) -> CoordSpace:
        return CoordSpace(self.kd, p, m, self.module, self.side)

    def _compute(self) -> None:
        kd = self.kd
        weights = self._weights()
        spaces: Dict[Tuple[int, Optional[int]], CoordSpace] = {}
        for p in range(self.p_max + 2):
            for m in weights:
                spaces[(p, m)] = self._space(p, m)

        def shifted(m: Optional[int], dm: int) -> Optional[int]:
            return None if m is None else m + dm

        mats: Dict[Tuple[int, Optional[int]], LinearMap] = {}
        if self.side == "coh":
            for p in range(self.p_max + 1):
                for m in weights:
                    dst_m = shifted(m, 1)
                    dst = spaces.get((p + 1, dst_m))
                    if dst is None:
                        dst = self._space(p + 1, dst_m) if dst_m is not None else spaces[(p + 1, None)]
                    mats[(p, m)] = _differential_matrix(spaces[(p, m)], dst)
            for p in range(self.p_max + 1):
                for m in weights:
                    z = kernel(mats[(p, m)])
                    prev_m = shifted(m, -1)
                    if p == 0 or (prev_m is not None and prev_m < 0):
                        b = zero_subspace(spaces[(p, m)].dim, kd.field)
                    else:
                        b = image(mats[(p - 1, prev_m)])
                    self.blocks[(p, m)] = HomologyBlock(spaces[(p, m)], QuotientSpace(z, b))
        else:
            for q in range(1, self.p_max + 2):
                for n in weights:
                    dst_n = shifted(n, 1)
                    dst = spaces.get((q - 1, dst_n))
                    if dst is None:
                        dst = self._space(q - 1, dst_n)
                    mats[(q, n)] = _differential_matrix(spaces[(q, n)], dst)
            for q in range(self.p_max + 1):
                for n in weights:
                    if q == 0:
                        sp = spaces[(q, n)]
                        z = echelonize([{k: kd.field.one} for k in range(sp.dim)],
                                       sp.dim, kd.field)
                    else:
                        z = kernel(mats[(q, n)])
                    prev_n = shifted(n, -1)
                    if prev_n is not None and prev_n < 0:
                        b = zero_subspace(spaces[(q, n)].dim, kd.field)
                    else:
                        b = image(mats[(q + 1, prev_n)])
                    self.blocks[(q, n)] = HomologyBlock(spaces[(q, n)], QuotientSpace(z, b))

    # -- dimensions ---------------------------------------------------------

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

    # -- classes ------------------------------------------------------------

    def class_basis(self, p: int) -> List[Tuple[Optional[int], int]]:
        out = []
        for m in self._weights():
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
        """Coordinates of a closed cochain/chain in the representative basis."""
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
        coords: List[object] = []
        for m in self._weights():
            blk = self.blocks.get((p, m))
            if blk is None or blk.space.dim == 0:
                continue
            comp = obj if m is None else obj.weight_component(m)
            vec = blk.space.flatten(comp)
            coords.extend(blk.quotient.coords(vec))
        return coords

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


class HigherBlock:
    def __init__(self, quotient: QuotientSpace, basis_labels):
        self.quotient = quotient
        self.basis_labels = basis_labels

    @property
    def dim(self) -> int:
        return self.quotient.dim


class HigherSpaces:
    """Homology of the class-level complexes (HK, cup/cap with the
    fundamental 1-class)."""

    def __init__(self, spaces: CalculusSpaces, eA: Cochain):
        self.spaces = spaces
        kd = spaces.kd
        field = kd.field
        self.blocks: Dict[Tuple[int, Optional[int]], HigherBlock] = {}
        weights = spaces._weights()
        p_max = spaces.p_max
        side = spaces.side

        def block_dim(p: int, m) -> int:
            blk = spaces.blocks.get((p, m))
            return blk.dim if blk else 0

        # class-level matrices of the fundamental differential per biweight
        mats: Dict[Tuple[int, Optional[int]], LinearMap] = {}
        for p in range(p_max + 1):
            for m in weights:
                blk = spaces.blocks.get((p, m))
                if blk is None:
                    continue
                if side == "coh":
                    tp, tm = p + 1, (None if m is None else m + 1)
                else:
                    tp, tm = p - 1, (None if m is None else m + 1)
                tdim = block_dim(tp, tm) if tp >= 0 else 0
                cols: List[SparseVec] = []
                for rep in blk.reps:
                    if tp < 0 or tdim == 0:
                        cols.append({})
                        continue
                    if side == "coh":
                        img = kd.cup(eA, rep)
                    else:
                        img = kd.cap(eA, rep, "left")
                    tblk = spaces.blocks[(tp, tm)]
                    vec = tblk.space.flatten(img if tm is None else img.weight_component(tm))
                    cols.append({k: c for k, c in enumerate(tblk.quotient.coords(vec))
                                 if not field.is_zero(c)})
                mats[(p, m)] = LinearMap(blk.dim, tdim, cols, field)
        for p in range(p_max + 1):
            for m in weights:
                blk = spaces.blocks.get((p, m))
                if blk is None:
                    continue
                mat = mats.get((p, m))
                z = kernel(mat) if mat is not None else echelonize(
                    [{k: field.one} for k in range(blk.dim)], blk.dim, field)
                if side == "coh":
                    sp, sm = p - 1, (None if m is None else m - 1)
                else:
                    sp, sm = p + 1, (None if m is None else m - 1)
                src = mats.get((sp, sm)) if sp >= 0 and (sm is None or sm >= 0) else None
                b = image(src) if src is not None else zero_subspace(blk.dim, field)
                self.blocks[(p, m)] = HigherBlock(QuotientSpace(z, b), None)

    def dim(self, p: int) -> int:
        return sum(blk.dim for (pp, _m), blk in self.blocks.items() if pp == p)

    def dims(self) -> List[int]:
        return [self.dim(p) for p in range(self.spaces.p_max + 1)]

    def bigraded_dims(self, p: int) -> Dict[Optional[int], int]:
        out = {}
        for (pp, m), blk in sorted(self.blocks.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0)):
            if pp == p and blk.dim:
                out[m] = blk.dim
        return out

    def class_in_kernel(self, obj) -> bool:
        """Whether a closed element's higher differential vanishes at class level."""
        spaces = self.spaces
        coords = spaces.class_of(obj)
        p = obj.p if spaces.side == "coh" else obj.q
        basis = spaces.class_basis(p)
        field = spaces.kd.field
        # reconstruct the blockwise kernel membership
        for (pp, m), blk in self.blocks.items():
            if pp != p:
                continue
            seg = [coords[k] for k, (mm, _i) in enumerate(basis) if mm == m]
            vec = {i: c for i, c in enumerate(seg) if not field.is_zero(c)}
            if vec and not blk.quotient.z.contains(vec):
                return False
        return True


def higher_calculus(spaces: CalculusSpaces, eA: Cochain) -> HigherSpaces:
    return HigherSpaces(spaces, eA)


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
        kd = self.kd
        alg = kd.algebra
        ws = kd.w(p)
        out: Dict[int, List[Tuple[int, int, int, int]]] = {}
        for flat_idx in range(ws.dim):
            j, i = ws.block_of(flat_idx)
            for r in range(alg.max_weight + 1):
                left = alg.block_positions(r, u, j)
                if not left:
                    continue
                for s in range(alg.max_weight + 1):
                    n = r + p + s
                    if n > self.weight_cutoff:
                        break
                    right = alg.block_positions(s, i, v)
                    if not right:
                        continue
                    bucket = out.setdefault(n, [])
                    for posL in left:
                        for posR in right:
                            bucket.append((flat_idx, posL, posR, r))
        return out

    def _process_pair(self, u: int, v: int, dims, ranks) -> None:
        kd = self.kd
        alg = kd.algebra
        field = kd.field
        coords = {p: self._coords(p, u, v) for p in range(self.p_max + 2)}
        # index keys carry the left weight: a bare position is ambiguous
        index = {p: {n: {(c[0], c[3], c[1], c[2]): k for k, c in enumerate(cs)}
                     for n, cs in coords[p].items()}
                 for p in coords}
        for p in range(self.p_max + 2):
            for n, cs in coords[p].items():
                dims[(p, n)] = dims.get((p, n), 0) + len(cs)
        for p in range(1, self.p_max + 2):
            ws = kd.w(p)
            for n, cs in coords[p].items():
                tgt_index = index[p - 1].get(n, {})
                if not tgt_index:
                    if cs:
                        ranks.setdefault((p, n), ranks.get((p, n), 0))
                    continue
                sign = field.one if p % 2 == 0 else field.neg(field.one)
                cols: List[SparseVec] = []
                for (wflat, posL, posR, r) in cs:
                    col: SparseVec = {}
                    # (aL x1) (x) rest (x) aR
                    for (alpha, y), c in ws.left_fact[wflat].items():
                        prod = alg._rmul[r].get((posL, alpha)) if r < len(alg._rmul) else None
                        if not prod:
                            continue
                        for npos, w in prod.items():
                            key = (y, r + 1, npos, posR)
                            k = tgt_index.get(key)
                            if k is None:
                                continue
                            cur = field.add(col.get(k, field.zero),
                                            field.mul(c, w))
                            if field.is_zero(cur):
                                col.pop(k, None)
                            else:
                                col[k] = cur
                    # (-1)^p aL (x) rest (x) (x_p aR)
                    sweight = n - p - r
                    for (y2, beta), c in ws.right_fact[wflat].items():
                        prod = alg.lmul_arrow_mono(beta, sweight, posR)
                        if not prod:
                            continue
                        for npos, w in prod.items():
                            key = (y2, r, posL, npos)
                            k = tgt_index.get(key)
                            if k is None:
                                continue
                            cur = field.add(col.get(k, field.zero),
                                            field.mul(field.mul(sign, c), w))
                            if field.is_zero(cur):
                                col.pop(k, None)
                            else:
                                col[k] = cur
                    cols.append(col)
                ambient = len(coords[p - 1][n])
                ranks[(p, n)] = ranks.get((p, n), 0) + rank(cols, ambient, field)

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

    def total_homology_dim(self, p: int) -> int:
        return sum(self.homology_table().get(p, {}).values())

    def koszul_up_to_cutoff(self, p_from: int = 2) -> bool:
        table = self.homology_table()
        return all(not table.get(p) for p in range(p_from, self.p_max + 1))
