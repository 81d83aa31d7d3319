"""Graded (co)homology of the Koszul complexes, classes, higher calculus.

All spaces are computed blockwise in the biweight: the differentials are
homogeneous (degree +1, coefficient weight +1 on cochains; degree -1,
coefficient weight +1 on chains), so each (degree, weight) block is an
independent exact-linear-algebra problem.  Representatives follow the
deterministic quotient rule of :mod:`koszulkit.linalg`.  Only the pairs
with a nonzero (co)chain space are built and kept, degree by degree in
weight order; the higher calculus keeps the pairs whose homology is
nonzero; a (degree, weight) pair whose algebra blocks meet no vertex block
of W_p is not built at all.  ``CalculusSpaces.layout`` lays the class
coordinates of a degree out over its blocks.

Each block map's image is eliminated once, as B of its target and
rank(d_out) of its source, and a block whose ranks show its homology to be
zero takes Z = B without a kernel (``_homology``).  The cocycle (cycle)
test of ``class_of`` is membership in the block spaces Z = ker(b_K), read
with the coordinates in one reduction (``QuotientSpace.coords``): b_K
raises the coefficient weight by one, so an element is closed iff each of
its weight components is.

Every matrix here is read off the term table of
:meth:`koszulkit.koszul.KoszulCalculus.terms` (its conventions are in the
:mod:`koszulkit.koszul` docstring).  The (co)chain blocks of b_K use all of
its terms; the higher calculus, e_A cup - on cochains and e_A cap - (left)
on chains, uses the left-acting terms with their sign flipped; the bimodule
complex A (x) W_p (x) A uses the chain terms, a right-acting term
multiplying the left coefficient slot on its right and a left-acting term
multiplying the right slot on its left.

The bimodule complex is assembled by W index over whole vertex blocks of
A.  e_u K_p e_v has one slot per W_p index whose coefficient blocks
e_u A e_j and e_i A e_v are nonzero, spanning both blocks over all
weights, ascending: the coordinate of (i_left, i_right) is offset +
i_left * |right block| + i_right.  Its size at each total weight is one
product of the blocks' Hilbert series, packed into ints.  A term's images
of one factor's monomials (a right-acting term's of each left monomial,
from ``rmul_table``; a left-acting term's of each right monomial, from
``mono_product``) are built once per (side, source block, arrow, target
block) as (target index, coefficient) lists, checked to lie in the target
block.  A map is ranked at each total weight n as the rows of its
transpose: source coordinate k of weight n is scattered into rows keyed by
target coordinate, as bit k of an int row over GF(2) and as an entry of a
dict row otherwise, so no row is wider than one weight's column count; the
rows, sparsest first, go to ``backend.rank_bits`` or ``linalg.rank``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import backend
from .koszul import (Chain, Cochain, KoszulCalculus, MODULE_A, MODULE_K, ModuleError,
                     NotClosedError)
from .linalg import (NotInSubspaceError, QuotientSpace, SparseVec, Subspace, echelonize,
                     full_subspace, kernel, rank, zero_subspace)


class CoordSpace:
    """Flat coordinates of a cochain or chain space at one biweight."""

    def __init__(self, kd: KoszulCalculus, p: int, m: Optional[int], module: str,
                 side: str):
        self.kd = kd
        self.p = p
        self.m = m
        self.module = module
        self.side = side
        alg = kd.algebra
        blocks = alg.blocks[m] if module == MODULE_A and m <= alg.max_weight else {}
        coords: List[Tuple[int, int]] = []
        # block by block: flat_of_block is laid out in the flat order
        for (j, i), flats in kd.w(p).flat_of_block.items():
            if module == MODULE_A:
                positions = blocks.get((j, i) if side == "coh" else (i, j))
            else:
                positions = [i] if j == i else None
            if positions:
                for flat_idx in flats:
                    for pos in positions:
                        coords.append((flat_idx, pos))
        self.coords = coords
        self.index = dict(zip(coords, range(len(coords))))

    @property
    def dim(self) -> int:
        return len(self.coords)

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


def _homology(mats: Dict[Tuple[int, Optional[int]], Tuple[List[SparseVec], int]],
              images: Dict[Tuple[int, Optional[int]], Subspace], p: int,
              m: Optional[int], step: int, dim: int, field) -> QuotientSpace:
    """ker(d out of block (p, m)) / im(d into it), for the maps of a complex
    of degree ``step`` and weight +1 keyed by source block, each held as its
    columns and its target dimension; a missing map is zero.  ``images``
    holds the image of each map into a block that is kept, eliminated once:
    B of that block, and rank(d_out) of its source.

    Where the image of d_out is at hand and dim - rank(d_out) = dim B, the
    homology is zero and Z = B: B is checked to lie in ker(d_out) by
    applying d_out to each of its rows (d o d = 0), and then has the
    dimension of the kernel, whose unique reduced echelon basis it is.
    Elsewhere, where the homology can be nonzero or the map's target is
    not kept, the kernel of d_out runs."""
    d_out = mats.get((p, m))
    b = images.get((p - step, _shifted(m, -1)))
    if b is None:
        b = zero_subspace(dim, field)
    img_out = images.get((p, m))
    if d_out is None:
        z = full_subspace(dim, field)
    elif img_out is not None and dim - img_out.dim == b.dim:
        cols = d_out[0]
        for row in b.rows:
            out: SparseVec = {}
            for j, x in row.items():
                field.add_into(out, cols[j], x)
            if out:
                raise NotInSubspaceError("denominator is not contained in numerator")
        z = b
    else:
        z = kernel(*d_out, field)
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
        return {m: blk.dim for (pp, m), blk in self.blocks.items() if pp == p and blk.dim}


class HomologyBlock:
    def __init__(self, space: CoordSpace, quotient: QuotientSpace):
        self.space = space
        self.quotient = quotient
        self.reps = [space.unflatten(r) for r in quotient.representatives]

    @property
    def dim(self) -> int:
        return self.quotient.dim


class CalculusSpaces(_GradedDims):
    """HK^p(A, M) or HK_p(A, M) with biweight grading and representatives:
    a block for each p <= kd.p_max and m in ``weights()`` whose (co)chain
    space is nonzero."""

    def __init__(self, kd: KoszulCalculus, module: str, side: str):
        self.kd = kd
        self.module = module
        self.side = side
        self.p_max = kd.p_max
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
        weights = self.weights()
        # every computed weight is built: b_K maps the last block weight into
        # the top computed weight of a truncated algebra, which has no block
        # but nonzero spaces, so the kernels below it need that map
        alg = kd.algebra
        spaces: Dict[Tuple[int, Optional[int]], CoordSpace] = {}
        for p in [p for p in range(self.p_max + 2) if kd.w(p).dim]:
            # the algebra blocks that the vertex blocks of W_p take values in
            wanted = {(j, i) if self.side == "coh" else (i, j)
                      for j, i in kd.w(p).flat_of_block}
            for m in [None] if self.module == MODULE_K else range(alg.max_weight + 1):
                if self.module == MODULE_A and wanted.isdisjoint(alg.blocks[m]):
                    continue
                sp = CoordSpace(kd, p, m, self.module, self.side)
                if sp.dim:
                    spaces[(p, m)] = sp
        # b_K between nonzero spaces; _homology reads a missing map as zero
        mats: Dict[Tuple[int, Optional[int]], Tuple[List[SparseVec], int]] = {}
        for (p, m), src in spaces.items():
            dst = spaces.get((p + step, _shifted(m, 1)))
            if dst is not None:
                units = [{k: one} for k in range(src.dim)]
                mats[(p, m)] = (_block_images(src, dst, units), dst.dim)
        kept = {(p, m) for p, m in spaces if p <= self.p_max and m in weights}
        images = {(p, m): echelonize(*d, field) for (p, m), d in mats.items()
                  if (p + step, _shifted(m, 1)) in kept}
        for (p, m), sp in spaces.items():
            if (p, m) in kept:
                self.blocks[(p, m)] = HomologyBlock(
                    sp, _homology(mats, images, p, m, step, sp.dim, field))

    # -- classes ------------------------------------------------------------

    def representatives(self, p: int):
        _total, offsets = self.layout(p)
        return [rep for _start, blk in offsets.values() for rep in blk.reps]

    def class_of(self, obj) -> List[object]:
        """Coordinates of a closed cochain/chain in the representative basis.

        b_K raises the coefficient weight by one, so an element is closed iff
        each weight component is.  The element is read once, each value into
        the flat vector of its weight block (``_weight_vectors``); then,
        weights ascending, each vector is tested for closedness by its
        block's cocycle (cycle) space Z = ker(b_K) as its coordinates are
        read, in one reduction by B (``QuotientSpace.coords``), and the
        blocks it does not touch read zero.
        A component outside the layout (the top weight of a truncated
        algebra, or a value outside its vertex block) is refused, and so is
        an element over another module than these spaces', before any work."""
        if self.side == "coh":
            if not isinstance(obj, Cochain) or obj.p > self.p_max:
                raise NotClosedError("not a cochain in the computed range")
            not_closed = "not a cocycle: differential is nonzero"
        else:
            if not isinstance(obj, Chain) or obj.q > self.p_max:
                raise NotClosedError("not a chain in the computed range")
            not_closed = "not a cycle: differential is nonzero"
        if obj.module != self.module:
            raise ModuleError(f"a {obj.module}-valued element has no class in "
                              f"{self.module}-coefficient spaces")
        total, offsets = self.layout(obj.degree)
        vecs = self._weight_vectors(obj, offsets)
        coords: List[object] = [self.kd.field.zero] * total
        for m in sorted(vecs):
            if m not in offsets:
                raise NotClosedError(f"a component at weight {m} lies outside the computed "
                                     f"weights {list(offsets)} of degree {obj.degree}")
            vec = vecs[m]
            if None in vec:
                weight = "" if m is None else f" at weight {m}"
                raise NotClosedError(f"a value{weight} lies outside its vertex block "
                                     f"in degree {obj.degree}")
            start, blk = offsets[m]
            try:
                coords[start:start + blk.dim] = blk.quotient.coords(vec)
            except NotInSubspaceError:
                raise NotClosedError(not_closed) from None
        return coords

    def _weight_vectors(self, obj, offsets) -> Dict[Optional[int], SparseVec]:
        """The element's values in one read, as a flat vector per weight in
        the coordinates of that weight's block; k is the one weight None.  A
        value with no coordinate there (a weight outside ``offsets``, or a
        position outside its vertex block) is put at key None, for
        ``class_of`` to refuse in weight order."""
        vecs: Dict[Optional[int], SparseVec] = {}
        if obj.module == MODULE_K:
            if obj.values:
                blk = offsets.get(None)
                index = blk[1].space.index if blk else {}
                block_of = self.kd.w(obj.degree).block_of
                vec = vecs[None] = {}
                for x, c in obj.values.items():
                    if not self.kd.field.is_zero(c):
                        vec[index.get((x, block_of(x)[1]))] = c
            return vecs
        last = vec = index = None
        for x, val in obj.values.items():
            for (m, pos), c in val.items():
                if m != last:
                    last = m
                    vec = vecs.get(m)
                    if vec is None:
                        vec = vecs[m] = {}
                    blk = offsets.get(m)
                    index = blk[1].space.index if blk else {}
                vec[index.get((x, pos))] = c
        return vecs

    def layout(self, p: int) -> Tuple[int, Dict[Optional[int], Tuple[int, HomologyBlock]]]:
        """Length of the class coordinates of degree p, and the offset of each
        of its blocks, weights ascending: the one layout of the class
        coordinates, which every reader of class coordinates or of a degree's
        blocks in order goes through."""
        layout = self._layouts.get(p)
        if layout is None:
            offsets: Dict[Optional[int], Tuple[int, HomologyBlock]] = {}
            total = 0
            for (pp, m), blk in self.blocks.items():
                if pp == p:
                    offsets[m] = (total, blk)
                    total += blk.dim
            layout = self._layouts[p] = (total, offsets)
        return layout

    def zero_class(self, p: int) -> List[object]:
        return [self.kd.field.zero] * self.layout(p)[0]


def koszul_homology(kd: KoszulCalculus, module: str, side: str) -> CalculusSpaces:
    """Compute HK^*(A, M) (side="coh") or HK_*(A, M) (side="hom") in the
    degrees 0..kd.p_max.

    For M = k the Koszul differentials vanish and the result is checked
    against the closed form: the diagonal blocks of the W spaces.
    """
    spaces = CalculusSpaces(kd, module, side)
    if module == MODULE_K:
        for p in range(kd.p_max + 1):
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
    e_A cup - on HK^ and e_A cap - (left) on HK_, one block for each
    nonzero HK block."""

    def __init__(self, spaces: CalculusSpaces):
        self.spaces = spaces
        self.p_max = spaces.p_max
        field = spaces.kd.field
        step = 1 if spaces.side == "coh" else -1
        self.blocks: Dict[Tuple[int, Optional[int]], QuotientSpace] = {}
        mats: Dict[Tuple[int, Optional[int]], Tuple[List[SparseVec], int]] = {}
        for (p, m), blk in spaces.blocks.items():
            tblk = spaces.blocks.get((p + step, _shifted(m, 1)))
            if not blk.dim or tblk is None or not tblk.dim:
                continue  # a zero map: _homology reads a missing one as zero
            imgs = _block_images(blk.space, tblk.space, blk.quotient.representatives,
                                 higher=True)
            cols = [{k: c for k, c in enumerate(tblk.quotient.coords(img))
                     if not field.is_zero(c)} for img in imgs]
            mats[(p, m)] = (cols, tblk.dim)
        # every map's target is a nonzero block, and all of those are kept
        images = {key: echelonize(*d, field) for key, d in mats.items()}
        for (p, m), blk in spaces.blocks.items():
            if blk.dim:
                self.blocks[(p, m)] = _homology(mats, images, p, m, step, blk.dim, field)

    def class_in_kernel(self, obj) -> bool:
        """Whether a closed element's higher differential vanishes at class level."""
        spaces = self.spaces
        coords = spaces.class_of(obj)
        field = spaces.kd.field
        # blockwise kernel membership, over the class coordinate segments
        _total, offsets = spaces.layout(obj.degree)
        for m, (start, blk) in offsets.items():
            vec = {i: c for i, c in enumerate(coords[start:start + blk.dim])
                   if not field.is_zero(c)}
            if vec and not self.blocks[(obj.degree, m)].z.contains(vec):
                return False
        return True


def higher_calculus(spaces: CalculusSpaces) -> HigherSpaces:
    return HigherSpaces(spaces)


# -- homology of the bimodule Koszul complex ----------------------------------

#: bits per weight of a Hilbert series packed into an int, enough for any
#: count of coordinates: the product of two packed series is the packed
#: series of their pairs
_DIGIT = 64
_DIGIT_MASK = (1 << _DIGIT) - 1


class BimoduleHomology:
    """Graded dimensions of H_*(K(A)) with K_p = A (x) W_p (x) A."""

    def __init__(self, kd: KoszulCalculus, p_max: int, weight_cutoff: Optional[int] = None):
        self.kd = kd
        self.p_max = p_max
        alg = kd.algebra
        if weight_cutoff is None:
            # a truncated algebra stops at its top computed weight
            weight_cutoff = alg.max_weight if alg.truncated else 2 * alg.max_weight + max(
                (kd.w(p).p for p in range(p_max + 2) if kd.w(p).dim), default=0)
        elif alg.truncated and weight_cutoff > alg.max_weight:
            raise ValueError(f"weight cutoff {weight_cutoff} exceeds the weights computed "
                             f"for a truncated algebra (up to {alg.max_weight})")
        self.weight_cutoff = weight_cutoff
        self.inconclusive = alg.truncated
        # A's vertex blocks over all weights, ascending: (target, source) ->
        # [monomials (weight, position), index of each, runs (weight, start,
        # end), packed Hilbert series]
        self._blocks: Dict[Tuple[int, int], list] = {}
        for m, blocks in enumerate(alg.blocks):
            for key, positions in blocks.items():
                block = self._blocks.setdefault(key, [[], {}, [], 0])
                monos, index, runs, _series = block
                runs.append((m, len(monos), len(monos) + len(positions)))
                block[3] += len(positions) << (_DIGIT * m)
                for pos in positions:
                    index[(m, pos)] = len(monos)
                    monos.append((m, pos))
        # (side, source block, arrow, target block) -> images
        self._image_cache: Dict[tuple, list] = {}
        dims: Dict[Tuple[int, int], int] = {}
        ranks: Dict[Tuple[int, int], int] = {}
        n_vertices = kd.quiver.n_vertices
        for u in range(n_vertices):
            for v in range(n_vertices):
                spaces = [self._slots(p, u, v, dims) for p in range(p_max + 2)]
                for p in range(1, p_max + 2):
                    self._rank(p, spaces[p], spaces[p - 1], ranks)
        self.dims = dims
        self.ranks = ranks

    def _slots(self, p: int, u: int, v: int, dims) -> tuple:
        """e_u K_p e_v as slots {W index: (offset, left block, right block)},
        one per W_p index whose coefficient blocks are nonzero, and its
        dimension at each total weight up to the cutoff, also added into
        ``dims``.  A slot spans its whole blocks, and the coordinate of
        (i_left, i_right) is offset + i_left * |right block| + i_right."""
        slots: Dict[int, tuple] = {}
        off = series = 0
        for (j, i), flats in self.kd.w(p).flat_of_block.items():
            left, right = self._blocks.get((u, j)), self._blocks.get((i, v))
            if left and right:
                for flat in flats:
                    slots[flat] = (off, (u, j), (i, v))
                    off += len(left[0]) * len(right[0])
                series += left[3] * right[3] * len(flats)
        sizes: Dict[int, int] = {}
        for n in range(p, self.weight_cutoff + 1):
            size, series = series & _DIGIT_MASK, series >> _DIGIT
            if size:
                sizes[n] = size
                dims[(p, n)] = dims.get((p, n), 0) + size
        return slots, sizes

    def _rank(self, p: int, src: tuple, dst: tuple, ranks) -> None:
        """Add the rank of d: e_u K_p e_v -> e_u K_{p-1} e_v at each total
        weight where both are nonzero, zero ranks included.  A source
        coordinate of weight n is local column k of weight n, scattered into
        rows keyed by target coordinate: bit k of an int row over GF(2) (an
        even coefficient dropped), else an entry added into a dict row.
        These are the rows of the transpose, whose rank is the map's."""
        (slots, sizes), (tslots, tsizes) = src, dst
        rows: Dict[int, dict] = {n: {} for n in sizes if n in tsizes}
        if not rows:
            return
        field = self.kd.field
        packed = field.char == 2
        blocks, cutoff = self._blocks, self.weight_cutoff
        terms = self.kd.terms(p, "hom")
        cols = dict.fromkeys(sizes, 0)
        for flat, (_off, lkey, rkey) in slots.items():
            rparts, lparts = [], []
            for right_acting, a, y, c in terms[flat]:
                if packed and not c & 1:
                    continue
                toff, tleft, tright = tslots.get(y, (0, None, None))
                if tright and (tright != rkey if right_acting else tleft != lkey):
                    raise ValueError("a differential term moves the factor it does not act on")
                imgs = self._images(right_acting, lkey if right_acting else rkey, a,
                                    tleft if right_acting else tright)
                width = len(blocks[tright][0]) if tright else 0
                (rparts if right_acting else lparts).append((imgs, toff, width, c))
            runs = blocks[rkey][2]
            for i, (r, _pos) in enumerate(blocks[lkey][0]):
                if r + p + runs[0][0] > cutoff:
                    break
                # a right-acting term sends (i, j) to row base + j, a
                # left-acting one to row shift + (index of its image)
                low = [(toff + t * width, c * w)
                       for imgs, toff, width, c in rparts for t, w in imgs[i]]
                high = [(imgs, toff + i * width, c) for imgs, toff, width, c in lparts]
                for s, lo, hi in runs:
                    n = r + p + s
                    if n > cutoff:
                        break
                    k = cols[n] - lo
                    cols[n] += hi - lo
                    out = rows.get(n)
                    if out is None:
                        continue
                    if packed:
                        for j in range(lo, hi):
                            bit = 1 << (k + j)
                            for base, _x in low:
                                out[base + j] = out.get(base + j, 0) ^ bit
                            for imgs, shift, _c in high:
                                for t, _w in imgs[j]:
                                    out[shift + t] = out.get(shift + t, 0) ^ bit
                        continue
                    for j in range(lo, hi):
                        for base, x in low:
                            row = out.setdefault(base + j, {})
                            row[k + j] = row.get(k + j, 0) + x
                        for imgs, shift, c in high:
                            for t, w in imgs[j]:
                                row = out.setdefault(shift + t, {})
                                row[k + j] = row.get(k + j, 0) + c * w
        # sparsest rows first: on E8 over F:3 this halves the row operations
        for n, out in rows.items():
            got = sorted(out.values(), key=int.bit_count if packed else len)
            ranks[(p, n)] = ranks.get((p, n), 0) + (
                backend.rank_bits(got) if packed else rank(got, sizes[n], field))

    def _images(self, right_acting: bool, source: Tuple[int, int], a: int,
                target: Optional[Tuple[int, int]]) -> list:
        """The images of each monomial of block ``source`` below the cutoff
        times arrow a, on its right when ``right_acting`` and else on its
        left, as lists of (index in block ``target``, coefficient), over
        GF(2) the odd ones only; built once per (side, source block, arrow,
        target block).  A product monomial outside ``target`` (None when the
        term's target W index has no slot) raises: no product is dropped."""
        key = (right_acting, source, a, target)
        imgs = self._image_cache.get(key)
        if imgs is None:
            alg = self.kd.algebra
            odd_only = self.kd.field.char == 2
            index = self._blocks[target][1] if target else {}
            imgs = []
            for m, pos in self._blocks[source][0]:
                if m >= self.weight_cutoff:
                    break
                prod = (alg.rmul_table(m).get((pos, a), {}) if right_acting
                        else alg.mono_product(1, a, m, pos))
                img = []
                for npos, w in prod.items():
                    t = index.get((m + 1, npos))
                    if t is None:
                        raise ValueError(f"product monomial {npos} of weight {m + 1} lies "
                                         f"outside its target slot's vertex block")
                    if not odd_only or w & 1:
                        img.append((t, w))
                imgs.append(img)
            self._image_cache[key] = imgs
        return imgs

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
