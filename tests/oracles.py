"""Test oracles for tropical cohomology, independent of the incidence model.

* a face-poset (derived limit) complex built from strict chains of
  cells, which computes sheaf cohomology of F^p without any
  compactness assumption, so it checks the Poincare-duality path that
  ``trophodge.cohomology`` takes on complexes that are not boundary
  closed;
* a Cech complex on the open cover by open stars.

Both build their own matrices and share only the exact linear algebra
with the production path.

The rational lattice geometry that the integer stratum maps and
incidence signs of ``trophodge.tropspace`` replaced is kept here too,
as :func:`fraction_face_map` and :func:`fraction_incidence_sign`: the
stratum map solved over Q, its wedge power as a dense QMatrix, and each
face vector lifted into the coface span by a solve.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from trophodge.cohomology import CohomologyResult, _cache
from trophodge.exactla import (
    QMatrix,
    QSubspace,
    _minor,
    block_offsets,
    block_rows,
    sparse_rank,
    wedge_matrix,
)
from trophodge.fans import orbit_lattice
from trophodge.tropspace import TropComplex


def poset_betti_table(cx: TropComplex):
    """h[p][q] for 0 <= p,q <= n from the face-poset complex."""
    n = cx.base_fan.ambient_rank
    return [
        [_poset_cohomology(cx, p, q).dim for q in range(n + 1)]
        for p in range(n + 1)
    ]


def _poset_chains(cx):
    cache = _cache(cx)
    if "chains" not in cache:
        n = len(cx.cells)
        strict = [
            [cx.cell_id(c) for c in cx.cofaces_of(cell) if c != cell]
            for cell in cx.cells
        ]
        levels = [[(i,) for i in range(n)]]
        while True:
            nxt = []
            for chain in levels[-1]:
                for j in strict[chain[-1]]:
                    nxt.append(chain + (j,))
            if not nxt:
                break
            levels.append(nxt)
        cache["chains"] = levels
    return cache["chains"]


def _poset_data(cx, p):
    """Layouts, differentials, and ranks of the face-poset complex."""
    cache = _cache(cx)
    if ("poset", p) in cache:
        return cache[("poset", p)]
    levels = _poset_chains(cx)
    dims = [cx.f_lower(c, p).dim for c in cx.cells]
    rhos = {}

    def rho(i, j):
        if (i, j) not in rhos:
            cols = cx.face_map_columns(cx.cells[i], cx.cells[j], p)
            rhos[(i, j)] = QMatrix(dims[j], dims[i], cols)
        return rhos[(i, j)]

    layouts = [
        tuple(
            (chain, dims[chain[-1]]) for chain in level if dims[chain[-1]]
        )
        for level in levels
    ]
    live = [set(chain for chain, _ in lay) for lay in layouts]
    ranks = []
    ker0 = QSubspace.full(sum(d for _, d in layouts[0])) if len(levels) == 1 else None
    for k in range(len(levels) - 1):
        blocks = {}
        for target, _ in layouts[k + 1]:
            for i in range(len(target)):
                source = target[:i] + target[i + 1:]
                if source not in live[k]:
                    continue
                sign = -1 if i % 2 else 1
                if i < len(target) - 1:
                    m = QMatrix.identity(dims[target[-1]]).scale(sign)
                else:
                    m = rho(source[-1], target[-1]).scale(sign)
                key = (target, source)
                blocks[key] = blocks[key] + m if key in blocks else m
        rows, ncols = block_rows(blocks, layouts[k + 1], layouts[k])
        if k == 0:
            ker0 = QMatrix.from_sparse(rows, ncols).kernel_basis()
            ranks.append(ncols - ker0.dim)
        else:
            ranks.append(sparse_rank(rows))
    cache[("poset", p)] = (layouts, ker0, ranks)
    return cache[("poset", p)]


def _poset_cohomology(cx, p, q):
    layouts, ker0, ranks = _poset_data(cx, p)
    if q >= len(layouts) or q < 0:
        return CohomologyResult(p, q, 0, ())
    space = sum(d for _, d in layouts[q])
    rank_out = ranks[q] if q < len(ranks) else 0
    rank_in = ranks[q - 1] if q >= 1 else 0
    dim = space - rank_out - rank_in
    reps = ()
    if q == 0 and dim:
        reps = tuple(ker0.basis)
    return CohomologyResult(p, q, dim, reps)


def _cech_data(cx, p):
    """Cech complex of F^p on the open-star cover: space dims and ranks."""
    cache = _cache(cx)
    if ("cech", p) in cache:
        return cache[("cech", p)]
    n = len(cx.cells)
    face_sets = [
        frozenset(cx.cell_id(f) for f in cx.faces_of(c)) for c in cx.cells
    ]
    subsets = set()
    for i in range(n):
        members = sorted(face_sets[i])
        for mask in range(1, 1 << len(members)):
            subsets.add(frozenset(
                members[k] for k in range(len(members)) if mask >> k & 1
            ))
    ub = {
        s: tuple(j for j in range(n) if s <= face_sets[j]) for s in subsets
    }
    dims = [cx.f_lower(c, p).dim for c in cx.cells]
    sections = {}

    def gamma(s):
        """Basis of sections over the union of stars of UB(s)."""
        if s not in sections:
            cover = ub[s]
            offs, off = block_offsets((j, dims[j]) for j in cover)
            rows = []
            for a in cover:
                for b in cover:
                    if a == b or a not in face_sets[b]:
                        continue
                    rho = cx.face_map_columns(cx.cells[a], cx.cells[b], p)
                    for r in range(dims[b]):
                        row = [Fraction(0)] * off
                        for cidx in range(dims[a]):
                            row[offs[a] + cidx] = rho[r][cidx]
                        row[offs[b] + r] -= 1
                        rows.append(row)
            if rows:
                basis = QMatrix.from_rows(rows, off).kernel_basis()
            elif off:
                basis = QSubspace.full(off)
            else:
                basis = QSubspace.zero(0)
            sections[s] = (basis, offs, off)
        return sections[s]

    by_size = {}
    for s in subsets:
        if gamma(s)[0].dim:
            by_size.setdefault(len(s) - 1, []).append(s)
    max_k = max(by_size) if by_size else -1
    space_dims = {}
    ranks = {}
    for k in range(max_k + 1):
        cols = sorted(by_size.get(k, []), key=sorted)
        rows_s = sorted(by_size.get(k + 1, []), key=sorted)
        col_layout = tuple((s, gamma(s)[0].dim) for s in cols)
        row_layout = tuple((s, gamma(s)[0].dim) for s in rows_s)
        space_dims[k] = sum(d for _, d in col_layout)
        blocks = {}
        for t in rows_s:
            t_sorted = sorted(t)
            gt, offs_t, total_t = gamma(t)
            ws = []
            segments = []
            for i, drop in enumerate(t_sorted):
                s = frozenset(x for x in t if x != drop)
                if s not in ub or not gamma(s)[0].dim:
                    continue
                gs, offs_s, _ = gamma(s)
                start = len(ws)
                for v in gs.basis:
                    w = [Fraction(0)] * total_t
                    for j in ub[t]:
                        for cidx in range(dims[j]):
                            w[offs_t[j] + cidx] = v[offs_s[j] + cidx]
                    ws.append(w)
                segments.append((i, s, gs.dim, start))
            coords_all = [gt.coordinates(w) for w in ws]
            for i, s, sdim, start in segments:
                sign = -1 if i % 2 else 1
                cols_m = coords_all[start:start + sdim]
                m = QMatrix(
                    gt.dim, sdim,
                    [[cols_m[b][a] for b in range(sdim)]
                     for a in range(gt.dim)],
                ).scale(sign)
                key = (t, s)
                blocks[key] = blocks[key] + m if key in blocks else m
        ranks[k] = sparse_rank(block_rows(blocks, row_layout, col_layout)[0])
    cache[("cech", p)] = (space_dims, ranks, max_k)
    return cache[("cech", p)]


def cech_oracle(cx: TropComplex, p: int, q: int) -> int:
    """dim H^q of F^p from the Cech complex on the open-star cover."""
    if len(cx.cells) > 50:
        raise ValueError("cech_oracle is capped at 50 cells")
    space_dims, ranks, max_k = _cech_data(cx, p)
    if q > max_k or q < 0:
        return 0
    return space_dims[q] - ranks.get(q, 0) - (ranks.get(q - 1, 0) if q else 0)


@functools.lru_cache(maxsize=None)
def fraction_stratum_projection(sed_small, sed_big) -> QMatrix:
    """N_{sigma1} -> N_{sigma2} over Q: rows of proj2 solved against proj1."""
    p1 = orbit_lattice(sed_small).proj.to_q()
    p2 = orbit_lattice(sed_big).proj.to_q()
    p1t = p1.transpose()
    rows = []
    for row in p2.entries:
        sol = p1t.solve(row)
        if sol is None:
            raise ValueError("stratum projections are not nested")
        rows.append(sol)
    return QMatrix(p2.rows, p1.rows, rows)


@functools.lru_cache(maxsize=None)
def _fraction_stratum_wedge(sed_small, sed_big, p) -> QMatrix:
    return wedge_matrix(fraction_stratum_projection(sed_small, sed_big), p)


def fraction_face_map(cx: TropComplex, face, coface, p) -> QMatrix:
    """i_{P2 < P1} through the dense rational wedge of the stratum map."""
    src = cx.f_lower(coface, p)
    dst = cx.f_lower(face, p)
    if face.sedentarity == coface.sedentarity:
        images = list(src.basis)
    else:
        wedge = _fraction_stratum_wedge(coface.sedentarity, face.sedentarity, p)
        images = [wedge.apply(v) for v in src.basis]
    cols = []
    for img in images:
        coords = dst.coordinates(img)
        if coords is None:
            raise ValueError("face map image leaves the target F_p")
        cols.append(coords)
    return QMatrix(
        dst.dim, src.dim,
        [[cols[j][i] for j in range(src.dim)] for i in range(dst.dim)],
    )


def fraction_incidence_sign(face, coface):
    """The incidence sign with each face vector lifted by a rational solve."""
    bp = coface.span()
    proj = orbit_lattice(coface.sedentarity).proj.to_q()
    if face.sedentarity == coface.sedentarity:
        inward = [Fraction(0)] * coface.stratum_rank
        for r in coface.tau.rays:
            if r not in face.tau.rays:
                inward = [a + b for a, b in zip(inward, proj.apply(r))]
        first = [-x for x in inward]
        lifted = list(face.span().basis)
    else:
        first = [Fraction(0)] * coface.stratum_rank
        for r in face.sedentarity.rays:
            if r not in coface.sedentarity.rays:
                first = [a + b for a, b in zip(first, proj.apply(r))]
        b = fraction_stratum_projection(coface.sedentarity, face.sedentarity)
        bpmat_t = bp.matrix().transpose()
        lift_system = b @ bpmat_t
        lifted = [
            bpmat_t.apply(lift_system.solve(v)) for v in face.span().basis
        ]
    rows = []
    for vec in [first] + lifted:
        coords = bp.coordinates(vec)
        if coords is None:
            raise ValueError("orientation vector leaves the coface span")
        rows.append(coords)
    d = bp.dim
    det = _minor(rows, range(d), range(d))
    if det == 0:
        raise ValueError("degenerate incidence orientation")
    return 1 if det > 0 else -1
