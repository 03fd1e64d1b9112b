"""Tropical cohomology H^{p,q} of a stratified cell complex.

Three independent computations live here:

* the incidence cochain complex C^q = direct sum of F^p over q-cells,
  with the signed dual face maps as differential;
* a face-poset (derived limit) complex built from strict chains of
  cells, which computes sheaf cohomology of F^p without any
  compactness assumption;
* a Cech complex on the open cover by open stars, used as an oracle.

The incidence complex equals sheaf cohomology only when the complex is
boundary closed (every face at infinity present, so all cells have
compact closure).  On supports with unbounded cells it computes the
compactly supported groups instead, so :func:`cohomology` switches to
the poset complex there.  The oracle cross-checks both.

Dimensions come from ranks alone: dim H^q = dim C^q - rk delta_q -
rk delta_{q-1}, with the ranks cached on the complex, which is all
:func:`betti_table` computes.  Representatives (a basis of ker modulo im)
come only from :func:`cohomology`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from trophodge.exactla import (
    QMatrix,
    QSubspace,
    _null_space,
    _rref,
    assemble,
    block_offsets,
    block_rows,
    homology_quotient,
    sparse_rank,
)
from trophodge.tropspace import TropComplex


@dataclass(frozen=True)
class CochainComplex:
    """Incidence cochain complex for a fixed p.

    ``layout[q]`` lists (cell_id, block_dim) in block order; ``deltas[q]``
    maps C^q to C^{q+1}.
    """

    p: int
    layout: tuple
    deltas: tuple

    def space_dim(self, q):
        if 0 <= q < len(self.layout):
            return sum(d for _, d in self.layout[q])
        return 0

    def delta(self, q):
        if 0 <= q < len(self.deltas):
            return self.deltas[q]
        return QMatrix.zeros(self.space_dim(q + 1), self.space_dim(q))

    def verify_d_squared(self):
        for q in range(len(self.deltas) - 1):
            if not (self.deltas[q + 1] @ self.deltas[q]).is_zero():
                return False
        return True


@dataclass(frozen=True)
class CohomologyResult:
    p: int
    q: int
    dim: int
    representatives: tuple
    layout: tuple
    engine: str


def _cache(cx):
    return cx.__dict__.setdefault("_coh_cache", {})


def build_cochain_complex(cx: TropComplex, p: int) -> CochainComplex:
    cache = _cache(cx)
    if ("cochain", p) in cache:
        return cache[("cochain", p)]
    top = cx.top_dim
    layout = []
    for q in range(top + 1):
        layout.append(tuple(
            (cx.cell_id(c), cx.f_lower(c, p).dim) for c in cx.cells_of_dim(q)
        ))
    poset = cx.face_poset()
    deltas = []
    for q in range(top):
        blocks = {}
        for fid, cid, _case, sign in poset:
            face = cx.cells[fid]
            if face.dim != q:
                continue
            coface = cx.cells[cid]
            rho = cx.face_map(face, coface, p).transpose()
            blocks[(cid, fid)] = rho.scale(sign)
        deltas.append(assemble(blocks, layout[q + 1], layout[q]))
    out = CochainComplex(p, tuple(layout), tuple(deltas))
    cache[("cochain", p)] = out
    return out


def _incidence_cohomology(cx, p, q):
    cc = build_cochain_complex(cx, p)
    reps = homology_quotient(cc.delta(q), cc.delta(q - 1) if q >= 1 else None)
    layout = cc.layout[q] if 0 <= q < len(cc.layout) else ()
    return CohomologyResult(p, q, len(reps), tuple(reps), layout, "incidence")


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
            rhos[(i, j)] = cx.face_map(cx.cells[i], cx.cells[j], p).transpose()
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
            pivots, red = _rref(rows, ncols)
            ranks.append(len(pivots))
            ker0 = _null_space(pivots, red, ncols)
        else:
            ranks.append(sparse_rank(rows))
    cache[("poset", p)] = (layouts, ker0, ranks)
    return cache[("poset", p)]


def _poset_cohomology(cx, p, q):
    layouts, ker0, ranks = _poset_data(cx, p)
    if q >= len(layouts) or q < 0:
        return CohomologyResult(p, q, 0, (), (), "poset")
    space = sum(d for _, d in layouts[q])
    rank_out = ranks[q] if q < len(ranks) else 0
    rank_in = ranks[q - 1] if q >= 1 else 0
    dim = space - rank_out - rank_in
    reps = ()
    layout = ()
    if q == 0 and dim:
        reps = tuple(ker0.basis)
        layout = tuple((chain[0], d) for chain, d in layouts[0])
    return CohomologyResult(p, q, dim, reps, layout, "poset")


def cohomology(cx: TropComplex, p: int, q: int) -> CohomologyResult:
    """H^{p,q} of the complex, exact over Q.

    Boundary-closed complexes use the incidence cochain complex; the
    rest use the face-poset complex (the incidence model would compute
    compact supports there).
    """
    if cx.is_boundary_closed():
        return _incidence_cohomology(cx, p, q)
    return _poset_cohomology(cx, p, q)


def relative_cohomology(cx: TropComplex, sub, p: int, q: int) -> CohomologyResult:
    """Cohomology of cochains vanishing on a closed subcomplex.

    Only for a boundary-closed complex: elsewhere the incidence cochains
    compute compact supports, which the absolute groups do not.
    """
    if isinstance(sub, TropComplex):
        sub_cells = set(sub.cells)
    else:
        sub_cells = set(sub)
    mine = set(cx.cells)
    if not sub_cells <= mine:
        raise ValueError("subcomplex has cells outside the complex")
    for c in sub_cells:
        for f in cx.faces_of(c):
            if f not in sub_cells:
                raise ValueError("subcomplex is not closed")
    if not cx.is_boundary_closed():
        raise ValueError("relative cohomology needs a boundary-closed complex")
    if not sub_cells:
        return cohomology(cx, p, q)
    cc = build_cochain_complex(cx, p)

    def layout(q_):
        return cc.layout[q_] if 0 <= q_ < len(cc.layout) else ()

    def kept(q_):
        return tuple(b for b in layout(q_) if cx.cells[b[0]] not in sub_cells)

    def positions(q_):
        offs, _ = block_offsets(layout(q_))
        return [offs[cid] + i for cid, d in kept(q_) for i in range(d)]

    def restricted_delta(q_):
        full = cc.delta(q_)
        rkeep, ckeep = positions(q_ + 1), positions(q_)
        ent = [[full.entries[i][j] for j in ckeep] for i in rkeep]
        return QMatrix(len(rkeep), len(ckeep), ent)

    reps = homology_quotient(
        restricted_delta(q), restricted_delta(q - 1) if q >= 1 else None
    )
    return CohomologyResult(p, q, len(reps), tuple(reps), kept(q), "relative")


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
                    rho = cx.face_map(cx.cells[a], cx.cells[b], p).transpose()
                    for r in range(dims[b]):
                        row = [Fraction(0)] * off
                        for cidx in range(dims[a]):
                            row[offs[a] + cidx] = rho.entries[r][cidx]
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


def _delta_rank(cx, p, q):
    """rk delta_q of the incidence complex for p, cached on the complex."""
    cache = _cache(cx)
    if ("rank", p, q) not in cache:
        cache[("rank", p, q)] = build_cochain_complex(cx, p).delta(q).rank()
    return cache[("rank", p, q)]


def betti_table(cx: TropComplex):
    """Matrix h[p][q] for 0 <= p,q <= n, from ranks alone.

    The dimensions are those :func:`cohomology` gives, but no
    representative is computed: dim C^q - rk delta_q - rk delta_{q-1} of
    the incidence complex, or of the face-poset complex where the complex
    is not boundary closed.
    """
    n = cx.base_fan.ambient_rank
    if not cx.is_boundary_closed():
        return [
            [_poset_cohomology(cx, p, q).dim for q in range(n + 1)]
            for p in range(n + 1)
        ]
    return [
        [
            build_cochain_complex(cx, p).space_dim(q)
            - _delta_rank(cx, p, q)
            - _delta_rank(cx, p, q - 1)
            for q in range(n + 1)
        ]
        for p in range(n + 1)
    ]


def betti_to_tsv(table):
    lines = ["p\\q\t" + "\t".join(str(q) for q in range(len(table[0])))]
    for p, row in enumerate(table):
        lines.append(str(p) + "\t" + "\t".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def betti_to_json(table):
    records = [
        {"p": p, "q": q, "dim": table[p][q]}
        for p in range(len(table))
        for q in range(len(table[p]))
    ]
    return json.dumps(records, sort_keys=True)
