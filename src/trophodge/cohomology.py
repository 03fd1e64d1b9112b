"""Tropical cohomology H^{p,q} of a stratified cell complex.

One model computes it: the incidence cochain complex C^q = direct sum of
F^p over q-cells, with the signed dual face maps as differential.

On a boundary-closed complex (every face at infinity present, so all
cells have compact closure) this complex computes sheaf cohomology.  On
a support with unbounded cells it computes the compactly supported
groups instead, and Poincare duality on a tropical manifold of
dimension d, H^{p,q} = (H_c^{d-p,d-q})^dual (Jell-Shaw-Smacka,
"Superforms, tropical cohomology and Poincare duality",
arXiv:1512.07409), turns them into h^{p,q}.

Each delta_q is written once per (p, q), as sparse integer rows at the
``block_offsets`` of the layout, and cached on the complex.  Dimensions
come from ranks alone: dim H^q = dim C^q - rk delta_q - rk delta_{q-1},
with the ranks cached beside the rows, which is all :func:`betti_table`
computes.  Representatives (a basis of ker modulo im) come only from
:func:`cohomology`, on boundary-closed complexes, from the same rows.  No
dense differential is built on either path; the one dense view,
``CochainComplex.deltas``, is for the benchmark's counts.

The face-poset and Cech models that cross-check this path are test
oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from trophodge.exactla import QMatrix, block_offsets, homology_quotient, sparse_rank
from trophodge.tropspace import TropComplex


@dataclass(frozen=True)
class CochainComplex:
    """Incidence cochain complex for a fixed p, as sparse integer rows.

    ``layout[q]`` lists (cell_id, block_dim) in block order; ``rows[q]``
    holds the {column: entry} rows of delta_q: C^q -> C^{q+1}, the same
    rows the complex caches for its ranks and representatives.
    :attr:`deltas` is a dense ``QMatrix`` view of them, built on request,
    for the benchmark's counts.
    """

    p: int
    layout: tuple
    rows: tuple

    def space_dim(self, q):
        return _space_dim(self.layout, q)

    @property
    def deltas(self):
        return tuple(
            QMatrix.from_sparse(rows, self.space_dim(q))
            for q, rows in enumerate(self.rows)
        )


@dataclass(frozen=True)
class CohomologyResult:
    p: int
    q: int
    dim: int
    representatives: tuple


def _cache(cx):
    return cx.__dict__.setdefault("_coh_cache", {})


def _layout(cx, p):
    """layout[q] of the incidence complex for p, cached on the complex."""
    cache = _cache(cx)
    if ("layout", p) not in cache:
        cache[("layout", p)] = tuple(
            tuple((cx.cell_id(c), cx.f_lower(c, p).dim) for c in cx.cells_of_dim(q))
            for q in range(cx.top_dim + 1)
        )
    return cache[("layout", p)]


def _space_dim(layout, q):
    return sum(d for _, d in layout[q]) if 0 <= q < len(layout) else 0


def _delta_rows(cx, p, q):
    """Sparse rows {col: entry} of delta_q: C^q -> C^{q+1}, cached.

    Each delta_q is written once per (p, q), by :func:`_write_delta_rows`,
    and cached on the complex; the callers must not modify the rows.
    Outside 0 <= q < top_dim, delta_q is the zero map, with one empty row
    per coordinate of C^{q+1}.
    """
    layout = _layout(cx, p)
    if not 0 <= q < cx.top_dim:
        return [{} for _ in range(_space_dim(layout, q + 1))]
    cache = _cache(cx)
    if ("delta", p, q) not in cache:
        cache[("delta", p, q)] = _write_delta_rows(cx, layout, p, q)
    return cache[("delta", p, q)]


def _write_delta_rows(cx, layout, p, q):
    """The rows of delta_q, written at the ``block_offsets`` of the layout.

    Row j of the block of a coface holds column j of each of its face
    maps, with the incidence sign folded in, in the columns of the face.
    """
    roff, nrows = block_offsets(layout[q + 1])
    coff, _ = block_offsets(layout[q])
    rows = [{} for _ in range(nrows)]
    for fid, cid, sign in cx.face_poset():
        face = cx.cells[fid]
        if face.dim != q:
            continue
        r0, c0 = roff[cid], coff[fid]
        for j, col in enumerate(cx.face_map_columns(face, cx.cells[cid], p)):
            row = rows[r0 + j]
            for i, x in enumerate(col):
                if x:
                    row[c0 + i] = x if sign > 0 else -x
    return rows


def build_cochain_complex(cx: TropComplex, p: int) -> CochainComplex:
    """The incidence complex for p, with every delta_q written (and cached)."""
    rows = tuple(_delta_rows(cx, p, q) for q in range(cx.top_dim))
    return CochainComplex(p, _layout(cx, p), rows)


def cohomology(cx: TropComplex, p: int, q: int) -> CohomologyResult:
    """H^{p,q} of the complex, exact over Q.

    A boundary-closed complex gets the dimension and representatives from
    its incidence cochain complex: ker delta_q modulo im delta_{q-1}, on
    the cached sparse rows of those two maps only.  Any other complex must
    be a tropical manifold: a complex over a smooth base fan
    (``weightss.trop_complex_for`` builds one for every non-complete fan
    it accepts) or a smooth tropical curve such as the tropical line.  Its
    dimension comes by Poincare duality from the compactly supported
    groups the incidence complex computes, with ``representatives=()``; a
    base fan that is not smooth raises ValueError.
    """
    d = _duality_dim(cx)
    if d is not None:
        return CohomologyResult(p, q, _dim(cx, p, q, d), ())
    incoming = _delta_rows(cx, p, q - 1) if q >= 1 else None
    reps = homology_quotient(
        _delta_rows(cx, p, q), _space_dim(_layout(cx, p), q), incoming
    )
    return CohomologyResult(p, q, len(reps), tuple(reps))


def _delta_rank(cx, p, q):
    """rk delta_q of the incidence complex for p, cached on the complex.

    The rows are the cached rows of :func:`_delta_rows`, ranked sparse;
    no dense differential is built for a rank.
    """
    cache = _cache(cx)
    if ("rank", p, q) not in cache:
        cache[("rank", p, q)] = sparse_rank(_delta_rows(cx, p, q))
    return cache[("rank", p, q)]


def _duality_dim(cx):
    """None if boundary closed, else the dimension d for Poincare duality."""
    if cx.is_boundary_closed():
        return None
    if not cx.base_fan.is_smooth():
        raise ValueError(
            "a complex that is not boundary closed needs a smooth base fan"
        )
    return cx.top_dim


def _dim(cx, p, q, d):
    """dim H^{p,q} from cached ranks, as dim H_c^{d-p,d-q} unless d is None."""
    if d is not None:
        if not (0 <= p <= d and 0 <= q <= d):
            return 0
        p, q = d - p, d - q
    return (
        _space_dim(_layout(cx, p), q)
        - _delta_rank(cx, p, q)
        - _delta_rank(cx, p, q - 1)
    )


def betti_table(cx: TropComplex):
    """Matrix h[p][q] for 0 <= p,q <= n, from ranks alone.

    The dimensions are those :func:`cohomology` gives, with the same
    contract, but no representative is computed: dim C^q - rk delta_q -
    rk delta_{q-1} of the incidence complex, taken at (d-p, d-q) by
    Poincare duality where the complex is not boundary closed.
    """
    n = cx.base_fan.ambient_rank
    d = _duality_dim(cx)
    return [[_dim(cx, p, q, d) for q in range(n + 1)] for p in range(n + 1)]


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
