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

For each p the complex has one :class:`CochainComplex`, which
:func:`cochains` returns.  It owns the block layout of the C^q, writes
each delta_q once, as sparse integer rows at the ``block_offsets`` of
that layout, and ranks it once; it holds rows and ranks for the life of
the complex.  Dimensions come from ranks alone: dim H^q = dim C^q -
rk delta_q - rk delta_{q-1}, which is all :func:`betti_table` computes.
Representatives (a basis of ker modulo im) come only from
:func:`cohomology`, on boundary-closed complexes, from the same rows;
the cycles of :mod:`trophodge.cycles` read the same layout and rows.  No
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


class CochainComplex:
    """Incidence cochain complex of a complex for a fixed p, as sparse rows.

    ``layout[q]`` lists (cell_id, block_dim) in block order.  :meth:`delta`
    writes the {column: entry} rows of delta_q: C^q -> C^{q+1} once and
    holds them; :meth:`rank` ranks them once.  ``rows`` and the dense
    ``QMatrix`` :attr:`deltas`, built on request for the benchmark's
    counts, are views of every delta_q.  Get one with :func:`cochains`.
    """

    def __init__(self, cx: TropComplex, p: int):
        self.cx = cx
        self.p = p
        self.layout = tuple(
            tuple((cx.cell_id(c), cx.f_lower(c, p).dim) for c in cx.cells_of_dim(q))
            for q in range(cx.top_dim + 1)
        )
        self._rows = {}
        self._ranks = {}

    def offsets(self, q):
        """{cell_id: first coordinate of its block} in C^q."""
        return block_offsets(self.layout[q])[0]

    def space_dim(self, q):
        return sum(d for _, d in self.layout[q]) if 0 <= q < len(self.layout) else 0

    def delta(self, q):
        """Sparse rows {col: entry} of delta_q: C^q -> C^{q+1}, held.

        Each delta_q is written once, by :meth:`_write`; the callers must
        not modify the rows.  Outside 0 <= q < top_dim, delta_q is the
        zero map, with one empty row per coordinate of C^{q+1}.
        """
        if not 0 <= q < self.cx.top_dim:
            return [{} for _ in range(self.space_dim(q + 1))]
        if q not in self._rows:
            self._rows[q] = self._write(q)
        return self._rows[q]

    def _write(self, q):
        """The rows of delta_q, written at the ``block_offsets`` of the layout.

        Row j of the block of a coface holds column j of each of its face
        maps, with the incidence sign folded in, in the columns of the face.
        """
        cx, roff, coff = self.cx, self.offsets(q + 1), self.offsets(q)
        rows = [{} for _ in range(self.space_dim(q + 1))]
        for fid, cid, sign in cx.face_poset():
            face = cx.cells[fid]
            if face.dim != q:
                continue
            r0, c0 = roff[cid], coff[fid]
            for j, col in enumerate(cx.face_map_columns(face, cx.cells[cid], self.p)):
                row = rows[r0 + j]
                for i, x in enumerate(col):
                    if x:
                        row[c0 + i] = x if sign > 0 else -x
        return rows

    def rank(self, q):
        """rk delta_q, ranked sparse once; no dense differential is built."""
        if q not in self._ranks:
            self._ranks[q] = sparse_rank(self.delta(q))
        return self._ranks[q]

    @property
    def rows(self):
        return tuple(self.delta(q) for q in range(self.cx.top_dim))

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


def cochains(cx: TropComplex, p: int) -> CochainComplex:
    """The incidence cochain complex of ``cx`` for p, one per (complex, p)."""
    if p not in cx.cochains:
        cx.cochains[p] = CochainComplex(cx, p)
    return cx.cochains[p]


def build_cochain_complex(cx: TropComplex, p: int) -> CochainComplex:
    """The incidence complex for p, with every delta_q written (and held)."""
    cc = cochains(cx, p)
    for q in range(cx.top_dim):
        cc.delta(q)
    return cc


def cohomology(cx: TropComplex, p: int, q: int) -> CohomologyResult:
    """H^{p,q} of the complex, exact over Q.

    A boundary-closed complex gets the dimension and representatives from
    its incidence cochain complex: ker delta_q modulo im delta_{q-1}, on
    the held sparse rows of those two maps only.  Any other complex must
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
    cc = cochains(cx, p)
    incoming = cc.delta(q - 1) if q >= 1 else None
    reps = homology_quotient(cc.delta(q), cc.space_dim(q), incoming)
    return CohomologyResult(p, q, len(reps), tuple(reps))


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
    """dim H^{p,q} from held ranks, as dim H_c^{d-p,d-q} unless d is None."""
    if d is not None:
        if not (0 <= p <= d and 0 <= q <= d):
            return 0
        p, q = d - p, d - q
    cc = cochains(cx, p)
    return cc.space_dim(q) - cc.rank(q) - cc.rank(q - 1)


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
