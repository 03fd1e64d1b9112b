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

Betti tables come from the stratum Morse complex of a complex, its
:class:`MorseComplex`, which :func:`morse` returns.  Every F_p is all of
wedge^p N_sigma, so inside a stratum each face map is the identity and
across strata it is :func:`~trophodge.tropspace.stratum_wedge` of the two
sedentarities.  Cells are matched inside each stratum by lexicographic
element matchings on ray ids, and the p = 0 complex, whose blocks are
the incidence signs, is reduced once along the matching: each matched
pair is a unit pivot, eliminated as in Kaczynski-Mrozek-Slusarek
("Homology computation by reduction of chain complexes", 1998).  Since
the face maps compose, the reduced block between two critical cells is
the same scalar epsilon times ``stratum_wedge`` for every p (algebraic
discrete Morse theory: Skoldberg, "Morse theory from an algebraic
viewpoint", Trans. AMS 2006).  So a Betti table ranks only these blocks,
as many coordinates as the E_1 page on a complete smooth fan, and writes
no unreduced delta.

Representatives (a basis of ker modulo im) come from :func:`cohomology`,
on boundary-closed complexes, from the unreduced rows: for each p the
complex has one :class:`CochainComplex`, which :func:`cochains` returns.
It owns the block layout of the C^q and writes each delta_q once, as
sparse integer rows at the ``block_offsets`` of that layout, from one
block per pair of sedentarities, and holds the rows for the life of the
complex.  The cycles of :mod:`trophodge.cycles` read the same layout and
rows.  No dense differential is built on either path; the one dense
view, ``CochainComplex.deltas``, is for the benchmark's counts.

The unreduced ranks, and the face-poset and Cech models, that
cross-check these paths are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import json
import math

from trophodge.exactla import QMatrix, block_offsets, homology_quotient, sparse_rank
from trophodge.record import Record
from trophodge.tropspace import TropComplex, stratum_wedge


class CochainComplex:
    """Incidence cochain complex of a complex for a fixed p, as sparse rows.

    ``layout[q]`` lists (cell_id, block_dim) in block order; every F_p is
    all of wedge^p N_sigma, so a block has C(stratum rank, p) coordinates.
    The offsets, block sizes and dimension of each C^q are made once with
    the layout.  :meth:`delta` writes the {column: entry} rows of
    delta_q: C^q -> C^{q+1} once and holds them.  ``rows`` and the dense
    ``QMatrix`` :attr:`deltas`, built on request for the benchmark's
    counts, are views of every delta_q.  Get one with :func:`cochains`.
    """

    def __init__(self, cx: TropComplex, p: int):
        cx.require_full_cofaces()
        self.cx = cx
        self.p = p
        layout = [[] for _ in range(cx.top_dim + 1)]
        for i, c in enumerate(cx.cells):
            layout[c.dim].append((i, math.comb(c.stratum_rank, p)))
        self.layout = tuple(map(tuple, layout))
        self._offsets = tuple(block_offsets(blocks) for blocks in self.layout)
        self._dims = tuple(dict(blocks) for blocks in self.layout)
        self._blocks = {}  # (coface, face) sedentarity masks -> columns
        self._rows = {}

    def offsets(self, q):
        """{cell_id: first coordinate of its block} in C^q; callers must not
        modify it."""
        return self._offsets[q][0]

    def block_dims(self, q):
        """{cell_id: dimension of its block} in C^q; callers must not
        modify it."""
        return self._dims[q]

    def space_dim(self, q):
        return self._offsets[q][1] if 0 <= q < len(self.layout) else 0

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
        """The rows of delta_q, written at the ``block_offsets`` of the
        layout from the pairs of ``face_pairs(q)`` and their signs."""
        return _block_rows(
            self.cx, self.cx.face_pairs(q), self.p, self._blocks,
            self.offsets(q + 1), self.offsets(q), self.space_dim(q + 1),
        )

    @property
    def rows(self):
        return tuple(self.delta(q) for q in range(self.cx.top_dim))

    @property
    def deltas(self):
        return tuple(
            QMatrix.from_sparse(rows, self.space_dim(q))
            for q, rows in enumerate(self.rows)
        )


def _block_rows(cx, pairs, p, blocks, roff, coff, nrows):
    """Rows of a coboundary from (face id, coface id, scalar) triples.

    Row j of the block of a coface holds column j of each of its face
    maps, times the scalar, in the columns of the face.  Every F_p is all
    of wedge^p N_sigma, so a face map depends only on the two
    sedentarities: it is their ``stratum_wedge``, made once per pair of
    sedentarity masks as sparse columns and kept in ``blocks``.
    """
    cells, keys = cx.cells, cx.cell_keys
    rows = [{} for _ in range(nrows)]
    for fid, cid, scalar in pairs:
        key = (keys[cid][0], keys[fid][0])
        cols = blocks.get(key)
        if cols is None:
            wedge = stratum_wedge(cells[cid].sedentarity, cells[fid].sedentarity, p)
            cols = blocks[key] = _sparse_columns(wedge)
        r0, c0 = roff[cid], coff[fid]
        for j, col in enumerate(cols):
            row = rows[r0 + j]
            for i, x in col:
                row[c0 + i] = scalar * x
    return rows


def _sparse_columns(cols):
    return tuple(tuple((i, x) for i, x in enumerate(col) if x) for col in cols)


class MorseComplex:
    """The incidence complexes of a complex, for every p, reduced along one
    acyclic matching inside the strata.

    ``matching`` lists the eliminated pairs (face id, coface id), in the
    order of elimination; ``critical[q]`` the ids of the critical q-cells,
    in cell order; ``reduced[q]`` the triples (face id, coface id,
    epsilon) of the reduced p = 0 differential from critical q-cells to
    critical (q+1)-cells.  For each p the reduced delta_q has the block
    epsilon times ``stratum_wedge`` at each such pair; :meth:`rank` ranks
    it once.  Get one with :func:`morse`.
    """

    def __init__(self, cx: TropComplex):
        cx.require_full_cofaces()
        self.cx = cx
        self.matching, self.critical, self.reduced = _reduce(cx)
        self._blocks = {}  # p -> {(coface, face) sedentarity masks: columns}
        self._ranks = {}

    def layout(self, p, q):
        """(cell_id, block_dim) of the critical q-cells, in block order."""
        cells = self.cx.cells
        return tuple(
            (i, math.comb(cells[i].stratum_rank, p)) for i in self.critical.get(q, ())
        )

    def space_dim(self, p, q):
        return sum(d for _, d in self.layout(p, q))

    def rank(self, p, q):
        """rk of the reduced delta_q for p, ranked sparse once."""
        if (p, q) not in self._ranks:
            rank = 0
            if q in self.reduced:
                roff, nrows = block_offsets(self.layout(p, q + 1))
                coff, _ = block_offsets(self.layout(p, q))
                rows = _block_rows(
                    self.cx, self.reduced[q], p, self._blocks.setdefault(p, {}),
                    roff, coff, nrows,
                )
                rank = sparse_rank(rows)
            self._ranks[p, q] = rank
        return self._ranks[p, q]

    def dim(self, p, q):
        """dim H^q of the incidence complex for p, from the reduced ranks."""
        return self.space_dim(p, q) - self.rank(p, q) - self.rank(p, q - 1)


def _reduce(cx):
    """(matching, critical, reduced) of :class:`MorseComplex`.

    Inside each stratum, a cell (sigma, tau) is matched with (sigma, tau +
    r) for the rays r in id order, when both are still unmatched: the
    lexicographic element matchings on ray ids (Kozlov, *Combinatorial
    Algebraic Topology*, ch. 11).  Each pair is eliminated from the p = 0
    complex as it is matched, by the Schur complement of its entry:
    entries (x, y) with x a face of the coface and y a coface of the face
    take -e(x, coface) e(face, coface) e(face, y), and both cells leave
    the complex.  A pair whose entry is no longer a unit by then stays
    critical, so every step is an exact reduction whatever the order.
    """
    cells, keys = cx.cells, cx.cell_keys
    pairs = cx.face_poset()
    up = [{} for _ in cells]  # face id -> {coface id: entry}
    down = [{} for _ in cells]  # coface id -> {face id: entry}
    for f, c, sign in pairs:
        up[f][c] = down[c][f] = sign
    moves = []  # (bit of r, face id, coface id) for (sigma, tau) < (sigma, tau + r)
    for f, c, _ in pairs:
        bit = keys[c][1] ^ keys[f][1]
        if keys[f][0] == keys[c][0] and not bit & (bit - 1):
            moves.append((bit, f, c))
    moves.sort()
    matched, matching = [False] * len(cells), []
    for _, a, b in moves:
        if matched[a] or matched[b] or up[a].get(b) not in (1, -1):
            continue
        e = up[a][b]
        faces_b = [(x, v * e) for x, v in down[b].items() if x != a]
        cofaces_a = [(y, w) for y, w in up[a].items() if y != b]
        for x, v in faces_b:
            row = up[x]
            for y, w in cofaces_a:
                entry = row.get(y, 0) - v * w
                if entry:
                    row[y] = down[y][x] = entry
                else:
                    del row[y], down[y][x]
        for cell in (a, b):
            for y in up[cell]:
                del down[y][cell]
            for x in down[cell]:
                del up[x][cell]
            up[cell], down[cell] = {}, {}
        matched[a] = matched[b] = True
        matching.append((a, b))
    critical, reduced = {}, {}
    for i, cell in enumerate(cells):
        if not matched[i]:
            critical.setdefault(cell.dim, []).append(i)
            reduced.setdefault(cell.dim, []).extend((i, y, e) for y, e in up[i].items())
    return (
        tuple(matching),
        {q: tuple(ids) for q, ids in critical.items()},
        {q: tuple(trips) for q, trips in reduced.items() if trips},
    )


class CohomologyResult(Record):
    fields = ("p", "q", "dim", "representatives")


def morse(cx: TropComplex) -> MorseComplex:
    """The stratum Morse complex of ``cx``, one per complex."""
    if cx.morse is None:
        cx.morse = MorseComplex(cx)
    return cx.morse


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
    the held sparse rows of those two maps only.  The representatives are
    the rows of the RREF of ker delta_q + im delta_{q-1} at the pivots
    that are not pivots of the image.  Since delta_q delta_{q-1} = 0,
    ``exactla.homology_quotient`` reads them off one forward elimination
    of delta_q with rightmost pivots and back-solves only those rows; the
    block sizes come from the stratum ranks.  Any other complex must
    be a tropical manifold: a complex over a smooth base fan
    (``weightss.trop_complex_for`` builds one for every non-complete fan
    it accepts).  Its dimension comes by Poincare duality from the compactly supported
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
    """dim H^{p,q} from the Morse complex, as dim H_c^{d-p,d-q} unless d is None."""
    if d is not None:
        if not (0 <= p <= d and 0 <= q <= d):
            return 0
        p, q = d - p, d - q
    return morse(cx).dim(p, q)


def betti_table(cx: TropComplex):
    """Matrix h[p][q] for 0 <= p,q <= n, from reduced ranks alone.

    The dimensions are those :func:`cohomology` gives, with the same
    contract, but no representative is computed and no unreduced delta is
    written: dim C^q - rk delta_q - rk delta_{q-1} of the stratum Morse
    complex, taken at (d-p, d-q) by Poincare duality where the complex is
    not boundary closed.
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
