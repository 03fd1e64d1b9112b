"""Tropical cohomology H^{p,q} of a stratified cell complex.

Two cochain complexes compute it, both with F^p = (wedge^p N_sigma)^dual
on the cells of sedentarity sigma, and with the signed duals of the
stratum maps as differential.

Betti tables come from the orbit complex of the base fan, its
:class:`OrbitComplex`, which :func:`orbit_complex` returns.  Its open
cells are the strata N_sigma,R of the tropical toric variety, one per
cone, of dimension n - dim sigma, whose closures are the unions of the
strata of the cones over sigma (Kajiwara, "Tropical toric geometry",
Contemp. Math. 460, 2008; Payne, "Analytification is the limit of all
tropicalizations", Math. Res. Lett. 2009).  So C^q is the direct sum of
wedge^p N_sigma over the cones sigma of dimension n - q, and the block of
delta_q from sigma to a facet sigma' is epsilon(sigma', sigma) times
:func:`~trophodge.tropspace.stratum_wedge`, the wedge of the stratum map
N_sigma' -> N_sigma.  The sign epsilon is that of det[rho-bar | L] in
N_sigma' coordinates, for rho-bar the image of a ray of sigma off sigma'
and L the lifts of a basis of N_sigma: the orientation N_sigma,R takes
as a face at infinity of N_sigma',R.  The complex has as many
coordinates as the E_1 page of the weight spectral sequence (121 on P^4,
whose cells carry 1,441).

Any cell complex whose cells cover every stratum of its base fan is a
cell structure on the same space, so its cohomology is that of the orbit
complex (``TropComplex.require_covered_strata`` decides the cover from
the cells).  On a complete fan that space is compact and the complex
computes sheaf cohomology.  On a fan that is not complete it is open, the
orbit complex over the cones of the fan computes the compactly supported
groups, and Poincare duality on a tropical manifold of dimension d,
H^{p,q} = (H_c^{d-p,d-q})^dual (Jell-Shaw-Smacka, "Superforms, tropical
cohomology and Poincare duality", arXiv:1512.07409), turns them into
h^{p,q}.

Representatives (a basis of ker modulo im) come from :func:`cohomology`,
on boundary-closed complexes, from the incidence complex of the cells:
C^q is the direct sum of F^p over the q-cells, and for each p the
complex has one :class:`CochainComplex`, which :func:`cochains` returns.
It owns the block layout of the C^q and writes each delta_q once, as
sparse integer rows at the ``block_offsets`` of that layout, from the
signed codim-1 face pairs and one block per pair of sedentarities, and
holds the rows for the life of the complex.  The cycles of
:mod:`trophodge.cycles` read the same layout and rows.  Both complexes
write their blocks with one writer, and no dense differential is built
on any path; the one dense view, ``CochainComplex.deltas``, is for the
benchmark's counts.

The unreduced ranks of the incidence complex, and the face-poset and Cech
models, that cross-check these paths are test oracles in
``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import json
import math

from trophodge import fans
from trophodge.exactla import (
    QMatrix,
    _bareiss,
    block_offsets,
    homology_quotient,
    sparse_rank,
)
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
        self._seds = tuple(
            (s, c.sedentarity) for c, (s, _) in zip(cx.cells, cx.cell_keys)
        )
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
            self.cx.face_pairs(q), self._seds, self.p, self._blocks,
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


def _block_rows(pairs, seds, p, blocks, roff, coff, nrows):
    """Rows of a coboundary from (face id, coface id, scalar) triples.

    The ids are cell ids of a complex or cone ids of an orbit complex, and
    ``seds[i]`` is (key, cone) of the sedentarity of id i, its key an int:
    the sedentarity mask of a cell, or the id of a cone.  Row j of the
    block of a coface holds column j of each of its face maps, times the
    scalar, in the columns of the face.  Every F_p is all of wedge^p
    N_sigma, so a face map depends only on the two sedentarities: it is
    their ``stratum_wedge``, made once per pair of keys as sparse columns
    and kept in ``blocks``.
    """
    rows = [{} for _ in range(nrows)]
    for fid, cid, scalar in pairs:
        (c_key, c_sed), (f_key, f_sed) = seds[cid], seds[fid]
        cols = blocks.get((c_key, f_key))
        if cols is None:
            wedge = stratum_wedge(c_sed, f_sed, p)
            cols = blocks[c_key, f_key] = _sparse_columns(wedge)
        r0, c0 = roff[cid], coff[fid]
        for j, col in enumerate(cols):
            row = rows[r0 + j]
            for i, x in col:
                row[c0 + i] = scalar * x
    return rows


def _sparse_columns(cols):
    return tuple(tuple((i, x) for i, x in enumerate(col) if x) for col in cols)


class OrbitComplex:
    """The cochain complexes of the orbit strata of a fan, for every p.

    A cone sigma of the fan is one open cell, the stratum N_sigma,R of
    dimension n - dim sigma, and a cone id is its position in
    ``fan.cones``.  ``layout[q]`` lists the ids of the cones of dimension
    n - q, in fan order: C^q has a block wedge^p N_sigma of C(q, p)
    coordinates for each of them.  ``pairs[q]`` lists (id of sigma, id of
    sigma', epsilon) for each cone sigma in ``layout[q]`` and each facet
    sigma' of it, whose stratum has that of sigma as a face at infinity:
    the block of delta_q from sigma to sigma' is epsilon(sigma', sigma)
    times ``stratum_wedge(sigma', sigma, p)`` (:func:`_epsilon`).
    :meth:`rank` ranks each delta_q once.  Get one with
    :func:`orbit_complex`.
    """

    def __init__(self, fan):
        n = fan.ambient_rank
        ids = {c: i for i, c in enumerate(fan.cones)}
        self.fan = fan
        self._seds = tuple(enumerate(fan.cones))
        self.layout = tuple(
            tuple(ids[c] for c in fan.cones_of_dim(n - q)) for q in range(n + 1)
        )
        self.pairs = {
            q: tuple(
                (i, ids[face], _epsilon(face, fan.cones[i]))
                for i in self.layout[q]
                for face in fans.faces(fan.cones[i])
                if face.dim == n - q - 1
            )
            for q in range(n)
        }
        self._ranks = {}

    def space_dim(self, p, q):
        if not 0 <= q < len(self.layout):
            return 0
        return len(self.layout[q]) * math.comb(q, p)

    def delta(self, p, q):
        """Sparse rows {col: entry} of delta_q: C^q -> C^{q+1} for p.

        Outside 0 <= q < n, delta_q is the zero map, with one empty row per
        coordinate of C^{q+1}.
        """
        if not 0 <= q < len(self.layout) - 1:
            return [{} for _ in range(self.space_dim(p, q + 1))]
        roff, nrows = block_offsets((i, math.comb(q + 1, p)) for i in self.layout[q + 1])
        coff, _ = block_offsets((i, math.comb(q, p)) for i in self.layout[q])
        # each facet pair has its own block, so no block is written twice
        return _block_rows(self.pairs[q], self._seds, p, {}, roff, coff, nrows)

    def rank(self, p, q):
        """rk delta_q for p, ranked sparse once."""
        if (p, q) not in self._ranks:
            self._ranks[p, q] = sparse_rank(self.delta(p, q))
        return self._ranks[p, q]

    def dim(self, p, q):
        """dim H^q of the orbit complex for p."""
        return self.space_dim(p, q) - self.rank(p, q) - self.rank(p, q - 1)


def _epsilon(face, cone):
    """The sign of det[rho-bar | L] in N_face coordinates, for a facet of a
    cone, with (rho-bar, L^T) = ``fans.facet_frame(face, cone)``: the
    orientation N_cone,R takes as a face at infinity of N_face,R.  The
    determinant is not zero, as rho-bar and L are a basis of N_face
    tensor Q."""
    rho_bar, lifts = fans.facet_frame(face, cone)
    return 1 if _bareiss([list(rho_bar), *map(list, lifts.entries)]) > 0 else -1


@functools.lru_cache(maxsize=None)
def orbit_complex(fan) -> OrbitComplex:
    """The orbit complex of a fan, one per fan."""
    return OrbitComplex(fan)


class CohomologyResult(Record):
    fields = ("p", "q", "dim", "representatives")


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
    block sizes come from the stratum ranks.  Any other complex must be a
    tropical manifold whose cells cover every stratum of its base fan, a
    smooth one (``weightss.trop_complex_for`` builds one for every
    non-complete fan it accepts).  Its dimension comes by Poincare
    duality from the compactly supported groups of the orbit complex of
    the base fan, with ``representatives=()``; a base fan that is not
    smooth raises ValueError, as does a stratum the cells do not cover.
    """
    d = _duality_dim(cx)
    if d is not None:
        return CohomologyResult(p, q, _dim(_orbit(cx), p, q, d), ())
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


def _orbit(cx):
    """The orbit complex of the base fan, once the cells are known to
    cover every stratum of it (``TropComplex.require_covered_strata``)."""
    cx.require_covered_strata()
    return orbit_complex(cx.base_fan)


def _dim(orbit, p, q, d):
    """dim H^{p,q} from the orbit complex, as dim H_c^{d-p,d-q} unless d is None."""
    if d is not None:
        if not (0 <= p <= d and 0 <= q <= d):
            return 0
        p, q = d - p, d - q
    return orbit.dim(p, q)


def betti_table(cx: TropComplex):
    """Matrix h[p][q] for 0 <= p,q <= n, from the ranks of the orbit complex.

    The dimensions are those :func:`cohomology` gives, but no
    representative is computed and no cell of the complex enters a
    differential: dim C^q - rk delta_q - rk delta_{q-1} of the orbit
    complex of the base fan, taken at (d-p, d-q) by Poincare duality where
    the complex is not boundary closed.  The cells must cover every
    stratum of the base fan; otherwise ValueError.
    """
    n = cx.base_fan.ambient_rank
    d = _duality_dim(cx)
    orbit = _orbit(cx)
    return [[_dim(orbit, p, q, d) for q in range(n + 1)] for p in range(n + 1)]


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
