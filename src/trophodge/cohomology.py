"""Tropical cohomology H^{p,q} of a stratified cell complex.

One class, :class:`CochainComplex`, holds every cochain complex of the
module: a block complex for one p, with a block F^p = (wedge^p
N_sigma)^dual for each open cell of sedentarity sigma, and the signed
duals of the stratum maps as differential.  It owns the block layout,
writes each delta_q once as sparse integer rows at the
``block_offsets`` of that layout, holds the rows, and ranks them once.
Each face map is read as sparse columns from
:func:`~trophodge.tropspace.stratum_wedge` of the two sedentarity
cones, whose minors come from the content-keyed store of
``exactla.wedge_columns``: a stratum map that many cone pairs share,
such as the identity of each rank, is expanded once.  Two builders feed
it, and they differ only in the cells, their sedentarity cones, their
degrees and their signed face pairs.

Betti tables come from :func:`orbit_cochains`, the orbit complex of the
base fan.  Its open cells are the strata N_sigma,R of the tropical toric
variety, one per cone, of dimension n - dim sigma, whose closures are
the unions of the strata of the cones over sigma (Kajiwara, "Tropical
toric geometry", Contemp. Math. 460, 2008; Payne, "Analytification is
the limit of all tropicalizations", Math. Res. Lett. 2009).  So C^q is
the direct sum of wedge^p N_sigma over the cones sigma of dimension
n - q, and the block of delta_q from sigma to a facet sigma' is
epsilon(sigma', sigma) times :func:`~trophodge.tropspace.stratum_wedge`,
the wedge of the stratum map N_sigma' -> N_sigma.  The sign epsilon is
that of det[rho-bar | L] in N_sigma' coordinates, for rho-bar the image
of a ray of sigma off sigma' and L the lifts of a basis of N_sigma: the
orientation N_sigma,R takes as a face at infinity of N_sigma',R.  The
complex has as many coordinates as the E_1 page of the weight spectral
sequence (121 on P^4, whose cells carry 1,441).

A Betti table is a function of the fan alone, and :func:`betti_table`
builds no cell.  On a complete fan the strata make up a compact space
and the orbit complex computes sheaf cohomology.  On one that is not
complete the orbit complex over its cones computes the compactly
supported groups, and Poincare duality on a smooth tropical manifold of
dimension n, H^{p,q} = (H_c^{n-p,n-q})^dual (Jell-Shaw-Smacka,
"Superforms, tropical cohomology and Poincare duality", arXiv:1512.07409),
turns them into h^{p,q}.  A cell complex stands for its base fan once its
cells cover every stratum (``TropComplex.require_covered_strata``).

Cells are built only where a cochain lives on them.  Representatives (a
basis of ker modulo im) come from :func:`cohomology`, on boundary-closed
complexes, from :func:`cochains`, the incidence complex of the cells:
C^q is the direct sum of F^p over the q-cells, and delta_q is written
from their signed codim-1 face pairs; :mod:`trophodge.cycles` reads its
layout and rows.  No dense differential is built on any path; the one
dense view, ``CochainComplex.deltas``, is an integer ``ZMatrix`` per
delta_q, for the benchmark's counts, and no matrix of Fractions exists.

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
    ZMatrix,
    _bareiss,
    block_offsets,
    homology_quotient,
    sparse_rank,
)
from trophodge.record import Record
from trophodge.tropspace import TropComplex, stratum_wedge


class CochainComplex:
    """Block cochain complex for a fixed p, as sparse integer rows.

    ``seds[i]`` is the sedentarity cone sigma of id i; ``layout[q]``
    lists the ids of degree q in block order; and ``pairs(q)`` gives the
    (face id, coface id, scalar) triples of delta_q.  Every F_p is all of
    wedge^p N_sigma, so id i has a block of C(rank N_sigma, p)
    coordinates, and the block of delta_q from a face to a coface is the
    scalar times the ``stratum_wedge`` of their sedentarities.  The
    offsets and block sizes of each C^q are made with the complex;
    :meth:`delta` writes each delta_q once and holds it, and
    :meth:`rank` ranks it once.  ``rows`` and the dense integer
    ``ZMatrix``es of :attr:`deltas`, built on request for the benchmark's
    counts, are views of every delta_q.  :func:`cochains` builds one from
    the cells of a complex, :func:`orbit_cochains` one from the cones of a
    fan.
    """

    def __init__(self, seds, layout, pairs, p):
        self.seds, self.layout, self.pairs, self.p = seds, layout, pairs, p
        self._dims = tuple(
            {i: math.comb(seds[i].ambient_rank - seds[i].dim, p) for i in ids}
            for ids in layout
        )
        self._offsets = tuple(block_offsets(dims.items()) for dims in self._dims)
        self._rows = {}
        self._ranks = {}

    def offsets(self, q):
        """{id: first coordinate of its block} in C^q; callers must not
        modify it."""
        return self._offsets[q][0]

    def block_dims(self, q):
        """{id: dimension of its block} in C^q, in block order; callers
        must not modify it."""
        return self._dims[q]

    def space_dim(self, q):
        return self._offsets[q][1] if 0 <= q < len(self.layout) else 0

    def delta(self, q):
        """Sparse rows {col: entry} of delta_q: C^q -> C^{q+1}, held.

        Each delta_q is written once, by :meth:`_write`; the callers must
        not modify the rows.  Outside 0 <= q < len(layout) - 1, delta_q is
        the zero map, with one empty row per coordinate of C^{q+1}.
        """
        if not 0 <= q < len(self.layout) - 1:
            return [{} for _ in range(self.space_dim(q + 1))]
        if q not in self._rows:
            self._rows[q] = self._write(q)
        return self._rows[q]

    def _write(self, q):
        """The rows of delta_q at the ``block_offsets`` of the layout.

        Row j of the block of a coface holds column j of each of its face
        maps, times the scalar, in the columns of the face.  A face map
        depends only on the two sedentarities; it is read, as sparse
        columns, from ``stratum_wedge``, whose minors are computed once per
        distinct stratum matrix and p.
        """
        roff, coff = self.offsets(q + 1), self.offsets(q)
        rows = [{} for _ in range(self.space_dim(q + 1))]
        seds = self.seds
        for fid, cid, scalar in self.pairs(q):
            r0, c0 = roff[cid], coff[fid]
            for j, col in enumerate(stratum_wedge(seds[cid], seds[fid], self.p)):
                row = rows[r0 + j]
                for i, x in col:
                    row[c0 + i] = scalar * x
        return rows

    def rank(self, q):
        """rk delta_q, ranked sparse once."""
        if q not in self._ranks:
            self._ranks[q] = sparse_rank(self.delta(q))
        return self._ranks[q]

    def dim(self, q):
        """dim H^q = dim C^q - rk delta_q - rk delta_{q-1}."""
        return self.space_dim(q) - self.rank(q) - self.rank(q - 1)

    @property
    def rows(self):
        return tuple(self.delta(q) for q in range(len(self.layout) - 1))

    @property
    def deltas(self):
        out = []
        for q, rows in enumerate(self.rows):
            cols = range(self.space_dim(q))
            dense = [[row.get(j, 0) for j in cols] for row in rows]
            out.append(ZMatrix(self.space_dim(q + 1), len(cols), dense))
        return tuple(out)


def cochains(cx: TropComplex, p: int) -> CochainComplex:
    """The incidence cochain complex of the cells of ``cx`` for p, one per
    (complex, p): an id is a cell id, its sedentarity that of the cell,
    and the pairs are ``cx.face_pairs``."""
    if p not in cx.cochains:
        cx.require_full_cofaces()
        layout = [[] for _ in range(cx.top_dim + 1)]
        for i, c in enumerate(cx.cells):
            layout[c.dim].append(i)
        seds = tuple(c.sedentarity for c in cx.cells)
        cx.cochains[p] = CochainComplex(seds, layout, cx.face_pairs, p)
    return cx.cochains[p]


@functools.lru_cache(maxsize=None)
def _orbit_data(fan):
    """(seds, layout, pairs) of the orbit complex of a fan, for every p.

    A cone sigma of the fan is one open cell, the stratum N_sigma,R of
    dimension n - dim sigma; its id is its position in ``fan.cones``, and
    sigma is its sedentarity, so ``seds`` is ``fan.cones`` itself.
    ``layout[q]`` lists the ids of the cones of dimension n - q, in fan
    order.  ``pairs[q]`` lists (id of sigma, id of sigma',
    epsilon(sigma', sigma)) for each sigma in ``layout[q]`` and each facet
    sigma' of it, whose stratum has that of sigma as a face at infinity
    (:func:`_epsilon`).
    """
    n = fan.ambient_rank
    ids = {c: i for i, c in enumerate(fan.cones)}
    layout = tuple(
        tuple(ids[c] for c in fan.cones_of_dim(n - q)) for q in range(n + 1)
    )
    pairs = tuple(
        tuple(
            (i, ids[face], _epsilon(face, fan.cones[i]))
            for i in layout[q]
            for face in fan.cones[i].facets()
        )
        for q in range(n)
    )
    return fan.cones, layout, pairs


def _epsilon(face, cone):
    """The sign of det[rho-bar | L] in N_face coordinates, for a facet of a
    cone, with (rho-bar, L^T) = ``fans.facet_frame(face, cone)``, rho-bar
    the primitive lattice normal: the orientation N_cone,R takes as a face
    at infinity of N_face,R.  The determinant is not zero, as rho-bar and
    L are a basis of N_face tensor Q."""
    rho_bar, lifts = fans.facet_frame(face, cone)
    return 1 if _bareiss([list(rho_bar), *map(list, lifts.entries)]) > 0 else -1


@functools.lru_cache(maxsize=None)
def orbit_cochains(fan, p) -> CochainComplex:
    """The orbit complex of a fan for p, one per (fan, p): C^q has a block
    wedge^p N_sigma of C(q, p) coordinates for each cone sigma of
    dimension n - q, and the epsilon pairs are made once per fan."""
    seds, layout, pairs = _orbit_data(fan)
    return CochainComplex(seds, layout, pairs.__getitem__, p)


class CohomologyResult(Record):
    fields = ("p", "q", "dim", "representatives")


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
    cover every stratum of its base fan, which must be smooth.  Its
    dimension is that of :func:`betti_table` of the base fan, with
    ``representatives=()``; ValueError otherwise.
    """
    if not cx.is_boundary_closed():
        cx.require_covered_strata()
        return CohomologyResult(p, q, hodge_number(cx.base_fan, p, q), ())
    cc = cochains(cx, p)
    incoming = cc.delta(q - 1) if q >= 1 else None
    reps = homology_quotient(cc.delta(q), cc.space_dim(q), incoming)
    return CohomologyResult(p, q, len(reps), tuple(reps))


def _duality_dim(fan):
    """None on a complete fan, else the dimension n for Poincare duality."""
    if fans.is_complete(fan):
        return None
    if not fan.is_smooth():
        raise ValueError("a fan that is not complete needs a smooth base fan")
    return fan.ambient_rank


def _dim(fan, p, q, d):
    """dim H^{p,q} from the orbit complex of the fan, as dim H_c^{d-p,d-q}
    unless d is None."""
    if d is not None:
        if not (0 <= p <= d and 0 <= q <= d):
            return 0
        p, q = d - p, d - q
    return orbit_cochains(fan, p).dim(q)


def hodge_number(fan, p, q):
    """h^{p,q} of a fan, its :func:`betti_table` entry, from one orbit complex."""
    return _dim(fan, p, q, _duality_dim(fan))


def betti_table(fan):
    """Matrix h[p][q] for 0 <= p,q <= n, from the ranks of the orbit complex.

    The dimensions are those :func:`cohomology` gives, but no cell is
    built and no representative is computed: dim C^q - rk delta_q -
    rk delta_{q-1} of the orbit complex of the fan, taken at (n-p, n-q)
    by Poincare duality where the fan is not complete, which needs a
    smooth fan.  A ``TropComplex`` stands for its base fan once its cells
    cover every stratum of it; otherwise ValueError.
    """
    if isinstance(fan, TropComplex):
        fan.require_covered_strata()
        fan = fan.base_fan
    n = fan.ambient_rank
    d = _duality_dim(fan)
    return [[_dim(fan, p, q, d) for q in range(n + 1)] for p in range(n + 1)]


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
