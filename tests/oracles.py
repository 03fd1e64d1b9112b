"""Test oracles for tropical cohomology, independent of the incidence model.

* a face-poset (derived limit) complex built from strict chains of
  cells, which computes sheaf cohomology of F^p without any
  compactness assumption, so it checks the Poincare-duality path that
  ``trophodge.cohomology`` takes on complexes that are not boundary
  closed;
* a Cech complex on the open cover by open stars;
* the ranks of the incidence complex of the cells
  (:func:`unreduced_betti_table`), which the Betti tables of the orbit
  complex of the base fan replaced.

The first two build their own matrices and share only the exact linear
algebra and the face index of a complex with the production path.  They read
F_p as the span :func:`f_lower` computes, of the p-fold wedges of the
projected rays of the stratum cofaces of a cell, and each face map as
:func:`fraction_face_map` computes it, so they also run on a complex
whose F_p are not all of wedge^p N_sigma, such as :func:`tropical_line`,
which ``TropComplex.f_lower`` rejects.

The complexes that only tests build are here too: :func:`refined_complex`
(a cell structure from a refinement of the fan), :func:`torus_complex`,
:func:`affine_complex` and :func:`tropical_line`, with the face relation
:func:`is_face_of`, the scan of all candidate faces of each cell that
the codim-1 incidence of ``TropComplex`` replaced (:func:`face_scan`),
and the incidence lookups on it :func:`faces_of`, :func:`cofaces_of` and
:func:`stratum_cofaces`.

The rational lattice geometry that the integer stratum maps and
incidence signs of ``trophodge.tropspace`` replaced is kept here too,
as :func:`fraction_face_map` and :func:`fraction_incidence_sign`: the
stratum map solved over Q, its wedge power as Plucker coordinates of its
columns, and each face vector lifted into the coface span by a solve.

The Fraction Fourier-Motzkin elimination that the integer ``fans.feasible``
replaced is kept as :func:`fraction_feasible`.  The Smith normal form
U @ m @ V = D that ``fans.orbit_frame`` read before the row-only
``exactla.unimodular_echelon`` replaced it, with the same pivot rule and
the same U on smooth cones, is :func:`smith_normal_form`; its test of
smoothness, which the minors of ``fans.is_smooth`` replaced, is
:func:`smith_is_smooth`.  The generator-coordinate programs that decided
pointedness and extremal rays before ``Cone`` read them off its facets
are :func:`pointed`, :func:`in_cone_of` and :func:`extremal`, and the
faces and facets of a cone from the facet normals of each face, before
the face lattice of ``fans`` read them off the facets of the given cone,
are :func:`faces_by_normals` and :func:`facets_by_normals`.

:func:`wedge_vector` gives the Plucker coordinates of rational vectors,
each a Fraction minor of the rows cleared of denominators; it is the
reference for the content-keyed minors of ``exactla.wedge_columns``,
which production reads for every wedge block and volume element.

:func:`composes_to` multiplies matrices given as rows, for the checks
that delta and d_1 square to zero and that face maps compose.  The face
maps between cells of full F_p are :func:`face_map_columns`, dense
columns (:func:`dense_columns` of the sparse ``stratum_wedge``), and
:func:`coordinates` reads a vector in the echelon basis of a
``QSubspace``; no production path needs either.

:func:`_rref` is a textbook Gauss-Jordan elimination on dense Fraction
rows, the reference for every kernel and span of ``exactla``, which
keeps only a forward elimination.  :func:`homology_quotient` is the
reference for ``exactla.homology_quotient``: the RREF of
ker d_out + im d_in from the canonical null vectors of d_out
(:func:`null_rows`) and the columns of d_in, by a second full reduced
elimination, which the one forward elimination of the production path
replaced.  The cell orientations and volume elements that
``tropspace`` reads off the minors of the cell frames are kept
as :func:`rref_orientation` and :func:`rref_volume_element`, read off
the RREF basis of the cell span (:func:`cell_span`).

The negative control of the E_2 = tropical check is a d_1 with one block
sign flipped: :func:`flip_first_d1_block` wraps a d_1, and
:func:`corrupted_d1` puts the wrapped one in place of ``weightss.d1``
for the length of a ``with`` block.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import weakref
from fractions import Fraction

from trophodge import fans, weightss
from trophodge.cohomology import CohomologyResult, cochains
from trophodge.exactla import (
    QSubspace,
    _bareiss,
    _cleared,
    _gauss_jordan,
    block_offsets,
    ZMatrix,
    lex_subsets,
    sparse_rank,
    sparse_rows,
)
from trophodge.fans import Cone, Fan, faces, orbit_frame
from trophodge.tropspace import Cell, TropComplex, stratum_wedge


_held = {}


def _cache(cx):
    """The oracles' own dict for a complex, dropped with the complex."""
    if id(cx) not in _held:
        _held[id(cx)] = {}
        weakref.finalize(cx, _held.pop, id(cx))
    return _held[id(cx)]


def composes_to(after, before, product=None):
    """Whether after @ before equals ``product``, or is zero if it is None.

    Each matrix is a sequence of rows, a row a {column: entry} dict or a
    dense sequence.  A face map comes as its columns, the rows of its
    transpose, so the columns of A @ B are (columns of B) @ (columns of A).
    """
    def entries(row):
        return row.items() if isinstance(row, dict) else enumerate(row)

    if product is not None and len(product) != len(after):
        return False
    for i, row in enumerate(after):
        acc = {}
        for j, x in entries(row):
            for k, y in entries(before[j]):
                acc[k] = acc.get(k, 0) + x * y
        want = {} if product is None else dict(entries(product[i]))
        if {k: x for k, x in acc.items() if x} != {k: x for k, x in want.items() if x}:
            return False
    return True


def _integer_rows(rows):
    """Each row times the positive lcm of its denominators, and their product.

    Scaling rows by positive factors keeps the sign of a determinant and
    divides its value by the product.
    """
    out = []
    scale = 1
    for row in rows:
        ints, m = _cleared(row)
        out.append(ints)
        scale *= m
    return out, scale


def wedge_vector(vectors, n, p):
    """Plucker coordinates of v_1 ^ ... ^ v_p in the lex p-subset basis of Q^n.

    They are the p x p minors of the rows v_i, which are cleared of
    denominators once for all of them; the reference for the columns of
    ``exactla.wedge_columns``.
    """
    if len(vectors) != p:
        raise ValueError("need exactly p vectors")
    a, scale = _integer_rows(vectors)
    return tuple(
        Fraction(_bareiss([[row[j] for j in cols] for row in a]), scale)
        for cols in lex_subsets(n, p)
    )


def dense_columns(columns, nrows):
    """Sparse (row index, entry) columns, as ``exactla.wedge_columns``
    gives them, as dense integer columns of ``nrows`` entries."""
    out = []
    for col in columns:
        dense = [0] * nrows
        for i, x in col:
            dense[i] = x
        out.append(tuple(dense))
    return tuple(out)


def _rref(rows, ncols):
    """Reduced row echelon form over Q of sparse rows, by textbook
    Gauss-Jordan elimination on dense Fraction rows.

    ``rows`` are {column: entry} dicts over ``ncols`` columns.  Returns
    (pivots, reduced_rows): the pivot columns in increasing order and the
    nonzero rows, dense tuples of Fraction with unit pivots.  It shares
    no step with ``exactla``, whose kernels and spans it checks.
    """
    work = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(work)) if work[i][c]), None)
        if i is None:
            continue
        work[r], work[i] = work[i], work[r]
        v = work[r][c]
        top = work[r] = [x / v for x in work[r]]
        for other in work:
            if other is not top and other[c]:
                f = other[c]
                other[:] = [a - f * b for a, b in zip(other, top)]
        pivots.append(c)
    return pivots, [tuple(row) for row in work[:len(pivots)]]


def null_rows(rows, ncols):
    """The canonical basis of the right null space of sparse rows.

    ``rows`` are {column: entry} dicts over ``ncols`` columns, which
    :func:`_rref` reduces.  For each free column f the vector is e_f
    minus the entries at column f of the unit-pivot rows, as a sparse
    row of Fractions; the basis is not itself reduced.  The reference for
    the kernels of ``exactla._kernel_rows``, which reverse the columns
    and back-solve instead.
    """
    pivots, red = _rref(rows, ncols)
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        row = {c: -v[f] for c, v in zip(pivots, red) if v[f]}
        row[f] = Fraction(1)
        out.append(row)
    return out


def homology_quotient(out_rows, ncols, in_rows):
    """The rows of the RREF of ker d_out + im d_in at the pivots that are
    not pivots of im, as dense tuples of Fraction; arguments as for
    ``exactla.homology_quotient``.

    The kernel enters the RREF as the canonical null vectors of
    ``out_rows``, the image as the columns of ``in_rows``; the RREF of the
    sum does not depend on which spanning rows it starts from.
    """
    kernel = null_rows(out_rows, ncols)
    columns = {}
    for i, row in enumerate(in_rows or ()):
        for j, x in row.items():
            if x:
                columns.setdefault(j, {})[i] = x
    image = [columns[j] for j in sorted(columns)]
    image_pivots = _gauss_jordan(image)
    pivots, red = _rref(image + kernel, ncols)
    return tuple(r for c, r in zip(pivots, red) if c not in image_pivots)


def flip_first_d1_block(d1):
    """The d_1 that negates the first block sigma < tau of ``d1``.

    The first block is the first face pair in ``_e1_layout`` order, sigma
    in the source layout and tau in the target layout.  The flip cannot
    show on p1, torus(n), affine_space(1) and affine_space(2): a torus has
    no d_1 blocks, and on the others the flip is a change of basis, so
    d_1 still squares to zero and no rank changes.
    """
    def flipped(fan, p, q):
        rows, ncols = d1(fan, p, q)
        src = weightss._e1_layout(fan, p, q)
        dst = weightss._e1_layout(fan, p + 1, q)
        roff, _ = block_offsets(dst)
        coff, _ = block_offsets(src)
        for sigma, width in src:
            for tau, height in dst:
                if sigma in faces(tau):
                    r0, c0 = roff[tau], coff[sigma]
                    cols = range(c0, c0 + width)
                    for r in range(r0, r0 + height):
                        rows[r] = {
                            c: -x if c in cols else x for c, x in rows[r].items()
                        }
                    return rows, ncols
        return rows, ncols

    return flipped


@contextlib.contextmanager
def corrupted_d1():
    """``weightss.d1`` with its first block flipped, inside the block only.

    The cached E_2 pages are dropped on entry and on exit, so no page
    built with one d_1 is read under the other.
    """
    build = weightss.d1
    weightss.e2_page.cache_clear()
    weightss.d1 = flip_first_d1_block(build)
    try:
        yield
    finally:
        weightss.d1 = build
        weightss.e2_page.cache_clear()


def _minimal_containing_cone(fan: Fan, eta: Cone):
    best = None
    for sigma in fan.cones:
        if all(sigma.contains(r) for r in eta.rays):
            if best is None or sigma.dim < best.dim:
                best = sigma
    return best


def refined_complex(fan: Fan, refinement: Fan) -> TropComplex:
    """Cell structure on Trop(T_fan) whose shapes come from a refinement.

    The refinement must contain every cone of the fan and may subdivide
    the rest of its (possibly larger) support, as when refining a
    completion of a non-complete fan.  A cone tau' of the refinement
    reaches the stratum of sigma exactly when some face of tau' has sigma
    as its minimal containing cone, and the lifted shape of that cell is
    sigma + tau'.  With the fan itself as the refinement this reproduces
    the tautological complex.  Subdividing a base cone is rejected: the
    corner cell of its stratum could no longer name its cofaces through
    lifted cone faces.
    """
    n = fan.ambient_rank
    for sigma in fan.cones:
        if not refinement.contains_cone(sigma):
            raise ValueError("refinement must keep every base cone intact")
    cells = set()
    for taup in refinement.cones:
        for eta in faces(taup):
            sigma = _minimal_containing_cone(fan, eta)
            if sigma is None:
                continue
            lift = Cone(n, list(sigma.rays) + list(taup.rays))
            cells.add(Cell(sigma, lift))
    return TropComplex(fan, cells)


def torus_complex(n: int) -> TropComplex:
    """R^n with the orthant cell structure (the fan {0} has one cell only)."""
    return TropComplex.tautological(fans.torus(n), fans.orthant_fan(n))


def affine_complex(n: int) -> TropComplex:
    """Trop(A^n) with the orthant cell structure."""
    return TropComplex.tautological(fans.affine_space(n), fans.orthant_fan(n))


def tropical_line() -> TropComplex:
    """The tropical line in R^2: a vertex and rays e1, e2, -e1-e2.

    No cell has a full-dimensional stratum coface, so its F_p are the
    proper spans of :func:`f_lower`.
    """
    t2 = fans.torus(2)
    zero = Cone(2, [])
    cells = [Cell(zero, zero)]
    for ray in [(1, 0), (0, 1), (-1, -1)]:
        cells.append(Cell(zero, Cone(2, [ray])))
    return TropComplex(t2, cells)


def is_face_of(face, cell) -> bool:
    """The face relation of cells: sigma <= sigma' and tau' <= tau."""
    return (
        cell.sedentarity in faces(face.sedentarity)
        and face.tau in faces(cell.tau)
    )


def cells_of_dim(cx: TropComplex, d):
    return tuple(c for c in cx.cells if c.dim == d)


def face_scan(cx: TropComplex):
    """(faces, full, missing) per cell id, by a scan of all candidate faces.

    The candidates of a cell (sigma, tau) are the (s, t) with t a face of
    tau and sigma a face of s, 3^dim of them on a simplicial shape: the
    ids of those present, the cell included, in order; whether a cell of
    its sedentarity that is full-dimensional in its stratum has it as a
    face; and the (s, t) missing from the complex.
    """
    cache = _cache(cx)
    if "scan" not in cache:
        index = {(c.sedentarity, c.tau): i for i, c in enumerate(cx.cells)}
        down, missing = [], []
        full = [False] * len(cx.cells)
        for cell in cx.cells:
            ids, lack = [], []
            top = cell.dim == cell.stratum_rank
            for t in faces(cell.tau):
                for s in faces(t):
                    if cell.sedentarity in faces(s):
                        i = index.get((s, t))
                        if i is None:
                            lack.append((s, t))
                        else:
                            ids.append(i)
                            if top and s == cell.sedentarity:
                                full[i] = True
            down.append(tuple(sorted(ids)))
            missing.append(tuple(lack))
        cache["scan"] = (tuple(down), tuple(full), tuple(missing))
    return cache["scan"]


def faces_of(cx: TropComplex, cell):
    """The faces of a cell, itself included, from :func:`face_scan`."""
    return tuple(cx.cells[i] for i in face_scan(cx)[0][cx.cell_id(cell)])


def cofaces_of(cx: TropComplex, cell):
    """The cofaces of a cell, itself included, in cell order."""
    cache = _cache(cx)
    if "up" not in cache:
        up = [[] for _ in cx.cells]
        for i, ids in enumerate(face_scan(cx)[0]):
            for j in ids:
                up[j].append(i)
        cache["up"] = up
    return tuple(cx.cells[i] for i in cache["up"][cx.cell_id(cell)])


def stratum_cofaces(cx: TropComplex, cell):
    """The cofaces of a cell in its stratum, itself included."""
    return tuple(
        c for c in cofaces_of(cx, cell) if c.sedentarity == cell.sedentarity
    )


def f_lower(cx: TropComplex, cell, p) -> QSubspace:
    """F_p(cell) as a span, in lex coordinates of wedge^p N_sigma.

    F_p(P) is the sum of wedge^p T(c) over the stratum cofaces c of P,
    and wedge^p T(c) is spanned by the wedges of the p-subsets of the
    projected rays of c; so F_p(P) is the span of all those wedges.  On a
    cell with a full-dimensional stratum coface it is the whole space,
    as ``TropComplex.f_lower`` returns it.
    """
    cache = _cache(cx)
    key = ("f_p", cx.cell_id(cell), p)
    if key not in cache:
        n = cell.stratum_rank
        wedges = {
            wedge_vector(sub, n, p)
            for c in stratum_cofaces(cx, cell)
            for sub in itertools.combinations(projected_rays(c), p)
        }
        cache[key] = QSubspace.span(sorted(wedges), math.comb(n, p))
    return cache[key]


def coordinates(space: QSubspace, vec):
    """Coordinates of vec in the canonical basis of a subspace, or None if
    outside.

    They can only be vec's entries at the pivots; vec lies in the
    subspace iff that combination of the basis also matches it at the
    other columns.  On the whole space, with the identity basis, they
    are vec itself.
    """
    if len(vec) != space.ambient_dim:
        raise ValueError("vector length mismatch")
    if len(space.pivots) == space.ambient_dim:
        return tuple(map(Fraction, vec))
    coords = tuple(Fraction(vec[c]) for c in space.pivots)
    terms = [(a, v) for a, v in zip(coords, space.basis) if a]
    pivot_set = set(space.pivots)
    for j, x in enumerate(vec):
        if j not in pivot_set and x != sum(a * v[j] for a, v in terms if v[j]):
            return None
    return coords


def face_map_columns(cx: TropComplex, face, coface, p):
    """i_{P2 < P1}: F_p(P1) -> F_p(P2) in the identity bases, by columns.

    It is wedge^p of the stratum map N_sigma1 -> N_sigma2,
    ``tropspace.stratum_wedge`` of the two sedentarities: the identity
    inside a stratum.  A pair across strata with a smaller face shape needs
    the cell it factors through, (face sedentarity, coface shape).  Both
    cells must have a full-dimensional stratum coface (``cx.f_lower``
    raises ValueError otherwise).
    """
    if not is_face_of(face, coface):
        raise ValueError("a face map requires a face pair")
    if face.sedentarity != coface.sedentarity and face.tau != coface.tau:
        mid = Cell(face.sedentarity, coface.tau)
        try:
            cx.cell_id(mid)
        except KeyError:
            raise ValueError(
                "composite face map needs the intermediate cell "
                f"({mid.label()}) in the complex"
            ) from None
    cx.f_lower(face, p)
    cx.f_lower(coface, p)
    wedge = stratum_wedge(coface.sedentarity, face.sedentarity, p)
    return dense_columns(wedge, math.comb(face.stratum_rank, p))


def projected_rays(cell) -> tuple:
    """The nonzero images of the lifted rays of a cell in N_sigma, in ints."""
    sed = cell.sedentarity
    return tuple(v for v in (fans.project(sed, r) for r in cell.tau.rays) if any(v))


def cell_span(cell) -> QSubspace:
    """The Q-span of a cell in N_sigma, by the RREF of its projected rays."""
    n = cell.stratum_rank
    return QSubspace(n, _rref(sparse_rows(projected_rays(cell)), n)[1])


def rref_orientation(cell):
    """The orientation of a cell against the RREF basis of its span: the
    sign of the determinant of its projected rays at the pivot columns,
    +1 for a point, None when the rays are dependent.  The reference for
    the orientation ``TropComplex.face_poset`` reads, the sign of
    ``tropspace._frame`` on a cell of independent free rays, which is
    that of the first nonzero maximal minor instead."""
    rays = projected_rays(cell)
    if len(rays) != cell.dim:
        return None
    det = _bareiss([[v[j] for j in cell_span(cell).pivots] for v in rays])
    return 1 if det > 0 else -1


def rref_volume_element(cell):
    """The primitive integer multiple of the wedge of the RREF basis of the
    cell span.  The reference for ``tropspace.volume_element``, which reads
    the maximal minors of the projected rays instead."""
    basis = cell_span(cell).basis
    wedge, _ = _cleared(wedge_vector(basis, cell.stratum_rank, len(basis)))
    return fans.primitive(wedge)


def _put(rows, r0, c0, block, sign):
    """Write sign times a block, given by its rows, into sparse rows at (r0, c0)."""
    for r, row in enumerate(block):
        for c, x in enumerate(row):
            if x:
                rows[r0 + r][c0 + c] = sign * x


def unreduced_dim(cx: TropComplex, p, q):
    """dim H^q of the incidence complex for p from its unreduced ranks:
    dim C^q - rk delta_q - rk delta_{q-1} of the rows ``CochainComplex``
    writes, the Betti table path that the orbit complex replaced."""
    cc = cochains(cx, p)
    return cc.space_dim(q) - sparse_rank(cc.delta(q)) - sparse_rank(cc.delta(q - 1))


def unreduced_betti_table(cx: TropComplex):
    """h[p][q] from :func:`unreduced_dim`, taken at (d-p, d-q) with d the
    top dimension where the complex is not boundary closed."""
    n = cx.base_fan.ambient_rank
    d = None if cx.is_boundary_closed() else cx.top_dim

    def h(p, q):
        if d is None:
            return unreduced_dim(cx, p, q)
        if not (0 <= p <= d and 0 <= q <= d):
            return 0
        return unreduced_dim(cx, d - p, d - q)

    return [[h(p, q) for q in range(n + 1)] for p in range(n + 1)]


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
            [cx.cell_id(c) for c in cofaces_of(cx, cell) if c != cell]
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
    dims = [f_lower(cx, c, p).dim for c in cx.cells]
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
        roff, nrows = block_offsets(layouts[k + 1])
        coff, ncols = block_offsets(layouts[k])
        rows = [{} for _ in range(nrows)]
        for target, _ in layouts[k + 1]:
            for i in range(len(target)):
                source = target[:i] + target[i + 1:]
                if source not in live[k]:
                    continue
                sign = -1 if i % 2 else 1
                if i < len(target) - 1:
                    # both chains end at the same cell: the identity of F^p there
                    d = dims[target[-1]]
                    block = [[int(a == b) for b in range(d)] for a in range(d)]
                else:
                    # the dual face map, rows indexed by the coface basis
                    face, coface = cx.cells[source[-1]], cx.cells[target[-1]]
                    block = fraction_face_map(cx, face, coface, p)
                _put(rows, roff[target], coff[source], block, sign)
        if k == 0:
            ker0 = QSubspace.kernel(rows, ncols)
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
        frozenset(cx.cell_id(f) for f in faces_of(cx, c)) for c in cx.cells
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
    dims = [f_lower(cx, c, p).dim for c in cx.cells]
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
                    rho = fraction_face_map(cx, cx.cells[a], cx.cells[b], p)
                    for r in range(dims[b]):
                        row = {offs[a] + cidx: x for cidx, x in enumerate(rho[r]) if x}
                        row[offs[b] + r] = -1
                        rows.append(row)
            sections[s] = (QSubspace.kernel(rows, off), offs, off)
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
        coff, space_dims[k] = block_offsets(col_layout)
        roff, nrows = block_offsets(row_layout)
        rows = [{} for _ in range(nrows)]
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
            coords_all = [coordinates(gt, w) for w in ws]
            for i, s, sdim, start in segments:
                sign = -1 if i % 2 else 1
                block = zip(*coords_all[start:start + sdim])
                _put(rows, roff[t], coff[s], block, sign)
        ranks[k] = sparse_rank(rows)
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


def _solve(a, b, ncols):
    """One solution x of a @ x = b over Q, from the RREF of [a | b], or None."""
    aug = [dict(enumerate(list(row) + [y])) for row, y in zip(a, b)]
    pivots, red = _rref(aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for c, row in zip(pivots, red):
        x[c] = row[ncols]
    return x


def _apply(rows, vec):
    return [sum(a * x for a, x in zip(row, vec)) for row in rows]


@functools.lru_cache(maxsize=None)
def fraction_stratum_projection(sed_small, sed_big) -> tuple:
    """N_{sigma1} -> N_{sigma2} over Q, as rows: proj2 solved against proj1."""
    p1 = orbit_frame(sed_small)[0]
    p1t = [[row[j] for row in p1.entries] for j in range(p1.cols)]
    rows = []
    for row in orbit_frame(sed_big)[0].entries:
        sol = _solve(p1t, row, p1.rows)
        if sol is None:
            raise ValueError("stratum projections are not nested")
        rows.append(tuple(sol))
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def _fraction_stratum_wedge(sed_small, sed_big, p) -> tuple:
    """The columns of wedge^p of the rational stratum map, in lex bases:
    column s holds the Plucker coordinates of the columns of the map in s."""
    b = fraction_stratum_projection(sed_small, sed_big)
    n_small = orbit_frame(sed_small)[0].rows
    cols = [[row[j] for row in b] for j in range(n_small)]
    return tuple(
        wedge_vector([cols[j] for j in s], len(b), p) for s in lex_subsets(n_small, p)
    )


def fraction_face_map(cx: TropComplex, face, coface, p) -> tuple:
    """The columns of i_{P2 < P1} between the spans of :func:`f_lower`:
    column j holds the coordinates, in the canonical basis of F_p(face), of
    the image of the j-th basis vector of F_p(coface) under the rational
    wedge of the stratum map."""
    cache = _cache(cx)
    key = ("map", cx.cell_id(face), cx.cell_id(coface), p)
    if key not in cache:
        src = f_lower(cx, coface, p)
        dst = f_lower(cx, face, p)
        if face.sedentarity == coface.sedentarity:
            images = list(src.basis)
        else:
            wedge = _fraction_stratum_wedge(coface.sedentarity, face.sedentarity, p)
            images = [_apply(zip(*wedge), v) for v in src.basis]
        cols = []
        for img in images:
            coords = coordinates(dst, img)
            if coords is None:
                raise ValueError("face map image leaves the target F_p")
            cols.append(coords)
        cache[key] = tuple(cols)
    return cache[key]


def fraction_incidence_sign(face, coface):
    """The incidence sign with each face vector lifted by a rational solve."""
    bp = cell_span(coface)
    proj = orbit_frame(coface.sedentarity)[0].entries
    face_basis = cell_span(face).basis
    if face.sedentarity == coface.sedentarity:
        off_face = [r for r in coface.tau.rays if r not in face.tau.rays]
        first = [-x for x in _apply(proj, [sum(c) for c in zip(*off_face)])]
        lifted = list(face_basis)
    else:
        sed = coface.sedentarity
        new_rays = [r for r in face.sedentarity.rays if r not in sed.rays]
        first = _apply(proj, [sum(c) for c in zip(*new_rays)])
        b = fraction_stratum_projection(coface.sedentarity, face.sedentarity)
        lift_system = [_apply(bp.basis, row) for row in b]
        lifted = [
            _apply(zip(*bp.basis), _solve(lift_system, v, bp.dim)) for v in face_basis
        ]
    rows = []
    for vec in [first] + lifted:
        coords = coordinates(bp, vec)
        if coords is None:
            raise ValueError("orientation vector leaves the coface span")
        rows.append(coords)
    d = bp.dim
    (det,) = wedge_vector(rows, d, d)
    if det == 0:
        raise ValueError("degenerate incidence orientation")
    return 1 if det > 0 else -1


def fraction_feasible(nvars, eqs, ineqs):
    """Feasibility of {x : E (x,1) = 0, A (x,1) >= 0} in Fractions.

    Equalities are removed by substitution of a solved variable, the rest
    by Fourier-Motzkin elimination, every row kept as it comes.
    """
    eqs = [[Fraction(c) for c in row] for row in eqs]
    ineqs = [[Fraction(c) for c in row] for row in ineqs]
    live = list(range(nvars))

    while eqs:
        eq = eqs.pop()
        var = next((v for v in live if eq[v] != 0), None)
        if var is None:
            if eq[nvars] != 0:
                return False
            continue
        pivval = eq[var]
        expr = [-c / pivval for c in eq]
        expr[var] = Fraction(0)
        for rows in (eqs, ineqs):
            for row in rows:
                f = row[var]
                if f:
                    for k in range(nvars + 1):
                        row[k] += f * expr[k]
                    row[var] = Fraction(0)
        live.remove(var)

    for var in list(live):
        pos = [r for r in ineqs if r[var] > 0]
        neg = [r for r in ineqs if r[var] < 0]
        new = [r for r in ineqs if r[var] == 0]
        for rp in pos:
            for rn in neg:
                combo = [rp[k] * (-rn[var]) + rn[k] * rp[var] for k in range(nvars + 1)]
                combo[var] = Fraction(0)
                new.append(combo)
        ineqs = new
    return all(r[nvars] >= 0 for r in ineqs)


def smith_normal_form(m: ZMatrix):
    """(U, D, V, U^-1) with U @ m @ V = D diagonal, U, V unimodular,
    d_i | d_{i+1}; each row operation on U takes its inverse column
    operation on U^-1.

    Deterministic: the pivot is always the smallest-magnitude nonzero
    entry of the working block, first occurrence in row-major order.
    """
    A = [list(row) for row in m.entries]
    R, C = m.rows, m.cols
    U = [[1 if i == j else 0 for j in range(R)] for i in range(R)]
    U_inv = [row[:] for row in U]
    V = [[1 if i == j else 0 for j in range(C)] for i in range(C)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for row in U_inv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, k):
        A[dst] = [a + k * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + k * b for a, b in zip(U[dst], U[src])]
        for row in U_inv:
            row[src] -= k * row[dst]

    def add_col(dst, src, k):
        for row in A:
            row[dst] += k * row[src]
        for row in V:
            row[dst] += k * row[src]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]
        for row in U_inv:
            row[i] = -row[i]

    t = 0
    while t < min(R, C):
        best = None
        for i in range(t, R):
            for j in range(t, C):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            piv = A[t][t]
            done = True
            for i in range(t + 1, R):
                if A[i][t] != 0:
                    q = A[i][t] // piv
                    add_row(i, t, -q)
                    if A[i][t] != 0:
                        swap_rows(t, i)
                        done = False
                        break
            if not done:
                continue
            for j in range(t + 1, C):
                if A[t][j] != 0:
                    q = A[t][j] // piv
                    add_col(j, t, -q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        done = False
                        break
            if done:
                piv = A[t][t]
                bad = None
                for i in range(t + 1, R):
                    for j in range(t + 1, C):
                        if A[i][j] % piv != 0:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                add_row(t, bad, 1)
        if A[t][t] < 0:
            negate_row(t)
        t += 1
    z = ZMatrix._of_ints
    return z(R, R, U), z(R, C, A), z(C, C, V), z(R, R, U_inv)


def smith_is_smooth(cone) -> bool:
    """Whether the rays of a cone extend to a Z-basis of N, by the Smith
    normal form of the ray matrix: one invariant factor per ray, all 1."""
    if cone.is_zero:
        return True
    mat = ZMatrix.from_rows([list(r) for r in cone.rays], cone.ambient_rank)
    d = smith_normal_form(mat)[1].entries
    divisors = [d[i][i] for i in range(min(len(d), cone.ambient_rank)) if d[i][i]]
    return len(divisors) == len(cone.rays) and all(x == 1 for x in divisors)


def in_cone_of(n, rays, vec):
    """vec in cone(rays), decided in generator coordinates: a point x >= 0
    with sum x_i rays_i = vec."""
    k = len(rays)
    eqs = [[rays[i][c] for i in range(k)] + [-vec[c]] for c in range(n)]
    ineqs = [[int(i == j) for i in range(k)] + [0] for j in range(k)]
    return fraction_feasible(k, eqs, ineqs)


def pointed(n, rays):
    """Whether cone(rays) contains no line: 0 is not in the convex hull of
    the rays, so no combination with multipliers >= 0 sends the (r, 1) to
    (0, 1)."""
    return not in_cone_of(n + 1, [tuple(r) + (1,) for r in rays], (0,) * n + (1,))


def extremal(n, rays):
    """The rays of a pointed cone that are not in the cone of the others."""
    return [r for i, r in enumerate(rays) if not in_cone_of(n, rays[:i] + rays[i + 1:], r)]


def facets_by_normals(cone):
    """The facets of a cone from its own facet normals, sorted by rays,
    each with the rank of its rays as dim."""
    n = cone.ambient_rank
    return tuple(
        Cone._canonical(n, rays, sparse_rank(sparse_rows(rays)))
        for _, rays in fans._facet_normals(cone)
    )


@functools.lru_cache(maxsize=None)
def faces_by_normals(cone):
    """All faces of a cone, by recursion through :func:`facets_by_normals`
    of each face."""
    out = {cone}
    for facet in facets_by_normals(cone):
        out.update(faces_by_normals(facet))
    return frozenset(out)
