"""The compactified fan space as a stratified cell complex.

A cell carries a sedentarity cone sigma (which stratum at infinity it
lives in) and a shape, kept as a lifted cone tau in N with sigma as a
face, so the face relation is uniform:

    (sigma', tau') is a face of (sigma, tau)  iff
    sigma is a face of sigma' and tau' is a face of tau.

Multi-tangent spaces F_p(P) = sum over the stratum cofaces tau of P of
wedge^p T(tau) live in lex wedge coordinates of the stratum lattice
N_sigma.  Over a complete structure fan, as every complex that
``weightss.trop_complex_for`` builds has, each cell has a stratum coface
that is full-dimensional in its stratum, so F_p(P) is all of
wedge^p N_sigma, with the identity basis.  The cochain, Morse and cycle
layers read its block size C(stratum rank, p) off the cell, after one
check per complex, :meth:`TropComplex.require_full_cofaces`;
:meth:`TropComplex.f_lower` is the view of one F_p as a subspace.  Both
raise ValueError on a cell with no such coface.

The incidence of the complex is its codimension-1 face relation, found by
lookup in an index of the cells on ray ids.  The rays of the cell shapes,
in sorted order, are numbered, and a cell is keyed by the bitmasks of the
rays of its sedentarity and of its shape (``TropComplex.cell_keys``).  A
codim-1 face of a cell either keeps its sedentarity and drops a free ray
from the shape (a face in its stratum), or keeps the shape and moves a
free ray into the sedentarity (a face at infinity): at most 2 dim
lookups per cell of a simplicial shape.  A shape that is not simplicial
takes its facets, and its faces one dimension above the sedentarity,
from ``fans.faces``.  Closure under faces, full-dimensional stratum
cofaces and boundary closedness all follow from the codim-1 faces, since
the face poset of a cell is graded.  The span basis of a cell, the image
of each ray in each N_sigma, and the stratum projections N_sigma1 ->
N_sigma2 with their wedge powers are cached like the cone data of
:mod:`trophodge.fans`.

Each cell is oriented by the RREF basis of its span.  When the projected
rays R of a cell c are independent, as for every cell of a simplicial
fan, its orientation o(c) = sign det(R at the pivot columns of that
basis) is taken once, +1 for a point.  A codim-1 face f of c drops one
ray r of R, at position k, and keeps the rest in order; its sign is
-(-1)^k o(f) o(c) inside a stratum, f = (sigma, tau minus r), and
(-1)^k o(f) o(c) across strata, f = (sigma + r, tau).  Only a pair with a
cell of dependent projected rays takes the determinant of
:meth:`TropComplex._incidence_sign`.

The lattice data is integral in orbit-lattice coordinates: the projected
rays (``fans.project``), the stratum maps proj2 @ ``fans.proj_section``
(integral because each projection N -> N_sigma is onto) and their wedge
powers (``exactla.wedge_columns``, shared with d_1 in
:mod:`trophodge.weightss`) are computed in ints, and every Plucker
coordinate and orientation is an integer determinant.  Since every F_p
has the identity basis, every face map is integral: :func:`stratum_wedge`
of the two sedentarities, the identity inside a stratum.
"""

from __future__ import annotations

import functools
import math

from trophodge import fans
from trophodge.exactla import (
    QSubspace,
    ZMatrix,
    _bareiss,
    integer_rref,
    pivot_columns,
    sparse_rows,
    wedge_columns,
    wedge_vector,
)
from trophodge.fans import Cone, Fan, face_set, faces, orbit_lattice
from trophodge.record import Record


class Cell(Record):
    """Cell of a stratified complex: sedentarity cone plus lifted shape cone."""

    fields = ("sedentarity", "tau")

    def __init__(self, sedentarity: Cone, tau: Cone):
        if sedentarity not in face_set(tau):
            raise ValueError("sedentarity must be a face of the lifted shape")
        object.__setattr__(self, "sedentarity", sedentarity)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "_hash", hash((sedentarity, tau)))

    def __hash__(self):
        return self._hash

    @functools.cached_property
    def dim(self):
        return self.tau.dim - self.sedentarity.dim

    @property
    def stratum_rank(self):
        return self.sedentarity.ambient_rank - self.sedentarity.dim

    def sort_key(self):
        return (self.dim, self.sedentarity.dim, self.sedentarity.rays, self.tau.rays)

    def label(self):
        return f"sed={list(self.sedentarity.rays)} shape={list(self.tau.rays)}"


class TropComplex:
    """Finite stratified cell complex over a base fan."""

    def __init__(self, base_fan: Fan, cells, validate=True):
        ordered = tuple(sorted(set(cells), key=Cell.sort_key))
        if not all(base_fan.contains_cone(c.sedentarity) for c in ordered):
            raise ValueError("cell sedentarity is not a cone of the base fan")
        self.base_fan = base_fan
        self.cells = ordered
        rays = sorted({r for c in ordered for r in c.tau.rays})
        self._ray_bit = {r: 1 << i for i, r in enumerate(rays)}
        # (sedentarity mask, shape mask) of each cell, over the ray ids
        self.cell_keys = tuple(
            (self._mask(c.sedentarity), self._mask(c.tau)) for c in ordered
        )
        self._index = {k: i for i, k in enumerate(self.cell_keys)}
        self._ids = {c: i for i, c in enumerate(ordered)}
        self._poset_cache = None
        self._pairs_by_dim = None
        self._incidence_cache = None
        self.cochains = {}  # p -> cohomology.CochainComplex, by cohomology.cochains
        self.morse = None  # cohomology.MorseComplex, by cohomology.morse
        self.divisors = {}  # primitive ray -> cycles.TropCycle, by cycles.divisor_cycle
        if validate:
            self._validate()

    def __eq__(self, other):
        return (
            isinstance(other, TropComplex)
            and self.base_fan == other.base_fan
            and self.cells == other.cells
        )

    def __repr__(self):
        return f"TropComplex(cells={len(self.cells)})"

    # -- construction -------------------------------------------------

    @classmethod
    def tautological(cls, fan: Fan, structure: Fan | None = None):
        """Cells C_{sigma,tau} for sigma in the fan, tau a coface in `structure`.

        With the default structure (the fan itself) this is the tautological
        complex of Trop(T_Sigma).  A finer or larger complete structure fan
        gives the same space a different cell structure.
        """
        if structure is None:
            structure = fan
        elif not fan.is_subfan_of(structure):
            raise ValueError("base fan must be a subfan of the structure fan")
        cells = [
            Cell(sigma, tau)
            for tau in structure.cones
            for sigma in faces(tau)
            if fan.contains_cone(sigma)
        ]
        return cls(fan, cells, validate=False)

    # -- poset --------------------------------------------------------

    def _mask(self, cone):
        return sum(map(self._ray_bit.__getitem__, cone.rays))

    def cell_id(self, cell):
        return self._ids[cell]

    @property
    def top_dim(self):
        return self.cells[-1].dim if self.cells else 0  # cells are sorted by dim

    def _incidence(self):
        """(faces, full, missing, lacking): per cell id the sorted ids of its
        codim-1 faces, and whether it has a stratum coface full-dimensional
        in its stratum; then whether some codim-1 face in a stratum, and
        some at infinity, is missing; and the id of the first cell with no
        full-dimensional stratum coface, or None.

        A face in the stratum drops a free ray from the shape, a face at
        infinity moves it into the sedentarity.  A full-dimensional cell
        marks its faces in the stratum, and they mark theirs.
        """
        if self._incidence_cache is None:
            index, down, lack = self._index, [], [False, False]
            stratum_faces = []
            for cell, (s, t) in zip(self.cells, self.cell_keys):
                ids, same = [], []
                for at_infinity, key in self._codim1_keys(cell, s, t):
                    i = index.get(key)
                    if i is None:
                        lack[at_infinity] = True
                    else:
                        ids.append(i)
                        if not at_infinity:
                            same.append(i)
                down.append(tuple(sorted(ids)))
                stratum_faces.append(same)
            full = [c.dim == c.stratum_rank for c in self.cells]
            for i in reversed(range(len(self.cells))):  # cells are sorted by dim
                if full[i]:
                    for j in stratum_faces[i]:
                        full[j] = True
            lacking = next((i for i, f in enumerate(full) if not f), None)
            self._incidence_cache = (tuple(down), tuple(full), tuple(lack), lacking)
        return self._incidence_cache

    def _codim1_keys(self, cell, s, t):
        """(at infinity, key) of each codim-1 face of a cell with key (s, t)."""
        sed, tau = cell.sedentarity, cell.tau
        if len(tau.rays) == tau.dim:
            free = t & ~s
            while free:
                bit = free & -free
                free ^= bit
                yield False, (s, t ^ bit)
                yield True, (s | bit, t)
            return
        for face in faces(tau):
            m = self._mask(face)
            if s & ~m:
                continue
            if face.dim == tau.dim - 1:
                yield False, (s, m)
            if face.dim == sed.dim + 1:
                yield True, (m, t)

    def face_poset(self):
        """Codimension-1 face pairs: (face_id, coface_id, sign).

        The sign is read off one orientation per cell (:func:`_pair_sign`),
        or taken by :meth:`_incidence_sign` for a pair with a cell of
        dependent projected rays.  The pairs are also kept grouped by the
        dimension of the face, for :meth:`face_pairs`.
        """
        if self._poset_cache is None:
            orient = [_orientation(c) for c in self.cells]
            keys = self.cell_keys
            out, by_dim = [], {}
            for cid, faces_of in enumerate(self._incidence()[0]):
                coface = self.cells[cid]
                for fid in faces_of:
                    sign = _pair_sign(orient[fid], orient[cid], keys[fid], keys[cid])
                    if sign is None:
                        sign = self._incidence_sign(self.cells[fid], coface)
                    out.append((fid, cid, sign))
                    by_dim.setdefault(coface.dim - 1, []).append(out[-1])
            self._poset_cache = tuple(out)
            self._pairs_by_dim = {q: tuple(v) for q, v in by_dim.items()}
        return self._poset_cache

    def face_pairs(self, q):
        """The pairs of :meth:`face_poset` whose face has dimension q, in order."""
        self.face_poset()
        return self._pairs_by_dim.get(q, ())

    def is_boundary_closed(self):
        """True iff every face at infinity of every cell is present.

        Exactly then is the support compact and the plain incidence
        cochain complex computes sheaf cohomology: no codim-1 face at
        infinity of a cell is missing.
        """
        return not self._incidence()[2][1]

    # -- multi-tangent spaces -----------------------------------------

    def f_lower(self, cell, p) -> QSubspace:
        """F_p(cell): all of wedge^p N_sigma, with the identity basis.

        F_p is the sum of wedge^p T(c) over the stratum cofaces c of the
        cell, so one of them full-dimensional in the stratum makes it the
        whole space.  F^p is presented as the dual: a covector's
        coordinates are its pairings with that basis.  A cell with no such
        coface raises ValueError.
        """
        self._require_full(cell)
        return QSubspace.full(math.comb(cell.stratum_rank, p))

    def face_map_columns(self, face, coface, p):
        """i_{P2 < P1}: F_p(P1) -> F_p(P2) in the identity bases, by columns.

        It is wedge^p of the stratum map N_sigma1 -> N_sigma2,
        :func:`stratum_wedge` of the two sedentarities: the identity inside
        a stratum.  A pair across strata with a smaller face shape needs
        the cell it factors through, (face sedentarity, coface shape).
        """
        if not (
            coface.sedentarity in face_set(face.sedentarity)
            and face.tau in face_set(coface.tau)
        ):
            raise ValueError("a face map requires a face pair")
        if face.sedentarity != coface.sedentarity and face.tau != coface.tau:
            mid = Cell(face.sedentarity, coface.tau)
            if mid not in self._ids:
                raise ValueError(
                    "composite face map needs the intermediate cell "
                    f"({mid.label()}) in the complex"
                )
        self._require_full(face)
        self._require_full(coface)
        return stratum_wedge(coface.sedentarity, face.sedentarity, p)

    def require_full_cofaces(self):
        """ValueError unless every cell has a stratum coface that is
        full-dimensional in its stratum, so that every F_p(cell) is all of
        wedge^p N_sigma, of dimension C(stratum rank, p).

        The cochain, Morse and cycle layers read their block sizes off the
        stratum ranks after this one check per complex; the error names
        the first cell without such a coface, as :meth:`f_lower` does.
        """
        lacking = self._incidence()[3]
        if lacking is not None:
            self._require_full(self.cells[lacking])

    def _require_full(self, cell):
        """ValueError unless a stratum coface of the cell is full-dimensional."""
        if not self._incidence()[1][self.cell_id(cell)]:
            raise ValueError(
                f"cell ({cell.label()}) has no full-dimensional stratum "
                "coface, so its F_p is not all of wedge^p N_sigma"
            )

    # -- orientation and signs ----------------------------------------

    def _incidence_sign(self, face, coface):
        """Sign of the coface orientation against (outward vector, face).

        :meth:`face_poset` takes this determinant only for a pair with a
        cell of dependent projected rays; on any other pair it equals the
        sign :func:`_pair_sign` reads off the two cell orientations.

        Each cell is oriented by the RREF basis of its span.  Within a
        stratum the rows are the coordinates, in the coface basis, of the
        outward vector (minus the sum of the coface rays off the face) and
        of the face basis: their entries at the coface pivots.  Across
        strata the first row is the coordinate vector y of the sum of the
        new sedentarity rays, which the stratum map b kills; row i + 1
        holds, for each coface basis vector, b[i] at the i-th face pivot
        applied to it.  With X the coordinates of lifts of the face basis,
        the determinant is |y|^2 / det(y; X), so its sign is that of the
        lifted frame, with no lift computed.  Every row is in ints: the
        face basis vectors and the columns are scaled by the positive
        factors of :func:`_integer_basis`, which keeps the sign.
        """
        pivots, basis = _integer_basis(coface)
        scales = [v[c] for v, c in zip(basis, pivots)]
        sed = coface.sedentarity
        if face.sedentarity == sed:
            off_face = [r for r in coface.tau.rays if r not in face.tau.rays]
            vecs = [[-x for x in fans.project(sed, _ray_sum(off_face))]]
            vecs += _integer_basis(face)[1]
            b_rows = []
        else:
            new_rays = [r for r in face.sedentarity.rays if r not in sed.rays]
            vecs = [fans.project(sed, _ray_sum(new_rays))]
            b = _stratum_projection(sed, face.sedentarity).entries
            b_rows = [
                [sum(x * y for x, y in zip(b[i], v)) for v in basis]
                for i in _integer_basis(face)[0]
            ]
        for vec in vecs:
            if not _in_span(vec, basis, pivots):
                raise ValueError("orientation vector leaves the coface span")
        rows = [[m * vec[c] for m, c in zip(scales, pivots)] for vec in vecs]
        det = _bareiss((rows + b_rows)[:len(pivots)])
        if det == 0:
            raise ValueError("degenerate incidence orientation")
        return 1 if det > 0 else -1

    # -- validation ---------------------------------------------------

    def _validate(self):
        # a face in the stratum keeps the sedentarity
        if self._incidence()[2][0]:
            raise ValueError("complex is not closed under faces")
        by_sed = {}
        for cell in self.cells:
            by_sed.setdefault(cell.sedentarity, []).append(cell.tau)
        for shapes in by_sed.values():
            proper = {f for s in shapes for f in faces(s) if f != s}
            fans.check_face_intersections([s for s in shapes if s not in proper])


@functools.lru_cache(maxsize=None)
def volume_element(cell: Cell):
    """Primitive generator of wedge^dim of the cell span, oriented by the
    echelon basis of the span, as :meth:`TropComplex._incidence_sign` is.

    The rows of :func:`_integer_basis` are positive integer multiples of
    that basis, so their wedge is an integral positive multiple of its
    wedge.  It is computed once per cell."""
    _, basis = _integer_basis(cell)
    return fans.primitive(wedge_vector(basis, cell.stratum_rank, len(basis)))


def _orientation(cell: Cell):
    """The orientation o of the images R in N_sigma of the free rays of a
    cell (those of the shape off the sedentarity, in order) against the
    echelon basis of the span: o = sign det(R at the pivot columns of that
    basis, which are those of R), +1 for a point.  The images are nonzero,
    and o is None when they are dependent (more of them than dim)."""
    rays = _projected_rays(cell)
    if len(rays) != cell.dim:
        return None
    n = cell.stratum_rank
    pivots = range(n) if cell.dim == n else pivot_columns(sparse_rows(rays))
    det = _bareiss([[v[j] for j in pivots] for v in rays])
    return 1 if det > 0 else -1


def _pair_sign(o_f, o_c, face_key, coface_key):
    """The sign of :meth:`TropComplex._incidence_sign` for a codim-1 pair of
    cells with independent projected rays, from their orientations and
    their ``cell_keys``; None if either orientation is None.

    The face drops one free ray r of the coface, at position k among its
    free rays in id order, and keeps the others in order: inside one
    stratum r leaves the shape, across strata it joins the sedentarity
    and the shape stays.  Inside a stratum the frame (-r, face rays) is
    -(-1)^k times the coface frame; across strata the face rays lift to
    the coface rays other than r, and (r, lifts) is (-1)^k times the
    coface frame.  The orientations turn both frames into echelon bases.
    """
    if o_f is None or o_c is None:
        return None
    (s_f, t_f), (s_c, t_c) = face_key, coface_key
    same = s_f == s_c
    bit = t_c ^ t_f if same else s_f ^ s_c
    sign = o_f * o_c * (-1) ** (t_c & ~s_c & (bit - 1)).bit_count()
    return -sign if same else sign


def _in_span(vec, basis, pivots):
    """Whether an integer vector lies in the span of a scaled RREF basis.

    ``basis[k]`` is the k-th RREF vector, with its pivot at ``pivots[k]``,
    times m_k = basis[k][pivots[k]] > 0.  With L the lcm of the m_k, vec
    lies in the span iff L * vec = sum_k vec[pivots[k]] * (L / m_k) * basis[k].
    """
    if len(pivots) == len(vec):
        return True
    scales = [v[c] for v, c in zip(basis, pivots)]
    lcm = math.lcm(*scales)
    coeffs = [vec[c] * (lcm // m) for c, m in zip(pivots, scales)]
    return all(
        lcm * x == sum(a * v[j] for a, v in zip(coeffs, basis))
        for j, x in enumerate(vec)
    )


def _ray_sum(rays):
    return tuple(map(sum, zip(*rays)))


def _projected_rays(cell: Cell) -> tuple:
    """The nonzero images of the lifted rays of a cell in N_sigma, in ints."""
    sed = cell.sedentarity
    return tuple(v for v in (_project(sed, r) for r in cell.tau.rays) if any(v))


# a ray lies in many cells of one sedentarity; each image is computed once
_project = functools.lru_cache(maxsize=None)(fans.project)


@functools.lru_cache(maxsize=None)
def _integer_basis(cell: Cell) -> tuple:
    """(pivots, basis) of the cell span: the ``integer_rref`` rows of the
    projected rays (the identity on a full span) and their pivot columns."""
    n = cell.stratum_rank
    if cell.dim == n:
        return tuple(range(n)), ZMatrix.identity(n).entries
    basis = tuple(integer_rref(sparse_rows(_projected_rays(cell)), n))
    return tuple(next(j for j, x in enumerate(v) if x) for v in basis), basis


@functools.lru_cache(maxsize=None)
def _stratum_projection(sed_small: Cone, sed_big: Cone) -> ZMatrix:
    """Integer matrix b of N_{sigma1} -> N_{sigma2}, sigma1 a face of sigma2.

    It is the b with b @ proj1 = proj2; that b is integral, because proj1
    is onto, so b = proj2 @ (a right inverse of proj1).
    """
    p1 = orbit_lattice(sed_small).proj
    p2 = orbit_lattice(sed_big).proj
    b = p2 @ fans.proj_section(sed_small)
    if b @ p1 != p2:
        raise ValueError("stratum projections are not nested")
    return b


@functools.lru_cache(maxsize=None)
def stratum_wedge(sed_small: Cone, sed_big: Cone, p: int) -> tuple:
    """wedge^p of the stratum projection N_{sigma1} -> N_{sigma2}, as its
    integer columns: the face map of a face pair of cells with these
    sedentarities, the identity when they are equal."""
    if sed_small == sed_big:
        n = sed_small.ambient_rank - sed_small.dim
        return ZMatrix.identity(math.comb(n, p)).entries
    return wedge_columns(_stratum_projection(sed_small, sed_big), p)


def tautological_complex(fan: Fan, structure: Fan | None = None) -> TropComplex:
    return TropComplex.tautological(fan, structure)
