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
wedge^p N_sigma, with the identity basis.  The cochain and cycle layers
read its block size C(stratum rank, p) off the cell, after one check per
complex, :meth:`TropComplex.require_full_cofaces`;
:meth:`TropComplex.f_lower` is the view of one F_p as a subspace.  Both
raise ValueError on a cell with no such coface.  Cells are built only
where a cochain lives on them.  The Betti tables of
:mod:`trophodge.cohomology` read the fan alone, one block per stratum
N_sigma,R; a complex given to them in place of its base fan must pass
:meth:`TropComplex.require_covered_strata`.

The incidence of the complex is its codimension-1 face relation, found by
lookup in an index of the cells on ray ids.  The rays of the cell shapes,
in sorted order, are numbered, and a cell is keyed by the bitmasks of the
rays of its sedentarity and of its shape (``TropComplex.cell_keys``).  A
codim-1 face of a cell either keeps its sedentarity and drops a free ray
from the shape (a face in its stratum), or keeps the shape and moves a
free ray into the sedentarity (a face at infinity): at most 2 dim
lookups per cell of a simplicial shape.  A shape that is not simplicial
takes its facets from ``Cone.facets``, and its faces one dimension above
the sedentarity from ``fans.faces``.  Closure under faces, full-dimensional
stratum cofaces, the cover of each stratum and boundary closedness all
follow from the codim-1 faces, since the face poset of a cell is graded.
The image of each ray in each N_sigma is cached like the cone data of
:mod:`trophodge.fans`.

Each cell is oriented by one scan, :func:`_frame`: the first subset F
of its free rays (those of the shape off the sedentarity), in lex order,
whose images in N_sigma are independent, and the sign s of their first
nonzero maximal minor, column subsets in lex order.  That minor sits at
the pivot columns of the RREF of F, so s orients F against the echelon
basis of the span, with no elimination.  When the free rays are
independent, as on every cell of a simplicial fan, F is all of them and
s is the orientation o(c) of the cell, +1 for a point.  A codim-1 face f
of c drops one free ray r, at position k, and keeps the rest in order;
its sign is -(-1)^k o(f) o(c) inside a stratum, f = (sigma, tau minus
r), and (-1)^k o(f) o(c) across strata, f = (sigma + r, tau).  A pair
with a cell of dependent free rays takes
:meth:`TropComplex._incidence_sign`, which reads the face's frame and
the coface's volume element, built on its frame.

The lattice data is integral in orbit-lattice coordinates: the projected
rays (``fans.project``), the stratum maps ``fans.stratum_map`` (integral
because each projection N -> N_sigma is onto) and their wedge powers
(``exactla.wedge_columns``, shared with d_1 in
:mod:`trophodge.weightss`) are computed in ints, and every Plucker
coordinate, orientation and incidence sign is an integer determinant.
Since every F_p has the identity basis, every face map is integral:
:func:`stratum_wedge` of the two sedentarities, the identity inside a
stratum, in the sparse column form of ``wedge_columns``.  It holds
nothing itself: the stratum map is cached per cone pair in
:mod:`trophodge.fans`, its wedge by matrix content in ``wedge_columns``,
the one store of minors, which the volume elements also read.
"""

from __future__ import annotations

import functools
import itertools
import math

from trophodge import fans
from trophodge.exactla import QSubspace, ZMatrix, _bareiss, wedge_columns
from trophodge.fans import Cone, Fan, faces
from trophodge.record import Record


class Cell(Record):
    """Cell of a stratified complex: sedentarity cone plus lifted shape cone."""

    fields = ("sedentarity", "tau")

    def __init__(self, sedentarity: Cone, tau: Cone):
        if sedentarity not in faces(tau):
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
        """(faces, full, missing, lacking, open_ridge): per cell id the
        sorted ids of its codim-1 faces, and whether it has a stratum coface
        full-dimensional in its stratum; then whether some codim-1 face in
        a stratum, and some at infinity, is missing; the id of the first
        cell with no full-dimensional stratum coface, or None; and the id of
        the first cell of codimension 1 in its stratum that is a face of
        other than two full-dimensional cells there, or None.

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
            tops = [0] * len(self.cells)  # cofaces of full dimension
            for i, same in enumerate(stratum_faces):
                if full[i]:
                    for j in same:
                        tops[j] += 1
            for i in reversed(range(len(self.cells))):  # cells are sorted by dim
                if full[i]:
                    for j in stratum_faces[i]:
                        full[j] = True
            lacking = next((i for i, f in enumerate(full) if not f), None)
            open_ridge = next((
                i for i, c in enumerate(self.cells)
                if c.dim == c.stratum_rank - 1 and tops[i] != 2
            ), None)
            self._incidence_cache = (
                tuple(down), tuple(full), tuple(lack), lacking, open_ridge,
            )
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
        for facet in tau.facets():
            m = self._mask(facet)
            if not s & ~m:
                yield False, (s, m)
        for face in faces(tau):
            m = self._mask(face)
            if face.dim == sed.dim + 1 and not s & ~m:
                yield True, (m, t)

    def face_poset(self):
        """Codimension-1 face pairs: (face_id, coface_id, sign).

        The sign is read off one orientation per cell (:func:`_pair_sign`),
        the sign of its :func:`_frame` when that holds all its free rays,
        or taken by :meth:`_incidence_sign` for a pair with a cell of
        dependent free rays.  The pairs are also kept grouped by the
        dimension of the face, for :meth:`face_pairs`.
        """
        if self._poset_cache is None:
            orient = [None if len(c.tau.rays) - len(c.sedentarity.rays) > c.dim
                      else _frame(c)[1] for c in self.cells]
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

    def require_full_cofaces(self):
        """ValueError unless every cell has a stratum coface that is
        full-dimensional in its stratum, so that every F_p(cell) is all of
        wedge^p N_sigma, of dimension C(stratum rank, p).

        The cochain and cycle layers read their block sizes off the
        stratum ranks after this one check per complex; the error names
        the first cell without such a coface, as :meth:`f_lower` does.
        """
        lacking = self._incidence()[3]
        if lacking is not None:
            self._require_full(self.cells[lacking])

    def require_covered_strata(self):
        """ValueError unless the cells cover every stratum N_sigma,R of the
        base fan, as the orbit complex of ``cohomology`` needs.

        The cells of one sedentarity sigma, each with a full-dimensional
        stratum coface (:meth:`require_full_cofaces`), project to a pure
        fan in N_sigma,R of full dimension.  Such a fan is complete iff each
        of its cones of codimension 1 is a face of exactly two of full
        dimension, which then lie on both sides of it: its support has no
        boundary off the cones of codimension 2, which do not disconnect.
        A stratum of rank 0 is covered iff it has its one cell.
        """
        self.require_full_cofaces()
        seds = {s for s, _ in self.cell_keys}
        if len(seds) < len(self.base_fan.cones):
            present = {c.sedentarity for c in self.cells}
            sigma = next(c for c in self.base_fan.cones if c not in present)
        elif self._incidence()[4] is not None:
            sigma = self.cells[self._incidence()[4]].sedentarity
        else:
            return
        raise ValueError(
            f"the cells do not cover the stratum of the cone {list(sigma.rays)}"
            " of the base fan: the orbit complex needs every stratum covered"
        )

    def _require_full(self, cell):
        """ValueError unless a stratum coface of the cell is full-dimensional."""
        if not self._incidence()[1][self.cell_id(cell)]:
            raise ValueError(
                f"cell ({cell.label()}) has no full-dimensional stratum "
                "coface, so its F_p is not all of wedge^p N_sigma"
            )

    # -- orientation and signs ----------------------------------------

    def _incidence_sign(self, face, coface):
        """Sign of the coface orientation against (v, face), in and across
        strata; on independent free rays :func:`_pair_sign` gives it.

        F is the :func:`_frame` of the face and s_f the sign of its first
        nonzero maximal minor; X is F lifted to the coface stratum N_sigma.
        Within a stratum v is the outward vector u, minus the sum of the
        coface rays off the face, and X = F; across strata v is the lattice
        normal rho-bar of ``fans.facet_frame``, which the stratum map b
        kills, and b(X) = F.  The sign is s_f times that of the maximal
        minors of (v, X) against the :func:`volume_element` of the coface
        at its first nonzero entry: u ^ vol(face) = (s_f/g) minors(u, F),
        g > 0, and vol(coface) = c rho-bar ^ X makes wedge^(k-1) b of its
        contraction by rho-bar c |rho-bar|^2 wedge F.  Zero minors, or
        minors not parallel to vol(coface), raise ValueError.
        """
        sed, k = coface.sedentarity, coface.dim
        if face.sedentarity == sed:
            off = [_project(sed, r) for r in coface.tau.rays if r not in face.tau.rays]
            v = [-sum(x) for x in zip(*off)]
        else:
            v = fans.facet_frame(sed, face.sedentarity)[0]
        frame, s_f = _frame(face)
        rows = [v, *(_project(sed, r) for r in frame)]
        got = [_bareiss([[r[j] for j in cols] for r in rows])
               for cols in itertools.combinations(range(coface.stratum_rank), k)]
        if not any(got):
            raise ValueError("degenerate incidence orientation")
        want = volume_element(coface)
        j = next(i for i, x in enumerate(want) if x)
        if any(a * want[j] != b * got[j] for a, b in zip(got, want)):
            raise ValueError("orientation vector leaves the coface span")
        return 1 if got[j] * want[j] * s_f > 0 else -1

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
    """Primitive generator of wedge^dim of the cell span, in the lex basis
    of wedge^dim N_sigma, with its first nonzero entry positive.

    It is the primitive row of the maximal minors of the :func:`_frame`
    of the cell, whose span is the cell's, signed by the frame's sign s,
    the orientation of a cell of independent free rays.  It is computed
    once per cell, and is (1,) on a cell that spans its stratum."""
    if cell.dim == cell.stratum_rank:
        return (1,)
    frame, s = _frame(cell)
    rays = [_project(cell.sedentarity, r) for r in frame]
    minors = wedge_columns(ZMatrix(cell.dim, cell.stratum_rank, rays), cell.dim)
    return tuple(s * x for x in fans.primitive([c[0][1] if c else 0 for c in minors]))


def _frame(cell: Cell):
    """(F, s): the first subset F of the free rays of a cell, in lex order,
    whose images in N_sigma are independent (they span the cell), and the
    sign s of their first nonzero maximal minor, column subsets in lex order.
    The images are nonzero; when there are dim of them, F is all of them."""
    sed = cell.sedentarity
    free = [r for r in cell.tau.rays if r not in sed.rays]
    for frame in itertools.combinations(free, cell.dim):
        rays = [_project(sed, r) for r in frame]
        for cols in itertools.combinations(range(cell.stratum_rank), cell.dim):
            det = _bareiss([[v[j] for j in cols] for v in rays])
            if det:
                return frame, 1 if det > 0 else -1


def _pair_sign(o_f, o_c, face_key, coface_key):
    """The sign of :meth:`TropComplex._incidence_sign` for a codim-1 pair of
    cells with independent free rays, from their orientations (the signs
    of their :func:`_frame`) and their ``cell_keys``; None if either
    orientation is None.

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


# a ray lies in many cells of one sedentarity; each image is computed once
_project = functools.lru_cache(maxsize=None)(fans.project)


def stratum_wedge(sed_small: Cone, sed_big: Cone, p: int) -> tuple:
    """wedge^p of the stratum projection N_{sigma1} -> N_{sigma2}, as the
    sparse integer columns of :func:`~trophodge.exactla.wedge_columns`:
    the face map of a face pair of cells with these sedentarities.  When
    they are equal the projection is the identity, so its wedge is too,
    ((i, 1),) in column i.  The columns come from the content-keyed store
    of ``wedge_columns``, which holds the identity blocks once per (rank,
    p) and any other matrix once however many pairs share it."""
    return wedge_columns(fans.stratum_map(sed_small, sed_big), p)


def tautological_complex(fan: Fan, structure: Fan | None = None) -> TropComplex:
    return TropComplex.tautological(fan, structure)
