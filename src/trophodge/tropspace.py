"""The compactified fan space as a stratified cell complex.

A cell carries a sedentarity cone sigma (which stratum at infinity it
lives in) and a shape, kept as a lifted cone tau in N with sigma as a
face, so the face relation is uniform:

    (sigma', tau') is a face of (sigma, tau)  iff
    sigma is a face of sigma' and tau' is a face of tau.

Multi-tangent spaces F_p(P) = sum over the stratum cofaces tau of P of
wedge^p T(tau) live in lex wedge coordinates of the stratum lattice
N_sigma.  Since wedge^p T(tau') lies in wedge^p T(tau) when tau' is a
face of tau, and the wedges of the p-subsets of a spanning set span
wedge^p, F_p(P) is one span: of the wedges of the p-subsets of the
projected rays of each stratum coface that is not a face of another;
:meth:`TropComplex.f_lower` returns it as a :class:`QSubspace`.  When one
of those cofaces is full-dimensional in its stratum, as every cell of a
complex with a complete structure fan has, F_p(P) is all of
wedge^p N_sigma, and no wedge is computed.

The incidence of the complex is found by lookup in its (sigma, tau) -> id
index, not by a scan over all pairs of cells: one scan of the candidate
faces (sigma', tau') of (sigma, tau), tau' a face of tau and sigma a face
of sigma', yields the faces present and those missing.  The span basis
of a cell, and the stratum projections N_sigma1 -> N_sigma2 with their
wedge powers, are cached like the cone data of :mod:`trophodge.fans`.
The projected rays are not: their two readers, the span basis and an
F_p that is not the full space, are cached themselves.

The lattice data is integral in orbit-lattice coordinates: the projected
rays (``fans.project``), the stratum maps proj2 @ ``fans.proj_section``
(integral because each projection N -> N_sigma is onto) and their wedge
powers (``exactla.wedge_columns``, shared with d_1 in
:mod:`trophodge.weightss`) are computed in ints, and every Plucker coordinate and incidence sign is an integer
determinant.  A full F_p has the identity basis, and a face map between
two full ones is integral: the identity inside a stratum, the wedge of
the stratum map across strata.  Fractions enter only through the RREF
bases of the other spans and the coordinates in them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from trophodge import fans
from trophodge.exactla import (
    QSubspace,
    ZMatrix,
    _bareiss,
    integer_rref,
    sparse_rows,
    wedge_columns,
    wedge_vector,
)
from trophodge.fans import Cone, Fan, face_set, faces, orbit_lattice


@dataclass(frozen=True)
class Cell:
    """Cell of a stratified complex: sedentarity cone plus lifted shape cone."""

    sedentarity: Cone
    tau: Cone

    def __post_init__(self):
        if self.sedentarity not in face_set(self.tau):
            raise ValueError("sedentarity must be a face of the lifted shape")
        object.__setattr__(self, "_hash", hash((self.sedentarity, self.tau)))

    def __hash__(self):
        return self._hash

    @functools.cached_property
    def dim(self):
        return self.tau.dim - self.sedentarity.dim

    @property
    def stratum_rank(self):
        return self.sedentarity.ambient_rank - self.sedentarity.dim

    def is_face_of(self, other):
        return (
            other.sedentarity in face_set(self.sedentarity)
            and self.tau in face_set(other.tau)
        )

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
        self._index = {(c.sedentarity, c.tau): i for i, c in enumerate(ordered)}
        self._f_cache = {}
        self._poset_cache = None
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

    def cell_id(self, cell):
        return self._index[(cell.sedentarity, cell.tau)]

    def cells_of_dim(self, d):
        return tuple(c for c in self.cells if c.dim == d)

    @property
    def top_dim(self):
        return max((c.dim for c in self.cells), default=0)

    def _incidence(self):
        """Per cell id: the ids of its faces, cofaces, stratum cofaces and
        maximal ones, each with the cell itself, and its missing faces.

        One scan takes the candidate faces (s, t) of a cell, t a face of its
        shape and its sedentarity a face of s, as ids or as missing pairs.
        A stratum coface has the cell's sedentarity; it is maximal when it
        is its own only stratum coface, a face of no other one.
        """
        if self._incidence_cache is None:
            down, missing = [], []
            for cell in self.cells:
                ids, lack = [], []
                for t in faces(cell.tau):
                    for s in faces(t):
                        if cell.sedentarity in face_set(s):
                            i = self._index.get((s, t))
                            if i is None:
                                lack.append((s, t))
                            else:
                                ids.append(i)
                down.append(tuple(sorted(ids)))
                missing.append(tuple(lack))
            up = [[] for _ in self.cells]
            for i, ids in enumerate(down):
                for j in ids:
                    up[j].append(i)
            seds = {}
            sed = [seds.setdefault(c.sedentarity, len(seds)) for c in self.cells]
            same = tuple(
                tuple(j for j in ids if sed[j] == sed[i]) for i, ids in enumerate(up)
            )
            top = tuple(tuple(j for j in ids if len(same[j]) == 1) for ids in same)
            self._incidence_cache = (
                tuple(down), tuple(map(tuple, up)), same, top, tuple(missing)
            )
        return self._incidence_cache

    def faces_of(self, cell):
        return tuple(self.cells[i] for i in self._incidence()[0][self.cell_id(cell)])

    def cofaces_of(self, cell):
        return tuple(self.cells[i] for i in self._incidence()[1][self.cell_id(cell)])

    def stratum_cofaces(self, cell):
        """Cofaces in the same stratum, including the cell itself."""
        return tuple(self.cells[i] for i in self._incidence()[2][self.cell_id(cell)])

    def face_poset(self):
        """Codimension-1 face pairs: (face_id, coface_id, sign)."""
        if self._poset_cache is None:
            out = []
            for cid, coface in enumerate(self.cells):
                for fid in self._incidence()[0][cid]:
                    face = self.cells[fid]
                    if face.dim != coface.dim - 1:
                        continue
                    out.append((fid, cid, self._incidence_sign(face, coface)))
            self._poset_cache = tuple(out)
        return self._poset_cache

    def is_boundary_closed(self):
        """True iff every face at infinity of every cell is present.

        Exactly then is the support compact and the plain incidence
        cochain complex computes sheaf cohomology: no missing face (s, t)
        of a cell keeps its shape t.
        """
        return all(
            t != cell.tau
            for cell, lack in zip(self.cells, self._incidence()[4])
            for _, t in lack
        )

    # -- multi-tangent spaces -----------------------------------------

    def f_lower(self, cell, p) -> QSubspace:
        """F_p(cell): the span of p-fold wedges of projected coface rays.

        A subspace of wedge^p N_{sigma,Q} in lex coordinates.  F^p is
        presented as the dual: a covector's coordinates are its pairings
        with the canonical echelon basis of F_p.  If a maximal stratum
        coface is full-dimensional in the stratum, F_p is the whole
        space, since wedge^p T(c) <= F_p <= wedge^p N_sigma, and its basis
        is the identity.
        """
        key = (cell, p)
        if key not in self._f_cache:
            n = cell.stratum_rank
            top = [self.cells[i] for i in self._incidence()[3][self.cell_id(cell)]]
            if any(c.dim == n for c in top):
                f = QSubspace.full(math.comb(n, p))
            else:
                wedges = [
                    wedge_vector(sub, n, p)
                    for c in top
                    for sub in itertools.combinations(_projected_rays(c), p)
                ]
                f = QSubspace.span(wedges, math.comb(n, p))
            self._f_cache[key] = f
        return self._f_cache[key]

    def face_map_columns(self, face, coface, p):
        """i_{P2 < P1}: F_p(P1) -> F_p(P2) in the canonical bases, by columns.

        Column j holds the coordinates, in the
        canonical basis of F_p(face), of the image of the j-th canonical
        basis vector of F_p(coface).  Across strata the image is the
        integer wedge of the stratum map applied to that vector.  Between
        two full F_p, whose bases are the identity, the columns are those
        integer maps themselves: the identity, or the wedge of the stratum
        map.
        """
        if self.cell_id(face) not in self._incidence()[0][self.cell_id(coface)]:
            raise ValueError("a face map requires a face pair")
        same = face.sedentarity == coface.sedentarity
        mid = (face.sedentarity, coface.tau)
        if not same and face.tau != coface.tau and mid not in self._index:
            raise ValueError(
                "composite face map needs the intermediate cell "
                f"({Cell(*mid).label()}) in the complex"
            )
        src = self.f_lower(coface, p)
        dst = self.f_lower(face, p)
        int_cols = (
            ZMatrix.identity(src.ambient_dim).entries if same
            else _stratum_wedge(coface.sedentarity, face.sedentarity, p)
        )
        if src.dim == src.ambient_dim and dst.dim == dst.ambient_dim:
            return int_cols
        cols = []
        for v in src.basis:
            img = [0] * dst.ambient_dim
            for x, col in zip(v, int_cols):
                if x:
                    for i, m in enumerate(col):
                        img[i] += m * x
            coords = dst.coordinates(img)
            if coords is None:
                raise ValueError("face map image leaves the target F_p")
            cols.append(coords)
        return tuple(cols)

    # -- orientation and signs ----------------------------------------

    def _incidence_sign(self, face, coface):
        """Sign of the coface orientation against (outward vector, face).

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
        if any(
            s == cell.sedentarity
            for cell, lack in zip(self.cells, self._incidence()[4])
            for s, _ in lack
        ):
            raise ValueError("complex is not closed under faces")
        by_sed = {}
        for cell in self.cells:
            by_sed.setdefault(cell.sedentarity, []).append(cell.tau)
        for shapes in by_sed.values():
            proper = {f for s in shapes for f in faces(s) if f != s}
            fans.check_face_intersections([s for s in shapes if s not in proper])


def volume_element(cell: Cell):
    """Primitive generator of wedge^dim of the cell span, oriented by the
    echelon basis of the span, as :meth:`TropComplex._incidence_sign` is.

    The rows of :func:`_integer_basis` are positive integer multiples of
    that basis, so their wedge is an integral positive multiple of its
    wedge."""
    _, basis = _integer_basis(cell)
    return fans.primitive(wedge_vector(basis, cell.stratum_rank, len(basis)))


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
    return tuple(v for v in (fans.project(sed, r) for r in cell.tau.rays) if any(v))


@functools.lru_cache(maxsize=None)
def _integer_basis(cell: Cell) -> tuple:
    """(pivots, basis) of the cell span: the ``integer_rref`` rows of the
    projected rays (the identity on a full span) and their pivot columns."""
    basis = tuple(integer_rref(sparse_rows(_projected_rays(cell)), cell.stratum_rank))
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
def _stratum_wedge(sed_small: Cone, sed_big: Cone, p: int) -> tuple:
    """wedge^p of the stratum projection, as its integer columns."""
    return wedge_columns(_stratum_projection(sed_small, sed_big), p)


def tautological_complex(fan: Fan, structure: Fan | None = None) -> TropComplex:
    return TropComplex.tautological(fan, structure)


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
    """The tropical line in R^2: a vertex and rays e1, e2, -e1-e2."""
    t2 = fans.torus(2)
    zero = Cone(2, [])
    cells = [Cell(zero, zero)]
    for ray in [(1, 0), (0, 1), (-1, -1)]:
        cells.append(Cell(zero, Cone(2, [ray])))
    return TropComplex(t2, cells)

