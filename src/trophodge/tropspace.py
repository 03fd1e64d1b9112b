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
:meth:`TropComplex.f_lower` returns it as a :class:`QSubspace`.

The incidence of the complex is indexed once, by lookup instead of a scan
over all pairs of cells: the faces of (sigma, tau) are the cells
(sigma', tau') with tau' a face of tau and sigma a face of sigma', a face
of tau'.  The projected rays and span of a cell, and the stratum
projections N_sigma1 -> N_sigma2 with their wedge powers, are cached like
the cone data of :mod:`trophodge.fans`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from trophodge import fans
from trophodge.exactla import (
    QMatrix,
    QSubspace,
    _minor,
    wedge_matrix,
    wedge_vector,
)
from trophodge.fans import Cone, Fan, faces, orbit_lattice


@dataclass(frozen=True)
class Cell:
    """Cell of a stratified complex: sedentarity cone plus lifted shape cone."""

    sedentarity: Cone
    tau: Cone

    def __post_init__(self):
        if self.sedentarity not in faces(self.tau):
            raise ValueError("sedentarity must be a face of the lifted shape")

    @property
    def dim(self):
        return self.tau.dim - self.sedentarity.dim

    @property
    def stratum_rank(self):
        return self.sedentarity.ambient_rank - self.sedentarity.dim

    def span(self):
        """Q-span of the shape inside N_{sigma,Q}."""
        return _cell_span(self)

    def is_face_of(self, other):
        return (
            other.sedentarity in faces(self.sedentarity)
            and self.tau in faces(other.tau)
        )

    def sort_key(self):
        return (self.dim, self.sedentarity.dim, self.sedentarity.rays, self.tau.rays)

    def label(self):
        return f"sed={list(self.sedentarity.rays)} shape={list(self.tau.rays)}"


class TropComplex:
    """Finite stratified cell complex over a base fan."""

    def __init__(self, base_fan: Fan, cells, validate=True):
        seen = {}
        for cell in cells:
            if not base_fan.contains_cone(cell.sedentarity):
                raise ValueError("cell sedentarity is not a cone of the base fan")
            seen[(cell.sedentarity, cell.tau)] = cell
        ordered = tuple(sorted(seen.values(), key=Cell.sort_key))
        self.base_fan = base_fan
        self.cells = ordered
        self._index = {cell: i for i, cell in enumerate(ordered)}
        self._f_cache = {}
        self._map_cache = {}
        self._poset_cache = None
        self._incidence_cache = None
        self._closed = None
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
        return self._index[cell]

    def cells_of_dim(self, d):
        return tuple(c for c in self.cells if c.dim == d)

    @property
    def top_dim(self):
        return max((c.dim for c in self.cells), default=0)

    def _incidence(self):
        """(face ids, coface ids) per cell id, the cell itself included."""
        if self._incidence_cache is None:
            key = {(c.sedentarity, c.tau): i for i, c in enumerate(self.cells)}
            down = tuple(
                tuple(sorted({
                    key[(s, t)]
                    for t in faces(cell.tau)
                    for s in faces(t)
                    if (s, t) in key and cell.sedentarity in faces(s)
                }))
                for cell in self.cells
            )
            up = [[] for _ in self.cells]
            for i, ids in enumerate(down):
                for j in ids:
                    up[j].append(i)
            self._incidence_cache = (down, tuple(map(tuple, up)))
        return self._incidence_cache

    def faces_of(self, cell):
        return tuple(self.cells[i] for i in self._incidence()[0][self._index[cell]])

    def cofaces_of(self, cell):
        return tuple(self.cells[i] for i in self._incidence()[1][self._index[cell]])

    def stratum_cofaces(self, cell):
        """Cofaces in the same stratum, including the cell itself."""
        return tuple(
            c for c in self.cofaces_of(cell) if c.sedentarity == cell.sedentarity
        )

    def face_poset(self):
        """Codimension-1 face pairs: (face_id, coface_id, case, sign)."""
        if self._poset_cache is None:
            out = []
            for cid, coface in enumerate(self.cells):
                for fid in self._incidence()[0][cid]:
                    face = self.cells[fid]
                    if face.dim != coface.dim - 1:
                        continue
                    case = _case_tag(face, coface)
                    sign = self._incidence_sign(face, coface)
                    out.append((fid, cid, case, sign))
            self._poset_cache = tuple(out)
        return self._poset_cache

    def is_boundary_closed(self):
        """True iff every face at infinity of every cell is present.

        Exactly then is the support compact and the plain incidence
        cochain complex computes sheaf cohomology.
        """
        if self._closed is None:
            cell_set = set(self.cells)
            self._closed = all(
                Cell(sig, cell.tau) in cell_set
                for cell in self.cells
                for sig in faces(cell.tau)
                if cell.sedentarity in faces(sig)
            )
        return self._closed

    # -- multi-tangent spaces -----------------------------------------

    def f_lower(self, cell, p) -> QSubspace:
        """F_p(cell): the span of p-fold wedges of projected coface rays.

        A subspace of wedge^p N_{sigma,Q} in lex coordinates.  F^p is
        presented as the dual: a covector's coordinates are its pairings
        with the canonical echelon basis of F_p.
        """
        key = (cell, p)
        if key not in self._f_cache:
            n = cell.stratum_rank
            # a stratum coface c is a face of no other one iff c is its
            # own only stratum coface
            wedges = [
                wedge_vector(sub, n, p)
                for c in self.stratum_cofaces(cell)
                if len(self.stratum_cofaces(c)) == 1
                for sub in itertools.combinations(_projected_rays(c), p)
            ]
            self._f_cache[key] = QSubspace.span(wedges, math.comb(n, p))
        return self._f_cache[key]

    def face_map(self, face, coface, p) -> QMatrix:
        """i_{P2 < P1}: F_p(P1) -> F_p(P2) in the canonical bases."""
        key = (face, coface, p)
        if key in self._map_cache:
            return self._map_cache[key]
        if self._index[face] not in self._incidence()[0][self._index[coface]]:
            raise ValueError("face_map requires a face pair")
        src = self.f_lower(coface, p)
        dst = self.f_lower(face, p)
        if face.sedentarity == coface.sedentarity:
            images = list(src.basis)
        else:
            if face.tau != coface.tau:
                mid = Cell(face.sedentarity, coface.tau)
                if mid not in self._index:
                    raise ValueError(
                        "composite face map needs the intermediate cell "
                        f"({mid.label()}) in the complex"
                    )
            wedge = _stratum_wedge(coface.sedentarity, face.sedentarity, p)
            images = [wedge.apply(v) for v in src.basis]
        cols = []
        for img in images:
            coords = dst.coordinates(img)
            if coords is None:
                raise ValueError("face map image leaves the target F_p")
            cols.append(coords)
        mat = QMatrix(
            dst.dim, src.dim,
            [[cols[j][i] for j in range(src.dim)] for i in range(dst.dim)],
        )
        self._map_cache[key] = mat
        return mat

    # -- orientation and signs ----------------------------------------

    def _incidence_sign(self, face, coface):
        bp = coface.span()
        if face.sedentarity == coface.sedentarity:
            proj = orbit_lattice(coface.sedentarity).proj.to_q()
            inward = [Fraction(0)] * coface.stratum_rank
            for r in coface.tau.rays:
                if r not in face.tau.rays:
                    img = proj.apply(r)
                    inward = [a + b for a, b in zip(inward, img)]
            first = [-x for x in inward]
            lifted = list(face.span().basis)
        else:
            proj = orbit_lattice(coface.sedentarity).proj.to_q()
            new_rays = [
                r for r in face.sedentarity.rays if r not in coface.sedentarity.rays
            ]
            first = [Fraction(0)] * coface.stratum_rank
            for r in new_rays:
                img = proj.apply(r)
                first = [a + b for a, b in zip(first, img)]
            b = _stratum_projection(coface.sedentarity, face.sedentarity)
            bpmat_t = bp.matrix().transpose()
            lift_system = b @ bpmat_t
            lifted = []
            for v in face.span().basis:
                coeffs = lift_system.solve(v)
                lifted.append(bpmat_t.apply(coeffs))
        rows = []
        for vec in [first] + lifted:
            coords = bp.coordinates(vec)
            if coords is None:
                raise ValueError("orientation vector leaves the coface span")
            rows.append(coords)
        d = bp.dim
        det = _minor(rows, range(d), range(d))
        if det == 0:
            raise ValueError("degenerate incidence orientation")
        return 1 if det > 0 else -1

    # -- validation ---------------------------------------------------

    def _validate(self):
        cell_set = set(self.cells)
        by_sed = {}
        for cell in self.cells:
            by_sed.setdefault(cell.sedentarity, []).append(cell)
        for cell in self.cells:
            for sub in faces(cell.tau):
                if cell.sedentarity in faces(sub):
                    if Cell(cell.sedentarity, sub) not in cell_set:
                        raise ValueError("complex is not closed under faces")
        for sed, group in by_sed.items():
            shapes = [c.tau for c in group]
            for i, a in enumerate(shapes):
                for b in shapes[i + 1:]:
                    common = set(faces(a)) & set(faces(b))
                    top = max(common, key=lambda c: c.dim)
                    if sum(1 for c in common if c.dim == top.dim) != 1:
                        raise ValueError("cells intersect badly within a stratum")
                    if top in (a, b):
                        continue
                    if not fans._intersection_inside_face(
                        a.ambient_rank, a, b, top
                    ):
                        raise ValueError(
                            "cell intersection is not a common face"
                        )


def _case_tag(face, coface):
    if face.sedentarity == coface.sedentarity:
        return 1
    if face.tau == coface.tau:
        return 2
    return 3


@functools.lru_cache(maxsize=None)
def _projected_rays(cell: Cell) -> tuple:
    """The nonzero images of the lifted rays of a cell in N_sigma."""
    proj = orbit_lattice(cell.sedentarity).proj.to_q()
    return tuple(v for v in map(proj.apply, cell.tau.rays) if any(v))


@functools.lru_cache(maxsize=None)
def _cell_span(cell: Cell) -> QSubspace:
    return QSubspace.span(_projected_rays(cell), cell.stratum_rank)


@functools.lru_cache(maxsize=None)
def _stratum_projection(sed_small: Cone, sed_big: Cone) -> QMatrix:
    """Matrix of N_{sigma1} -> N_{sigma2} for sigma1 a face of sigma2."""
    p1 = orbit_lattice(sed_small).proj.to_q()
    p2 = orbit_lattice(sed_big).proj.to_q()
    p1t = p1.transpose()
    rows = []
    for row in p2.entries:
        sol = p1t.solve(row)
        if sol is None:
            raise ValueError("stratum projections are not nested")
        rows.append(sol)
    return QMatrix(p2.rows, p1.rows, rows)


@functools.lru_cache(maxsize=None)
def _stratum_wedge(sed_small: Cone, sed_big: Cone, p: int) -> QMatrix:
    """wedge^p of the stratum projection N_{sigma1} -> N_{sigma2}."""
    return wedge_matrix(_stratum_projection(sed_small, sed_big), p)


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

