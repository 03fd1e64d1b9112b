"""Rational strongly convex cones and fans in N = Z^n.

Cones are stored by their primitive extremal ray generators.  All fan
geometry runs on integer rows through the elimination core of
:mod:`trophodge.exactla`, and no Fraction is made on the way from rays to
a checked fan:

* ``Cone.dim`` is the :func:`~trophodge.exactla.sparse_rank` of the rays.
  Independent rays span a simplicial cone, pointed with every ray
  extremal; dependent rays are pointed iff their facet normals have rank
  dim on them, and the extremal ones are the 1-dimensional faces.
* Facet normals come from the (d-1)-subsets of the rays: the first row
  of a subset's null space (:func:`~trophodge.exactla._kernel_rows`) that
  has one sign on the cone.  Only given cones and the readers of normals,
  ``Cone.contains`` and the intersection checks, compute them: the
  facets of each face of a given cone are the largest of its
  intersections with the cone's facets (:func:`_enter_face_lattice`).
* Two maximal cones meet in their largest common face F when the sum of
  one cone's facet normals through F, >= 0 on that cone and zero there
  exactly on F, is <= 0 on every ray of the other (:func:`_certified`).
  Only other pairs go to :func:`feasible`, a Fourier-Motzkin elimination
  on primitive integer rows.
* Every lattice map between torus-orbit strata is made here from one
  row reduction of the rays per nonzero cone, pivot the smallest |entry|
  left (:func:`orbit_frame`): the projection
  N -> N_sigma and an integer section of it, read by :func:`stratum_map`
  and :func:`facet_frame`, both cached per pair of cones.  Only
  :func:`facet_frame` makes the primitive lattice normal of a facet pair,
  for the orbit signs, d_1, balancing and the cross-strata cell signs.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import re
import sys
from fractions import Fraction

from trophodge.exactla import (
    ZMatrix,
    _cleared,
    _kernel_rows,
    sparse_rank,
    sparse_rows,
    unimodular_echelon,
    wedge_columns,
)


def _integer(x):
    """x as an int; bools, floats and non-integral values raise ValueError."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise ValueError(f"{x!r} is not an integer")


def decimal(text):
    """int(text) for ASCII decimal digits with an optional sign; past the
    digits that Python converts, the ValueError names that bound."""
    try:
        return int(text)
    except ValueError:
        digits, limit = len(text.lstrip("+-")), sys.get_int_max_str_digits()
        raise ValueError(f"integer has {digits} digits; at most {limit} are read") from None


def ray_at(rays, i):
    """rays[i] for an index read from input, with no negative wrap-around."""
    if type(i) is not int or not 0 <= i < len(rays):
        raise ValueError(f"ray index {i!r} is not in 0..{len(rays) - 1}")
    return rays[i]


def primitive(vec):
    """Primitive integer vector on the same ray; rejects the zero vector.

    Entries must be integers (integral Fractions included).
    """
    vec = tuple(_integer(x) for x in vec)
    g = 0
    for x in vec:
        g = math.gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in vec)


def _primitive_row(row):
    """An int or Fraction row times the positive factor that makes it a
    primitive integer tuple; the zero row stays zero."""
    ints, _ = _cleared(row)
    g = math.gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def _cancel(row, var, pivot_row):
    """|p| * row - f * sign(p) * pivot_row, made primitive.

    p and f are the entries of pivot_row and row at var, so the result is
    zero at var and takes row with a positive multiplier.  When p and f
    have opposite signs, pivot_row's multiplier is positive too.
    """
    p, f = pivot_row[var], row[var]
    if p < 0:
        p, f = -p, -f
    return _primitive_row([p * x - f * y for x, y in zip(row, pivot_row)])


def feasible(nvars, eqs, ineqs):
    """Exact feasibility of {x : E (x,1) = 0, A (x,1) >= 0}.

    Each constraint is a sequence of nvars coefficients plus a constant
    term, int or Fraction, cleared once to a primitive integer row.  Each
    equality is substituted into the other rows at a variable where it is
    nonzero (:func:`_cancel`); the inequalities left are Fourier-Motzkin
    eliminated (Schrijver, Theory of Linear and Integer Programming,
    12.2), each pair combined with positive integer multipliers.  Every
    new row is divided by its content, so equal constraints coincide and
    are kept once.
    """
    eqs = [_primitive_row(row) for row in eqs]
    ineqs = {_primitive_row(row) for row in ineqs}
    live = list(range(nvars))

    # substitution pass for equalities
    while eqs:
        eq = eqs.pop()
        var = next((v for v in live if eq[v]), None)
        if var is None:
            if eq[nvars]:
                return False
            continue
        eqs = [_cancel(row, var, eq) if row[var] else row for row in eqs]
        ineqs = {_cancel(row, var, eq) if row[var] else row for row in ineqs}
        live.remove(var)

    for var in live:
        pos = [r for r in ineqs if r[var] > 0]
        neg = [r for r in ineqs if r[var] < 0]
        ineqs = {r for r in ineqs if not r[var]}
        ineqs.update(_cancel(rp, var, rn) for rp in pos for rn in neg)
    return all(r[nvars] >= 0 for r in ineqs)


def _rank(vectors) -> int:
    return sparse_rank(sparse_rows(vectors))


def _perp_rows(vectors, n):
    """The RREF basis of the null space of the vectors, as the primitive
    integer rows with positive pivots of ``exactla._kernel_rows``."""
    return _kernel_rows(sparse_rows(vectors), n)


def _dot(u, v):
    return sum(a * x for a, x in zip(u, v))


class Cone:
    """Strongly convex rational polyhedral cone, canonical ray form."""

    __slots__ = ("ambient_rank", "rays", "dim", "_hash")

    def __init__(self, ambient_rank, rays):
        rays = [primitive(r) for r in rays]
        if any(len(r) != ambient_rank for r in rays):
            raise ValueError("ray length does not match ambient rank")
        rays = tuple(sorted(set(rays)))
        dim = _rank(rays)
        # independent rays span a simplicial cone; dependent ones hold a line
        # iff the facet normals have rank < dim on them, and keep their 1-faces
        if dim < len(rays):
            walls = _facet_normals(Cone._canonical(ambient_rank, rays, dim))
            if _rank([[_dot(u, r) for r in rays] for u, _ in walls]) != dim:
                raise ValueError("cone is not strongly convex")
            meet = set(rays).intersection
            rays = tuple(r for r in rays if meet(*(f for _, f in walls if r in f)) == {r})
        self._set(ambient_rank, rays, dim)

    def _set(self, ambient_rank, rays, dim):
        values = (ambient_rank, rays, dim, hash((ambient_rank, rays)))
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _canonical(cls, ambient_rank, rays, dim):
        """The cone of canonical rays (primitive, sorted, extremal) of that dim."""
        cone = object.__new__(cls)
        cone._set(ambient_rank, rays, dim)
        return cone

    def __setattr__(self, *a):
        raise AttributeError("Cone is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Cone)
            and self.ambient_rank == other.ambient_rank
            and self.rays == other.rays
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Cone(rank={self.ambient_rank}, rays={list(self.rays)})"

    @property
    def is_zero(self):
        return not self.rays

    def facet_normals(self):
        return _facet_normals(self)

    def facets(self):
        """The facets, sorted by rays, read off a face lattice."""
        if self not in _facet_table:
            _enter_face_lattice(self)
        return _facet_table[self]

    def contains(self, vec):
        """vec in the cone: in its span, and on the inner side of each facet.
        A vector of another length than the ambient rank raises ValueError."""
        if len(vec) != self.ambient_rank:
            raise ValueError("ray length does not match ambient rank")
        if _rank(self.rays + (vec,)) != self.dim:
            return False
        return all(_dot(normal, vec) >= 0 for normal, _ in self.facet_normals())


@functools.lru_cache(maxsize=None)
def _facet_normals(cone):
    """((normal, facet_rays), ...): primitive inward normals with their
    facets, sorted by facet rays; faces of given cones need none.

    Each (d-1)-subset of independent rays has a null space; its first RREF
    line that does not vanish on the cone is, if it has one sign on the
    rays, a supporting hyperplane, and its zero rays a facet when they
    span d-1 dimensions.  The rays of a simplicial cone are independent,
    so each subset is already the facet its normal cuts out.
    """
    d = cone.dim
    n = cone.ambient_rank
    if d == 0:
        return ()
    simplicial = d == len(cone.rays)
    found = {}
    for sub in itertools.combinations(cone.rays, d - 1):
        if not simplicial and _rank(sub) != d - 1:
            continue
        for cand in _perp_rows(sub, n):
            evals = [_dot(cand, ray) for ray in cone.rays]
            if not any(evals):
                continue
            if all(e >= 0 for e in evals):
                normal = cand
            elif all(e <= 0 for e in evals):
                normal = tuple(-c for c in cand)
            else:
                break
            facet_rays = tuple(ray for ray, e in zip(cone.rays, evals) if not e)
            if simplicial or _rank(facet_rays) == d - 1:
                found[facet_rays] = normal
            break
    return tuple((v, k) for k, v in sorted(found.items()))


_facet_table = {}  # the facets of each cone, filled by _enter_face_lattice
_face = functools.lru_cache(maxsize=None)(Cone._canonical)  # one object per face


def _enter_face_lattice(cone):
    """Put the facets of the cone and of its faces in the table: those of a
    face G are the largest proper G cap F over the facets F of the cone, as
    every face is a meet of facets (Ziegler, Lectures on Polytopes, 2.3)."""
    walls = [frozenset(facet) for _, facet in _facet_normals(cone)]
    todo = [cone]
    while todo:
        face = todo.pop()
        if face in _facet_table:
            continue
        cuts = {w.intersection(face.rays) for w in walls} - {frozenset(face.rays)}
        tops = [c for c in cuts if not any(c < t for t in cuts)]
        rays = sorted(tuple(r for r in face.rays if r in c) for c in tops)
        _facet_table[face] = tuple(_face(cone.ambient_rank, f, face.dim - 1) for f in rays)
        todo += _facet_table[face]


@functools.lru_cache(maxsize=None)
def faces(cone: Cone) -> frozenset:
    """All faces of the cone, the zero cone and itself included, by facets."""
    out = {cone}
    for facet in cone.facets():
        out.update(faces(facet))
    return frozenset(out)


@functools.lru_cache(maxsize=None)
def is_smooth(cone: Cone) -> bool:
    """True iff the rays extend to a Z-basis of N.

    k rays do iff the gcd of their k x k minors is 1: the minors vanish
    on dependent rays, and on independent ones their gcd is the product of
    the invariant factors.  wedge^k of the k x n ray matrix has one row.
    """
    mat = ZMatrix.from_rows(cone.rays, cone.ambient_rank)
    minors = wedge_columns(mat, len(cone.rays))
    return math.gcd(*(m for col in minors for _, m in col)) == 1


@functools.lru_cache(maxsize=None)
def orbit_frame(cone: Cone) -> tuple:
    """(proj, section): the map of N onto N_sigma = N / (span(sigma) cap N)
    in a fixed Z-basis, and an integer right inverse of it.

    Both come from the unimodular row reduction U of the rays as columns
    (:func:`~trophodge.exactla.unimodular_echelon`): proj is the rows of U
    past the rank, ``cone.dim``, and the section the same columns of
    U^-1, so proj @ section = I.
    """
    n = cone.ambient_rank
    if cone.is_zero:
        return ZMatrix.identity(n), ZMatrix.identity(n)
    u, u_inv = unimodular_echelon(ZMatrix.from_rows(zip(*cone.rays), len(cone.rays)))
    r = cone.dim
    return (
        ZMatrix._of_ints(n - r, n, u.entries[r:]),
        ZMatrix._of_ints(n, n - r, [row[r:] for row in u_inv.entries]),
    )


def project(cone: Cone, vec) -> tuple:
    """The image of a vector of N in N_sigma: its pairings with the rows of
    the projection of :func:`orbit_frame`, the dual Z-basis of M cap
    sigma-perp."""
    return tuple(
        sum(a * x for a, x in zip(m, vec)) for m in orbit_frame(cone)[0].entries
    )


@functools.lru_cache(maxsize=None)
def stratum_map(small: Cone, big: Cone) -> ZMatrix:
    """Integer matrix b of N_small -> N_big, for small a face of big.

    It is the b with b @ proj_small = proj_big, so b = proj_big @
    section_small, integral; a pair that is not nested raises ValueError.
    """
    p1, section = orbit_frame(small)
    p2 = orbit_frame(big)[0]
    b = p2 @ section
    if b @ p1 != p2:
        raise ValueError("stratum projections are not nested")
    return b


@functools.lru_cache(maxsize=None)
def facet_frame(face: Cone, cone: Cone):
    """(rho-bar, L^T) of a facet of a cone: the lattice normal u_{cone/face},
    the primitive image in N_face of a ray rho of the cone off the face,
    and a ZMatrix whose rows, one per coordinate of N_cone, are the
    columns L of the section of ``orbit_frame(cone)`` projected to N_face.

    rho-bar spans the kernel of the stratum map N_face -> N_cone over Q,
    and L lifts a basis of N_cone, so together they are a basis of
    N_face tensor Q.  The cone maps onto a ray of N_face, so every ray of
    the cone off the face has the same primitive image rho-bar, the
    generator of that ray's lattice points.
    """
    rho = next(r for r in cone.rays if r not in face.rays)
    section = orbit_frame(cone)[1]
    lifts = [project(face, v) for v in zip(*section.entries)]
    rho_bar = primitive(project(face, rho))
    return rho_bar, ZMatrix._of_ints(section.cols, len(rho_bar), lifts)


class Fan:
    """Finite fan: the given cones and all their faces.

    ``maximal_cones`` are the cones that are not a proper face of a given
    cone; :func:`check_face_intersections` runs on them only.
    """

    __slots__ = ("ambient_rank", "cones", "maximal_cones", "_cone_set", "_hash")

    def __init__(self, ambient_rank, maximal_cones):
        given = []
        for c in maximal_cones:
            cone = c if isinstance(c, Cone) else Cone(ambient_rank, c)
            if cone.ambient_rank != ambient_rank:
                raise ValueError("cone ambient rank mismatch")
            given.append(cone)
        all_cones = set()
        for cone in given:
            all_cones.update(faces(cone))
        if not all_cones:
            all_cones = {Cone(ambient_rank, [])}
        cones = tuple(sorted(all_cones, key=lambda c: (c.dim, c.rays)))
        proper = {f for c in given for f in faces(c) if f != c}
        maximal = tuple(c for c in cones if c not in proper)
        check_face_intersections(maximal)
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "cones", cones)
        object.__setattr__(self, "maximal_cones", maximal)
        object.__setattr__(self, "_cone_set", frozenset(all_cones))
        object.__setattr__(self, "_hash", hash((ambient_rank, cones)))

    def __setattr__(self, *a):
        raise AttributeError("Fan is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Fan)
            and self.ambient_rank == other.ambient_rank
            and self.cones == other.cones
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Fan(rank={self.ambient_rank}, cones={len(self.cones)})"

    @property
    def rays(self):
        """All rays of the fan, lex sorted."""
        return tuple(sorted({c.rays[0] for c in self.cones if c.dim == 1}))

    def cones_of_dim(self, d):
        return tuple(c for c in self.cones if c.dim == d)

    def f_vector(self):
        top = max((c.dim for c in self.cones), default=0)
        return tuple(len(self.cones_of_dim(d)) for d in range(top + 1))

    def contains_cone(self, cone):
        return cone in self._cone_set

    def is_subfan_of(self, other):
        return all(other.contains_cone(c) for c in self.cones)

    def supports(self, vec):
        """True iff vec lies in the support of the fan."""
        return any(c.contains(vec) for c in self.maximal_cones)

    def is_smooth(self):
        return all(is_smooth(c) for c in self.maximal_cones)


def check_face_intersections(cones):
    """Raise ValueError unless each two cones meet in a common face.

    Give the maximal cones only, none a face of another; that is enough.
    If F = s1 cap s2 is a face of both maximal cones s1, s2 and t_i is a
    face of s_i, then t1 cap t2 = (t1 cap F) cap (t2 cap F), a face of t1
    and of t2 (Cox-Little-Schenck, Toric Varieties, 3.1).  So a bad pair
    of faces exists only if a bad pair of maximal cones does.
    """
    for c1, c2 in itertools.combinations(cones, 2):
        common = faces(c1) & faces(c2)
        top = max(common, key=lambda c: c.dim)
        if sum(1 for c in common if c.dim == top.dim) != 1:
            raise ValueError("cones intersect badly (two maximal common faces)")
        if not _intersection_inside_face(c1.ambient_rank, c1, c2, top):
            raise ValueError("intersection of two cones is not a common face")


def _cone_system(cone):
    """(eqs, ineqs) integer rows of length n+1 cutting out the cone."""
    eqs = [row + (0,) for row in _perp_rows(cone.rays, cone.ambient_rank)]
    ineqs = [normal + (0,) for normal, _ in cone.facet_normals()]
    return eqs, ineqs


def _face_functional(cone, face):
    """The sum of the cone's facet normals through the face.

    It is >= 0 on the cone and vanishes there exactly on the face, the
    intersection of the facets through it.
    """
    w = (0,) * cone.ambient_rank
    for normal, facet_rays in cone.facet_normals():
        if all(r in facet_rays for r in face.rays):
            w = tuple(a + b for a, b in zip(w, normal))
    return w


def _certified(c1, c2, face):
    """True if one cone's face functional is <= 0 on every ray of the other.

    Then c1 cap c2 lies in the zero set of that functional on its cone,
    which is the common face: a certificate that needs no elimination.
    """
    for cone, other in ((c1, c2), (c2, c1)):
        w = _face_functional(cone, face)
        if all(_dot(w, r) <= 0 for r in other.rays):
            return True
    return False


def _intersection_inside_face(n, c1, c2, face):
    # c1 cap c2 is the common face iff no point of it has w > 0, for w the
    # face functional of c1; short of a certificate, a feasible point of
    # c1 cap c2 with w >= 1 witnesses a bad intersection
    if _certified(c1, c2, face):
        return True
    eqs1, ineqs1 = _cone_system(c1)
    eqs2, ineqs2 = _cone_system(c2)
    strict = [_face_functional(c1, face) + (-1,)]
    return not feasible(n, eqs1 + eqs2, ineqs1 + ineqs2 + strict)


def is_complete(fan: Fan) -> bool:
    """Support equals N_R: pure top-dimensional with paired interior walls,
    each wall a facet of exactly two maximal cones."""
    n = fan.ambient_rank
    if any(c.dim != n for c in fan.maximal_cones):
        return False
    walls = collections.Counter(f for c in fan.maximal_cones for f in c.facets())
    return all(count == 2 for count in walls.values())


def star_subdivision(fan: Fan, ray) -> Fan:
    """Star subdivision of the fan along a primitive ray in its support."""
    ray = primitive(ray)
    if not fan.supports(ray):
        raise ValueError("subdivision ray lies outside the support of the fan")
    new_max = []
    for sigma in fan.maximal_cones:
        if not sigma.contains(ray):
            new_max.append(sigma)
            continue
        if sigma.dim <= 1:
            new_max.append(sigma)
            continue
        for facet in sigma.facets():
            if not facet.contains(ray):
                new_max.append(Cone(fan.ambient_rank, list(facet.rays) + [ray]))
    return Fan(fan.ambient_rank, new_max)


def product(f: Fan, g: Fan) -> Fan:
    """Product fan in N x N'."""
    n, m = f.ambient_rank, g.ambient_rank
    new_max = []
    for a in f.maximal_cones:
        for b in g.maximal_cones:
            rays = [tuple(r) + (0,) * m for r in a.rays]
            rays += [(0,) * n + tuple(r) for r in b.rays]
            new_max.append(Cone(n + m, rays))
    return Fan(n + m, new_max)


def projective_space(n: int) -> Fan:
    if n < 1:
        raise ValueError("projective_space needs n >= 1")
    rays = [*ZMatrix.identity(n).entries, (-1,) * n]
    new_max = [
        [rays[j] for j in range(n + 1) if j != i] for i in range(n + 1)
    ]
    return Fan(n, new_max)


def affine_space(n: int) -> Fan:
    if n < 1:
        raise ValueError("affine_space needs n >= 1")
    return Fan(n, [ZMatrix.identity(n).entries])


def torus(n: int) -> Fan:
    if n < 0:
        raise ValueError("torus needs n >= 0")
    return Fan(n, [Cone(n, [])])


def hirzebruch(a: int) -> Fan:
    """Rays e1, e2, -e1 + a e2, -e2 (convention fixed here)."""
    r1, r2, r3, r4 = (1, 0), (0, 1), (-1, a), (0, -1)
    return Fan(2, [[r1, r2], [r2, r3], [r3, r4], [r4, r1]])


def blowup_p2() -> Fan:
    return star_subdivision(projective_space(2), (1, 1))


@functools.lru_cache(maxsize=None)
def orthant_fan(n: int) -> Fan:
    """Complete fan of all 2^n orthants, the fan of (P^1)^n."""
    if n < 0:
        raise ValueError("orthant needs n >= 0")
    new_max = []
    for signs in itertools.product((1, -1), repeat=n):
        new_max.append(
            [[s if i == j else 0 for j in range(n)] for i, s in zip(range(n), signs)]
        )
    return Fan(n, new_max) if n > 0 else torus(0)


_BUILTIN_RE = re.compile(r"^([a-z_0-9]+)(?:\((.*)\))?$")


def builtin(name: str) -> Fan:
    """Look up a named fan, e.g. 'projective_space(2)', 'hirzebruch(1)', 'p1'."""
    name = name.strip().lower().replace(" ", "")
    m = _BUILTIN_RE.match(name)
    if not m:
        raise KeyError(f"unknown builtin fan: {name!r}")
    head, arg = m.group(1), m.group(2)
    if head == "product":
        depth, split = 0, None
        for i, ch in enumerate(arg or ""):
            depth += ch == "("
            depth -= ch == ")"
            if ch == "," and depth == 0:
                split = i
                break
        if split is None:
            raise KeyError(f"product needs two arguments: {name!r}")
        return product(builtin(arg[:split]), builtin(arg[split + 1:]))
    if head.startswith("p1x") or head == "p1xp1":
        parts = head.split("x")
        if all(p == "p1" for p in parts):
            fan = projective_space(1)
            for _ in parts[1:]:
                fan = product(fan, projective_space(1))
            return fan
    simple = {
        "blowup_p2": blowup_p2,
        "p1": lambda: projective_space(1),
        "p2": lambda: projective_space(2),
        "p3": lambda: projective_space(3),
    }
    if head in simple and arg is None:
        return simple[head]()
    with_arg = {
        "projective_space": projective_space,
        "affine_space": affine_space,
        "torus": torus,
        "hirzebruch": hirzebruch,
        "orthant": orthant_fan,
    }
    if head in with_arg and arg is not None and re.fullmatch("-?[0-9]+", arg):
        return with_arg[head](decimal(arg))
    raise KeyError(f"unknown builtin fan: {name!r}")


BUILTIN_ZOO = (
    "p1",
    "p2",
    "p3",
    "p1xp1",
    "p1xp1xp1",
    "hirzebruch(0)",
    "hirzebruch(1)",
    "hirzebruch(2)",
    "hirzebruch(3)",
    "blowup_p2",
    "torus(1)",
    "torus(2)",
    "torus(3)",
    "affine_space(1)",
    "affine_space(2)",
    "affine_space(3)",
)


def completion(fan: Fan) -> Fan:
    """A complete fan containing the given fan as a subfan.

    Complete fans are their own completion.  Otherwise the orthant fan is
    tried; fans whose cones are not coordinate-orthant faces are rejected
    (no general completion algorithm at desk scale).  The error names the
    library call that takes a completion, since no CLI command does.
    """
    if is_complete(fan):
        return fan
    orth = orthant_fan(fan.ambient_rank)
    if fan.is_subfan_of(orth):
        return orth
    raise ValueError(
        "no built-in completion contains this fan: only fans whose cones are"
        " faces of the coordinate orthants have one; for another fan, pass a"
        " complete fan containing it to the library call"
        " tropspace.tautological_complex(fan, structure)"
    )


def to_json_dict(fan: Fan) -> dict:
    rays = list(fan.rays)
    index = {r: i for i, r in enumerate(rays)}
    return {
        "rank": fan.ambient_rank,
        "rays": [list(r) for r in rays],
        "cones": sorted(
            sorted(index[r] for r in c.rays) for c in fan.maximal_cones
        ),
    }


_JSON_TYPES = {
    dict: "an object", list: "a list", str: "a string", bool: "true or false",
    int: "a number", float: "a number", type(None): "null",
}


def json_fields(data, what, required, optional=()):
    """A JSON object with every ``required`` key and no key outside
    ``required`` and ``optional``; anything else raises ValueError that
    names ``what`` and the field."""
    if type(data) is not dict:
        raise ValueError(f"{what} must be a JSON object, not {_json_type(data)}")
    for key in required:
        if key not in data:
            raise ValueError(f"{what} has no {key!r} field")
    extra = sorted(str(k) for k in data if k not in required and k not in optional)
    if extra:
        raise ValueError(f"{what} has an unknown field {extra[0]!r}")
    return data


def json_list(value, what):
    """A JSON list, or ValueError that names ``what``."""
    if type(value) is not list:
        raise ValueError(f"{what} must be a JSON list, not {_json_type(value)}")
    return value


def _json_type(value):
    return _JSON_TYPES.get(type(value), type(value).__name__)


def from_json_dict(data) -> Fan:
    """The fan of ``{"rank": n, "rays": [[...], ...], "cones": [[ray
    indices], ...]}``: exactly these three fields, ``rays`` a list of
    integer vectors of length n and ``cones`` a list of index lists.
    Every other document raises ValueError naming the field at fault."""
    json_fields(data, "fan", ("rank", "rays", "cones"))
    try:
        n = _integer(data["rank"])
    except ValueError as exc:
        raise ValueError(f"rank: {exc}") from None
    if n < 0:
        raise ValueError(f"rank {n} is negative")
    rays = []
    for i, r in enumerate(json_list(data["rays"], "rays")):
        if len(json_list(r, f"ray {i}")) != n:
            raise ValueError(f"ray {i} has {len(r)} entries, not rank {n}")
        try:
            rays.append(primitive(r))
        except ValueError as exc:
            raise ValueError(f"ray {i}: {exc}") from None
    for i, r in enumerate(rays):
        if r in rays[:i]:
            raise ValueError(f"ray {i} lies on ray {rays.index(r)}")
    maximal = [
        [ray_at(rays, i) for i in json_list(cone, f"cone {k}")]
        for k, cone in enumerate(json_list(data["cones"], "cones"))
    ]
    if any(len(set(c)) != len(c) for c in maximal):
        raise ValueError("a cone lists a ray twice")
    return Fan(n, maximal)

