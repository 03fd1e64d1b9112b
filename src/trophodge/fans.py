"""Rational strongly convex cones and fans in N = Z^n.

Cones are stored by their primitive extremal ray generators; the
H-description (facet normals) is derived on demand by brute-force
supporting-hyperplane enumeration, which is exact and cheap at desk
scale.  Emptiness of polyhedral systems is decided by exact
Fourier-Motzkin elimination.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from trophodge.exactla import QSubspace, ZMatrix, smith_normal_form


def _integer(x):
    """x as an int; bools, floats and non-integral values raise ValueError."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise ValueError(f"{x!r} is not an integer")


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


def feasible(nvars, eqs, ineqs):
    """Exact feasibility of {x : E (x,1) = 0, A (x,1) >= 0}.

    Each constraint is a sequence of nvars coefficients plus a constant
    term.  Equalities are removed by substitution, the rest by
    Fourier-Motzkin elimination.
    """
    eqs = [[Fraction(c) for c in row] for row in eqs]
    ineqs = [[Fraction(c) for c in row] for row in ineqs]
    live = list(range(nvars))

    # substitution pass for equalities
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
        rest = [r for r in ineqs if r[var] == 0]
        new = rest
        for rp in pos:
            for rn in neg:
                combo = [rp[k] * (-rn[var]) + rn[k] * rp[var] for k in range(nvars + 1)]
                combo[var] = Fraction(0)
                new.append(combo)
        ineqs = new
    return all(r[nvars] >= 0 for r in ineqs)


class Cone:
    """Strongly convex rational polyhedral cone, canonical ray form."""

    __slots__ = ("ambient_rank", "rays", "_hash")

    def __init__(self, ambient_rank, rays, skip_checks=False):
        rays = [primitive(r) for r in rays]
        if any(len(r) != ambient_rank for r in rays):
            raise ValueError("ray length does not match ambient rank")
        rays = sorted(set(rays))
        if not skip_checks and rays:
            if not _pointed(ambient_rank, rays):
                raise ValueError("cone is not strongly convex")
            rays = _extremal(ambient_rank, rays)
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "rays", tuple(rays))
        object.__setattr__(self, "_hash", hash((ambient_rank, self.rays)))

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
    def dim(self):
        return self.span().dim

    @property
    def is_zero(self):
        return not self.rays

    def span(self):
        return _cone_span(self)

    def facet_normals(self):
        return _facet_normals(self)

    def facets(self):
        return tuple(
            Cone(self.ambient_rank, face_rays, skip_checks=True)
            for _, face_rays in self.facet_normals()
        )

    def contains(self, vec):
        vec = tuple(Fraction(x) for x in vec)
        if self.is_zero:
            return all(x == 0 for x in vec)
        if not self.span().contains(vec):
            return False
        return all(
            sum(Fraction(u) * x for u, x in zip(normal, vec)) >= 0
            for normal, _ in self.facet_normals()
        )


def _pointed(n, rays):
    # pointed iff no nontrivial nonnegative combination of the rays is 0,
    # i.e. 0 is not in the convex hull of the rays
    k = len(rays)
    eqs = [[rays[i][c] for i in range(k)] + [0] for c in range(n)]
    eqs.append([1] * k + [-1])
    ineqs = [[1 if i == j else 0 for i in range(k)] + [0] for j in range(k)]
    return not feasible(k, eqs, ineqs)


def _in_cone_of(n, rays, vec):
    """vec in cone(rays), decided in generator coordinates."""
    k = len(rays)
    if k == 0:
        return all(x == 0 for x in vec)
    eqs = [
        [rays[i][c] for i in range(k)] + [-vec[c]] for c in range(n)
    ]
    ineqs = [[1 if i == j else 0 for i in range(k)] + [0] for j in range(k)]
    return feasible(k, eqs, ineqs)


def _extremal(n, rays):
    out = []
    for i, r in enumerate(rays):
        others = [s for j, s in enumerate(rays) if j != i]
        if not _in_cone_of(n, others, r):
            out.append(r)
    return out


@functools.lru_cache(maxsize=None)
def _cone_span(cone):
    return QSubspace.span(cone.rays, cone.ambient_rank)


@functools.lru_cache(maxsize=None)
def _facet_normals(cone):
    """((normal, facet_rays), ...): primitive inward normals with their facets."""
    d = cone.dim
    n = cone.ambient_rank
    if d == 0:
        return ()
    found = {}
    for sub in itertools.combinations(cone.rays, d - 1):
        if QSubspace.span(sub, n).dim != d - 1:
            continue
        kern = QSubspace.kernel([dict(enumerate(r)) for r in sub], n)
        for cand in kern.basis:
            evals = [sum(c * r for c, r in zip(cand, ray)) for ray in cone.rays]
            if all(e == 0 for e in evals):
                continue
            if all(e >= 0 for e in evals):
                normal = cand
            elif all(e <= 0 for e in evals):
                normal = tuple(-c for c in cand)
                evals = [-e for e in evals]
            else:
                break
            facet_rays = tuple(
                ray for ray, e in zip(cone.rays, evals) if e == 0
            )
            if QSubspace.span(facet_rays, n).dim == d - 1:
                lcm = 1
                for c in normal:
                    lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
                found[facet_rays] = primitive([int(c * lcm) for c in normal])
            break
    return tuple((v, k) for k, v in sorted(found.items()))


@functools.lru_cache(maxsize=None)
def faces(cone: Cone):
    """All faces of the cone, including the zero cone and the cone itself."""
    out = {cone}
    for facet in cone.facets():
        out.update(faces(facet))
    return tuple(sorted(out, key=lambda c: (c.dim, c.rays)))


@functools.lru_cache(maxsize=None)
def face_set(cone: Cone) -> frozenset:
    """The faces of the cone as a set, for membership tests by hash."""
    return frozenset(faces(cone))


def new_ray(sigma: Cone, tau: Cone):
    """The one ray of tau outside its facet sigma; ValueError if not one."""
    new = [r for r in tau.rays if r not in sigma.rays]
    if len(new) != 1:
        raise ValueError("expected a one-ray cone extension")
    return new[0]


@functools.lru_cache(maxsize=None)
def is_smooth(cone: Cone) -> bool:
    """True iff the rays extend to a Z-basis of N."""
    if cone.is_zero:
        return True
    mat = ZMatrix.from_rows([list(r) for r in cone.rays], cone.ambient_rank)
    _, d, _ = smith_normal_form(mat)
    divisors = [d.entries[i][i] for i in range(min(d.rows, d.cols)) if d.entries[i][i] != 0]
    return len(divisors) == len(cone.rays) and all(x == 1 for x in divisors)


@dataclass(frozen=True)
class OrbitLattice:
    """Lattice data of the torus orbit of a cone.

    ``proj`` maps N onto N_sigma = N / (span(sigma) cap N) in a fixed
    Z-basis; ``m_perp_basis`` is the dual Z-basis of M cap sigma-perp, so
    the pairing between the two bases is the identity.
    """

    cone: Cone
    proj: ZMatrix
    m_perp_basis: tuple
    n_sigma_rank: int


@functools.lru_cache(maxsize=None)
def orbit_lattice(cone: Cone) -> OrbitLattice:
    n = cone.ambient_rank
    if cone.is_zero:
        ident = ZMatrix.identity(n)
        return OrbitLattice(cone, ident, ident.entries, n)
    cols = ZMatrix.from_rows(
        [[r[i] for r in cone.rays] for i in range(n)], len(cone.rays)
    )
    u, d, _ = smith_normal_form(cols)
    r = sum(1 for i in range(min(d.rows, d.cols)) if d.entries[i][i] != 0)
    rows = u.entries[r:]
    proj = ZMatrix.from_rows([list(row) for row in rows], n) if rows else ZMatrix(0, n, [])
    return OrbitLattice(cone, proj, proj.entries, n - r)


def project(cone: Cone, vec) -> tuple:
    """The image of a vector of N in N_sigma: its pairings with ``m_perp_basis``."""
    return tuple(
        sum(a * x for a, x in zip(m, vec)) for m in orbit_lattice(cone).m_perp_basis
    )


@functools.lru_cache(maxsize=None)
def proj_section(cone: Cone) -> ZMatrix:
    """An integer right inverse of ``orbit_lattice(cone).proj``.

    proj is onto N_sigma, so its Smith form U @ proj @ V is [I 0] and
    V[:, :k] @ U is a right inverse.
    """
    proj = orbit_lattice(cone).proj
    u, _, v = smith_normal_form(proj)
    k = proj.rows
    return ZMatrix(v.rows, k, [row[:k] for row in v.entries]) @ u


class Fan:
    """Finite fan: the given cones and all their faces.

    ``maximal_cones`` are the cones that are not a proper face of a given
    cone; :func:`check_face_intersections` runs on them only.
    """

    __slots__ = ("ambient_rank", "cones", "maximal_cones", "_hash")

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
        return cone in self.cones

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
        common = face_set(c1) & face_set(c2)
        top = max(common, key=lambda c: c.dim)
        if sum(1 for c in common if c.dim == top.dim) != 1:
            raise ValueError("cones intersect badly (two maximal common faces)")
        if not _intersection_inside_face(c1.ambient_rank, c1, c2, top):
            raise ValueError("intersection of two cones is not a common face")


def _cone_system(cone):
    """(eqs, ineqs) rows of length n+1 cutting out the cone."""
    n = cone.ambient_rank
    eqs = []
    if cone.dim < n:
        ker = QSubspace.kernel([dict(enumerate(r)) for r in cone.rays], n)
        eqs = [list(u) + [0] for u in ker.basis]
    ineqs = [list(normal) + [0] for normal, _ in cone.facet_normals()]
    return eqs, ineqs


def _intersection_inside_face(n, c1, c2, face):
    # w is a supporting functional of c1 whose zero set on c1 is exactly `face`;
    # a point of (c1 cap c2) with w > 0 witnesses a bad intersection
    w = [Fraction(0)] * n
    for normal, facet_rays in c1.facet_normals():
        if all(r in facet_rays for r in face.rays):
            for i in range(n):
                w[i] += normal[i]
    eqs1, ineqs1 = _cone_system(c1)
    eqs2, ineqs2 = _cone_system(c2)
    strict = [list(w) + [-1]]
    return not feasible(n, eqs1 + eqs2, ineqs1 + ineqs2 + strict)


def is_complete(fan: Fan) -> bool:
    """Support equals N_R: pure top-dimensional with paired interior walls."""
    n = fan.ambient_rank
    if n == 0:
        return True
    top = fan.cones_of_dim(n)
    if not top:
        return False
    if any(c.dim != n for c in fan.maximal_cones):
        return False
    for wall in fan.cones_of_dim(n - 1):
        count = sum(1 for c in top if wall in face_set(c))
        if count != 2:
            return False
    return True


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
    e = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rays = e + [[-1] * n]
    new_max = [
        [rays[j] for j in range(n + 1) if j != i] for i in range(n + 1)
    ]
    return Fan(n, new_max)


def affine_space(n: int) -> Fan:
    if n < 1:
        raise ValueError("affine_space needs n >= 1")
    e = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return Fan(n, [e])


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
    if head in with_arg and arg is not None:
        return with_arg[head](int(arg))
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
    (no general completion algorithm at desk scale).
    """
    if is_complete(fan):
        return fan
    orth = orthant_fan(fan.ambient_rank)
    if fan.is_subfan_of(orth):
        return orth
    raise ValueError("no built-in completion contains this fan; supply one explicitly")


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


def from_json_dict(data: dict) -> Fan:
    n = _integer(data["rank"])
    if n < 0:
        raise ValueError(f"rank {n} is negative")
    rays = [primitive(r) for r in data["rays"]]
    for i, r in enumerate(rays):
        if r in rays[:i]:
            raise ValueError(f"ray {i} lies on ray {rays.index(r)}")
    maximal = [[ray_at(rays, i) for i in cone] for cone in data["cones"]]
    if any(len(set(c)) != len(c) for c in maximal):
        raise ValueError("a cone lists a ray twice")
    return Fan(n, maximal)

