"""Minkowski weights, tropical cycle classes, and intersection pairings.

A Minkowski weight of codimension p assigns rational weights to the
codimension-p cones of a fan; balancing at every codimension-(p+1) cone
makes it a Chow cocycle.  Balanced weights give cellular cycles in the
compactified fan space whose classes pair exactly with cohomology.
"""

from __future__ import annotations

import functools
import json
import math
import re
from fractions import Fraction

from trophodge import cohomology, fans, weightss
from trophodge.exactla import QMatrix, QSubspace, wedge_vector
from trophodge.fans import Cone, Fan, orbit_lattice
from trophodge.tropspace import Cell, TropComplex


class MinkowskiWeight:
    """Rational weights on the codimension ``codim`` cones of a fan."""

    def __init__(self, fan: Fan, codim: int, weights, divisor: bool = False):
        n = fan.ambient_rank
        if not 0 <= codim <= n:
            raise ValueError("codimension out of range")
        if divisor and codim != 1:
            raise ValueError("divisor weights have codimension one")
        wanted = 1 if divisor else n - codim
        table = {}
        for cone, w in dict(weights).items():
            if not isinstance(cone, Cone):
                cone = Cone(n, cone)
            if cone not in fan.cones or cone.dim != wanted:
                raise ValueError("weight on a cone of the wrong dimension")
            table[cone] = Fraction(w)
        self.fan = fan
        self.codim = codim
        self.weights = table
        self.divisor = divisor

    def weight(self, cone):
        return self.weights.get(cone, Fraction(0))

    def to_json_dict(self):
        rays = self.fan.rays
        idx = {r: i for i, r in enumerate(rays)}
        ws = []
        for cone in sorted(self.weights, key=lambda c: c.rays):
            w = self.weights[cone]
            ws.append({
                "cone": [idx[r] for r in cone.rays],
                "w": f"{w.numerator}/{w.denominator}",
            })
        out = {
            "fan": fans.to_json_dict(self.fan),
            "codim": self.codim,
            "weights": ws,
        }
        if self.divisor:
            out["divisor"] = True
        return out

    @classmethod
    def from_json_dict(cls, data):
        ref = data["fan"]
        if isinstance(ref, str):
            fan = fans.builtin(ref)
            rays = fan.rays
        else:
            fan = fans.from_json_dict(ref)
            rays = [fans.primitive(r) for r in ref["rays"]]
        codim = data["codim"]
        if type(codim) is not int:
            raise ValueError(f"codim {codim!r} is not an integer")
        divisor = data.get("divisor", False)
        if type(divisor) is not bool:
            raise ValueError(f"divisor {divisor!r} is not true or false")
        weights = {}
        for rec in data["weights"]:
            cone_rays = [fans.ray_at(rays, i) for i in rec["cone"]]
            if len(set(cone_rays)) != len(cone_rays):
                raise ValueError(f"cone {rec['cone']} lists a ray twice")
            cone = Cone(fan.ambient_rank, cone_rays)
            if cone in weights:
                raise ValueError(f"cone {rec['cone']} is listed twice")
            weights[cone] = _weight_value(rec["w"])
        return cls(fan, codim, weights, divisor=divisor)


_WEIGHT_RE = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def _weight_value(w):
    """A weight read from JSON: an int or a "num/den" string, never a float."""
    if type(w) is int:
        return Fraction(w)
    if isinstance(w, str) and _WEIGHT_RE.fullmatch(w):
        return Fraction(w)
    raise ValueError(f"weight {w!r} is not an integer or a 'num/den' string")


def balancing_check(mw: MinkowskiWeight):
    """Balancing defects: (sigma, defect in N_sigma coordinates), defects only."""
    fan = mw.fan
    n = fan.ambient_rank
    out = []
    for sigma in fan.cones_of_dim(n - mw.codim - 1):
        defect = [Fraction(0)] * orbit_lattice(sigma).n_sigma_rank
        for tau in fan.cones_of_dim(n - mw.codim):
            if sigma not in fans.face_set(tau):
                continue
            w = mw.weight(tau)
            if not w:
                continue
            img = fans.project(sigma, fans.new_ray(sigma, tau))
            defect = [d + w * x for d, x in zip(defect, img)]
        if any(defect):
            out.append((sigma, tuple(defect)))
    return out


def is_balanced(mw: MinkowskiWeight) -> bool:
    return not balancing_check(mw)


def _balancing_matrix(fan: Fan, codim: int):
    """Rows: balancing equations; columns: codim-``codim`` cones in fan order."""
    n = fan.ambient_rank
    cols = fan.cones_of_dim(n - codim)
    pos = {c: j for j, c in enumerate(cols)}
    rows = []
    for sigma in fan.cones_of_dim(n - codim - 1):
        block = [[0] * len(cols) for _ in range(orbit_lattice(sigma).n_sigma_rank)]
        for tau in cols:
            if sigma not in fans.face_set(tau):
                continue
            img = fans.project(sigma, fans.new_ray(sigma, tau))
            for i, x in enumerate(img):
                block[i][pos[tau]] = x
        rows.extend(block)
    return QMatrix.from_rows(rows, len(cols)), cols


def chow_space(fan: Fan, codim: int) -> QSubspace:
    """Balanced weight vectors, indexed by the codim-``codim`` cones."""
    if not fan.is_smooth():
        raise ValueError("Chow groups via weights need a smooth fan")
    if not fans.is_complete(fan):
        raise ValueError("Chow groups via weights need a complete fan")
    mat, _ = _balancing_matrix(fan, codim)
    return mat.kernel_basis()


def chow_dim(fan: Fan, codim: int) -> int:
    return chow_space(fan, codim).dim


class TropCycle:
    """Cellular p-cycle: block coordinates of an F_p chain per p-cell."""

    def __init__(self, cx: TropComplex, p: int, chain):
        self.cx = cx
        self.p = p
        self.chain = {cid: tuple(v) for cid, v in chain.items() if any(v)}

    def vector(self):
        """Chain coordinates in the degree-p block layout of the complex."""
        cc = cohomology.build_cochain_complex(self.cx, self.p)
        out = []
        for cid, d in cc.layout[self.p]:
            block = self.chain.get(cid, (Fraction(0),) * d)
            if len(block) != d:
                raise ValueError("chain block dimension mismatch")
            out.extend(block)
        return out

    def boundary(self):
        """Cellular boundary, as coordinates in the degree-(p-1) layout."""
        cc = cohomology.build_cochain_complex(self.cx, self.p)
        if self.p == 0:
            return []
        return cc.delta(self.p - 1).transpose().apply(self.vector())

    def is_cycle(self) -> bool:
        return all(x == 0 for x in self.boundary())


def _primitive(vec):
    """Integer coprime rescaling of a rational vector, same orientation."""
    den = math.lcm(*(x.denominator for x in vec))
    return [Fraction(x) for x in fans.primitive([x * den for x in vec])]


def _volume_element(cell: Cell):
    """Primitive generator of wedge^dim of the cell span, oriented by the
    echelon basis of the span (the same orientation the incidence signs use)."""
    span = cell.span()
    return _primitive(
        list(wedge_vector([list(v) for v in span.basis], span.ambient_dim, span.dim))
    )


def cycle_class(cx: TropComplex, mw: MinkowskiWeight) -> TropCycle:
    """The cellular cycle of a balanced weight in the compactified space."""
    if mw.fan != cx.base_fan:
        raise ValueError("weight and complex live on different fans")
    n = mw.fan.ambient_rank
    d = n - mw.codim
    sign = (-1) ** (d * (d - 1) // 2)
    zero = Cone(n, [])
    chain = {}
    for cone, w in mw.weights.items():
        if not w:
            continue
        cell = Cell(zero, cone)
        cid = cx.cell_id(cell)
        vol = _volume_element(cell)
        coords = cx.f_lower(cell, d).coordinates([w * sign * x for x in vol])
        if coords is None:
            raise ValueError("volume element outside the multi-tangent space")
        chain[cid] = coords
    return TropCycle(cx, d, chain)


def divisor_cycle(cx: TropComplex, ray) -> TropCycle:
    """The boundary divisor of a ray as a weight-one sedentary cycle."""
    fan = cx.base_fan
    n = fan.ambient_rank
    ray = fans.primitive(ray)
    rho = Cone(n, [ray])
    if rho not in fan.cones:
        raise ValueError("not a ray of the fan")
    d = n - 1
    sign = (-1) ** (d * (d - 1) // 2)
    chain = {}
    for tau in fan.cones_of_dim(n):
        if rho not in fans.face_set(tau):
            continue
        cell = Cell(rho, tau)
        cid = cx.cell_id(cell)
        vol = _volume_element(cell)
        coords = cx.f_lower(cell, d).coordinates([sign * x for x in vol])
        if coords is None:
            raise ValueError("volume element outside the multi-tangent space")
        chain[cid] = coords
    return TropCycle(cx, d, chain)


def pair(cocycle_coords, cycle: TropCycle) -> Fraction:
    """Exact pairing of a degree-(p,p) cocycle with a p-cycle.

    The cocycle is given in the block coordinates of the incidence
    cochain space C^p; blocks are mutually dual, so this is a dot product.
    """
    vec = cycle.vector()
    if len(cocycle_coords) != len(vec):
        raise ValueError("cocycle and cycle live in dual spaces of equal size")
    return sum((Fraction(a) * b for a, b in zip(cocycle_coords, vec)), Fraction(0))


def principal_divisor_weights(fan: Fan, m):
    """Ray weights of the principal divisor of the character m."""
    return [
        sum(Fraction(a) * b for a, b in zip(m, r)) for r in fan.rays
    ]


def divisor_class_kernel(fan: Fan) -> QSubspace:
    """Ray weight vectors whose divisor combination is null-homologous.

    The map sends a weight vector to the homology class of the weighted
    sum of boundary divisor cycles in degree (n-1, n-1).
    """
    cx = weightss.trop_complex_for(fan)
    n = fan.ambient_rank
    d = n - 1
    cc = cohomology.build_cochain_complex(cx, d)
    rays = fan.rays
    cols = [divisor_cycle(cx, r).vector() for r in rays]
    bnd = cc.delta(d)
    ext = []
    dim_c = cc.space_dim(d)
    for i in range(dim_c):
        row = [col[i] for col in cols]
        row.extend(bnd.entries[j][i] for j in range(bnd.rows))
        ext.append(row)
    ker = QMatrix.from_rows(ext, len(rays) + bnd.rows).kernel_basis()
    return QSubspace.span([v[: len(rays)] for v in ker.basis], len(rays))


def divisor_combination(cx: TropComplex, ray_weights) -> TropCycle:
    """Weighted sum of boundary divisor cycles, one weight per fan ray."""
    fan = cx.base_fan
    rays = fan.rays
    if len(ray_weights) != len(rays):
        raise ValueError("need one weight per ray")
    total = {}
    for r, w in zip(rays, ray_weights):
        w = Fraction(w)
        if not w:
            continue
        for cid, block in divisor_cycle(cx, r).chain.items():
            cur = total.get(cid)
            if cur is None:
                total[cid] = tuple(w * x for x in block)
            else:
                total[cid] = tuple(a + w * x for a, x in zip(cur, block))
    return TropCycle(cx, fan.ambient_rank - 1, total)


def weight_cycle(cx: TropComplex, mw: MinkowskiWeight) -> TropCycle:
    """The cycle of a weight: mobile fan cycle, or boundary divisor sum."""
    if mw.divisor:
        table = {Cone(mw.fan.ambient_rank, [r]): Fraction(0) for r in mw.fan.rays}
        table.update(mw.weights)
        return divisor_combination(
            cx, [table[Cone(mw.fan.ambient_rank, [r])] for r in mw.fan.rays]
        )
    return cycle_class(cx, mw)


def _cyclic_rays(fan: Fan):
    """Rays of a complete rank-2 fan in counterclockwise order."""

    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cmp(a, b):
        if half(a) != half(b):
            return half(a) - half(b)
        cross = a[0] * b[1] - a[1] * b[0]
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    return sorted(fan.rays, key=functools.cmp_to_key(cmp))


def surface_intersection_matrix(fan: Fan) -> QMatrix:
    """Divisor intersection numbers of a smooth complete toric surface.

    Indexed by the fan's rays in their canonical order: adjacent rays
    meet with multiplicity one and the self-intersection of the ray v_i
    is -b_i where v_{i-1} + v_{i+1} = b_i v_i in cyclic order.
    """
    if fan.ambient_rank != 2:
        raise ValueError("intersection matrix is for surfaces")
    if not fan.is_smooth() or not fans.is_complete(fan):
        raise ValueError("needs a smooth complete surface fan")
    rays = fan.rays
    cyc = _cyclic_rays(fan)
    k = len(cyc)
    b = {}
    for i, v in enumerate(cyc):
        s = [a + c for a, c in zip(cyc[(i - 1) % k], cyc[(i + 1) % k])]
        j = 0 if v[0] else 1
        bi = Fraction(s[j], v[j])
        if any(Fraction(x) != bi * y for x, y in zip(s, v)):
            raise ValueError("neighbor sum is not a multiple of the ray")
        b[v] = bi
    adj = set()
    for i in range(k):
        adj.add(frozenset((cyc[i], cyc[(i + 1) % k])))
    ent = []
    for u in rays:
        row = []
        for v in rays:
            if u == v:
                row.append(-b[u])
            elif frozenset((u, v)) in adj:
                row.append(Fraction(1))
            else:
                row.append(Fraction(0))
        ent.append(row)
    return QMatrix(len(rays), len(rays), ent)


def numerical_kernel_check(fan: Fan):
    """Compare the null-homologous divisor kernel with the numerical one."""
    homological = divisor_class_kernel(fan)
    numerical = surface_intersection_matrix(fan).kernel_basis()
    return {
        "homological": homological,
        "numerical": numerical,
        "pass": homological == numerical,
    }


def weight_to_json(mw: MinkowskiWeight) -> str:
    return json.dumps(mw.to_json_dict(), sort_keys=True)


def weight_from_json(text: str) -> MinkowskiWeight:
    return MinkowskiWeight.from_json_dict(json.loads(text))
