"""Minkowski weights, tropical cycle classes, and intersection pairings.

A Minkowski weight of codimension p assigns rational weights to the
codimension-p cones of a fan; balancing at every codimension-(p+1) cone,
a sum of primitive lattice normals (Fulton-Sturmfels, Topology 1997),
makes it a Chow cocycle.  Balanced weights and boundary divisors give
cellular cycles, sums of volume elements, in the compactified fan space
whose classes pair exactly with cohomology.  The intersection numbers of a
surface come from its 2-cones, which pair each ray with its neighbours.
"""

from __future__ import annotations

import functools
import json
import math
import re
from fractions import Fraction

from trophodge import cohomology, fans, weightss
from trophodge.exactla import QSubspace, sparse_rank
from trophodge.fans import Cone, Fan
from trophodge.tropspace import Cell, TropComplex, volume_element


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
            if not fan.contains_cone(cone) or cone.dim != wanted:
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
        """The weight of ``{"fan": ..., "codim": c, "weights": [{"cone":
        [ray indices], "w": w}, ...]}``, with an optional ``"divisor"``.

        The fan is a builtin name or a fan object.  A missing or unknown
        field, at the top or in a weight record, raises ValueError that
        names it, as does a field of the wrong type.
        """
        fans.json_fields(data, "weight file", ("fan", "codim", "weights"), ("divisor",))
        ref = data["fan"]
        if isinstance(ref, str):
            try:
                fan = fans.builtin(ref)
            except KeyError as exc:
                raise ValueError(exc.args[0]) from None
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
        for k, rec in enumerate(fans.json_list(data["weights"], "weights")):
            fans.json_fields(rec, f"weight {k}", ("cone", "w"))
            indices = fans.json_list(rec["cone"], f"cone of weight {k}")
            cone_rays = [fans.ray_at(rays, i) for i in indices]
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


@functools.lru_cache(maxsize=None)
def _balancing_blocks(fan: Fan, codim: int):
    """(blocks, cols): (sigma, its balancing equations as sparse
    {column: entry} rows, one per coordinate of N_sigma) for each cone
    sigma of dimension n - codim - 1, and the codim-``codim`` cones that
    index the columns, both in fan order.

    A weight c is balanced at sigma when sum c(tau) u_{tau/sigma} over the
    cones tau > sigma is 0 in N_sigma, u_{tau/sigma} the primitive lattice
    normal ``fans.facet_frame`` of the pair (Fulton-Sturmfels 1997).
    Column j enters the block of each facet of its cone.  Built once per
    (fan, codim); the callers must not modify the rows.
    """
    n = fan.ambient_rank
    cols = fan.cones_of_dim(n - codim)
    blocks = {
        sigma: tuple({} for _ in range(n - sigma.dim))
        for sigma in fan.cones_of_dim(n - codim - 1)
    }
    for j, tau in enumerate(cols):
        for sigma in tau.facets():
            img = fans.facet_frame(sigma, tau)[0]
            for row, x in zip(blocks[sigma], img):
                if x:
                    row[j] = x
    return tuple(blocks.items()), cols


def balancing_check(mw: MinkowskiWeight):
    """Balancing defects: (sigma, defect in N_sigma coordinates), defects only."""
    blocks, cols = _balancing_blocks(mw.fan, mw.codim)
    weights = [mw.weight(tau) for tau in cols]
    out = []
    for sigma, block in blocks:
        defect = tuple(
            sum((weights[j] * x for j, x in row.items() if weights[j]), Fraction(0))
            for row in block
        )
        if any(defect):
            out.append((sigma, defect))
    return out


def is_balanced(mw: MinkowskiWeight) -> bool:
    return not balancing_check(mw)


def _chow_system(fan: Fan, codim: int):
    """(balancing rows, number of codim-``codim`` cones) of a smooth
    complete fan, whose kernel is the Chow group in that codimension."""
    if not fan.is_smooth():
        raise ValueError("Chow groups via weights need a smooth fan")
    if not fans.is_complete(fan):
        raise ValueError("Chow groups via weights need a complete fan")
    blocks, cols = _balancing_blocks(fan, codim)
    return [row for _, block in blocks for row in block], len(cols)


def chow_space(fan: Fan, codim: int) -> QSubspace:
    """Balanced weight vectors, indexed by the codim-``codim`` cones."""
    return QSubspace.kernel(*_chow_system(fan, codim))


def chow_dim(fan: Fan, codim: int) -> int:
    """The dimension of ``chow_space`` by rank-nullity, with no back-solve."""
    rows, ncols = _chow_system(fan, codim)
    return ncols - sparse_rank(rows)


class TropCycle:
    """Cellular p-cycle: block coordinates of an F_p chain per p-cell.

    ``chain`` maps the id of a p-cell to its coordinates in the canonical
    basis of F_p of that cell, all of wedge^p N_sigma; an id that is not a
    p-cell of the complex, or a block of the wrong length, raises
    ValueError, as does a complex with a cell whose F_p is not all of
    wedge^p N_sigma (``TropComplex.require_full_cofaces``).
    """

    def __init__(self, cx: TropComplex, p: int, chain):
        cx.require_full_cofaces()
        chain = {cid: tuple(v) for cid, v in chain.items()}
        for cid, block in chain.items():
            if not (type(cid) is int and 0 <= cid < len(cx.cells)):
                raise ValueError(f"chain names no cell of the complex: {cid!r}")
            cell = cx.cells[cid]
            if cell.dim != p:
                raise ValueError(f"chain block on a {cell.dim}-cell, not a {p}-cell")
            if len(block) != math.comb(cell.stratum_rank, p):
                raise ValueError("chain block dimension mismatch")
        self.cx = cx
        self.p = p
        self.chain = {cid: v for cid, v in chain.items() if any(v)}

    def vector(self):
        """Chain coordinates in the degree-p block layout of the complex."""
        out = []
        for cid, d in cohomology.cochains(self.cx, self.p).block_dims(self.p).items():
            out.extend(self.chain.get(cid, (Fraction(0),) * d))
        return out

    def boundary(self):
        """Cellular boundary, as coordinates in the degree-(p-1) layout.

        It is delta_{p-1} transposed applied to the chain, summed over the
        sparse rows of delta_{p-1} at the chain's nonzero coordinates.
        """
        if self.p == 0:
            return []
        cc = cohomology.cochains(self.cx, self.p)
        offs, rows = cc.offsets(self.p), cc.delta(self.p - 1)
        out = [Fraction(0)] * cc.space_dim(self.p - 1)
        for cid, block in self.chain.items():
            off = offs[cid]
            for i, x in enumerate(block):
                if x:
                    for j, y in rows[off + i].items():
                        out[j] += x * y
        return tuple(out)

    def is_cycle(self) -> bool:
        return all(x == 0 for x in self.boundary())


def _volume_cycle(cx: TropComplex, d: int, weighted_cells) -> TropCycle:
    """The d-cycle of w times the signed volume element of each (cell, w).

    F_d of a d-cell is all of wedge^d N_sigma with the identity basis, so
    the volume element, in lex wedge coordinates, is its own block.
    """
    sign = (-1) ** (d * (d - 1) // 2)
    chain = {}
    for cell, w in weighted_cells:
        w = Fraction(w) * sign
        chain[cx.cell_id(cell)] = tuple(w * x for x in volume_element(cell))
    return TropCycle(cx, d, chain)


def cycle_class(cx: TropComplex, mw: MinkowskiWeight) -> TropCycle:
    """The cellular cycle of a balanced weight in the compactified space."""
    if mw.fan != cx.base_fan:
        raise ValueError("weight and complex live on different fans")
    n = mw.fan.ambient_rank
    zero = Cone(n, [])
    return _volume_cycle(
        cx, n - mw.codim, [(Cell(zero, c), w) for c, w in mw.weights.items() if w]
    )


def divisor_cycle(cx: TropComplex, ray) -> TropCycle:
    """The boundary divisor of a ray as a weight-one sedentary cycle.

    Built once per complex and ray and held in ``cx.divisors``; the
    callers must not modify its chain.
    """
    key = fans.primitive(ray)
    if key not in cx.divisors:
        fan = cx.base_fan
        n = fan.ambient_rank
        rho = Cone(n, [key])
        if not fan.contains_cone(rho):
            raise ValueError("not a ray of the fan")
        cx.divisors[key] = _volume_cycle(
            cx,
            n - 1,
            [(Cell(rho, tau), 1) for tau in fan.cones_of_dim(n) if rho in fans.faces(tau)],
        )
    return cx.divisors[key]


def pair(cocycle_coords, cycle: TropCycle) -> Fraction:
    """Exact pairing of a degree-(p,p) cocycle with a p-cycle.

    The cocycle is given in the block coordinates of the incidence
    cochain space C^p; blocks are mutually dual, so this is a dot product,
    summed over the coordinates where both the chain and the cocycle are
    nonzero, at the ``block_offsets`` of the chain's blocks.
    """
    cc = cohomology.cochains(cycle.cx, cycle.p)
    offs, dims = cc.offsets(cycle.p), cc.block_dims(cycle.p)
    if len(cocycle_coords) != cc.space_dim(cycle.p):
        raise ValueError("cocycle and cycle live in dual spaces of equal size")
    out = Fraction(0)
    for cid, block in cycle.chain.items():
        if len(block) != dims[cid]:
            raise ValueError("chain block dimension mismatch")
        off = offs[cid]
        for i, x in enumerate(block):
            if x:
                a = cocycle_coords[off + i]
                if a:
                    out += Fraction(a) * x
    return out


def principal_divisor_weights(fan: Fan, m):
    """Ray weights of the principal divisor of the character m."""
    if len(m) != fan.ambient_rank:
        raise ValueError(
            f"character of length {len(m)} on a fan of rank {fan.ambient_rank}"
        )
    return [
        sum(Fraction(a) * b for a, b in zip(m, r)) for r in fan.rays
    ]


def divisor_class_kernel(fan: Fan) -> QSubspace:
    """Ray weight vectors whose divisor combination is null-homologous.

    The map sends a weight vector to the homology class of the weighted
    sum of boundary divisor cycles in degree (n-1, n-1).  Its kernel is
    the projection to the ray weights of the null space of [D | delta^T],
    D with one divisor cycle per column, written as sparse rows over C^d.
    With the ray columns first, the RREF rows of that null space
    (``QSubspace.kernel``) whose pivots are ray columns, cut to those
    columns, are the RREF of the projection; the others vanish there.
    """
    cx = weightss.trop_complex_for(fan)
    n = fan.ambient_rank
    d = n - 1
    rays = fan.rays
    cc = cohomology.cochains(cx, d)
    offs = cc.offsets(d)
    ext = [{} for _ in range(cc.space_dim(d))]
    for r, ray in enumerate(rays):
        for cid, block in divisor_cycle(cx, ray).chain.items():
            for i, x in enumerate(block):
                if x:
                    ext[offs[cid] + i][r] = x
    bnd = cc.delta(d)
    for j, row in enumerate(bnd):
        for i, x in row.items():
            ext[i][len(rays) + j] = x
    k = len(rays)
    ker = QSubspace.kernel(ext, k + len(bnd))
    return QSubspace(k, [v[:k] for v in ker.basis if any(v[:k])])


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
            cur = total.get(cid, (0,) * len(block))
            total[cid] = tuple(a + w * x for a, x in zip(cur, block))
    return TropCycle(cx, fan.ambient_rank - 1, total)


def weight_cycle(cx: TropComplex, mw: MinkowskiWeight) -> TropCycle:
    """The cycle of a weight: mobile fan cycle, or boundary divisor sum."""
    if mw.divisor:
        n = mw.fan.ambient_rank
        return divisor_combination(cx, [mw.weight(Cone(n, [r])) for r in mw.fan.rays])
    return cycle_class(cx, mw)


def surface_intersection_matrix(fan: Fan) -> tuple:
    """Divisor intersection numbers of a smooth complete toric surface.

    A tuple of row tuples, indexed by the fan's rays in their canonical
    order.  The neighbours of a ray v are the other rays of its two
    2-cones: v meets each with multiplicity one, and its
    self-intersection is -b where the neighbours sum to b v.
    """
    if fan.ambient_rank != 2:
        raise ValueError("intersection matrix is for surfaces")
    if not fan.is_smooth() or not fans.is_complete(fan):
        raise ValueError("needs a smooth complete surface fan")
    rays = fan.rays
    neighbours = {v: [] for v in rays}
    for u, v in (c.rays for c in fan.cones_of_dim(2)):
        neighbours[u].append(v)
        neighbours[v].append(u)
    self_int = {}
    for v in rays:
        s = [a + c for a, c in zip(*neighbours[v])]
        j = 0 if v[0] else 1
        b = Fraction(s[j], v[j])
        if any(x != b * y for x, y in zip(s, v)):
            raise ValueError("neighbor sum is not a multiple of the ray")
        self_int[v] = -b
    return tuple(
        tuple(
            self_int[u] if u == v else Fraction(1 if v in neighbours[u] else 0)
            for v in rays
        )
        for u in rays
    )


def numerical_kernel_check(fan: Fan):
    """Compare the null-homologous divisor kernel with the numerical one."""
    homological = divisor_class_kernel(fan)
    rows = surface_intersection_matrix(fan)
    numerical = QSubspace.kernel([dict(enumerate(r)) for r in rows], len(rows))
    return {
        "homological": homological,
        "numerical": numerical,
        "pass": homological == numerical,
    }


def weight_to_json(mw: MinkowskiWeight) -> str:
    return json.dumps(mw.to_json_dict(), sort_keys=True)


def weight_from_json(text: str) -> MinkowskiWeight:
    return MinkowskiWeight.from_json_dict(json.loads(text))
