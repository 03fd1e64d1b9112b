"""Tropical cohomology H^{p,q} of a stratified cell complex.

One model computes it: the incidence cochain complex C^q = direct sum of
F^p over q-cells, with the signed dual face maps as differential.

On a boundary-closed complex (every face at infinity present, so all
cells have compact closure) this complex computes sheaf cohomology.  On
a support with unbounded cells it computes the compactly supported
groups instead, and Poincare duality on a tropical manifold of
dimension d, H^{p,q} = (H_c^{d-p,d-q})^dual (Jell-Shaw-Smacka,
"Superforms, tropical cohomology and Poincare duality",
arXiv:1512.07409), turns them into h^{p,q}.

Dimensions come from ranks alone: dim H^q = dim C^q - rk delta_q -
rk delta_{q-1}, with the ranks cached on the complex, which is all
:func:`betti_table` computes.  Representatives (a basis of ker modulo im)
come only from :func:`cohomology`, on boundary-closed complexes.

The face-poset and Cech models that cross-check this path are test
oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from trophodge.exactla import QMatrix, assemble, homology_quotient
from trophodge.tropspace import TropComplex


@dataclass(frozen=True)
class CochainComplex:
    """Incidence cochain complex for a fixed p.

    ``layout[q]`` lists (cell_id, block_dim) in block order; ``deltas[q]``
    maps C^q to C^{q+1}.
    """

    p: int
    layout: tuple
    deltas: tuple

    def space_dim(self, q):
        if 0 <= q < len(self.layout):
            return sum(d for _, d in self.layout[q])
        return 0

    def delta(self, q):
        if 0 <= q < len(self.deltas):
            return self.deltas[q]
        return QMatrix.zeros(self.space_dim(q + 1), self.space_dim(q))

    def verify_d_squared(self):
        for q in range(len(self.deltas) - 1):
            if not (self.deltas[q + 1] @ self.deltas[q]).is_zero():
                return False
        return True


@dataclass(frozen=True)
class CohomologyResult:
    p: int
    q: int
    dim: int
    representatives: tuple


def _cache(cx):
    return cx.__dict__.setdefault("_coh_cache", {})


def build_cochain_complex(cx: TropComplex, p: int) -> CochainComplex:
    cache = _cache(cx)
    if ("cochain", p) in cache:
        return cache[("cochain", p)]
    top = cx.top_dim
    layout = []
    for q in range(top + 1):
        layout.append(tuple(
            (cx.cell_id(c), cx.f_lower(c, p).dim) for c in cx.cells_of_dim(q)
        ))
    poset = cx.face_poset()
    deltas = []
    for q in range(top):
        blocks = {}
        for fid, cid, _case, sign in poset:
            face = cx.cells[fid]
            if face.dim != q:
                continue
            coface = cx.cells[cid]
            rho = cx.face_map(face, coface, p).transpose()
            blocks[(cid, fid)] = rho.scale(sign)
        deltas.append(assemble(blocks, layout[q + 1], layout[q]))
    out = CochainComplex(p, tuple(layout), tuple(deltas))
    cache[("cochain", p)] = out
    return out


def cohomology(cx: TropComplex, p: int, q: int) -> CohomologyResult:
    """H^{p,q} of the complex, exact over Q.

    A boundary-closed complex gets the dimension and representatives from
    its incidence cochain complex.  Any other complex must be a tropical
    manifold: a complex over a smooth base fan (``weightss.trop_complex_for``
    builds one for every non-complete fan it accepts) or a smooth tropical
    curve such as the tropical line.  Its dimension comes by Poincare
    duality from the compactly supported groups the incidence complex
    computes, with ``representatives=()``; a base fan that is not smooth
    raises ValueError.
    """
    d = _duality_dim(cx)
    if d is not None:
        return CohomologyResult(p, q, _dim(cx, p, q, d), ())
    cc = build_cochain_complex(cx, p)
    reps = homology_quotient(cc.delta(q), cc.delta(q - 1) if q >= 1 else None)
    return CohomologyResult(p, q, len(reps), tuple(reps))


def _delta_rank(cx, p, q):
    """rk delta_q of the incidence complex for p, cached on the complex."""
    cache = _cache(cx)
    if ("rank", p, q) not in cache:
        cache[("rank", p, q)] = build_cochain_complex(cx, p).delta(q).rank()
    return cache[("rank", p, q)]


def _duality_dim(cx):
    """None if boundary closed, else the dimension d for Poincare duality."""
    if cx.is_boundary_closed():
        return None
    if not cx.base_fan.is_smooth():
        raise ValueError(
            "a complex that is not boundary closed needs a smooth base fan"
        )
    return cx.top_dim


def _dim(cx, p, q, d):
    """dim H^{p,q} from cached ranks, as dim H_c^{d-p,d-q} unless d is None."""
    if d is not None:
        if not (0 <= p <= d and 0 <= q <= d):
            return 0
        p, q = d - p, d - q
    return (
        build_cochain_complex(cx, p).space_dim(q)
        - _delta_rank(cx, p, q)
        - _delta_rank(cx, p, q - 1)
    )


def betti_table(cx: TropComplex):
    """Matrix h[p][q] for 0 <= p,q <= n, from ranks alone.

    The dimensions are those :func:`cohomology` gives, with the same
    contract, but no representative is computed: dim C^q - rk delta_q -
    rk delta_{q-1} of the incidence complex, taken at (d-p, d-q) by
    Poincare duality where the complex is not boundary closed.
    """
    n = cx.base_fan.ambient_rank
    d = _duality_dim(cx)
    return [[_dim(cx, p, q, d) for q in range(n + 1)] for p in range(n + 1)]


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
