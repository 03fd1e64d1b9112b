"""Weight spectral sequence of a smooth toric variety.

E_1^{p,q} is the direct sum over p-dimensional cones of the lattice
realization wedge^{q-p}(M cap sigma-perp)_Q of the orbit cohomology;
d_1 is the signed Gersten residue (contraction with the new ray's
primitive normal, then restriction to the smaller perp lattice).
Everything is exact over Q.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from trophodge import fans
from trophodge.exactla import (
    QMatrix,
    assemble,
    homology_quotient,
    lex_subsets,
    wedge_matrix,
)
from trophodge.fans import Fan, face_set, orbit_lattice


@dataclass(frozen=True)
class SSPage:
    """One page of the spectral sequence: ``dims[(p, q)]`` is the dimension
    of the (p, q) entry."""

    level: int
    rank: int
    dims: dict

    def dim(self, p, q):
        return self.dims.get((p, q), 0)

    def table(self):
        n = self.rank
        return [[self.dim(p, q) for q in range(n + 1)] for p in range(n + 1)]

    def to_json(self):
        entries = [
            {"p": p, "q": q, "dim": d}
            for (p, q), d in sorted(self.dims.items())
            if d
        ]
        return json.dumps({"level": self.level, "entries": entries}, sort_keys=True)


def _require_smooth(fan):
    if not fan.is_smooth():
        raise ValueError("the weight spectral sequence needs a smooth fan")


def _e1_layout(fan, p, q):
    n = fan.ambient_rank
    k = q - p
    if k < 0 or k > n - p:
        return ()
    return tuple((sigma, math.comb(n - p, k)) for sigma in fan.cones_of_dim(p))


def e1_page(fan: Fan) -> SSPage:
    _require_smooth(fan)
    n = fan.ambient_rank
    dims = {
        (p, q): sum(d for _, d in _e1_layout(fan, p, q))
        for p in range(n + 1)
        for q in range(n + 1)
    }
    return SSPage(1, n, dims)


def _contraction_matrix(m, k, coeffs):
    """Contraction wedge^k Q^m -> wedge^{k-1} Q^m with the functional coeffs."""
    rows_idx = lex_subsets(m, k - 1)
    cols_idx = lex_subsets(m, k)
    pos = {s: i for i, s in enumerate(rows_idx)}
    ent = [[Fraction(0)] * len(cols_idx) for _ in rows_idx]
    for j, s in enumerate(cols_idx):
        for a, elem in enumerate(s):
            rest = s[:a] + s[a + 1:]
            sign = -1 if a % 2 else 1
            ent[pos[rest]][j] += sign * coeffs[elem]
    return QMatrix(len(rows_idx), len(cols_idx), ent)


def d1(fan: Fan, p: int, q: int, corrupt_sign: bool = False) -> QMatrix:
    """The residue differential E_1^{p,q} -> E_1^{p+1,q} as a block matrix.

    ``corrupt_sign`` flips one block sign; it exists as a negative
    control for the verification suite.  The control cannot fire on
    p1, torus(n) and affine_space(1), affine_space(2): a torus has no
    d_1 blocks, and on the others the flip is a change of basis, so
    d_1 still squares to zero and no rank changes.
    """
    _require_smooth(fan)
    src = _e1_layout(fan, p, q)
    dst = _e1_layout(fan, p + 1, q)
    k = q - p
    blocks = {}
    # The residue blocks L . i_rho already anticommute around every square
    # sigma < tau_1, tau_2 < upsilon (interior products with distinct rays
    # anticommute and the splittings drop out), so the combinatorial sign
    # is trivial; a position-based sign would double instead of cancel.
    # Only ``corrupt_sign`` flips one, on the first block.
    eps = -1 if corrupt_sign else 1
    for sigma, sdim in src:
        if not sdim:
            continue
        a_sigma = orbit_lattice(sigma).m_perp_basis
        for tau, tdim in dst:
            if sigma not in face_set(tau) or not tdim:
                continue
            rho = fans.new_ray(sigma, tau)
            pair = [
                sum(Fraction(a) * b for a, b in zip(vec, rho))
                for vec in a_sigma
            ]
            contr = _contraction_matrix(len(a_sigma), k, pair)
            m0 = _splitting_vector(a_sigma, pair)
            a_tau = orbit_lattice(tau).m_perp_basis
            restr = _restriction_matrix(a_sigma, a_tau, pair, m0)
            blocks[(tau, sigma)] = (wedge_matrix(restr, k - 1) @ contr).scale(eps)
            eps = 1
    return assemble(blocks, dst, src)


def _splitting_vector(a_sigma, pair):
    """Coordinates (in the sigma-perp basis) of m0 with <m0, rho> = 1."""
    sol = QMatrix(1, len(a_sigma), [pair]).solve([Fraction(1)])
    if sol is None:
        raise ValueError("ray pairs to zero with the whole perp lattice")
    return sol


def _restriction_matrix(a_sigma, a_tau, pair, m0_coords):
    """Matrix of x -> x - <x,rho> m0 from sigma-perp to tau-perp bases."""
    n = len(a_sigma[0]) if a_sigma else 0
    m0 = [
        sum(c * Fraction(v[i]) for c, v in zip(m0_coords, a_sigma))
        for i in range(n)
    ]
    images = []
    for vec, pr in zip(a_sigma, pair):
        images.append(tuple(Fraction(x) - pr * y for x, y in zip(vec, m0)))
    if not a_tau:
        return QMatrix(0, len(a_sigma), [])
    at = QMatrix.from_rows([list(r) for r in a_tau], n).transpose()
    cols = at.solve_many(images)
    if any(c is None for c in cols):
        raise ValueError("restriction image leaves the tau-perp lattice")
    return QMatrix(
        len(a_tau), len(a_sigma),
        [[cols[j][i] for j in range(len(a_sigma))] for i in range(len(a_tau))],
    )


def e2_page(fan: Fan, corrupt_sign: bool = False) -> SSPage:
    return _e2_page(fan, corrupt_sign)


@functools.lru_cache(maxsize=None)
def _e2_page(fan, corrupt_sign):
    """E_2 page, cached per fan under one key however ``e2_page`` is called."""
    _require_smooth(fan)
    n = fan.ambient_rank
    dims = {}
    for q in range(n + 1):
        inc = None
        for p in range(n + 1):
            out = d1(fan, p, q, corrupt_sign=corrupt_sign)
            dims[(p, q)] = len(homology_quotient(out, inc))
            inc = out
    return SSPage(2, n, dims)


@functools.lru_cache(maxsize=None)
def trop_complex_for(fan: Fan):
    """The cell structure used on the tropical side of the comparison.

    Complete fans carry their tautological structure; non-complete fans
    are given the orthant structure of a built-in completion.
    """
    from trophodge import tropspace

    if fans.is_complete(fan):
        return tropspace.tautological_complex(fan)
    return tropspace.tautological_complex(fan, fans.completion(fan))


def compare_with_trop(fan: Fan, corrupt_sign: bool = False):
    """Entries (p, q, dim E_2^{p,q}, h^{q,p}_Trop, ok) plus overall pass."""
    from trophodge import cohomology

    _require_smooth(fan)
    n = fan.ambient_rank
    e2 = e2_page(fan, corrupt_sign=corrupt_sign)
    cx = trop_complex_for(fan)
    betti = cohomology.betti_table(cx)
    entries = []
    ok = True
    for p in range(n + 1):
        for q in range(n + 1):
            lhs = e2.dim(p, q)
            rhs = betti[q][p]
            good = lhs == rhs
            ok = ok and good
            entries.append((p, q, lhs, rhs, good))
    return {"fan_rank": n, "entries": entries, "pass": ok}


def betti_from_h_vector(fan: Fan):
    """Even Betti numbers of the toric variety from the fan's cone counts.

    Sum over cones of (t-1)^(n - dim sigma) equals sum of h_k t^k; then
    b_{2k} = h_k and odd Betti numbers vanish.
    """
    n = fan.ambient_rank
    h = [0] * (n + 1)
    for sigma in fan.cones:
        e = n - sigma.dim
        for i in range(e + 1):
            h[i] += math.comb(e, i) * ((-1) ** (e - i))
    b = [0] * (2 * n + 1)
    for i, hi in enumerate(h):
        b[2 * i] = hi
    return b


def euler_consistency(fan: Fan):
    """Check sum of E_2 diagonals against the h-vector Betti numbers."""
    _require_smooth(fan)
    if not fans.is_complete(fan):
        raise ValueError("euler_consistency needs a complete fan")
    n = fan.ambient_rank
    e2 = e2_page(fan)
    b = betti_from_h_vector(fan)
    entries = []
    ok = True
    for k in range(2 * n + 1):
        total = sum(
            e2.dim(p, k - p) for p in range(n + 1) if 0 <= k - p <= n
        )
        good = total == b[k]
        ok = ok and good
        entries.append((k, total, b[k], good))
    return {"betti": b, "entries": entries, "pass": ok}
