"""Weight spectral sequence of a smooth toric variety.

E_1^{p,q} is the direct sum over p-dimensional cones sigma of
wedge^{q-p} M_sigma, M_sigma = M cap sigma-perp, in lex coordinates of
the rows of ``orbit_proj(sigma)``, a basis of M_sigma.  d_1 is the
Gersten residue.  For tau = sigma + rho, the contraction with the
image rho-bar of rho in N_sigma lands in wedge^{k-1} M_tau, since it
squares to zero, and any left inverse of the inclusion M_tau -> M_sigma
reads off its coordinates there.  r^T with r = proj_sigma @ section_tau,
the section of ``fans.orbit_frame(tau)``, is one: b @ r = I for the
stratum map b.  So each block is wedge^{k-1}(r^T) . i_{rho-bar}, in
integers, with no splitting m0 with <m0, rho> = 1 to choose.
"""

from __future__ import annotations

import functools
import json
import math

from trophodge import cohomology, fans, tropspace
from trophodge.exactla import (
    block_offsets,
    lex_subsets,
    sparse_rank,
    wedge_columns,
)
from trophodge.fans import Fan
from trophodge.record import Record


class SSPage(Record):
    """One page of the spectral sequence: ``dims[(p, q)]`` is the dimension
    of the (p, q) entry."""

    fields = ("level", "rank", "dims")

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


def d1(fan: Fan, p: int, q: int) -> tuple:
    """The residue differential E_1^{p,q} -> E_1^{p+1,q} as a block matrix.

    Returns (rows, ncols): its sparse integer rows {col: entry}, one per
    coordinate of E_1^{p+1,q}, and the column count, dim E_1^{p,q}; the
    E_2 page reads them directly.  With k = q - p, the block of sigma <
    tau = sigma + rho sends the lex k-subset s to sum_a (-1)^a
    rho-bar[s_a] wedge^{k-1}(r^T) e_{s - s_a} (see the module docstring);
    its integer rows are written, from the sparse columns of
    ``wedge_columns``, at the ``block_offsets`` of the two layouts.  The
    pairs are the facets sigma of each (p+1)-cone tau, and rho-bar and
    r^T are ``fans.facet_frame(sigma, tau)``, made once per pair.
    """
    _require_smooth(fan)
    src = _e1_layout(fan, p, q)
    dst = _e1_layout(fan, p + 1, q)
    roff, nrows = block_offsets(dst)
    coff, ncols = block_offsets(src)
    rows = [{} for _ in range(nrows)]
    k, m = q - p, fan.ambient_rank - p
    # a block needs 1 <= k, so dst is empty below that
    subsets = {t: i for i, t in enumerate(lex_subsets(m, k - 1))} if dst else {}
    # The blocks already anticommute around every square
    # sigma < tau_1, tau_2 < upsilon (interior products with distinct rays
    # anticommute), so the combinatorial sign is trivial; a position-based
    # sign would double instead of cancel.
    for tau, _ in dst:
        for sigma in tau.facets():
            rho_bar, r_t = fans.facet_frame(sigma, tau)
            wedge = wedge_columns(r_t, k - 1)
            r0, c0 = roff[tau], coff[sigma]
            for j, s in enumerate(lex_subsets(m, k)):
                for a, e in enumerate(s):
                    c = (-1) ** a * rho_bar[e]
                    if c:
                        for i, x in wedge[subsets[s[:a] + s[a + 1:]]]:
                            row = rows[r0 + i]
                            row[c0 + j] = row.get(c0 + j, 0) + c * x
    return rows, ncols


@functools.lru_cache(maxsize=None)
def e2_page(fan: Fan) -> SSPage:
    """E_2 page, cached per fan.

    dim E_2^{p,q} = dim E_1^{p,q} - rk d_1^{p,q} - rk d_1^{p-1,q}: two
    ranks of the integer rows of :func:`d1`, one of them the outgoing
    rank of the step before, and no basis of ker modulo im.
    """
    _require_smooth(fan)
    n = fan.ambient_rank
    dims = {}
    for q in range(n + 1):
        rank_in = 0
        for p in range(n + 1):
            out, ncols = d1(fan, p, q)
            rank_out = sparse_rank(out)
            dims[(p, q)] = ncols - rank_out - rank_in
            rank_in = rank_out
    return SSPage(2, n, dims)


@functools.lru_cache(maxsize=None)
def trop_complex_for(fan: Fan):
    """The cell structure on which the cochains of a fan's space live.

    Complete fans carry their tautological structure; non-complete fans
    are given the orthant structure of a built-in completion.
    """
    if fans.is_complete(fan):
        return tropspace.tautological_complex(fan)
    return tropspace.tautological_complex(fan, fans.completion(fan))


def compare_with_trop(fan: Fan):
    """Entries (p, q, dim E_2^{p,q}, h^{q,p}_Trop, ok) plus overall pass."""
    _require_smooth(fan)
    n = fan.ambient_rank
    e2 = e2_page(fan)
    betti = cohomology.betti_table(fan)
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
