"""Seeded inputs for the trophodge benchmark.

Everything here is plain Python and independent of the package under test:
the fans are written down from their textbook rays and cones, so the
benchmark feeds the program the same inputs at every commit.

A complete fan is moved by a seeded unimodular change of coordinates (a
product of +-1 elementary matrices).  The toric variety, and so every
expected answer, stays the same, while the integers the exact core sees
change.  ``torus(n)`` and ``affine_space(n)`` stay in orthant coordinates,
because ``fans.completion`` completes only orthant faces.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

# ``fans.BUILTIN_ZOO``, in the order ``verify --all-builtins`` runs it.  The
# order stays fixed: peak memory depends on which fans' caches are alive when
# the costly ones run, and shuffling it moved peak RSS by 15% between seeds.
ZOO = (
    "p1", "p2", "p3", "p1xp1", "p1xp1xp1",
    "hirzebruch(0)", "hirzebruch(1)", "hirzebruch(2)", "hirzebruch(3)",
    "blowup_p2",
    "torus(1)", "torus(2)", "torus(3)",
    "affine_space(1)", "affine_space(2)", "affine_space(3)",
)

# Elementary operations per coordinate change.  Two keep the entries small,
# so the seed changes the integers but hardly the amount of work.
SHEARS = 2


def _unit(n, i, sign=1):
    return tuple(sign if j == i else 0 for j in range(n))


def projective_space(n):
    rays = [_unit(n, i) for i in range(n)] + [(-1,) * n]
    return n, [[r for j, r in enumerate(rays) if j != i] for i in range(n + 1)]


def orthant(n):
    return n, [
        [_unit(n, i, s) for i, s in enumerate(signs)]
        for signs in itertools.product((1, -1), repeat=n)
    ]


def hirzebruch(a):
    r = [(1, 0), (0, 1), (-1, a), (0, -1)]
    return 2, [[r[i], r[(i + 1) % 4]] for i in range(4)]


def blowup_p2():
    e1, e2, e0, new = (1, 0), (0, 1), (-1, -1), (1, 1)
    return 2, [[e1, new], [new, e2], [e2, e0], [e0, e1]]


def named_fan(name):
    """(rank, maximal cones as lists of ray tuples) of a zoo name."""
    head, _, arg = name.rstrip(")").partition("(")
    if head in ("p1", "p2", "p3"):
        return projective_space(int(head[1]))
    if head in ("p1xp1", "p1xp1xp1"):
        return orthant(head.count("p1"))
    if head == "projective_space":
        return projective_space(int(arg))
    if head == "hirzebruch":
        return hirzebruch(int(arg))
    if head == "blowup_p2":
        return blowup_p2()
    if head == "torus":
        return int(arg), []
    if head == "affine_space":
        n = int(arg)
        return n, [[_unit(n, i) for i in range(n)]]
    raise KeyError(name)


def is_complete_name(name):
    return not name.startswith(("torus", "affine_space"))


def fan_json(rank, cones):
    """Fan JSON in the program's canonical form: lex-sorted rays."""
    rays = sorted({r for cone in cones for r in cone})
    index = {r: i for i, r in enumerate(rays)}
    return {
        "rank": rank,
        "rays": [list(r) for r in rays],
        "cones": sorted(sorted(index[r] for r in cone) for cone in cones),
    }


def unimodular(rng, n):
    """A seeded matrix in GL_n(Z): a sign flip for n = 1, else shears."""
    if n == 1:
        return [[rng.choice((1, -1))]]
    mat = [list(_unit(n, i)) for i in range(n)]
    # distinct (i, j), so that two shears never cancel
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for i, j in rng.sample(pairs, SHEARS):
        s = rng.choice((1, -1))
        mat[i] = [a + s * b for a, b in zip(mat[i], mat[j])]
    return mat


def transform(mat, ray):
    return tuple(sum(a * x for a, x in zip(row, ray)) for row in mat)


def h_vector(rank, cones):
    """h-vector of a simplicial fan from its maximal cones.

    sum over cones sigma of (t - 1)^(n - dim sigma) = sum_k h_k t^k; for a
    smooth complete fan h_k = dim H^{k,k}.
    """
    faces = {frozenset(s) for cone in cones
             for k in range(len(cone) + 1)
             for s in itertools.combinations(cone, k)}
    if not faces:
        faces = {frozenset()}
    h = [0] * (rank + 1)
    for face in faces:
        e = rank - len(face)
        for i in range(e + 1):
            h[i] += math.comb(e, i) * (-1) ** (e - i)
    return h


def expected_table(name):
    """Closed-form Hodge table h[p][q] of a zoo member."""
    rank, cones = named_fan(name)
    table = [[0] * (rank + 1) for _ in range(rank + 1)]
    if is_complete_name(name):
        for k, hk in enumerate(h_vector(rank, cones)):
            table[k][k] = hk
    elif name.startswith("torus"):
        for p in range(rank + 1):
            table[p][0] = math.comb(rank, p)
    else:
        table[0][0] = 1
    return table


def seeded_fan(rng, name):
    rank, cones = named_fan(name)
    if is_complete_name(name):
        mat = unimodular(rng, rank)
        cones = [[transform(mat, r) for r in cone] for cone in cones]
    else:
        mat = None
    return {"name": name, "rank": rank, "complete": is_complete_name(name),
            "fan": fan_json(rank, cones)}, mat


def _scale(rng):
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))


def chow_basis(name):
    """Balanced unit weights spanning each Chow group A^c, 1 <= c < n.

    Returns {c: [list of cones (lists of rays) carrying weight 1]}: the
    linear subspaces of P^n, and the coordinate subspaces of (P^1)^n.
    """
    rank, cones = named_fan(name)
    out = {}
    for c in range(1, rank):
        dim = rank - c
        faces = sorted({tuple(sorted(s)) for cone in cones
                        for s in itertools.combinations(cone, dim)})
        if name.startswith("p1xp1"):
            supports = itertools.combinations(range(rank), dim)
            out[c] = [
                [f for f in faces if all(any(r[i] for r in f) for i in axes)]
                for axes in supports
            ]
        else:
            out[c] = [faces]
    return out


def pairing_inputs(rng, name):
    entry, mat = seeded_fan(rng, name)
    index = {tuple(r): i for i, r in enumerate(entry["fan"]["rays"])}
    weights = []
    for c, basis in chow_basis(name).items():
        for unit in basis:
            cones = sorted(sorted(index[transform(mat, r)] for r in cone)
                           for cone in unit)
            scale = _scale(rng)
            weights.append({"codim": c, "cones": cones,
                            "scale": f"{scale.numerator}/{scale.denominator}"})
    rank = entry["rank"]
    characters = []
    while len(characters) < 3:
        m = [rng.randint(-2, 2) for _ in range(rank)]
        if any(m) and m not in characters:
            characters.append(m)
    entry.update(weights=weights, characters=characters,
                 h_diag=h_vector(*named_fan(name)))
    return entry


def make_inputs(workload, seed):
    """The inputs of one workload as a JSON-ready dict."""
    rng = random.Random(seed)
    if workload == "zoo":
        fans = []
        for name in ZOO:
            entry, _ = seeded_fan(rng, name)
            entry["expected"] = expected_table(name)
            fans.append(entry)
    elif workload == "p4":
        entry, _ = seeded_fan(rng, "projective_space(4)")
        entry["expected"] = expected_table("projective_space(4)")
        fans = [entry]
    elif workload == "pairing":
        fans = [pairing_inputs(rng, name)
                for name in ("projective_space(4)", "p1xp1xp1")]
    else:
        raise KeyError(f"unknown workload: {workload}")
    return {"workload": workload, "seed": seed, "fans": fans}


def dumps(inputs):
    return json.dumps(inputs, sort_keys=True)
