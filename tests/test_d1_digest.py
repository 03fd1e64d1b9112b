"""One sha256 over every d_1 matrix of the weight spectral sequence.

It covers the 16 built-in zoo fans, P^4, and P^2 and P^3 sheared by a
unimodular matrix.  On the sheared fans the perp lattices of some face
pairs are not in a position where a row-reduced splitting of the new ray
is integral, so the digest also pins that each d_1 block does not depend
on a choice of splitting.  Every (p, q) is covered, with and without
``corrupt_sign``; each entry is normalised through ``Fraction``.
"""

import hashlib
from fractions import Fraction

from trophodge import fans, weightss

GOLDEN_D1 = "f7aea7e7ac4b8c36c5e448be75b89a6b5dce4836c9982f7315abad81abe6dc30"

SHEARS = (
    (2, ((1, 2), (0, 1))),
    (3, ((1, 2, 0), (0, 1, 3), (0, 0, 1))),
)


def _sheared(fan, shear):
    def image(ray):
        return tuple(sum(a * x for a, x in zip(row, ray)) for row in shear)

    return fans.Fan(
        fan.ambient_rank,
        [[image(r) for r in cone.rays] for cone in fan.maximal_cones],
    )


def _named_fans():
    named = [(name, fans.builtin(name)) for name in fans.BUILTIN_ZOO]
    named.append(("projective_space(4)", fans.projective_space(4)))
    for n, shear in SHEARS:
        named.append((f"sheared P^{n}", _sheared(fans.projective_space(n), shear)))
    return named


def _records():
    for name, fan in _named_fans():
        n = fan.ambient_rank
        for corrupt in (False, True):
            for p in range(n + 1):
                for q in range(n + 1):
                    rows, ncols = weightss.d1(fan, p, q, corrupt_sign=corrupt)
                    entries = tuple(
                        tuple(Fraction(row.get(j, 0)) for j in range(ncols))
                        for row in rows
                    )
                    yield (name, corrupt, p, q, len(rows), ncols, entries)


def d1_digest():
    h = hashlib.sha256()
    for record in _records():
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_d1_matrices_match_the_golden_digest():
    assert d1_digest() == GOLDEN_D1
