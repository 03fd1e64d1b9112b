"""One sha256 over every F_p basis and every codimension-1 face map.

It covers the complexes ``weightss.trop_complex_for`` builds for the
built-in zoo and for P^4: the canonical basis of F_p(cell) for every cell
and every p, and the columns of every codimension-1 face map for every p.
Each entry is normalised through ``Fraction``, so the digest does not see
whether an entry is stored as an int or as a Fraction, only its value.
"""

import hashlib
from fractions import Fraction

import oracles
from trophodge import fans, weightss

GOLDEN_FACE_MAPS = "121024d01ac822161bdf228478bbecd2cc580acd158c9c2b4dd2840fdaafbff3"


def _normalised(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _records():
    named = [(name, fans.builtin(name)) for name in fans.BUILTIN_ZOO]
    named.append(("projective_space(4)", fans.projective_space(4)))
    for name, fan in named:
        cx = weightss.trop_complex_for(fan)
        n = fan.ambient_rank
        for cid, cell in enumerate(cx.cells):
            for p in range(n + 1):
                yield ("f_p", name, cid, p, _normalised(cx.f_lower(cell, p).basis))
        for fid, cid, _sign in cx.face_poset():
            face, coface = cx.cells[fid], cx.cells[cid]
            for p in range(n + 1):
                cols = oracles.face_map_columns(cx, face, coface, p)
                yield ("map", name, fid, cid, p, _normalised(cols))


def face_map_digest():
    h = hashlib.sha256()
    for record in _records():
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_f_p_bases_and_face_maps_match_the_golden_digest():
    assert face_map_digest() == GOLDEN_FACE_MAPS
