"""One sha256 over the exact outputs that every performance change must keep.

The digest covers the Betti tables and E_2 tables of the built-in zoo, and
the face-poset signs and the H^{d,d} representatives of the boundary-closed
zoo complexes and of P^4.  It was recorded before the lattice data went
integral and must not move: a change of arithmetic that alters any sign,
basis or representative shows up here, not only in a dimension count.
"""

import hashlib

from trophodge import cohomology, fans, weightss

GOLDEN = "63ea0eb8a24b5ea9f90cf2ffe02ceca52edd2105c5261f39a0ef5faef9e41dc7"


def _records():
    for name in fans.BUILTIN_ZOO:
        fan = fans.builtin(name)
        cx = weightss.trop_complex_for(fan)
        yield ("betti", name, cohomology.betti_table(cx))
        yield ("e2", name, weightss.e2_page(fan).table())
    closed = [(name, fans.builtin(name)) for name in fans.BUILTIN_ZOO]
    closed.append(("projective_space(4)", fans.projective_space(4)))
    for name, fan in closed:
        cx = weightss.trop_complex_for(fan)
        if not cx.is_boundary_closed():
            continue
        yield ("signs", name, [sign for *_, sign in cx.face_poset()])
        d = cx.top_dim
        yield ("reps", name, cohomology.cohomology(cx, d, d).representatives)


def golden_digest():
    h = hashlib.sha256()
    for record in _records():
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_outputs_match_the_golden_digest():
    assert golden_digest() == GOLDEN
