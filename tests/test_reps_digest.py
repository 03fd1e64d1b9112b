"""One sha256 over the representatives of every H^{p,q}.

It covers every (p, q) of the boundary-closed complexes that
``weightss.trop_complex_for`` builds for the built-in zoo, and of P^4.
``test_golden_digest.py`` pins only the top degree p = q = d; the pairing
of Chow weights with cohomology classes reads representatives in every
degree, so a change to the elimination core that moved any of them would
show up here.
"""

import hashlib

from trophodge import cohomology, fans, weightss

GOLDEN_REPS = "2506a554d86ce1efe68dc00825a75c159d363825ee86d01fbee5d22863271d47"


def _records():
    named = [(name, fans.builtin(name)) for name in fans.BUILTIN_ZOO]
    named.append(("projective_space(4)", fans.projective_space(4)))
    for name, fan in named:
        cx = weightss.trop_complex_for(fan)
        if not cx.is_boundary_closed():
            continue
        d = cx.top_dim
        for p in range(d + 1):
            for q in range(d + 1):
                yield (name, p, q, cohomology.cohomology(cx, p, q).representatives)


def reps_digest():
    h = hashlib.sha256()
    for record in _records():
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_representatives_match_the_recorded_digest():
    assert reps_digest() == GOLDEN_REPS
