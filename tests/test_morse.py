"""The stratum Morse complex against the unreduced incidence complex."""

import random

from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from test_cohomology import diag_table, open_complexes
from test_cycles_digest import CUBE_FAN
from test_fan_digest import _shears, moved_zoo
from trophodge import cohomology, fans, tropspace, weightss
from trophodge.fans import Cone


def morse_complexes():
    """The zoo (its open complexes included), the moved zoo, the cube fan,
    P^4 and (P^1)^4, then the open refined complexes."""
    named = [fans.builtin(name) for name in fans.BUILTIN_ZOO]
    named += [fans.Fan(n, cones) for _, n, cones in moved_zoo()]
    named += [CUBE_FAN, fans.projective_space(4), fans.orthant_fan(4)]
    return [weightss.trop_complex_for(fan) for fan in named] + open_complexes()


def test_morse_ranks_match_the_unreduced_ranks():
    """For every p and q the reduced complex has the cohomology of the
    incidence complex, and ``betti_table`` equals the unreduced table, by
    duality on the complexes that are not boundary closed."""
    complexes = morse_complexes()
    assert len(complexes) == 16 + 10 + 3 + 24
    assert sum(not cx.is_boundary_closed() for cx in complexes) > 24
    for cx in complexes:
        morse = cohomology.morse(cx)
        n = cx.base_fan.ambient_rank
        for p in range(n + 1):
            for q in range(cx.top_dim + 1):
                assert morse.dim(p, q) == oracles.unreduced_dim(cx, p, q), (cx, p, q)
        assert cohomology.betti_table(cx) == oracles.unreduced_betti_table(cx), cx


def test_matching_pairs_codim_one_faces_inside_a_stratum():
    """Each matched pair is a codim-1 face pair of one sedentarity whose
    shapes differ by one ray, and no cell is matched twice."""
    for cx in morse_complexes():
        poset = {(f, c) for f, c, _ in cx.face_poset()}
        matching = cohomology.morse(cx).matching
        for f, c in matching:
            (sf, tf), (sc, tc) = cx.cell_keys[f], cx.cell_keys[c]
            assert (f, c) in poset and sf == sc
            extra = tc & ~tf
            assert not tf & ~tc and extra and not extra & (extra - 1)
        ids = [i for pair in matching for i in pair]
        assert len(ids) == len(set(ids))
        critical = sorted(i for ids in cohomology.morse(cx).critical.values() for i in ids)
        assert sorted(ids + critical) == list(range(len(cx.cells)))


def test_one_critical_cell_per_cone_of_a_smooth_complete_fan():
    """On P^4 and (P^1)^4 the critical cells are one per cone, and over all
    p they have as many coordinates as the E_1 page: 121 of P^4's 1,441."""
    coordinates = []
    for fan in (fans.projective_space(4), fans.orthant_fan(4)):
        cx = weightss.trop_complex_for(fan)
        morse = cohomology.morse(cx)
        assert sum(map(len, morse.critical.values())) == len(fan.cones)
        coordinates.append(sum(
            morse.space_dim(p, q) for p in range(5) for q in range(cx.top_dim + 1)
        ))
        assert coordinates[-1] == sum(weightss.e1_page(fan).dims.values())
    assert coordinates[0] == 121


def test_one_flipped_epsilon_changes_the_betti_table():
    """Negating any one epsilon of the reduced delta_0 of P^2 changes the
    table the Morse complex gives: the ranks read every epsilon."""
    cx = weightss.trop_complex_for(fans.builtin("p2"))
    table = diag_table(2, [1, 1, 1])
    reduced = cohomology.MorseComplex(cx).reduced
    assert len(reduced[0]) == 6
    for k, (f, c, eps) in enumerate(reduced[0]):
        flipped = cohomology.MorseComplex(cx)
        flipped.reduced = dict(reduced)
        flipped.reduced[0] = reduced[0][:k] + ((f, c, -eps),) + reduced[0][k + 1:]
        got = [[flipped.dim(p, q) for q in range(3)] for p in range(3)]
        assert got != table, k
    same = cohomology.MorseComplex(cx)
    assert [[same.dim(p, q) for q in range(3)] for p in range(3)] == table


def test_p4_betti_table_hashes_few_cones(monkeypatch):
    """A P^4 Betti table looks up blocks by sedentarity masks and cells by
    ray ids: it hashes and compares cones fewer than 4,000 times in all,
    against 39,605 (37,675 hashes) when it wrote every delta_q from blocks
    keyed by cone pairs and scanned 3^dim faces per cell.  The count is
    taken as a sum because the lru caches of the cone data, when other
    tests have filled them, compare equal cones where they would hash."""
    cx = tropspace.tautological_complex(fans.projective_space(4))
    calls = {"hash": 0, "eq": 0}
    cone_hash, cone_eq = Cone.__hash__, Cone.__eq__

    def counting_hash(cone):
        calls["hash"] += 1
        return cone_hash(cone)

    def counting_eq(cone, other):
        calls["eq"] += 1
        return cone_eq(cone, other)

    monkeypatch.setattr(Cone, "__hash__", counting_hash)
    monkeypatch.setattr(Cone, "__eq__", counting_eq)
    assert cohomology.betti_table(cx) == diag_table(4, [1, 1, 1, 1, 1])
    assert 0 < calls["hash"] + calls["eq"] < 4000, calls


RANK3 = [
    fans.builtin(name) for name in fans.BUILTIN_ZOO
    if fans.builtin(name).ambient_rank == 3 and fans.is_complete(fans.builtin(name))
]


@st.composite
def generated_fans(draw):
    """A rank-3 complete zoo fan, star subdivided up to twice at the ray sum
    of one of its cones of dimension 2 or 3, then moved by GL_3(Z)."""
    fan = draw(st.sampled_from(RANK3))
    for _ in range(draw(st.integers(0, 2))):
        cones = [c for c in fan.cones if c.dim >= 2]
        sigma = draw(st.sampled_from(cones))
        fan = fans.star_subdivision(fan, tuple(map(sum, zip(*sigma.rays))))
    mat = _shears(random.Random(draw(st.integers(0, 2**16))), 3)
    return fans.Fan(3, [
        [tuple(sum(a * x for a, x in zip(row, r)) for row in mat) for r in c.rays]
        for c in fan.maximal_cones
    ])


@settings(max_examples=30, deadline=None, database=None)
@seed(2009046901)
@given(generated_fans())
def test_morse_betti_table_on_generated_fans(fan):
    """On blow-ups of P^3 and (P^1)^3 along orbit closures, in moved
    coordinates, the Morse Betti table equals the unreduced one and obeys
    h^{p,q} = h^{n-p,n-q}."""
    assert fan.is_smooth() and fans.is_complete(fan)
    cx = weightss.trop_complex_for(fan)
    table = cohomology.betti_table(cx)
    assert table == oracles.unreduced_betti_table(cx)
    assert all(table[p][q] == table[3 - p][3 - q] for p in range(4) for q in range(4))
