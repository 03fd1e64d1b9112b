"""The orbit complex of a fan against the incidence complex of its cells."""

import json
import random
import re

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from test_cohomology import diag_table, open_complexes
from test_cycles_digest import CUBE_FAN
from test_fan_digest import _shears, moved_zoo
from trophodge import cli, cohomology, cycles, fans, tropspace, weightss
from trophodge.exactla import QSubspace
from trophodge.fans import Cone
from trophodge.tropspace import Cell, TropComplex


def oracle_complexes():
    """The zoo (its open complexes included), the moved zoo, the cube fan,
    P^4 and (P^1)^4, then the open refined complexes."""
    named = [fans.builtin(name) for name in fans.BUILTIN_ZOO]
    named += [fans.Fan(n, cones) for _, n, cones in moved_zoo()]
    named += [CUBE_FAN, fans.projective_space(4), fans.orthant_fan(4)]
    return [weightss.trop_complex_for(fan) for fan in named] + open_complexes()


def test_orbit_betti_table_matches_both_oracles():
    """For every p and q the orbit complex of the base fan has the
    cohomology of the incidence complex of the cells, compactly supported
    where they are not boundary closed, and ``betti_table`` equals the
    unreduced table and the face-poset table, by duality on the complexes
    that are not boundary closed.  The face-poset oracle skips P^4 and
    (P^1)^4, whose chain complexes take it 10 s and more."""
    complexes = oracle_complexes()
    assert len(complexes) == 16 + 10 + 3 + 24
    assert sum(not cx.is_boundary_closed() for cx in complexes) > 24
    for cx in complexes:
        n = cx.base_fan.ambient_rank
        for p in range(n + 1):
            orbit = cohomology.orbit_cochains(cx.base_fan, p)
            for q in range(cx.top_dim + 1):
                assert orbit.dim(q) == oracles.unreduced_dim(cx, p, q), (cx, p, q)
        table = cohomology.betti_table(cx)
        assert table == oracles.unreduced_betti_table(cx), cx
        if len(cx.cells) < 200:
            assert table == oracles.poset_betti_table(cx), cx


def test_betti_table_of_a_fan_equals_that_of_its_cells():
    """A Betti table reads the fan alone: on the zoo, the moved zoo, P^4
    and (P^1)^4 it equals the table of the complex ``trop_complex_for``
    builds, and the fan is complete exactly where those cells are
    boundary closed, so the duality degree read off the fan is the one
    the cells give."""
    named = [fans.builtin(name) for name in fans.BUILTIN_ZOO]
    named += [fans.Fan(n, cones) for _, n, cones in moved_zoo()]
    named += [fans.projective_space(4), fans.orthant_fan(4)]
    assert len(named) == 16 + 10 + 2
    for fan in named:
        cx = weightss.trop_complex_for(fan)
        assert fans.is_complete(fan) == cx.is_boundary_closed(), fan
        assert cohomology.betti_table(fan) == cohomology.betti_table(cx), fan


def _kunneth(a, b):
    """The table of a product from the tables of its two factors."""
    n = len(a) + len(b) - 2
    out = [[0] * (n + 1) for _ in range(n + 1)]
    for p1, row1 in enumerate(a):
        for q1, x in enumerate(row1):
            for p2, row2 in enumerate(b):
                for q2, y in enumerate(row2):
                    out[p1 + p2][q1 + q2] += x * y
    return out


@pytest.mark.parametrize("first, table", [
    ("p2", [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0]]),
    ("hirzebruch(2)", [[1, 0, 0, 0], [1, 2, 0, 0], [0, 2, 1, 0], [0, 0, 1, 0]]),
], ids=["p2", "hirzebruch(2)"])
def test_kunneth_tables_of_open_fans_with_no_built_in_completion(first, table):
    """X x T^1 for a complete smooth surface X has no built-in completion,
    so no cells from ``trop_complex_for``; its Betti table comes from the
    fan, equals the Kunneth product of the tables of the factors, and
    equals E_2 transposed."""
    fan = fans.builtin(f"product({first},torus(1))")
    with pytest.raises(ValueError, match="no built-in completion"):
        weightss.trop_complex_for(fan)
    factors = [cohomology.betti_table(fans.builtin(name)) for name in (first, "torus(1)")]
    assert cohomology.betti_table(fan) == _kunneth(*factors) == table
    assert weightss.e2_page(fan).table() == [list(col) for col in zip(*table)]
    assert weightss.compare_with_trop(fan)["pass"]


def test_delta_squares_to_zero_on_the_orbit_complexes():
    """delta_{q+1} delta_q = 0 for every p and q on the fans of the oracle
    complexes: every facet square sigma'' < sigma', tau' < sigma has
    epsilons of opposite products."""
    for fan in {cx.base_fan: None for cx in oracle_complexes()}:
        n = fan.ambient_rank
        for p in range(n + 1):
            orbit = cohomology.orbit_cochains(fan, p)
            for q in range(n - 1):
                assert oracles.composes_to(orbit.delta(q + 1), orbit.delta(q))


def test_orbit_coordinates_equal_the_e1_dimensions():
    """On P^4 and (P^1)^4 the orbit complex has one block per cone, and over
    all p as many coordinates as the E_1 page: 121 on P^4, whose cell
    complex has 1,441."""
    coordinates = []
    for fan in (fans.projective_space(4), fans.orthant_fan(4)):
        layout = cohomology.orbit_cochains(fan, 0).layout
        assert sorted(i for ids in layout for i in ids) == list(range(len(fan.cones)))
        coordinates.append(sum(
            cohomology.orbit_cochains(fan, p).space_dim(q)
            for p in range(5) for q in range(5)
        ))
        assert coordinates[-1] == sum(weightss.e1_page(fan).dims.values())
    assert coordinates[0] == 121


def test_one_flipped_epsilon_changes_the_betti_table():
    """Negating any one epsilon of delta_0 of the orbit complex of P^2
    changes its table: the ranks read every epsilon.  Negating any one
    epsilon of delta_0 or delta_1 leaves some delta_1 delta_0 nonzero.
    Each complex is a ``CochainComplex`` built from the seds and layout of
    the orbit complex and the pairs, one of them flipped."""
    fan = fans.builtin("p2")
    table = diag_table(2, [1, 1, 1])
    orbit = cohomology.orbit_cochains(fan, 0)
    pairs = [orbit.pairs(q) for q in range(2)]
    assert [len(pairs[q]) for q in range(2)] == [6, 3]

    def complexes(pairs):
        return [
            cohomology.CochainComplex(orbit.seds, orbit.layout, pairs.__getitem__, p)
            for p in range(3)
        ]

    for q in range(2):
        for k, (f, c, eps) in enumerate(pairs[q]):
            changed = list(pairs)
            changed[q] = pairs[q][:k] + ((f, c, -eps),) + pairs[q][k + 1:]
            flipped = complexes(changed)
            assert not all(
                oracles.composes_to(cc.delta(1), cc.delta(0)) for cc in flipped
            ), (q, k)
            if q == 0:
                got = [[cc.dim(r) for r in range(3)] for cc in flipped]
                assert got != table, k
    assert [[cc.dim(q) for q in range(3)] for cc in complexes(pairs)] == table


def test_kernel_at_p_equal_to_d_is_the_chow_space():
    """At p = d the orbit complex is the toric case of the cycle class
    isomorphism: C^d has one coordinate per cone of codimension d, in fan
    order, and ker delta_d is ``cycles.chow_space(fan, d)``, the balanced
    Minkowski weights, as a subspace, for every d, on the complete zoo
    fans, P^4 and (P^1)^4."""
    named = [fans.builtin(name) for name in fans.BUILTIN_ZOO]
    named = [fan for fan in named if fans.is_complete(fan)]
    named += [fans.projective_space(4), fans.orthant_fan(4)]
    assert len(named) == 12
    for fan in named:
        for d in range(fan.ambient_rank + 1):
            orbit = cohomology.orbit_cochains(fan, d)
            assert orbit.space_dim(d) == len(orbit.layout[d])
            kernel = QSubspace.kernel(orbit.delta(d), orbit.space_dim(d))
            assert kernel == cycles.chow_space(fan, d), (fan, d)


def test_the_cells_must_cover_every_stratum():
    """The complexes that ``trop_complex_for``, a complete structure fan,
    the torus and affine complexes and the refinements build cover every
    stratum of their base fan.  A hand-built complex whose cells each have
    a full-dimensional stratum coface, but cover a stratum only in part,
    makes ``betti_table`` raise ValueError: P^2 without one open
    2-cell, which is still boundary closed, and the closed half-line over
    affine_space(1), which covers half of its open stratum N_R."""
    accepted = [weightss.trop_complex_for(fans.builtin(name)) for name in fans.BUILTIN_ZOO]
    accepted += [tropspace.tautological_complex(fans.torus(2), fans.builtin("p2"))]
    accepted += [oracles.torus_complex(3), oracles.affine_complex(3)]
    accepted += open_complexes()
    for cx in accepted:
        cx.require_covered_strata()
    p2 = fans.builtin("p2")
    top = p2.cones_of_dim(2)[0]
    zero = Cone(2, [])
    full = tropspace.tautological_complex(p2)
    holed = TropComplex(p2, [c for c in full.cells if c != Cell(zero, top)])
    half_line = tropspace.tautological_complex(fans.affine_space(1))
    assert holed.is_boundary_closed() and half_line.is_boundary_closed()
    for cx in (holed, half_line):
        cx.require_full_cofaces()
        with pytest.raises(ValueError, match=r"do not cover the stratum of the cone \[\]"):
            cohomology.betti_table(cx)
    # a stratum with no cell at all: only the cells of N_R over P^2
    torus_cells = TropComplex(p2, [c for c in full.cells if c.sedentarity == zero])
    ray = p2.cones_of_dim(1)[0]
    match = re.escape(f"do not cover the stratum of the cone {list(ray.rays)}")
    with pytest.raises(ValueError, match=match):
        cohomology.betti_table(torus_cells)
    with pytest.raises(ValueError, match="do not cover the stratum"):
        cohomology.cohomology(torus_cells, 0, 0)


@pytest.mark.parametrize("name", ["p3", "affine_space(3)"])
def test_cohomology_all_builds_no_face_poset(monkeypatch, capsys, name):
    """``cohomology --all`` and ``--p/--q`` print the Betti table of the
    orbit complex and build no cell, so no face poset either; on p3 neither
    do ``verify`` and ``weightss``."""
    def forbidden(*args):
        raise AssertionError("a Betti table built a cell complex")

    monkeypatch.setattr(TropComplex, "__init__", forbidden)
    cohomology.orbit_cochains.cache_clear()
    weightss.trop_complex_for.cache_clear()
    assert cli.main(["cohomology", "--builtin", name, "--all"]) == 0
    want = diag_table(3, [1, 1, 1, 1]) if name == "p3" else diag_table(3, [1])
    assert capsys.readouterr().out == cohomology.betti_to_tsv(want)
    assert cli.main(["cohomology", "--builtin", name, "--p", "1", "--q", "1"]) == 0
    assert capsys.readouterr().out == f"{want[1][1]}\n"
    if name == "p3":
        weightss.e2_page.cache_clear()
        assert cli.main(["verify", "--builtin", name]) == 0
        assert json.loads(capsys.readouterr().out)["pass"]
        assert cli.main(["weightss", "--builtin", name]) == 0
        assert json.loads(capsys.readouterr().out)["level"] == 2


def test_p4_betti_table_hashes_few_cones(monkeypatch):
    """A P^4 Betti table keys its blocks by cone ids and looks up cells by
    ray ids: it hashes and compares cones fewer than 4,000 times in all
    (2,683 in a fresh process), against 39,605 (37,675 hashes) when it
    wrote every delta_q of the cells from blocks keyed by cone pairs and
    scanned 3^dim faces per cell.  The
    count is taken as a sum because the lru caches of the cone data, when
    other tests have filled them, compare equal cones where they would
    hash."""
    cx = tropspace.tautological_complex(fans.projective_space(4))
    cohomology.orbit_cochains.cache_clear()
    cohomology._orbit_data.cache_clear()
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
def test_orbit_betti_table_on_generated_fans(fan):
    """On blow-ups of P^3 and (P^1)^3 along orbit closures, in moved
    coordinates, the orbit Betti table equals the unreduced one and obeys
    h^{p,q} = h^{n-p,n-q}."""
    assert fan.is_smooth() and fans.is_complete(fan)
    cx = weightss.trop_complex_for(fan)
    table = cohomology.betti_table(cx)
    assert table == oracles.unreduced_betti_table(cx)
    assert all(table[p][q] == table[3 - p][3 - q] for p in range(4) for q in range(4))


@settings(max_examples=6, deadline=None, database=None)
@seed(1604018380)
@given(generated_fans())
def test_orbit_betti_table_matches_the_poset_oracle_on_generated_fans(fan):
    """The same fans against the face-poset oracle, which takes 0.2-1 s on
    each of these complexes of 65-185 cells."""
    cx = weightss.trop_complex_for(fan)
    assert cohomology.betti_table(cx) == oracles.poset_betti_table(cx)
