"""Cones, fans, orbit lattices, subdivision, and the built-in zoo."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import oracles
from test_fan_digest import moved_zoo
from trophodge import exactla, fans
from trophodge.fans import Cone, Fan, faces, orbit_lattice


def test_primitive():
    assert fans.primitive((2, 4)) == (1, 2)
    assert fans.primitive((0, -3)) == (0, -1)
    assert fans.primitive((Fraction(4), Fraction(-2))) == (2, -1)
    for bad in [(0, 0), (1.0, 0), (True, 0), (Fraction(1, 2), 1), ("1", 0)]:
        with pytest.raises(ValueError):
            fans.primitive(bad)


def test_cone_canonical_rays():
    c = Cone(2, [(2, 0), (0, 3), (1, 1)])
    assert c.rays == ((0, 1), (1, 0))
    assert c.dim == 2


def test_cone_rejects_lines():
    with pytest.raises(ValueError):
        Cone(2, [(1, 0), (-1, 0)])


def test_faces_of_quadrant():
    c = Cone(2, [(1, 0), (0, 1)])
    fs = faces(c)
    assert len(fs) == 4
    assert Cone(2, []) in fs and c in fs


def test_cone_contains():
    c = Cone(2, [(1, 0), (1, 2)])
    assert c.contains((1, 1))
    assert not c.contains((-1, 0))


def test_contains_rejects_a_vector_of_another_length():
    c = Cone(2, [(1, 0), (0, 1)])
    for vec in [(1, 1, 0), (1,), ()]:
        with pytest.raises(ValueError, match="length"):
            c.contains(vec)
    with pytest.raises(ValueError, match="length"):
        Cone(2, []).contains((0, 0, 1))
    with pytest.raises(ValueError, match="length"):
        fans.projective_space(2).supports((1, 1, 0))


def test_is_smooth():
    assert fans.is_smooth(Cone(2, [(1, 0), (0, 1)]))
    assert not fans.is_smooth(Cone(2, [(1, 0), (1, 2)]))
    assert fans.is_smooth(Cone(2, []))


_SMALL = st.integers(-3, 3)


@st.composite
def _ray_sets(draw):
    """(kind, rank, rays): no rays; independent rays; more rays than the
    rank, all with a positive first entry, so the cone is pointed and its
    extremal rays may be dependent; independent rays times factors 1-4."""
    kind = draw(st.sampled_from(("empty", "independent", "dependent", "non-primitive")))
    n = draw(st.integers(3 if kind == "dependent" else 1, 4))
    if kind == "empty":
        return kind, n, []
    first = st.integers(1, 3) if kind == "dependent" else _SMALL
    k = draw(st.integers(n + 1, n + 3) if kind == "dependent" else st.integers(1, n))
    rays = draw(st.lists(st.tuples(first, *[_SMALL] * (n - 1)), min_size=k, max_size=k))
    if kind != "dependent":
        assume(exactla.sparse_rank(exactla.sparse_rows(rays)) == k)
    if kind == "non-primitive":
        factors = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
        rays = [tuple(m * x for x in r) for m, r in zip(factors, rays)]
    return kind, n, rays


@seed(1304)
@settings(max_examples=200, deadline=None)
@given(_ray_sets())
def test_is_smooth_matches_the_smith_form_oracle(ray_set):
    kind, n, rays = ray_set
    cone = Cone(n, rays)
    assert fans.is_smooth(cone) == oracles.smith_is_smooth(cone)
    if kind == "empty":
        assert fans.is_smooth(cone)


def test_orbit_lattice_examples():
    zero = orbit_lattice(Cone(2, []))
    assert zero.proj.rows == 2
    ray = orbit_lattice(Cone(2, [(1, 0)]))
    assert ray.proj.rows == 1
    assert [list(v) for v in ray.proj.entries] in ([[0, 1]], [[0, -1]])
    diag = orbit_lattice(Cone(2, [(1, 1)]))
    m = diag.proj.entries[0]
    assert m[0] + m[1] == 0 and abs(m[0]) == 1


def test_orbit_lattice_rank_identity():
    fan = fans.builtin("p3")
    for c in fan.cones:
        assert orbit_lattice(c).proj.rows + c.dim == fan.ambient_rank


def test_fan_rejects_overlapping_cones():
    with pytest.raises(ValueError):
        Fan(2, [[(1, 0), (0, 1)], [(1, 1), (1, -1)]])


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


@pytest.mark.parametrize("cones", [
    [[E1, E2, E3], [E3, (2, -1, 0), (-1, 2, 0)]],
    [[(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
     [(1, 0, 1), (-1, 0, 1), (0, 1, -1)]],
], ids=["crossing-with-a-shared-ray", "shared-rays-not-a-face"])
def test_fan_rejects_crossing_maximal_cones(cones):
    with pytest.raises(ValueError):
        Fan(3, cones)


def _maximal_by_all_pairs(fan):
    return tuple(
        c for c in fan.cones
        if not any(c != d and c in faces(d) for d in fan.cones)
    )


def test_maximal_cones_are_the_cones_no_given_cone_contains():
    names = list(fans.BUILTIN_ZOO) + ["projective_space(4)", "orthant(4)"]
    for name in names:
        fan = fans.builtin(name)
        assert fan.maximal_cones == _maximal_by_all_pairs(fan), name
    assert Fan(2, [[(1, 0), (0, 1)], [(1, 0)]]).maximal_cones == (
        Cone(2, [(1, 0), (0, 1)]),
    )


def test_fan_checks_intersections_of_maximal_pairs_only(monkeypatch):
    calls = []
    check = fans._intersection_inside_face

    def counting(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(fans, "_intersection_inside_face", counting)
    orthants = fans.orthant_fan(4).maximal_cones
    Fan(4, [c.rays for c in orthants])
    assert 0 < len(calls) <= 16 * 15 // 2


def test_smooth_fans_build_without_elimination(monkeypatch):
    """Simplicial cones skip the pointedness and extremality eliminations,
    and the face functional certifies every maximal pair of orthant(4) and
    P^4, so building them runs no Fourier-Motzkin at all."""
    given = [
        [c.rays for c in fan.maximal_cones]
        for fan in (fans.orthant_fan(4), fans.projective_space(4))
    ]
    calls = {"feasible": 0, "pairs": 0}
    feasible = fans.feasible
    check = fans._intersection_inside_face

    def counting_feasible(*args):
        calls["feasible"] += 1
        return feasible(*args)

    def counting_check(*args):
        calls["pairs"] += 1
        return check(*args)

    monkeypatch.setattr(fans, "feasible", counting_feasible)
    monkeypatch.setattr(fans, "_intersection_inside_face", counting_check)
    for cones in given:
        Fan(4, cones)
    assert calls == {"feasible": 0, "pairs": 16 * 15 // 2 + 5 * 4 // 2}


def _pair_system(c1, c2, face):
    eqs1, ineqs1 = fans._cone_system(c1)
    eqs2, ineqs2 = fans._cone_system(c2)
    strict = [fans._face_functional(c1, face) + (-1,)]
    return eqs1 + eqs2, ineqs1 + ineqs2 + strict


def _common_face(c1, c2):
    return max(fans.face_set(c1) & fans.face_set(c2), key=lambda c: c.dim)


def test_certificate_settles_only_pairs_elimination_confirms():
    named = [(name, fans.builtin(name)) for name in fans.BUILTIN_ZOO]
    named.append(("orthant(4)", fans.orthant_fan(4)))
    named.append(("projective_space(4)", fans.projective_space(4)))
    named += [(name, Fan(n, cones)) for name, n, cones in moved_zoo()]
    for name, fan in named:
        for c1, c2 in itertools.combinations(fan.maximal_cones, 2):
            face = _common_face(c1, c2)
            assert fans._certified(c1, c2, face), (name, c1, c2)
            eqs, ineqs = _pair_system(c1, c2, face)
            assert not oracles.fraction_feasible(fan.ambient_rank, eqs, ineqs), (
                name, c1, c2,
            )
    # the crossing pairs of test_fan_rejects_crossing_maximal_cones
    crossing = [
        (Cone(3, [E1, E2, E3]), Cone(3, [E3, (2, -1, 0), (-1, 2, 0)])),
        (Cone(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
         Cone(3, [(1, 0, 1), (-1, 0, 1), (0, 1, -1)])),
    ]
    for c1, c2 in crossing:
        face = _common_face(c1, c2)
        assert not fans._certified(c1, c2, face)
        assert oracles.fraction_feasible(3, *_pair_system(c1, c2, face))


def test_fan_geometry_makes_no_fraction(monkeypatch):
    """Facet normals, cone tests and intersection checks run on integers.

    The fan caches are emptied, then orthant(4), P^4, the blow-up of P^2
    (through star_subdivision and Cone.contains) and the complete zoo fans
    in seeded coordinates are built with ``Fraction`` unusable in both
    ``fans`` and ``exactla``.
    """
    def no_fraction(*args):
        raise AssertionError("the fan geometry made a Fraction")

    moved = moved_zoo()
    for cache in (fans.faces, fans.face_set, fans._facet_normals, fans.orthant_fan):
        cache.cache_clear()
    monkeypatch.setattr(fans, "Fraction", no_fraction)
    monkeypatch.setattr(exactla, "Fraction", no_fraction)
    with pytest.raises(AssertionError):
        exactla.QSubspace.span([(1, 2)], 2)
    built = [fans.orthant_fan(4), fans.projective_space(4), fans.blowup_p2()]
    built += [Fan(n, cones) for _, n, cones in moved]
    for fan in built:
        assert fan.is_smooth() and fans.is_complete(fan)
    assert fans.blowup_p2().f_vector() == (1, 4, 4)


_COEFF = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def _systems(draw):
    """(nvars, eqs, ineqs, kind): systems with a few inequalities to
    eliminate, systems of equalities only, and equalities with a pair
    that no point satisfies."""
    kind = draw(st.sampled_from(("mixed", "equalities", "inconsistent")))
    nvars = draw(st.integers(0 if kind == "equalities" else 1, 3))
    row = st.lists(_COEFF, min_size=nvars + 1, max_size=nvars + 1)
    eqs = draw(st.lists(row, max_size=2 if kind == "mixed" else 4))
    ineqs = draw(st.lists(row, min_size=2, max_size=7)) if kind == "mixed" else []
    if kind == "inconsistent":
        base = draw(row)
        k, shift = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        eqs += [base, [k * x for x in base[:-1]] + [k * base[-1] + shift]]
    return nvars, eqs, ineqs, kind


@seed(1986)
@settings(max_examples=200, deadline=None)
@given(_systems())
def test_integer_feasible_matches_the_fraction_oracle(system):
    nvars, eqs, ineqs, kind = system
    decision = fans.feasible(nvars, eqs, ineqs)
    assert decision == oracles.fraction_feasible(nvars, eqs, ineqs)
    if kind == "inconsistent":
        assert not decision


def test_fan_face_closure_and_intersections():
    fan = fans.builtin("p1xp1")
    for c in fan.cones:
        for f in faces(c):
            assert fan.contains_cone(f)
    for a in fan.cones:
        for b in fan.cones:
            inter = [r for r in a.rays if b.contains(r)]
            assert fan.contains_cone(Cone(2, inter))


def test_zoo_flags():
    complete = {
        "p1", "p2", "p3", "p1xp1", "p1xp1xp1",
        "hirzebruch(0)", "hirzebruch(1)", "hirzebruch(2)", "hirzebruch(3)",
        "blowup_p2",
    }
    for name in fans.BUILTIN_ZOO:
        fan = fans.builtin(name)
        assert fan.is_smooth(), name
        assert fans.is_complete(fan) == (name in complete), name


def test_f_vectors():
    assert fans.builtin("p2").f_vector() == (1, 3, 3)
    assert fans.builtin("p3").f_vector() == (1, 4, 6, 4)
    assert fans.builtin("hirzebruch(2)").f_vector() == (1, 4, 4)
    assert fans.builtin("torus(2)").f_vector() == (1,)


def test_walls_of_complete_fans():
    for name in ["p2", "p3", "p1xp1xp1", "blowup_p2"]:
        fan = fans.builtin(name)
        n = fan.ambient_rank
        top = fan.cones_of_dim(n)
        for wall in fan.cones_of_dim(n - 1):
            count = sum(1 for t in top if wall in faces(t))
            assert count == 2, (name, wall)


def test_star_subdivision_affine_plane():
    a2 = fans.affine_space(2)
    bl = fans.star_subdivision(a2, (1, 1))
    assert len(bl.cones_of_dim(2)) == 2
    assert bl.is_smooth()


def test_star_subdivision_existing_ray_is_identity():
    p2 = fans.builtin("p2")
    assert fans.star_subdivision(p2, (1, 0)) == p2


def test_star_subdivision_p2_is_blowup():
    p2 = fans.builtin("p2")
    bl = fans.star_subdivision(p2, (1, 1))
    assert bl == fans.builtin("blowup_p2")
    assert len(bl.rays) == 4 and len(bl.cones_of_dim(2)) == 4
    assert bl.is_smooth()


def test_star_subdivision_outside_support():
    t2 = fans.torus(2)
    with pytest.raises(ValueError):
        fans.star_subdivision(t2, (1, 0))
    a2 = fans.affine_space(2)
    with pytest.raises(ValueError):
        fans.star_subdivision(a2, (-1, 0))


def test_subdivision_at_cone_ray_sum_stays_smooth():
    for name in ["p3", "p1xp1", "hirzebruch(3)"]:
        fan = fans.builtin(name)
        top = fan.cones_of_dim(fan.ambient_rank)[0]
        ray = tuple(sum(col) for col in zip(*top.rays))
        sub = fans.star_subdivision(fan, ray)
        assert sub.is_smooth(), name


def test_product():
    p1 = fans.projective_space(1)
    prod = fans.product(p1, p1)
    assert prod == fans.builtin("p1xp1")
    assert len(prod.rays) == 4


def test_completion():
    for n in (1, 2, 3):
        comp = fans.completion(fans.affine_space(n))
        assert fans.is_complete(comp)
        assert fans.affine_space(n).is_subfan_of(comp)
        assert fans.completion(fans.torus(n)) == fans.orthant_fan(n)


def test_json_round_trip():
    for name in ["p2", "hirzebruch(1)", "affine_space(2)"]:
        fan = fans.builtin(name)
        assert fans.from_json_dict(fans.to_json_dict(fan)) == fan


def test_hirzebruch_rays():
    fan = fans.builtin("hirzebruch(2)")
    assert set(fan.rays) == {(1, 0), (0, 1), (-1, 2), (0, -1)}
