"""Cones, fans, orbit lattices, subdivision, and the built-in zoo."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import oracles
from test_cycles_digest import CUBE_FAN
from test_fan_digest import moved_zoo
from trophodge import exactla, fans, tropspace
from trophodge.fans import Cone, Fan, faces, orbit_frame


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


@st.composite
def _canonicalization_sets(draw):
    """(kind, rank, rays): rays of mixed signs, more than the rank, whose
    cone may contain a line; rays with a positive first entry plus a ray
    and its negative; rays with a positive first entry plus sums of two
    or three of them, which lie inside the cone."""
    kind = draw(st.sampled_from(("mixed", "line", "interior")))
    n = draw(st.integers(2, 4))
    ray = st.tuples(*[_SMALL] * n).filter(any)
    if kind == "mixed":
        return kind, n, draw(st.lists(ray, min_size=n + 1, max_size=n + 3))
    positive = st.tuples(st.integers(1, 3), *[_SMALL] * (n - 1))
    rays = draw(st.lists(positive, min_size=2, max_size=n + 2, unique=True))
    if kind == "line":
        r = draw(ray)
        return kind, n, rays + [r, tuple(-x for x in r)]
    group = st.lists(st.sampled_from(rays), min_size=2, max_size=3, unique=True)
    sums = draw(st.lists(group, min_size=1, max_size=2))
    return kind, n, rays + [tuple(map(sum, zip(*g))) for g in sums]


@seed(3507)
@settings(max_examples=150, deadline=None)
@given(_canonicalization_sets())
def test_cone_canonicalization_matches_the_generator_lp_oracle(ray_set):
    """Cone() rejects exactly the ray sets whose cone contains a line, and
    keeps exactly the extremal rays, as the programs in generator
    coordinates decide."""
    kind, n, rays = ray_set
    distinct = sorted({fans.primitive(r) for r in rays})
    if not oracles.pointed(n, distinct):
        assert kind != "interior"
        with pytest.raises(ValueError, match="not strongly convex"):
            Cone(n, rays)
        return
    assert kind != "line"
    assert list(Cone(n, rays).rays) == oracles.extremal(n, distinct)


def _assert_lattice_matches_the_oracle(cone):
    assert faces(cone) == oracles.faces_by_normals(cone)
    for face in faces(cone):
        got = [(f.rays, f.dim) for f in face.facets()]
        assert got == [(f.rays, f.dim) for f in oracles.facets_by_normals(face)]


def test_face_lattice_matches_the_per_face_normals_oracle():
    """faces() and the facets of every face, in order and with their dims,
    equal those the facet normals of each face give: on the zoo, the cube
    fan, cube x P^1 and star subdivisions, of the cube fan too."""
    named = [fans.builtin(name) for name in fans.BUILTIN_ZOO]
    named += [CUBE_FAN, fans.product(CUBE_FAN, fans.builtin("p1"))]
    named += [
        fans.star_subdivision(fans.builtin("p3"), (1, 1, 1)),
        fans.star_subdivision(fans.builtin("p1xp1xp1"), (1, 1, 0)),
        fans.star_subdivision(CUBE_FAN, (1, 0, 0)),
        fans.star_subdivision(CUBE_FAN, (2, 1, 1)),
    ]
    for fan in named:
        for cone in fan.maximal_cones:
            _assert_lattice_matches_the_oracle(cone)


@seed(3508)
@settings(max_examples=60, deadline=None)
@given(_ray_sets().filter(lambda ray_set: ray_set[0] == "dependent"))
def test_face_lattice_of_non_simplicial_cones_matches_the_oracle(ray_set):
    _, n, rays = ray_set
    _assert_lattice_matches_the_oracle(Cone(n, rays))


def test_fan_build_reads_the_normals_of_the_given_cones_only(monkeypatch):
    """With the caches and face lattices emptied, building orthant(4) and
    P^4 runs ``_facet_normals`` once on each maximal cone and on no other
    cone: every face takes its facets from the lattice of a given cone."""
    given = [
        [c.rays for c in fan.maximal_cones]
        for fan in (fans.orthant_fan(4), fans.projective_space(4))
    ]
    seen = []
    normals = fans._facet_normals

    def recording(cone):
        seen.append(cone)
        return normals(cone)

    for cache in (fans.faces, fans._face, normals):
        cache.cache_clear()
    monkeypatch.setattr(fans, "_facet_table", {})
    monkeypatch.setattr(fans, "_facet_normals", recording)
    built = [Fan(4, cones) for cones in given]
    maximal = {c for fan in built for c in fan.maximal_cones}
    assert len(maximal) == 16 + 5 - 1  # the positive orthant is in both
    assert set(seen) == maximal
    assert normals.cache_info().misses == len(maximal)


def test_orbit_lattice_examples():
    zero = orbit_frame(Cone(2, []))[0]
    assert zero.rows == 2
    ray = orbit_frame(Cone(2, [(1, 0)]))[0]
    assert ray.rows == 1
    assert [list(v) for v in ray.entries] in ([[0, 1]], [[0, -1]])
    diag = orbit_frame(Cone(2, [(1, 1)]))[0]
    m = diag.entries[0]
    assert m[0] + m[1] == 0 and abs(m[0]) == 1


def test_orbit_lattice_rank_identity():
    fan = fans.builtin("p3")
    for c in fan.cones:
        assert orbit_frame(c)[0].rows + c.dim == fan.ambient_rank


def test_orbit_frames_and_stratum_maps_commute():
    """The section of each orbit frame is a right inverse of its
    projection, and the stratum map of each face pair carries the smaller
    cone's projection to the larger one's, on the complete zoo fans in
    seeded coordinates, P^4 and (P^1)^4."""
    named = [Fan(n, cones) for _, n, cones in moved_zoo()]
    named += [fans.projective_space(4), fans.orthant_fan(4)]
    pairs = 0
    for fan in named:
        for big in fan.cones:
            proj, section = fans.orbit_frame(big)
            assert proj @ section == exactla.ZMatrix.identity(proj.rows)
            for small in faces(big):
                assert fans.stratum_map(small, big) @ orbit_frame(small)[0] == proj
                pairs += 1
    assert pairs == 1200


def test_stratum_map_rejects_cones_that_are_not_nested():
    with pytest.raises(ValueError, match="not nested"):
        fans.stratum_map(Cone(2, [(1, 0)]), Cone(2, []))


def test_facet_normals_of_a_cone_with_dependent_ray_subsets():
    """The cone over the join of a square and a segment: its four square
    rays span only 3 dimensions, so some 4-subsets of its rays are
    dependent and are skipped.  Each normal is >= 0 on the rays and zero
    exactly on its facet."""
    square = [(a, b, 0, 0, 1) for a in (1, -1) for b in (1, -1)]
    cone = Cone(5, square + [(0, 0, 1, 0, 1), (0, 0, 0, 1, 1)])
    assert cone.dim == 5 and Cone(5, square).dim == 3
    normals = cone.facet_normals()
    assert [len(facet) for _, facet in normals] == [4, 5, 5, 4, 4, 4]
    for normal, facet in normals:
        for ray in cone.rays:
            value = sum(a * x for a, x in zip(normal, ray))
            assert value >= 0 and (value == 0) == (ray in facet)
    assert Fan(5, [cone]).f_vector() == (1, 6, 13, 13, 6, 1)


@pytest.mark.parametrize("fan, complete", [
    (Fan(2, [[(1, 0), (0, 1)], [(-1, -1)]]), False),
    (fans.torus(0), True),
], ids=["maximal-ray-below-full-dimension", "torus(0)"])
def test_is_complete_edge_cases(fan, complete):
    assert fans.is_complete(fan) is complete


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
    """Simplicial cones skip the facet enumeration that settles
    pointedness and extremal rays, and the face functional certifies every
    maximal pair of orthant(4) and P^4, so building them runs no
    Fourier-Motzkin at all."""
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
    return max(fans.faces(c1) & fans.faces(c2), key=lambda c: c.dim)


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

    The fan caches and face lattices are emptied, then orthant(4), P^4, the blow-up of P^2
    (through star_subdivision and Cone.contains) and the complete zoo fans
    in seeded coordinates are built with ``Fraction`` unusable in both
    ``fans`` and ``exactla``.
    """
    def no_fraction(*args):
        raise AssertionError("the fan geometry made a Fraction")

    moved = moved_zoo()
    for cache in (fans.faces, fans._facet_normals, fans._face, fans.orthant_fan):
        cache.cache_clear()
    monkeypatch.setattr(fans, "_facet_table", {})
    monkeypatch.setattr(fans, "Fraction", no_fraction)
    monkeypatch.setattr(exactla, "Fraction", no_fraction)
    with pytest.raises(AssertionError):
        exactla.QSubspace.span([(1, 2)], 2)
    built = [fans.orthant_fan(4), fans.projective_space(4), fans.blowup_p2()]
    built += [Fan(n, cones) for _, n, cones in moved]
    for fan in built:
        assert fan.is_smooth() and fans.is_complete(fan)
    assert fans.blowup_p2().f_vector() == (1, 4, 4)


def test_cell_lattice_path_makes_no_fraction(monkeypatch):
    """Cell orientations and volume elements run on integers.

    With ``Fraction`` unusable in ``fans`` and ``exactla`` and the cell
    caches emptied, ``face_poset()`` and ``volume_element`` of every cell
    succeed on P^4, (P^1)^3 and the complete zoo fans in seeded
    coordinates.
    """
    def no_fraction(*args):
        raise AssertionError("the cell lattice path made a Fraction")

    moved = [Fan(n, cones) for _, n, cones in moved_zoo()]
    for cache in (tropspace.volume_element, exactla.wedge_columns):
        cache.cache_clear()
    monkeypatch.setattr(fans, "Fraction", no_fraction)
    monkeypatch.setattr(exactla, "Fraction", no_fraction)
    for fan in [fans.projective_space(4), fans.orthant_fan(3), *moved]:
        cx = tropspace.tautological_complex(fan)
        assert len(cx.face_poset()) > 0
        for cell in cx.cells:
            assert any(tropspace.volume_element(cell))


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
