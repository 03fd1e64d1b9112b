"""Cells, multi-tangent spaces, and face maps of compactified fan spaces."""

import contextlib
import fractions
import functools
import itertools
import math
import random
import sys

import pytest

import oracles
from oracles import wedge_vector
from test_cycles_digest import CUBE_FAN
from test_fan_digest import _shears, moved_zoo
from trophodge import exactla, fans, tropspace, weightss
from trophodge.exactla import QSubspace, wedge_columns
from trophodge.fans import Cone
from trophodge.tropspace import Cell, TropComplex


def complexes_for_functoriality():
    return [
        tropspace.tautological_complex(fans.builtin("p2")),
        oracles.torus_complex(2),
        oracles.affine_complex(2),
    ]


def dependent(cell):
    """True iff the cell has more free rays (shape rays off the
    sedentarity) than its dimension: ``face_poset`` then gives it no
    orientation, and its pairs take ``_incidence_sign``."""
    return len(cell.tau.rays) - len(cell.sedentarity.rays) > cell.dim


def test_p1_cell_count_and_closure():
    cx = tropspace.tautological_complex(fans.builtin("p1"))
    assert len(cx.cells) == 5
    assert cx.is_boundary_closed()


def test_torus_complex_not_closed():
    cx = oracles.torus_complex(2)
    assert len(cx.cells) == 9
    assert not cx.is_boundary_closed()


def test_p2_cell_count():
    cx = tropspace.tautological_complex(fans.builtin("p2"))
    assert len(cx.cells) == 19
    assert cx.is_boundary_closed()


def test_cell_dims():
    p2 = fans.builtin("p2")
    cx = tropspace.tautological_complex(p2)
    top = p2.cones_of_dim(2)[0]
    assert Cell(Cone(2, []), top).dim == 2
    assert Cell(top, top).dim == 0
    ray = p2.cones_of_dim(1)[0]
    assert Cell(ray, top).dim == 1


def test_f0_is_q_everywhere():
    for cx in complexes_for_functoriality():
        for cell in cx.cells:
            assert cx.f_lower(cell, 0).dim == 1


def test_fp_of_maximal_mobile_cell_is_full():
    p2 = fans.builtin("p2")
    cx = tropspace.tautological_complex(p2)
    top = Cell(Cone(2, []), p2.cones_of_dim(2)[0])
    for p in range(3):
        assert cx.f_lower(top, p).dim == math.comb(2, p)


def complexes_for_f_lower():
    out = [weightss.trop_complex_for(fans.builtin(name)) for name in fans.BUILTIN_ZOO]
    for name in ["p2", "hirzebruch(1)"]:
        fan = fans.builtin(name)
        top = fan.cones_of_dim(2)[0]
        refined = fans.star_subdivision(fan, tuple(map(sum, zip(*top.rays))))
        out.append(tropspace.tautological_complex(fans.torus(2), fan))
        out.append(tropspace.tautological_complex(fans.torus(2), refined))
    out.append(oracles.refined_complex(
        fans.torus(2), fans.star_subdivision(fans.orthant_fan(2), (1, 1))
    ))
    a2 = fans.affine_space(2)
    out.append(oracles.refined_complex(
        a2, fans.star_subdivision(fans.completion(a2), (-1, -1))
    ))
    return out


def test_f_lower_is_the_sum_of_wedge_powers_of_stratum_cofaces():
    """F_p(P) = sum of wedge^p span(tau) over the stratum cofaces tau of P.

    Over a complete structure fan, the whole wedge^p N_sigma that
    ``f_lower`` returns is that span, computed from the RREF bases of the
    coface spans.
    """
    for cx in complexes_for_f_lower():
        for cell in cx.cells:
            n = cell.stratum_rank
            for p in range(n + 1):
                wedges = [
                    wedge_vector(sub, n, p)
                    for coface in oracles.stratum_cofaces(cx, cell)
                    for sub in itertools.combinations(
                        oracles.cell_span(coface).basis, p)
                ]
                expected = QSubspace.span(wedges, math.comb(n, p))
                assert cx.f_lower(cell, p).basis == expected.basis
                assert oracles.f_lower(cx, cell, p) == expected


def test_f_p_is_full_on_every_toric_complex():
    """A complete structure fan gives each cell a full-dimensional stratum
    coface, so F_p(cell) is all of wedge^p N_sigma with the identity basis."""
    named = [fans.builtin(name) for name in fans.BUILTIN_ZOO]
    named += [fans.projective_space(4), fans.orthant_fan(3)]
    for fan in named:
        cx = weightss.trop_complex_for(fan)
        for cell in cx.cells:
            assert any(
                c.dim == cell.stratum_rank for c in oracles.stratum_cofaces(cx, cell)
            )
            for p in range(fan.ambient_rank + 1):
                f = cx.f_lower(cell, p)
                assert f == QSubspace.full(math.comb(cell.stratum_rank, p))


def test_tropical_line_vertex_takes_the_wedge_span():
    """No cell of the tropical line has a full-dimensional stratum coface:
    ``f_lower`` rejects each, and the oracle spans the wedges."""
    cx = oracles.tropical_line()
    vertex = Cell(Cone(2, []), Cone(2, []))
    assert all(c.dim < vertex.stratum_rank for c in oracles.stratum_cofaces(cx, vertex))
    assert oracles.f_lower(cx, vertex, 2).dim == 0
    for p in range(3):
        wedges = [
            wedge_vector(sub, 2, p)
            for ray in oracles.stratum_cofaces(cx, vertex)
            for sub in itertools.combinations(oracles.cell_span(ray).basis, p)
        ]
        assert oracles.f_lower(cx, vertex, p) == QSubspace.span(wedges, math.comb(2, p))
        for cell in cx.cells:
            with pytest.raises(ValueError, match="full-dimensional stratum coface"):
                cx.f_lower(cell, p)


def test_face_maps_between_full_f_p_are_integral():
    cx = tropspace.tautological_complex(fans.projective_space(4))
    for coface in cx.cells:
        for face in oracles.faces_of(cx, coface):
            for p in range(coface.stratum_rank + 1):
                cols = oracles.face_map_columns(cx, face, coface, p)
                assert all(type(x) is int for col in cols for x in col)


def test_incidence_index_matches_face_scan():
    """The codim-1 incidence on ray ids equals the faces of codimension 1
    that ``oracles.face_scan`` finds among all 3^dim candidates of a cell,
    and that scan equals a scan of all pairs with is_face_of.

    ``f_lower`` rejects exactly the cells that the scan finds without a
    full-dimensional stratum coface: every cell of the tropical line and
    none of the other complexes.  Boundary closedness from the missing
    codim-1 faces at infinity agrees with the scan's missing faces.
    """
    complexes = complexes_for_f_lower()
    complexes.append(weightss.trop_complex_for(fans.projective_space(4)))
    complexes.append(tropspace.tautological_complex(CUBE_FAN))
    complexes.append(oracles.tropical_line())
    for cx in complexes:
        down, full, missing = oracles.face_scan(cx)
        assert cx._incidence()[0] == tuple(
            tuple(i for i in ids if cx.cells[i].dim == cell.dim - 1)
            for cell, ids in zip(cx.cells, down)
        )
        assert cx._incidence()[1] == full
        assert cx.is_boundary_closed() == all(
            t != cell.tau for cell, lack in zip(cx.cells, missing) for _, t in lack
        )
        poset = []
        for coface in cx.cells:
            faces = tuple(c for c in cx.cells if oracles.is_face_of(c, coface))
            cofaces = tuple(c for c in cx.cells if oracles.is_face_of(coface, c))
            assert oracles.faces_of(cx, coface) == faces
            assert oracles.cofaces_of(cx, coface) == cofaces
            full = any(
                c.sedentarity == coface.sedentarity and c.dim == c.stratum_rank
                for c in cofaces
            )
            assert full == (cx is not complexes[-1])
            if full:
                cx.f_lower(coface, 0)
            else:
                with pytest.raises(ValueError):
                    cx.f_lower(coface, 0)
            for face in faces:
                if face.dim == coface.dim - 1:
                    poset.append((
                        cx.cell_id(face), cx.cell_id(coface),
                        cx._incidence_sign(face, coface),
                    ))
        assert cx.face_poset() == tuple(poset)


def test_tropical_line_vertex_f1():
    cx = oracles.tropical_line()
    vertex = Cell(Cone(2, []), Cone(2, []))
    assert oracles.f_lower(cx, vertex, 1).dim == 2
    ray = Cell(Cone(2, []), Cone(2, [(1, 0)]))
    assert oracles.f_lower(cx, ray, 1).dim == 1


def test_face_map_functoriality_all_chains():
    """Face maps compose along every chain of faces: those of the complexes
    over complete structure fans, and the oracle's on the tropical line."""
    cases = [
        (cx, functools.partial(oracles.face_map_columns, cx))
        for cx in complexes_for_functoriality()
    ]
    line = oracles.tropical_line()
    cases.append((line, functools.partial(oracles.fraction_face_map, line)))
    for cx, face_map in cases:
        n = cx.base_fan.ambient_rank
        for c2 in cx.cells:
            for c1 in cx.cells:
                if c1 == c2 or not oracles.is_face_of(c1, c2):
                    continue
                for c0 in cx.cells:
                    if c0 == c1 or not oracles.is_face_of(c0, c1):
                        continue
                    for p in range(n + 1):
                        assert oracles.composes_to(
                            face_map(c1, c2, p),
                            face_map(c0, c1, p),
                            face_map(c0, c2, p),
                        )


def test_case3_composite_matches_factorization():
    p2 = fans.builtin("p2")
    cx = tropspace.tautological_complex(p2)
    zero = Cone(2, [])
    ray = p2.cones_of_dim(1)[0]
    top = [t for t in p2.cones_of_dim(2) if ray in fans.faces(t)][0]
    face = Cell(ray, ray)
    coface = Cell(zero, top)
    mid = Cell(zero, ray)
    for p in range(3):
        assert oracles.composes_to(
            oracles.face_map_columns(cx, mid, coface, p),
            oracles.face_map_columns(cx, face, mid, p),
            oracles.face_map_columns(cx, face, coface, p),
        )


def test_composite_face_map_needs_the_intermediate_cell():
    """Across strata with a smaller shape, the face map factors through
    (face sedentarity, coface shape); without that cell it raises."""
    p2 = fans.builtin("p2")
    zero = Cone(2, [])
    ray = p2.cones_of_dim(1)[0]
    top = [t for t in p2.cones_of_dim(2) if ray in fans.faces(t)][0]
    full = tropspace.tautological_complex(p2)
    cx = TropComplex(p2, [c for c in full.cells if c != Cell(ray, top)])
    assert len(cx.cells) == 18 and not cx.is_boundary_closed()
    with pytest.raises(ValueError, match="intermediate cell"):
        oracles.face_map_columns(cx, Cell(ray, ray), Cell(zero, top), 1)


def test_face_map_requires_face_pair():
    cx = tropspace.tautological_complex(fans.builtin("p2"))
    a = Cell(Cone(2, []), Cone(2, [(1, 0)]))
    b = Cell(Cone(2, []), Cone(2, [(0, 1)]))
    with pytest.raises(ValueError, match="face pair"):
        oracles.face_map_columns(cx, a, b, 1)


def test_incidence_signs_nonzero():
    for cx in [*complexes_for_functoriality(), oracles.tropical_line()]:
        for _, _, sign in cx.face_poset():
            assert sign in (1, -1)


@contextlib.contextmanager
def fractions_made():
    """The Fractions constructed in the block, one name per construction."""
    made = []

    def watch(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename == fractions.__file__
                and code.co_name in ("__new__", "_from_coprime_ints")):
            made.append(code.co_name)

    sys.setprofile(watch)
    try:
        yield made
    finally:
        sys.setprofile(None)


def test_face_poset_runs_no_elimination_and_no_pair_determinant(monkeypatch):
    """Signs come from one orientation per cell, read off minors.

    P^4 has 211 cells and 650 face pairs; its face poset runs no
    elimination (``exactla._gauss_jordan``) and no pair determinant.  On
    the fan over the faces of a cube, exactly the pairs with a cell of
    dependent projected rays take the pair determinant.
    """
    calls = {"elimination": 0, "pair": []}
    pair_sign = TropComplex._incidence_sign

    def counting_elimination(rows):
        calls["elimination"] += 1
        return gauss_jordan(rows)

    def counting_pair(cx, face, coface):
        calls["pair"].append((face, coface))
        return pair_sign(cx, face, coface)

    gauss_jordan = exactla._gauss_jordan
    monkeypatch.setattr(exactla, "_gauss_jordan", counting_elimination)
    monkeypatch.setattr(TropComplex, "_incidence_sign", counting_pair)
    cx = tropspace.tautological_complex(fans.projective_space(4))
    calls["elimination"] = 0
    assert (len(cx.cells), len(cx.face_poset())) == (211, 650)
    assert calls["elimination"] == 0 and calls["pair"] == []
    cube = tropspace.tautological_complex(CUBE_FAN)
    assert calls["pair"] == [
        (cube.cells[fid], cube.cells[cid]) for fid, cid, _ in cube.face_poset()
        if dependent(cube.cells[fid]) or dependent(cube.cells[cid])
    ] != []


def test_incidence_signs_make_no_fraction():
    """Every incidence sign of P^3 is an integer determinant.

    The face poset of a new complex takes a sign for every face pair,
    across strata with cofaces of lower dimension in their stratum too,
    and makes no Fraction.  The rational oracle, watched the same way,
    makes some.
    """
    cx = tropspace.tautological_complex(fans.builtin("p3"))
    with fractions_made() as made:
        poset = cx.face_poset()
    assert made == []
    pairs = [(cx.cells[fid], cx.cells[cid]) for fid, cid, _ in poset]
    assert any(
        face.sedentarity != coface.sedentarity
        and oracles.cell_span(coface).dim < coface.stratum_rank
        for face, coface in pairs
    )
    with fractions_made() as made:
        oracles.fraction_incidence_sign(*pairs[-1])
    assert made


def test_validation_rejects_bad_intersections():
    t2 = fans.torus(2)
    zero = Cone(2, [])
    cells = [
        Cell(zero, zero),
        Cell(zero, Cone(2, [(1, 0), (1, 2)])),
        Cell(zero, Cone(2, [(1, 1), (1, -1)])),
        Cell(zero, Cone(2, [(1, 0)])),
        Cell(zero, Cone(2, [(1, 2)])),
        Cell(zero, Cone(2, [(1, 1)])),
        Cell(zero, Cone(2, [(1, -1)])),
    ]
    with pytest.raises(ValueError):
        TropComplex(t2, cells)


def test_validation_rejects_a_missing_face_in_a_stratum():
    """P^2's tautological cells without the open edge on (1, 0): the two
    open 2-cells through that ray lose a face in their stratum."""
    p2 = fans.builtin("p2")
    edge = Cell(Cone(2, []), Cone(2, [(1, 0)]))
    cells = [c for c in tropspace.tautological_complex(p2).cells if c != edge]
    assert len(cells) == 18
    with pytest.raises(ValueError, match="complex is not closed under faces"):
        TropComplex(p2, cells)


def test_refined_complex_reproduces_tautological():
    p2 = fans.builtin("p2")
    assert (
        oracles.refined_complex(p2, p2).cells
        == tropspace.tautological_complex(p2).cells
    )


def test_fan_membership_is_hashed(monkeypatch):
    """Building the complex of P^4 compares cones at most once per cell."""
    fan = fans.projective_space(4)
    calls = []
    eq = Cone.__eq__

    def counting(self, other):
        calls.append(1)
        return eq(self, other)

    monkeypatch.setattr(Cone, "__eq__", counting)
    cx = TropComplex.tautological(fan)
    assert len(cx.cells) == 211
    assert len(calls) <= len(cx.cells)


def test_refined_complex_rejects_subdivided_base():
    p2 = fans.builtin("p2")
    sub = fans.star_subdivision(p2, (1, 1))
    with pytest.raises(ValueError):
        oracles.refined_complex(p2, sub)


def test_integer_geometry_matches_the_fraction_oracle():
    """Integer stratum maps and signs agree with the rational computation.

    Every face pair, every p: the zoo, P^4, a complete
    fan with the non-unimodular ray (2, 3), whose cell spans have RREF
    bases with denominators, the complete zoo fans moved by a seeded
    unimodular change of coordinates, and the fan over the faces of a
    cube, whose cells with dependent projected rays take the pair
    determinant.  The signs of the tropical line agree too.
    """
    skew = fans.Fan(2, [[(1, 0), (2, 3)], [(2, 3), (-1, 0)],
                        [(-1, 0), (0, -1)], [(0, -1), (1, 0)]])
    moved = [weightss.trop_complex_for(fans.Fan(n, cones))
             for _, n, cones in moved_zoo()]
    cube = weightss.trop_complex_for(CUBE_FAN)
    complexes = [weightss.trop_complex_for(fans.builtin(name))
                 for name in fans.BUILTIN_ZOO]
    complexes += [weightss.trop_complex_for(fans.projective_space(4)),
                  *moved, cube, tropspace.tautological_complex(skew)]
    assert any(
        x.denominator > 1 for cell in complexes[-1].cells
        for v in oracles.cell_span(cell).basis for x in v
    )
    assert any(dependent(c) for c in cube.cells)
    for cx in complexes:
        for fid, cid, sign in cx.face_poset():
            face, coface = cx.cells[fid], cx.cells[cid]
            assert sign == oracles.fraction_incidence_sign(face, coface)
        for coface in cx.cells:
            for face in oracles.faces_of(cx, coface):
                for p in range(coface.stratum_rank + 1):
                    assert oracles.face_map_columns(cx, face, coface, p) == (
                        oracles.fraction_face_map(cx, face, coface, p))
    line = oracles.tropical_line()
    for fid, cid, sign in line.face_poset():
        assert sign == oracles.fraction_incidence_sign(line.cells[fid], line.cells[cid])


def test_stratum_wedge_of_one_sedentarity_is_the_identity():
    """Inside a stratum the face map is the identity, ((i, 1),) in column
    i: stratum_wedge(s, s, p), the wedge of the stratum projection of s
    to itself, is that identity for every sedentarity s and every p of
    the zoo, P^4 and (P^1)^4."""
    named = [fans.builtin(name) for name in fans.BUILTIN_ZOO]
    named += [fans.projective_space(4), fans.orthant_fan(4)]
    count = 0
    for fan in named:
        for sigma in fan.cones:
            n = fan.ambient_rank - sigma.dim
            for p in range(n + 1):
                identity = tuple(((i, 1),) for i in range(math.comb(n, p)))
                assert tropspace.stratum_wedge(sigma, sigma, p) == identity
                projection = fans.stratum_map(sigma, sigma)
                assert wedge_columns(projection, p) == identity
                count += 1
    assert count == 501


def test_orientations_and_volume_elements_match_the_rref_references():
    """Every cell orientation is the sign of its projected rays against
    the RREF basis of its span, and every volume element the primitive
    wedge of that basis: on the zoo, the zoo moved by a seeded unimodular
    change of coordinates, the fan over the faces of a cube, whose cells
    include ones with dependent projected rays, P^5 and (P^1)^4."""
    named = [fans.builtin(name) for name in fans.BUILTIN_ZOO]
    named += [fans.Fan(n, cones) for _, n, cones in moved_zoo()]
    named += [CUBE_FAN, fans.projective_space(5), fans.orthant_fan(4)]
    cells = {c for fan in named for c in weightss.trop_complex_for(fan).cells}
    assert any(dependent(c) for c in cells)
    for cell in cells:
        assert dependent(cell) == (len(oracles.projected_rays(cell)) > cell.dim)
        orientation = None if dependent(cell) else tropspace._frame(cell)[1]
        assert orientation == oracles.rref_orientation(cell)
        assert tropspace.volume_element(cell) == oracles.rref_volume_element(cell)


def test_full_cells_take_no_minors():
    """A cell that is full-dimensional in its stratum has the volume
    element (1,), the one coordinate of the top wedge of N_sigma, and
    adds nothing to the store of minors: on every full cell of P^5 and
    (P^1)^4, after their face posets."""
    for fan in (fans.projective_space(5), fans.orthant_fan(4)):
        cx = weightss.trop_complex_for(fan)
        cx.face_poset()
        full = [c for c in cx.cells if c.dim == c.stratum_rank]
        assert len(full) > 100
        tropspace.volume_element.cache_clear()
        before = wedge_columns.cache_info().currsize
        assert {tropspace.volume_element(c) for c in full} == {(1,)}
        assert wedge_columns.cache_info().currsize == before


def test_incidence_signs_of_the_cube_times_p1_match_the_fraction_oracle():
    """The pair determinant on every face pair of the cube x P^1 fan: rank
    4, not simplicial, with cells of dependent projected rays inside
    strata and across them."""
    cx = weightss.trop_complex_for(fans.product(CUBE_FAN, fans.builtin("p1")))
    pairs = [(cx.cells[fid], cx.cells[cid]) for fid, cid, _ in cx.face_poset()]
    assert any(
        dependent(c) and f.sedentarity != c.sedentarity
        for f, c in pairs
    )
    for face, coface in pairs:
        assert cx._incidence_sign(face, coface) == (
            oracles.fraction_incidence_sign(face, coface))


def moved_copy(fan, seed):
    """The fan moved by the seeded unimodular change of coordinates of
    ``test_fan_digest._shears``."""
    mat = _shears(random.Random(seed), fan.ambient_rank)
    return fans.Fan(fan.ambient_rank, [
        [tuple(sum(a * x for a, x in zip(row, r)) for row in mat) for r in c.rays]
        for c in fan.maximal_cones
    ])


def test_signs_of_the_moved_cube_fans_match_the_fraction_oracle(monkeypatch):
    """The cube fan and cube x P^1, each moved by two seeded unimodular
    changes of coordinates, have stratum maps of facet pairs that the fans
    in fixed coordinates do not.  On every moved copy each ``face_poset``
    sign equals the fraction oracle, and ``_incidence_sign`` runs on
    exactly the pairs with a cell of dependent projected rays, in strata
    and across them."""
    calls = []
    incidence_sign = TropComplex._incidence_sign

    def counting(cx, face, coface):
        calls.append((face, coface))
        return incidence_sign(cx, face, coface)

    def facet_maps(fan):
        return {fans.stratum_map(s, t) for t in fan.cones for s in t.facets()}

    monkeypatch.setattr(TropComplex, "_incidence_sign", counting)
    for fan in (CUBE_FAN, fans.product(CUBE_FAN, fans.builtin("p1"))):
        for seed in (1, 2):
            moved = moved_copy(fan, seed)
            assert not facet_maps(moved) <= facet_maps(fan)
            cx = weightss.trop_complex_for(moved)
            calls.clear()
            poset = cx.face_poset()
            pairs = [(cx.cells[fid], cx.cells[cid]) for fid, cid, _ in poset]
            assert calls == [(f, c) for f, c in pairs if dependent(f) or dependent(c)]
            assert {f.sedentarity == c.sedentarity for f, c in calls} == {True, False}
            for (face, coface), (_, _, sign) in zip(pairs, poset):
                assert sign == oracles.fraction_incidence_sign(face, coface)


def test_incidence_sign_rejects_a_face_off_the_coface_span():
    """The ray e3 is no face of the cone on e1, e2: u ^ e3 is not a
    multiple of e1 ^ e2, and the sign raises ValueError."""
    cx = tropspace.tautological_complex(fans.builtin("p3"))
    zero = Cone(3, [])
    face = Cell(zero, Cone(3, [(0, 0, 1)]))
    coface = Cell(zero, Cone(3, [(1, 0, 0), (0, 1, 0)]))
    with pytest.raises(ValueError, match="leaves the coface span"):
        cx._incidence_sign(face, coface)
