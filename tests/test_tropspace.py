"""Cells, multi-tangent spaces, and face maps of compactified fan spaces."""

import contextlib
import fractions
import itertools
import math
import sys

import pytest

import oracles
from trophodge import fans, tropspace, weightss
from trophodge.exactla import QSubspace, wedge_vector
from trophodge.fans import Cone
from trophodge.tropspace import Cell, TropComplex


def complexes_for_functoriality():
    return [
        tropspace.tautological_complex(fans.builtin("p2")),
        tropspace.torus_complex(2),
        tropspace.affine_complex(2),
        tropspace.tropical_line(),
    ]


def test_p1_cell_count_and_closure():
    cx = tropspace.tautological_complex(fans.builtin("p1"))
    assert len(cx.cells) == 5
    assert cx.is_boundary_closed()


def test_torus_complex_not_closed():
    cx = tropspace.torus_complex(2)
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
    out.append(tropspace.tropical_line())
    for name in ["p2", "hirzebruch(1)"]:
        fan = fans.builtin(name)
        top = fan.cones_of_dim(2)[0]
        refined = fans.star_subdivision(fan, tuple(map(sum, zip(*top.rays))))
        out.append(tropspace.tautological_complex(fans.torus(2), fan))
        out.append(tropspace.tautological_complex(fans.torus(2), refined))
    out.append(tropspace.refined_complex(
        fans.torus(2), fans.star_subdivision(fans.orthant_fan(2), (1, 1))
    ))
    a2 = fans.affine_space(2)
    out.append(tropspace.refined_complex(
        a2, fans.star_subdivision(fans.completion(a2), (-1, -1))
    ))
    return out


def test_f_lower_is_the_sum_of_wedge_powers_of_stratum_cofaces():
    """F_p(P) = sum of wedge^p span(tau) over the stratum cofaces tau of P."""
    for cx in complexes_for_f_lower():
        for cell in cx.cells:
            n = cell.stratum_rank
            for p in range(n + 1):
                wedges = [
                    wedge_vector(sub, n, p)
                    for coface in cx.stratum_cofaces(cell)
                    for sub in itertools.combinations(
                        oracles.cell_span(coface).basis, p)
                ]
                expected = QSubspace.span(wedges, math.comb(n, p))
                assert cx.f_lower(cell, p).basis == expected.basis


def test_f_p_is_full_on_every_toric_complex():
    """A complete structure fan gives each cell a full-dimensional stratum
    coface, so F_p(cell) is all of wedge^p N_sigma with the identity basis."""
    named = [fans.builtin(name) for name in fans.BUILTIN_ZOO]
    named += [fans.projective_space(4), fans.orthant_fan(3)]
    for fan in named:
        cx = weightss.trop_complex_for(fan)
        for cell in cx.cells:
            assert any(c.dim == cell.stratum_rank for c in cx.stratum_cofaces(cell))
            for p in range(fan.ambient_rank + 1):
                f = cx.f_lower(cell, p)
                assert f == QSubspace.full(math.comb(cell.stratum_rank, p))


def test_tropical_line_vertex_takes_the_wedge_span():
    cx = tropspace.tropical_line()
    vertex = Cell(Cone(2, []), Cone(2, []))
    assert all(c.dim < vertex.stratum_rank for c in cx.stratum_cofaces(vertex))
    assert cx.f_lower(vertex, 2).dim == 0
    for p in range(3):
        wedges = [
            wedge_vector(sub, 2, p)
            for ray in cx.stratum_cofaces(vertex)
            for sub in itertools.combinations(oracles.cell_span(ray).basis, p)
        ]
        assert cx.f_lower(vertex, p) == QSubspace.span(wedges, math.comb(2, p))


def test_face_maps_between_full_f_p_are_integral():
    cx = tropspace.tautological_complex(fans.projective_space(4))
    for coface in cx.cells:
        for face in cx.faces_of(coface):
            for p in range(coface.stratum_rank + 1):
                cols = cx.face_map_columns(face, coface, p)
                assert all(type(x) is int for col in cols for x in col)


def test_incidence_index_matches_face_scan():
    """The indexed incidence equals a scan of all pairs with is_face_of."""
    complexes = complexes_for_f_lower()
    complexes.append(weightss.trop_complex_for(fans.projective_space(4)))
    for cx in complexes:
        poset = []
        for coface in cx.cells:
            faces = tuple(c for c in cx.cells if c.is_face_of(coface))
            cofaces = tuple(c for c in cx.cells if coface.is_face_of(c))
            assert cx.faces_of(coface) == faces
            assert cx.cofaces_of(coface) == cofaces
            assert cx.stratum_cofaces(coface) == tuple(
                c for c in cofaces if c.sedentarity == coface.sedentarity
            )
            for face in faces:
                if face.dim == coface.dim - 1:
                    poset.append((
                        cx.cell_id(face), cx.cell_id(coface),
                        cx._incidence_sign(face, coface),
                    ))
        assert cx.face_poset() == tuple(poset)


def test_tropical_line_vertex_f1():
    cx = tropspace.tropical_line()
    vertex = Cell(Cone(2, []), Cone(2, []))
    assert cx.f_lower(vertex, 1).dim == 2
    ray = Cell(Cone(2, []), Cone(2, [(1, 0)]))
    assert cx.f_lower(ray, 1).dim == 1


def test_face_map_functoriality_all_chains():
    for cx in complexes_for_functoriality():
        n = cx.base_fan.ambient_rank
        for c2 in cx.cells:
            for c1 in cx.cells:
                if c1 == c2 or not c1.is_face_of(c2):
                    continue
                for c0 in cx.cells:
                    if c0 == c1 or not c0.is_face_of(c1):
                        continue
                    for p in range(n + 1):
                        assert oracles.composes_to(
                            cx.face_map_columns(c1, c2, p),
                            cx.face_map_columns(c0, c1, p),
                            cx.face_map_columns(c0, c2, p),
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
            cx.face_map_columns(mid, coface, p),
            cx.face_map_columns(face, mid, p),
            cx.face_map_columns(face, coface, p),
        )


def test_face_map_requires_face_pair():
    cx = tropspace.tropical_line()
    a = Cell(Cone(2, []), Cone(2, [(1, 0)]))
    b = Cell(Cone(2, []), Cone(2, [(0, 1)]))
    with pytest.raises(ValueError):
        cx.face_map_columns(a, b, 1)


def test_incidence_signs_nonzero():
    for cx in complexes_for_functoriality():
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


def test_refined_complex_reproduces_tautological():
    p2 = fans.builtin("p2")
    assert (
        tropspace.refined_complex(p2, p2).cells
        == tropspace.tautological_complex(p2).cells
    )


def test_refined_complex_rejects_subdivided_base():
    p2 = fans.builtin("p2")
    sub = fans.star_subdivision(p2, (1, 1))
    with pytest.raises(ValueError):
        tropspace.refined_complex(p2, sub)


def test_integer_geometry_matches_the_fraction_oracle():
    """Integer stratum maps and signs agree with the rational computation.

    Every face pair, every p: the zoo, P^4, the tropical line, and a
    complete fan with the non-unimodular ray (2, 3), whose cell spans have
    RREF bases with denominators.
    """
    skew = fans.Fan(2, [[(1, 0), (2, 3)], [(2, 3), (-1, 0)],
                        [(-1, 0), (0, -1)], [(0, -1), (1, 0)]])
    complexes = [weightss.trop_complex_for(fans.builtin(name))
                 for name in fans.BUILTIN_ZOO]
    complexes += [weightss.trop_complex_for(fans.projective_space(4)),
                  tropspace.tropical_line(), tropspace.tautological_complex(skew)]
    assert any(
        x.denominator > 1 for cell in complexes[-1].cells
        for v in oracles.cell_span(cell).basis for x in v
    )
    for cx in complexes:
        for fid, cid, sign in cx.face_poset():
            face, coface = cx.cells[fid], cx.cells[cid]
            assert sign == oracles.fraction_incidence_sign(face, coface)
        for coface in cx.cells:
            for face in cx.faces_of(coface):
                for p in range(coface.stratum_rank + 1):
                    assert cx.face_map_columns(face, coface, p) == (
                        oracles.fraction_face_map(cx, face, coface, p))
