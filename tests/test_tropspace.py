"""Cells, multi-tangent spaces, and face maps of compactified fan spaces."""

import itertools
import math

import pytest

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
                    for sub in itertools.combinations(coface.span().basis, p)
                ]
                expected = QSubspace.span(wedges, math.comb(n, p))
                assert cx.f_lower(cell, p).basis == expected.basis


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
                        tropspace._case_tag(face, coface),
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
                        via = cx.face_map(c0, c1, p) @ cx.face_map(c1, c2, p)
                        direct = cx.face_map(c0, c2, p)
                        assert via.entries == direct.entries


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
        composite = cx.face_map(face, coface, p)
        two_step = cx.face_map(face, mid, p) @ cx.face_map(mid, coface, p)
        assert composite.entries == two_step.entries


def test_face_map_requires_face_pair():
    cx = tropspace.tropical_line()
    a = Cell(Cone(2, []), Cone(2, [(1, 0)]))
    b = Cell(Cone(2, []), Cone(2, [(0, 1)]))
    with pytest.raises(ValueError):
        cx.face_map(a, b, 1)


def test_incidence_signs_nonzero():
    for cx in complexes_for_functoriality():
        for _, _, _, sign in cx.face_poset():
            assert sign in (1, -1)


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
