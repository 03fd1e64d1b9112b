"""Exact linear algebra: ranks, kernels, subspaces, SNF, wedges."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trophodge.exactla import (
    QMatrix,
    QSubspace,
    ZMatrix,
    homology_quotient,
    lex_subsets,
    smith_normal_form,
    sparse_rank,
    wedge_columns,
    wedge_matrix,
    wedge_vector,
)

small_int = st.integers(min_value=-6, max_value=6)


def matrices(max_n=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_n).flatmap(
            lambda m: st.lists(
                st.lists(small_int, min_size=m, max_size=m),
                min_size=n, max_size=n,
            )
        )
    )


def test_rank_and_rref_basics():
    m = QMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 3)
    assert m.rank() == 2
    pivots, red = m.rref()
    assert pivots == [0, 1]
    assert red[0][0] == 1 and red[1][1] == 1


def test_kernel_vectors_are_annihilated():
    m = QMatrix.from_rows([[1, 2, 0], [0, 0, 1]], 3)
    ker = m.kernel_basis()
    assert ker.dim == 1
    for v in ker.basis:
        assert all(x == 0 for x in m.apply(list(v)))


def test_solve_and_inconsistent():
    m = QMatrix.from_rows([[2, 0], [0, 3]], 2)
    assert list(m.solve([4, 9])) == [Fraction(2), Fraction(3)]
    sing = QMatrix.from_rows([[1, 1], [1, 1]], 2)
    assert sing.solve([0, 1]) is None


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_equals_transpose_rank(rows):
    m = QMatrix.from_rows(rows, len(rows[0]))
    assert m.rank() == m.transpose().rank()


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_sparse_rank_matches_dense(rows):
    m = QMatrix.from_rows(rows, len(rows[0]))
    sparse = [
        {j: Fraction(x) for j, x in enumerate(row) if x}
        for row in rows
    ]
    assert sparse_rank(sparse) == m.rank()


def test_rank_nullity():
    m = QMatrix.from_rows([[1, 2, 3, 4], [0, 1, 0, 1]], 4)
    assert m.rank() + m.kernel_basis().dim == m.cols


def test_snf_example_diag_2_3():
    d = smith_normal_form(ZMatrix.from_rows([[2, 0], [0, 3]], 2))[1]
    assert [d.entries[i][i] for i in range(2)] == [1, 6]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=2, max_size=4))
def test_snf_transform_and_divisibility(rows):
    m = ZMatrix.from_rows(rows, 3)
    u, d, v = smith_normal_form(m)
    prod = u @ m @ v
    assert prod.entries == d.entries
    diag = [d.entries[i][i] for i in range(min(d.rows, d.cols))]
    for a, b in zip(diag, diag[1:]):
        if a and b:
            assert b % a == 0
    assert abs(u.determinant()) == 1
    assert abs(v.determinant()) == 1


def _cofactor_det(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_determinant_matches_cofactor_expansion(rows):
    det = ZMatrix(len(rows), len(rows), rows).determinant()
    assert type(det) is int
    assert det == _cofactor_det(rows)


@pytest.mark.parametrize("bad", [Fraction(3, 2), Fraction(2), 1.9, 2.0, True, "1"])
def test_zmatrix_rejects_non_int_entries(bad):
    with pytest.raises(TypeError):
        ZMatrix(1, 2, [[bad, 1]])


@settings(max_examples=60, deadline=None)
@given(matrices(4), st.integers(0, 3))
def test_wedge_columns_match_wedge_matrix(rows, p):
    m = ZMatrix.from_rows(rows)
    cols = wedge_columns(m, p)
    assert wedge_matrix(m.to_q(), p).transpose().entries == cols


@pytest.mark.parametrize("p, cols", [(0, ((1,),)), (1, ((), (), ())), (2, ((), (), ()))])
def test_wedge_columns_of_a_map_with_no_rows(p, cols):
    assert wedge_columns(ZMatrix(0, 3, []), p) == cols


@settings(max_examples=60, deadline=None)
@given(matrices(), st.integers(0, 4), st.data())
def test_homology_quotient_represents_ker_mod_im(out_rows, k, data):
    d_out = QMatrix.from_rows(out_rows, len(out_rows[0]))
    n = d_out.cols
    ker = d_out.kernel_basis().basis
    coeffs = data.draw(st.lists(
        st.lists(small_int, min_size=k, max_size=k),
        min_size=len(ker), max_size=len(ker),
    ))
    # columns of d_in are combinations of kernel vectors, so d_out @ d_in = 0
    d_in = QMatrix(n, k, [
        [sum(v[i] * c[j] for v, c in zip(ker, coeffs)) for j in range(k)]
        for i in range(n)
    ])
    assert (d_out @ d_in).is_zero()
    reps = homology_quotient(d_out, d_in if k else None)
    assert len(reps) == (n - d_out.rank()) - d_in.rank()
    for v in reps:
        assert not any(d_out.apply(list(v)))
    stacked = QMatrix.from_rows(list(reps) + list(d_in.transpose().entries), n)
    assert stacked.rank() == len(reps) + d_in.rank()


@settings(max_examples=60, deadline=None)
@given(matrices(), st.integers(1, 4), st.data())
def test_homology_quotient_reduces_kernel_modulo_image(out_rows, k, data):
    # d_in is arbitrary, as under verify's corrupted d1 sign: the result must
    # still be the kernel reduced modulo the image, or verify can miss it
    d_out = QMatrix.from_rows(out_rows, len(out_rows[0]))
    n = d_out.cols
    d_in = QMatrix.from_rows(data.draw(st.lists(
        st.lists(small_int, min_size=k, max_size=k), min_size=n, max_size=n,
    )), k)
    pivots, red = d_in.transpose().rref()
    vecs = []
    for v in d_out.kernel_basis().basis:
        for c, r in zip(pivots, red):
            f = v[c]
            v = [a - f * b for a, b in zip(v, r)]
        vecs.append(v)
    assert homology_quotient(d_out, d_in) == QSubspace.span(vecs, n).basis


@pytest.mark.parametrize("rows, rank", [
    ([], 0),
    ([{}], 0),
    ([{}, {2: 3}, {}], 1),
    ([{0: 0, 1: Fraction(0)}], 0),
    ([{0: 0, 1: 2}, {1: Fraction(4, 3)}], 1),
], ids=["no-rows", "empty-row", "empty-rows-around", "zero-entries",
        "zero-leading-entry"])
def test_sparse_rank_skips_empty_rows_and_zero_entries(rows, rank):
    assert sparse_rank(rows) == rank


def test_homology_quotient_reads_the_kernel_off_one_elimination(monkeypatch):
    """The null vectors of d_out go straight into the RREF of ker + im."""
    d_out = QMatrix.from_rows([[1, 1, 0, 0], [0, 0, 2, 2]])
    d_in = QMatrix.from_rows([[3], [-3], [0], [0]])
    f = Fraction
    expected = {
        "none": ((f(1), f(-1), f(0), f(0)), (f(0), f(0), f(1), f(-1))),
        "in": ((f(0), f(0), f(1), f(-1)),),
    }

    def forbidden(*args):
        raise AssertionError("homology_quotient reduced the kernel on its own")

    monkeypatch.setattr(QSubspace, "span", classmethod(forbidden))
    monkeypatch.setattr(QMatrix, "kernel_basis", forbidden)
    assert homology_quotient(d_out, None) == expected["none"]
    assert homology_quotient(d_out, d_in) == expected["in"]


def test_wedge_vector_example():
    assert wedge_vector([[1, 0], [0, 1]], 2, 2) == (1,)
    assert wedge_vector([[1, 0, 0], [0, 1, 0]], 3, 2) == (1, 0, 0)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=3, max_size=3),
)
def test_wedge_matrix_functorial(a_rows, b_rows):
    a = QMatrix.from_rows(a_rows, 3)
    b = QMatrix.from_rows(b_rows, 3)
    left = wedge_matrix(a @ b, 2)
    right = wedge_matrix(a, 2) @ wedge_matrix(b, 2)
    assert left.entries == right.entries


def test_lex_subsets():
    assert lex_subsets(3, 2) == [(0, 1), (0, 2), (1, 2)]
    assert lex_subsets(2, 0) == [()]


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_coordinates_match_solve(gens, data):
    n = len(gens[0])
    v = QSubspace.span(gens, n)
    coeffs = data.draw(st.lists(small_int, min_size=len(gens), max_size=len(gens)))
    inside = [sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(n)]
    other = data.draw(st.lists(small_int, min_size=n, max_size=n))
    assert v.coordinates(inside) is not None
    for vec in (inside, other):
        assert v.coordinates(vec) == v.matrix().transpose().solve(vec)


@pytest.mark.parametrize("basis", [
    [[1, 1], [0, 1]],
    [[0, 1], [1, 0]],
    [[2, 0]],
    [[1, 2], [2, 4]],
    [[1, 0], [0, 0]],
], ids=["uncleared-pivot", "pivots-out-of-order", "non-unit-pivot",
        "dependent", "zero-row"])
def test_subspace_requires_rref_basis(basis):
    with pytest.raises(ValueError):
        QSubspace(2, basis)


def test_subspace_reads_coordinates_at_pivots():
    v = QSubspace(3, [[1, 2, 0], [0, 0, 1]])
    assert v.pivots == (0, 2)
    assert v.coordinates([3, 6, -1]) == (3, -1)
    assert v.coordinates([3, 5, -1]) is None
    assert QSubspace.zero(2).coordinates([0, 0]) == ()
    with pytest.raises(ValueError):
        v.coordinates([1, 2])


def test_subspace_equality_is_basis_free():
    a = QSubspace.span([[1, 1], [1, -1]], 2)
    b = QSubspace.full(2)
    assert a == b
