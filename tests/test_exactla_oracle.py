"""The exact elimination core against sympy as an independent oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oracles import _rref, smith_normal_form, wedge_vector
from trophodge.exactla import (
    QSubspace,
    ZMatrix,
    _bareiss,
    homology_quotient,
    lex_subsets,
    sparse_rank,
)

sympy = pytest.importorskip("sympy")
normalforms = pytest.importorskip("sympy.matrices.normalforms")

# a third of the entries are zero, so pivots get skipped and rows vanish
entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
)

# numerators and denominators up to 10^12: the integer rows of the
# elimination grow, and their contents have to be divided out
large_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**12)),
)


def rational_matrices(max_n=7, entries=entries):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_n).flatmap(
            lambda m: st.lists(
                st.lists(entries, min_size=m, max_size=m),
                min_size=n, max_size=n,
            )
        )
    )


def square_matrices(max_n=7):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def to_sympy(rows, cols):
    return sympy.Matrix(len(rows), cols, lambda i, j: sympy.Rational(
        rows[i][j].numerator, rows[i][j].denominator
    ))


def to_fraction(x):
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def sparse(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def apply(rows, vec):
    return [sum(a * x for a, x in zip(row, vec)) for row in rows]


def check_rank_rref_and_kernel(rows):
    cols = len(rows[0])
    ref, ref_pivots = to_sympy(rows, cols).rref()
    assert sparse_rank(sparse(rows)) == len(ref_pivots)
    pivots, red = _rref(sparse(rows), cols)
    assert pivots == list(ref_pivots)
    assert red == [
        tuple(to_fraction(ref[i, j]) for j in range(cols))
        for i in range(len(ref_pivots))
    ]
    ker = QSubspace.kernel(sparse(rows), cols)
    assert ker.dim == cols - len(ref_pivots)
    for v in ker.basis:
        assert not any(apply(rows, v))


@settings(max_examples=80, deadline=None)
@given(rational_matrices())
def test_rank_rref_and_kernel_match_sympy(rows):
    check_rank_rref_and_kernel(rows)


@settings(max_examples=40, deadline=None)
@given(rational_matrices(6, large_entries))
def test_rank_rref_and_kernel_of_large_entries_match_sympy(rows):
    check_rank_rref_and_kernel(rows)


@settings(max_examples=80, deadline=None)
@given(st.one_of(rational_matrices(), rational_matrices(6, large_entries)))
def test_kernel_matches_sympy_nullspace(rows):
    # the basis is the RREF of sympy's null vectors: the same subspace,
    # with the same canonical basis
    cols = len(rows[0])
    null = to_sympy(rows, cols).nullspace()
    expected = ()
    if null:
        ref, pivots = sympy.Matrix.hstack(*null).T.rref()
        expected = tuple(
            tuple(to_fraction(ref[i, j]) for j in range(cols))
            for i in range(len(pivots))
        )
    assert QSubspace.kernel(sparse(rows), cols).basis == expected


@pytest.mark.parametrize("rows", [
    [[0, 0, 0]],
    [[0, 0, 0], [1, 2, 0], [0, 0, 0]],
    [[0, 0], [0, 0]],
], ids=["one-zero-row", "zero-rows-around", "all-zero"])
def test_rank_rref_and_kernel_with_zero_rows_match_sympy(rows):
    check_rank_rref_and_kernel([[Fraction(x) for x in row] for row in rows])


@settings(max_examples=60, deadline=None)
@given(rational_matrices(), st.lists(st.lists(entries, min_size=7, max_size=7), max_size=3))
def test_solve_many_consistency_matches_sympy(rows, rhs):
    # a solve is the RREF of [A | b]: consistent iff b's column is no pivot,
    # and then x is that column at the pivots of A
    cols = len(rows[0])
    bs = [b[:len(rows)] for b in rhs]
    a = to_sympy(rows, cols)
    for b in bs:
        pivots, red = _rref(sparse([list(r) + [y] for r, y in zip(rows, b)]), cols + 1)
        consistent = not pivots or pivots[-1] != cols
        aug = a.row_join(to_sympy([[y] for y in b], 1))
        assert consistent == (aug.rank() == a.rank())
        if consistent:
            x = [Fraction(0)] * cols
            for c, r in zip(pivots, red):
                x[c] = r[cols]
            assert apply(rows, x) == b


@settings(max_examples=60, deadline=None)
@given(st.one_of(rational_matrices(), rational_matrices(6, large_entries)))
def test_sparse_rank_matches_sympy(rows):
    assert sparse_rank(sparse(rows)) == to_sympy(rows, len(rows[0])).rank()


def sympy_homology_quotient(out_rows, in_rows, n):
    """The RREF of nullspace(d_out) plus colspace(d_in), without the rows
    whose pivot is a pivot of colspace(d_in) alone."""
    image = [v.T for v in to_sympy(in_rows, len(in_rows[0])).columnspace()] if in_rows else []
    kernel = [v.T for v in to_sympy(out_rows, n).nullspace()]
    if not image + kernel:
        return ()
    ref, pivots = sympy.Matrix.vstack(*image, *kernel).rref()
    image_pivots = sympy.Matrix.vstack(*image).rref()[1] if image else ()
    return tuple(
        tuple(to_fraction(ref[i, j]) for j in range(n))
        for i, c in enumerate(pivots) if c not in image_pivots
    )


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(rational_matrices(6), rational_matrices(5, large_entries)),
    st.integers(0, 4),
    st.data(),
)
def test_homology_quotient_matches_sympy(out_rows, k, data):
    # the columns of d_in are combinations of kernel vectors of d_out, so
    # d_out @ d_in = 0; k = 0 stands for no incoming map
    n = len(out_rows[0])
    ker = QSubspace.kernel(sparse(out_rows), n).basis
    coeffs = data.draw(st.lists(
        st.lists(entries, min_size=k, max_size=k),
        min_size=len(ker), max_size=len(ker),
    ))
    in_rows = [
        [sum(v[i] * c[j] for v, c in zip(ker, coeffs)) for j in range(k)]
        for i in range(n)
    ] if k else []
    # the rows keep their zero entries, which the transpose has to skip
    d_out = [dict(enumerate(row)) for row in out_rows]
    d_in = [dict(enumerate(row)) for row in in_rows] if k else None
    assert homology_quotient(d_out, n, d_in) == sympy_homology_quotient(out_rows, in_rows, n)


@settings(max_examples=80, deadline=None)
@given(square_matrices())
def test_minor_matches_sympy_determinant(rows):
    n = len(rows)
    (det,) = wedge_vector(rows, n, n)
    assert type(det) is Fraction
    assert det == (to_fraction(to_sympy(rows, n).det()) if n else 1)


@settings(max_examples=60, deadline=None)
@given(square_matrices().map(
    lambda rows: [[x.numerator for x in row] for row in rows]
))
def test_integer_determinant_matches_sympy(rows):
    n = len(rows)
    det = _bareiss([list(r) for r in rows])
    assert det == (int(sympy.Matrix(rows).det()) if n else 1)


@settings(max_examples=60, deadline=None)
@given(rational_matrices(), st.randoms(use_true_random=False))
def test_rref_is_independent_of_row_order(rows, rnd):
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    cols = len(rows[0])
    assert _rref(sparse(shuffled), cols) == _rref(sparse(rows), cols)


def zero_led_integer_matrices(rows, cols):
    """Integer matrices with entries up to 10^12, first column zero on top.

    The leading pivot is zero, so the Bareiss elimination has to swap rows
    before its first exact division.
    """
    big = st.integers(-10**12, 10**12)
    return st.lists(
        st.lists(big, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda m: [[0] + r[1:] if i == 0 else r for i, r in enumerate(m)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: zero_led_integer_matrices(n, n)))
def test_minor_of_large_integer_matrices_matches_sympy(rows):
    n = len(rows)
    (det,) = wedge_vector(rows, n, n)
    assert type(det) is Fraction
    assert det == int(sympy.Matrix(rows).det())


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda p: st.integers(p, 5).flatmap(
        lambda n: zero_led_integer_matrices(p, n).map(lambda m: (m, n, p)))))
def test_wedge_vector_of_large_integer_vectors_matches_sympy(case):
    vectors, n, p = case
    ref = sympy.Matrix(vectors)
    assert wedge_vector(vectors, n, p) == tuple(
        int(ref.extract(list(range(p)), list(cols)).det())
        for cols in lex_subsets(n, p)
    )


# entries of mixed size and many zeros: invariant factors other than 1,
# and zero rows, columns and ranks
smith_entries = st.one_of(st.just(0), st.integers(-6, 6), st.integers(-10**6, 10**6))


@seed(1968)
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda r: st.integers(1, 5).flatmap(
    lambda c: st.lists(
        st.lists(smith_entries, min_size=c, max_size=c), min_size=r, max_size=r
    ))))
def test_smith_normal_form_diagonal_matches_sympy_invariant_factors(rows):
    m = ZMatrix.from_rows(rows)
    u, d, v, u_inv = smith_normal_form(m)
    assert u @ m @ v == d
    assert u @ u_inv == ZMatrix.identity(m.rows)
    assert not any(x for i, row in enumerate(d.entries) for j, x in enumerate(row) if i != j)
    diagonal = tuple(d.entries[i][i] for i in range(min(m.rows, m.cols)))
    factors = normalforms.invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
    assert diagonal == tuple(int(x) for x in factors)
