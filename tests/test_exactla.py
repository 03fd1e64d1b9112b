"""Exact linear algebra: ranks, kernels, subspaces, SNF, wedges."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from oracles import _rref, composes_to, dense_columns, smith_normal_form, wedge_vector
from trophodge.exactla import (
    QSubspace,
    ZMatrix,
    _bareiss,
    _kernel_rows,
    homology_quotient,
    lex_subsets,
    sparse_rank,
    wedge_columns,
)

small_int = st.integers(min_value=-6, max_value=6)


def matrices(max_n=5, entries=small_int):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_n).flatmap(
            lambda m: st.lists(
                st.lists(entries, min_size=m, max_size=m),
                min_size=n, max_size=n,
            )
        )
    )


def sparse(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def apply(rows, vec):
    return [sum(a * x for a, x in zip(row, vec)) for row in rows]


def test_rank_and_rref_basics():
    rows = sparse([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert sparse_rank(rows) == 2
    pivots, red = _rref(rows, 3)
    assert pivots == [0, 1]
    assert red[0][0] == 1 and red[1][1] == 1


def test_kernel_vectors_are_annihilated():
    rows = [[1, 2, 0], [0, 0, 1]]
    ker = QSubspace.kernel(sparse(rows), 3)
    assert ker.dim == 1
    for v in ker.basis:
        assert all(x == 0 for x in apply(rows, v))


def test_solve_and_inconsistent():
    # a solve is the RREF of [A | b]: inconsistent iff b's column is a pivot
    pivots, red = _rref(sparse([[2, 0, 4], [0, 3, 9]]), 3)
    assert pivots == [0, 1]
    assert [row[2] for row in red] == [Fraction(2), Fraction(3)]
    pivots, _ = _rref(sparse([[1, 1, 0], [1, 1, 1]]), 3)
    assert pivots[-1] == 2


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_equals_transpose_rank(rows):
    assert sparse_rank(sparse(rows)) == sparse_rank(sparse(zip(*rows)))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_sparse_rank_matches_dense(rows):
    # the dense rows keep their zero entries, which the elimination drops
    fractions = [
        {j: Fraction(x) for j, x in enumerate(row) if x}
        for row in rows
    ]
    assert sparse_rank(fractions) == sparse_rank([dict(enumerate(r)) for r in rows])


def lcm_scaled(red):
    """Each Fraction row times the positive lcm of its denominators."""
    out = []
    for row in red:
        m = math.lcm(*(x.denominator for x in row))
        out.append(tuple(int(x * m) for x in row))
    return out


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_of_the_kernel_is_the_lcm_scaled_rref(rows):
    """The span of the rows is the kernel of its annihilator: its
    ``_kernel_rows`` are the RREF of the rows times the lcm of their
    denominators, and ``QSubspace.span`` is that RREF."""
    ncols = len(rows[0])
    _, red = _rref(sparse(rows), ncols)
    perp = sparse(_kernel_rows(sparse(rows), ncols))
    assert list(_kernel_rows(perp, ncols)) == lcm_scaled(red)
    assert QSubspace.span(rows, ncols).basis == tuple(red)


def kernel_cases():
    """(ncols, rows) with ncols 0-7 and up to five {column: entry} rows,
    among them empty rows, all-zero rows and rows that keep zero entries."""
    def rows(n):
        dense = st.lists(small_int, min_size=n, max_size=n)
        row = st.one_of(
            st.just({}),
            st.just(dict.fromkeys(range(n), 0)),
            dense.map(lambda r: dict(enumerate(r))),
            dense.map(lambda r: sparse([r])[0]),
        )
        return st.tuples(st.just(n), st.lists(row, max_size=5))

    return st.integers(0, 7).flatmap(rows)


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_kernel_rows_are_the_lcm_scaled_rref_of_the_null_rows(case):
    """The kernel of the reversed-column pass is the RREF of the reference
    null space, as primitive integer rows with positive pivots."""
    ncols, rows = case
    got = list(_kernel_rows(rows, ncols))
    for row in got:
        assert next(x for x in row if x) > 0 and math.gcd(*row) == 1
    assert got == lcm_scaled(_rref(oracles.null_rows(rows, ncols), ncols)[1])


def test_rank_nullity():
    rows = sparse([[1, 2, 3, 4], [0, 1, 0, 1]])
    assert sparse_rank(rows) + QSubspace.kernel(rows, 4).dim == 4


def test_snf_example_diag_2_3():
    d = smith_normal_form(ZMatrix.from_rows([[2, 0], [0, 3]], 2))[1]
    assert [d.entries[i][i] for i in range(2)] == [1, 6]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=2, max_size=4))
def test_snf_transform_and_divisibility(rows):
    m = ZMatrix.from_rows(rows, 3)
    u, d, v, u_inv = smith_normal_form(m)
    assert u @ u_inv == ZMatrix.identity(m.rows)
    prod = u @ m @ v
    assert prod.entries == d.entries
    diag = [d.entries[i][i] for i in range(min(d.rows, d.cols))]
    for a, b in zip(diag, diag[1:]):
        if a and b:
            assert b % a == 0
    assert abs(_bareiss([list(r) for r in u.entries])) == 1
    assert abs(_bareiss([list(r) for r in v.entries])) == 1


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
    det = _bareiss([list(r) for r in rows])
    assert type(det) is int
    assert det == _cofactor_det(rows)


@pytest.mark.parametrize("bad", [Fraction(3, 2), Fraction(2), 1.9, 2.0, True, "1"])
def test_zmatrix_rejects_non_int_entries(bad):
    with pytest.raises(TypeError):
        ZMatrix(1, 2, [[bad, 1]])


@settings(max_examples=60, deadline=None)
@given(matrices(4), st.integers(0, 3))
def test_wedge_columns_match_wedge_matrix(rows, p):
    # column s of the wedge matrix holds the Plucker coordinates of the
    # columns of m in s
    m = ZMatrix.from_rows(rows)
    cols = list(zip(*rows))
    assert dense_columns(wedge_columns(m, p), math.comb(m.rows, p)) == tuple(
        wedge_vector([cols[j] for j in s], m.rows, p) for s in lex_subsets(m.cols, p)
    )


@pytest.mark.parametrize("p, cols", [(0, ((1,),)), (1, ((), (), ())), (2, ((), (), ()))])
def test_wedge_columns_of_a_map_with_no_rows(p, cols):
    assert dense_columns(wedge_columns(ZMatrix(0, 3, []), p), math.comb(0, p)) == cols


@settings(max_examples=80, deadline=None)
@given(matrices(entries=st.sampled_from([0, 0, 0, 1, -1, 2])), st.integers(0, 4))
def test_wedge_columns_store_only_nonzero_minors(rows, p):
    """Each column is its nonzero minors as (row-subset index, minor) pairs:
    no pair holds a zero, the indices increase, and the densified columns
    are the ``wedge_vector`` minors of the columns of m.  The entries are
    mostly zeros and units, so that many minors vanish."""
    m = ZMatrix.from_rows(rows)
    columns = wedge_columns(m, p)
    for col in columns:
        assert all(type(x) is int and x for _, x in col)
        assert all(i < j for (i, _), (j, _) in zip(col, col[1:]))
    cols = list(zip(*rows))
    assert dense_columns(columns, math.comb(m.rows, p)) == tuple(
        wedge_vector([cols[j] for j in s], m.rows, p) for s in lex_subsets(m.cols, p)
    )


@settings(max_examples=60, deadline=None)
@given(matrices(), st.integers(0, 4), st.data())
def test_homology_quotient_represents_ker_mod_im(out_rows, k, data):
    n = len(out_rows[0])
    ker = QSubspace.kernel(sparse(out_rows), n).basis
    coeffs = data.draw(st.lists(
        st.lists(small_int, min_size=k, max_size=k),
        min_size=len(ker), max_size=len(ker),
    ))
    # columns of d_in are combinations of kernel vectors, so d_out @ d_in = 0
    d_in = [
        [sum(v[i] * c[j] for v, c in zip(ker, coeffs)) for j in range(k)]
        for i in range(n)
    ]
    assert composes_to(out_rows, d_in)
    reps = homology_quotient(sparse(out_rows), n, sparse(d_in) if k else None)
    rank_in = sparse_rank(sparse(d_in))
    assert len(reps) == (n - sparse_rank(sparse(out_rows))) - rank_in
    for v in reps:
        assert not any(apply(out_rows, v))
    stacked = sparse(list(reps) + list(zip(*d_in)))
    assert sparse_rank(stacked) == len(reps) + rank_in


@pytest.mark.parametrize("out_rows, in_rows, expected", [
    ([{0: 1, 1: 1}], [{}, {}, {}], ((1, -1, 0), (0, 0, 1))),
    ([], [{0: 2}, {0: 2}, {}], ((0, 1, 0), (0, 0, 1))),
    ([], None, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    ([{0: 1, 2: -1}], None, ((1, 0, 1), (0, 1, 0))),
    ([{0: 1, 2: -1}], [{}, {0: 5}, {}], ((1, 0, 1),)),
], ids=["empty-d_in", "d_out-without-rows", "nothing-at-all", "zero-column",
        "zero-column-in-image"])
def test_homology_quotient_edge_rows(out_rows, in_rows, expected):
    assert homology_quotient(out_rows, 3, in_rows) == expected


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


@seed(20250)
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([small_int, st.integers(-10**15, 10**15)]),
    st.sampled_from(["none", "empty", "vanishing"]),
    st.data(),
)
def test_homology_quotient_matches_the_ker_plus_im_oracle(ints, kind, data):
    """The one forward elimination gives the rows of the oracle's second
    full elimination of ker + im: with no d_in, a d_in of no columns and a
    d_in whose composite with d_out vanishes, over small and large
    entries."""
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(0, 5))
    out_rows = data.draw(st.lists(
        st.lists(ints, min_size=n, max_size=n), min_size=m, max_size=m,
    ))
    k = data.draw(st.integers(1, 4))
    if kind == "none":
        d_in = None
    elif kind == "empty":
        d_in = [{} for _ in range(n)]
    else:
        ker = QSubspace.kernel(sparse(out_rows), n).basis
        coeffs = data.draw(st.lists(
            st.lists(ints, min_size=k, max_size=k),
            min_size=len(ker), max_size=len(ker),
        ))
        dense = [
            [sum(v[i] * c[j] for v, c in zip(ker, coeffs)) for j in range(k)]
            for i in range(n)
        ]
        assert composes_to(out_rows, dense)
        d_in = sparse(dense)
    d_out = sparse(out_rows)
    assert homology_quotient(d_out, n, d_in) == oracles.homology_quotient(d_out, n, d_in)


def test_homology_quotient_reads_the_kernel_off_one_elimination(monkeypatch):
    """The RREF rows of ker + im come from the one forward elimination of
    d_out: no kernel or span is reduced on its own."""
    d_out = [{0: 1, 1: 1}, {2: 2, 3: 2}]
    d_in = [{0: 3}, {0: -3}, {}, {}]
    f = Fraction
    expected = {
        "none": ((f(1), f(-1), f(0), f(0)), (f(0), f(0), f(1), f(-1))),
        "in": ((f(0), f(0), f(1), f(-1)),),
    }

    def forbidden(*args):
        raise AssertionError("homology_quotient reduced the kernel on its own")

    monkeypatch.setattr(QSubspace, "span", classmethod(forbidden))
    monkeypatch.setattr(QSubspace, "kernel", classmethod(forbidden))
    assert homology_quotient(d_out, 4, None) == expected["none"]
    assert homology_quotient(d_out, 4, d_in) == expected["in"]


def test_wedge_vector_example():
    assert wedge_vector([[1, 0], [0, 1]], 2, 2) == (1,)
    assert wedge_vector([[1, 0, 0], [0, 1, 0]], 3, 2) == (1, 0, 0)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=3, max_size=3),
)
def test_wedge_matrix_functorial(a_rows, b_rows):
    # wedge^2(a @ b) = wedge^2(a) @ wedge^2(b), on the columns of each
    a = ZMatrix.from_rows(a_rows, 3)
    b = ZMatrix.from_rows(b_rows, 3)
    def wedge(m):
        return dense_columns(wedge_columns(m, 2), 3)

    assert composes_to(wedge(b), wedge(a), wedge(a @ b))


def test_lex_subsets():
    assert lex_subsets(3, 2) == [(0, 1), (0, 2), (1, 2)]
    assert lex_subsets(2, 0) == [()]


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_coordinates_match_solve(gens, data):
    # the coordinates solve basis^T @ x = vec, checked by a sympy solve
    sympy = pytest.importorskip("sympy")
    n = len(gens[0])
    v = QSubspace.span(gens, n)
    coeffs = data.draw(st.lists(small_int, min_size=len(gens), max_size=len(gens)))
    inside = [sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(n)]
    other = data.draw(st.lists(small_int, min_size=n, max_size=n))
    assert oracles.coordinates(v, inside) is not None
    a = sympy.Matrix(n, v.dim, lambda i, j: sympy.Rational(str(v.basis[j][i])))
    for vec in (inside, other):
        try:
            x, _ = a.gauss_jordan_solve(sympy.Matrix(vec))
        except ValueError:
            x = None
        else:
            x = tuple(Fraction(str(y)) for y in x)
        assert oracles.coordinates(v, vec) == x


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
    assert oracles.coordinates(v, [3, 6, -1]) == (3, -1)
    assert oracles.coordinates(v, [3, 5, -1]) is None
    assert oracles.coordinates(QSubspace(2, ()), [0, 0]) == ()
    with pytest.raises(ValueError):
        oracles.coordinates(v, [1, 2])


def test_subspace_equality_is_basis_free():
    a = QSubspace.span([[1, 1], [1, -1]], 2)
    b = QSubspace.full(2)
    assert a == b


def test_no_module_binds_qmatrix():
    """Sparse rows are the one matrix form of the package, and no dense
    matrix of Fractions exists: no module defines or binds a QMatrix."""
    import importlib
    import pkgutil

    import trophodge

    bound = [
        info.name for info in pkgutil.iter_modules(trophodge.__path__)
        if hasattr(importlib.import_module(f"trophodge.{info.name}"), "QMatrix")
    ]
    assert bound == []
    assert not hasattr(trophodge, "QMatrix")


def test_no_module_reads_another_modules_private_names():
    """Each decision is kept in one module: no trophodge module imports or
    reads an ``_``-prefixed name of another, except the exact kernels
    ``exactla._bareiss``, ``exactla._cleared`` and ``exactla._kernel_rows``."""
    import ast
    import pathlib

    import trophodge

    allowed = {
        ("exactla", "_bareiss"), ("exactla", "_cleared"), ("exactla", "_kernel_rows")
    }
    found = []
    for path in sorted(pathlib.Path(trophodge.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "trophodge":
                aliases.update((a.asname or a.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "trophodge."
            ):
                owner = node.module.split(".")[1]
                found += [
                    (path.stem, owner, a.name) for a in node.names
                    if a.name.startswith("_") and (owner, a.name) not in allowed
                ]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and node.attr.startswith("_")
                and (aliases[node.value.id], node.attr) not in allowed
            ):
                found.append((path.stem, aliases[node.value.id], node.attr))
    assert [f for f in found if f[0] != f[1]] == []
