"""Exact linear algebra over the rationals and the integers.

Every cohomology dimension computed by this package is the rank of a
matrix over Q, and every lattice question (smoothness, saturation,
quotient coordinates) is a Smith normal form.  No floating point anywhere.

Every rank, reduced row echelon form, kernel, solve and determinant comes
out of one sparse Gauss-Jordan elimination over Fraction entries,
:func:`_gauss_jordan`, on rows stored as {column: entry} dicts.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def _as_fraction_rows(rows):
    return tuple(
        tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows
    )


def _sparse_rows(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _subtract(row, f, tail):
    """row -= f * tail in place, dropping the entries that cancel."""
    g = -f
    for j, x in tail.items():
        if j in row:
            y = row[j] + g * x
            if y:
                row[j] = y
            else:
                del row[j]
        else:
            row[j] = g * x


def _gauss_jordan(rows, reduce):
    """The one exact elimination: sparse Gauss-Jordan over Q.

    ``rows`` is a sequence of {column: nonzero entry} dicts; it is not
    modified.  Rows are taken shortest first.  Each is cleared at its
    leftmost column against the pivot rows found so far, until it
    vanishes or opens a new pivot there.  So the pivots are the greedy
    leftmost columns, which are those of the reduced row echelon form.

    Returns {pivot column: (input row index, pivot before scaling, tail)}
    where the tail is the pivot row scaled to a unit pivot, without its
    pivot entry.  With ``reduce`` the tails are back-substituted into the
    rows of the reduced row echelon form; without it they stay echelon.
    """
    pivots = {}
    for i in sorted(range(len(rows)), key=lambda i: len(rows[i])):
        row = dict(rows[i])
        while row:
            c = min(row)
            if c not in pivots:
                v = Fraction(row.pop(c))
                pivots[c] = (i, v, {j: x / v for j, x in row.items()})
                break
            _subtract(row, row.pop(c), pivots[c][2])
    if reduce:
        for c in sorted(pivots, reverse=True):
            tail = pivots[c][2]
            for j in [j for j in tail if j in pivots]:
                _subtract(tail, tail.pop(j), pivots[j][2])
    return pivots


def _rref(rows, ncols):
    """Reduced row echelon form over Q of sparse rows (as for sparse_rank).

    Returns (pivots, reduced_rows) with unit pivots; rows are dense tuples
    of Fraction.
    """
    pivots = _gauss_jordan(rows, reduce=True)
    cols = sorted(pivots)
    red = []
    for c in cols:
        dense = [Fraction(0)] * ncols
        dense[c] = Fraction(1)
        for j, x in pivots[c][2].items():
            dense[j] = x
        red.append(tuple(dense))
    return cols, red


def _null_space(pivots, red, ncols):
    """Canonical basis of the right null space, read off an RREF."""
    pivot_set = set(pivots)
    vecs = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        vecs.append(v)
    return QSubspace.span(vecs, ncols)


class QMatrix:
    """Immutable dense matrix over Q (row-major)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = _as_fraction_rows(entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry shape does not match rows x cols")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("QMatrix is immutable")

    @classmethod
    def from_rows(cls, rows, cols=None):
        rows = list(rows)
        if cols is None:
            if not rows:
                raise ValueError("cannot infer cols from an empty row list")
            cols = len(rows[0])
        return cls(len(rows), cols, rows)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    def __eq__(self, other):
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols})"

    def transpose(self):
        return QMatrix(
            self.cols, self.rows,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.entries)) if other.rows else [()] * other.cols
        out = [
            [sum(a * b for a, b in zip(row, col)) for col in ot]
            for row in self.entries
        ]
        return QMatrix(self.rows, other.cols, out)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return QMatrix(
            self.rows, self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def scale(self, c):
        c = Fraction(c)
        return QMatrix(self.rows, self.cols, [[c * x for x in row] for row in self.entries])

    def apply(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        (vec,) = _as_fraction_rows([vec])
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.entries)

    def is_zero(self):
        return all(x == 0 for row in self.entries for x in row)

    def rank(self):
        return sparse_rank(_sparse_rows(self.entries))

    def rref(self):
        """(pivots, rows) of the reduced row echelon form."""
        return _rref(_sparse_rows(self.entries), self.cols)

    def kernel_basis(self):
        """Basis of the right null space as a QSubspace of Q^cols."""
        return _null_space(*self.rref(), self.cols)

    def solve(self, b):
        """One solution x of self @ x = b, or None if inconsistent."""
        return self.solve_many([b])[0]

    def solve_many(self, bs):
        """Solutions of self @ x = b for several right-hand sides at once.

        One elimination serves all systems; inconsistent ones give None.
        """
        bs = [list(b) for b in bs]
        if any(len(b) != self.rows for b in bs):
            raise ValueError("rhs length mismatch")
        k = len(bs)
        aug = [
            list(row) + [b[i] for b in bs] for i, row in enumerate(self.entries)
        ]
        pivots, red = _rref(_sparse_rows(aug), self.cols + k)
        if any(p >= self.cols for p in pivots):
            # some system is inconsistent; its pivot row contaminates the
            # joint elimination, so redo the systems one by one
            if k == 1:
                return [None]
            return [self.solve(b) for b in bs]
        out = []
        for j in range(k):
            x = [Fraction(0)] * self.cols
            for i, p in enumerate(pivots):
                x[p] = red[i][self.cols + j]
            out.append(tuple(x))
        return out


class QSubspace:
    """Subspace of Q^n, stored by its reduced row echelon basis.

    The basis must be the RREF of the subspace (nonzero rows, increasing
    unit pivots, zeros in the other rows' pivot columns), which is unique
    for it: equal subspaces have equal bases.  ``pivots[i]`` is the pivot
    column of ``basis[i]``, so the coordinates of a vector of the
    subspace are its entries at the pivots.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim, basis):
        basis = _as_fraction_rows(basis)
        if any(len(v) != ambient_dim for v in basis):
            raise ValueError("basis vector length mismatch")
        pivots = []
        for v in basis:
            c = next((j for j, x in enumerate(v) if x), None)
            if c is None:
                raise ValueError("basis has a zero row")
            if v[c] != 1 or (pivots and c <= pivots[-1]):
                raise ValueError("basis is not in reduced row echelon form")
            pivots.append(c)
        if any(v[c] for i, v in enumerate(basis) for c in pivots[i + 1:]):
            raise ValueError("basis is not in reduced row echelon form")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, *a):
        raise AttributeError("QSubspace is immutable")

    @classmethod
    def span(cls, vectors, ambient_dim):
        vectors = _as_fraction_rows(vectors)
        if any(len(v) != ambient_dim for v in vectors):
            raise ValueError("vector length mismatch")
        _, red = _rref(_sparse_rows(vectors), ambient_dim)
        return cls(ambient_dim, red)

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, QMatrix.identity(ambient_dim).entries)

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, QSubspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"QSubspace(dim {self.dim} in Q^{self.ambient_dim})"

    def matrix(self):
        return QMatrix(self.dim, self.ambient_dim, self.basis)

    def coordinates(self, vec):
        """Coordinates of vec in the canonical basis, or None if outside.

        They can only be vec's entries at the pivots; vec lies in the
        subspace iff that combination of the basis also matches it at the
        other columns.
        """
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        coords = tuple(Fraction(vec[c]) for c in self.pivots)
        pivot_set = set(self.pivots)
        for j, x in enumerate(vec):
            if j not in pivot_set and x != sum(
                a * v[j] for a, v in zip(coords, self.basis)
            ):
                return None
        return coords

    def contains(self, vec):
        return self.coordinates(vec) is not None


def sparse_rank(rows) -> int:
    """Exact rank of a sparse rational matrix.

    ``rows`` is a list of {column: nonzero Fraction} dicts.  This is the
    forward pass of :func:`_gauss_jordan` alone, without back-substitution.
    """
    return len(_gauss_jordan(rows, reduce=False))


def homology_quotient(d_out: QMatrix, d_in: QMatrix | None):
    """Echelon basis of ker ``d_out`` modulo im ``d_in``.

    ``d_in`` maps into the source of ``d_out`` (None means no incoming
    map) and ``d_out @ d_in`` must vanish.  The result is the reduced
    basis of the vectors of ker + im that vanish at the pivot columns of
    im: the rows of the RREF of ker + im at the other pivots, one per
    dimension of the homology at the middle space.
    """
    ker = d_out.kernel_basis()
    if d_in is None:
        return ker.basis
    image = _sparse_rows(zip(*d_in.entries))
    image_pivots = _gauss_jordan(image, reduce=False)
    pivots, red = _rref(image + _sparse_rows(ker.basis), d_out.cols)
    return tuple(r for c, r in zip(pivots, red) if c not in image_pivots)


def block_offsets(layout):
    """({key: first coordinate of its block}, total dim) of a (key, dim) layout."""
    offs = {}
    off = 0
    for key, d in layout:
        offs[key] = off
        off += d
    return offs, off


def block_rows(blocks, row_layout, col_layout):
    """Sparse rows of a block matrix, and its column count.

    ``blocks`` maps (row_key, col_key) to a QMatrix; each layout lists
    (key, block_dim) in block order.  Rows are {column: nonzero entry}
    dicts, the form :func:`sparse_rank` takes.
    """
    roff, nrows = block_offsets(row_layout)
    coff, ncols = block_offsets(col_layout)
    rows = [{} for _ in range(nrows)]
    for (rk, ck), m in blocks.items():
        r0, c0 = roff[rk], coff[ck]
        for i, row in enumerate(m.entries):
            for j, v in enumerate(row):
                if v:
                    rows[r0 + i][c0 + j] = v
    return rows, ncols


def assemble(blocks, row_layout, col_layout) -> QMatrix:
    """Dense QMatrix of a block matrix given as for :func:`block_rows`."""
    rows, ncols = block_rows(blocks, row_layout, col_layout)
    ent = [[Fraction(0)] * ncols for _ in rows]
    for out, row in zip(ent, rows):
        for j, v in row.items():
            out[j] = v
    return QMatrix(len(rows), ncols, ent)


class ZMatrix:
    """Immutable dense integer matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(tuple(int(x) for x in row) for row in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry shape does not match rows x cols")
        for row in entries:
            for x in row:
                if not isinstance(x, int):
                    raise TypeError("ZMatrix entries must be integers")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("ZMatrix is immutable")

    @classmethod
    def from_rows(cls, rows, cols=None):
        rows = [list(r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("cannot infer cols from an empty row list")
            cols = len(rows[0])
        return cls(len(rows), cols, rows)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, ZMatrix)
            and (self.rows, self.cols, self.entries)
            == (other.rows, other.cols, other.entries)
        )

    def __repr__(self):
        return f"ZMatrix({self.rows}x{self.cols})"

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.entries)) if other.rows else [()] * other.cols
        out = [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.entries]
        return ZMatrix(self.rows, other.cols, out)

    def to_q(self):
        return QMatrix(self.rows, self.cols, self.entries)

    def determinant(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return int(_minor(self.entries, range(self.rows), range(self.cols)))


def smith_normal_form(m: ZMatrix):
    """(U, D, V) with U @ m @ V = D diagonal, U, V unimodular, d_i | d_{i+1}.

    Deterministic: the pivot is always the smallest-magnitude nonzero
    entry of the working block, first occurrence in row-major order.
    """
    A = [list(row) for row in m.entries]
    R, C = m.rows, m.cols
    U = [[1 if i == j else 0 for j in range(R)] for i in range(R)]
    V = [[1 if i == j else 0 for j in range(C)] for i in range(C)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, k):
        A[dst] = [a + k * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + k * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, k):
        for row in A:
            row[dst] += k * row[src]
        for row in V:
            row[dst] += k * row[src]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(R, C):
        best = None
        for i in range(t, R):
            for j in range(t, C):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            piv = A[t][t]
            done = True
            for i in range(t + 1, R):
                if A[i][t] != 0:
                    q = A[i][t] // piv
                    add_row(i, t, -q)
                    if A[i][t] != 0:
                        swap_rows(t, i)
                        done = False
                        break
            if not done:
                continue
            for j in range(t + 1, C):
                if A[t][j] != 0:
                    q = A[t][j] // piv
                    add_col(j, t, -q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        done = False
                        break
            if done:
                piv = A[t][t]
                bad = None
                for i in range(t + 1, R):
                    for j in range(t + 1, C):
                        if A[i][j] % piv != 0:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                add_row(t, bad, 1)
        if A[t][t] < 0:
            negate_row(t)
        t += 1
    Um = ZMatrix(R, R, U)
    Vm = ZMatrix(C, C, V)
    return Um, ZMatrix(R, C, A), Vm


def lex_subsets(n, p):
    """Lexicographically sorted p-subsets of range(n)."""
    return list(itertools.combinations(range(n), p))


def _minor(rows, row_idx, col_idx):
    """Determinant of the square submatrix, as a Fraction.

    The forward pass of :func:`_gauss_jordan` brings the rows to echelon
    form by adding multiples of other rows, so the determinant is the
    product of the pivots before scaling, times the sign of the
    permutation taking each row to its pivot column.
    """
    sub = [
        {k: rows[i][j] for k, j in enumerate(col_idx) if rows[i][j]}
        for i in row_idx
    ]
    pivots = _gauss_jordan(sub, reduce=False)
    if len(pivots) < len(sub):
        return Fraction(0)
    det = Fraction(1)
    perm = [0] * len(sub)
    for c, (i, v, _) in pivots.items():
        det *= v
        perm[i] = c
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                det = -det
    return det


def wedge_vector(vectors, n, p):
    """Plucker coordinates of v_1 ^ ... ^ v_p in the lex p-subset basis of Q^n."""
    if len(vectors) != p:
        raise ValueError("need exactly p vectors")
    vectors = _as_fraction_rows(vectors)
    return tuple(
        _minor(vectors, range(p), cols) for cols in lex_subsets(n, p)
    )


def wedge_matrix(A: QMatrix, p: int) -> QMatrix:
    """Matrix of wedge^p(A): wedge^p Q^cols -> wedge^p Q^rows, lex bases."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    row_subs = lex_subsets(A.rows, p)
    col_subs = lex_subsets(A.cols, p)
    if p == 0:
        return QMatrix.identity(1)
    ent = [
        [_minor(A.entries, rs, cs) for cs in col_subs]
        for rs in row_subs
    ]
    return QMatrix(len(row_subs), len(col_subs), ent)
