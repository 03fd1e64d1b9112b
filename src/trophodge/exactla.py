"""Exact linear algebra over the rationals and the integers.

Every cohomology dimension computed by this package is the rank of a
matrix over Q, and every lattice question (saturation, quotient
coordinates and their integer section) is one unimodular row reduction
to echelon form, with U^-1 (:func:`unimodular_echelon`), or, for
smoothness, a gcd of minors.  No floating point anywhere.

Every rank, reduced row echelon form and kernel comes out of one sparse
fraction-free forward elimination, :func:`_gauss_jordan`, on rows
stored as {column: entry} dicts, the one matrix form of the package.
Each input row, with int or Fraction entries, is scaled once to a
primitive integer row; a row is cleared at a pivot row P as
a * row - b * P with the smallest integers a and b that cancel the
entry, then divided by its content.  A rank is that pass alone
(:func:`sparse_rank`); every kernel is one pass with the columns
reversed plus a back-solve per free column, its RREF as primitive
integer rows, yielded one at a time (:func:`_kernel_rows`).  No pass
reduces above its pivots: the RREF of a span is the kernel of its
annihilator (:meth:`QSubspace.span`), two such kernels.  Fractions are
made only where such a row is divided by its pivot, in
:func:`_over_pivot`: for :meth:`QSubspace.kernel` and the
representatives of :func:`homology_quotient`, which needs
d_out @ d_in = 0, as for two consecutive differentials of one complex,
and back-solves only the kernel rows off the pivots of im d_in.  The
differentials of the package, delta of the cochain complex and d_1 of
the weight spectral sequence, are written as such integer rows and
reach :func:`sparse_rank` and, for delta, :func:`homology_quotient`
directly.  No dense matrix of Fractions exists: the one dense view of
such rows, for the benchmark's counts, is an integer :class:`ZMatrix`
(``CochainComplex.deltas``).  Every determinant (an entry of a wedge
power, an orientation sign, a volume element) comes out of
:func:`_bareiss`: fraction-free Bareiss elimination on integer rows.
Both cores clear the denominators of a row by the same positive factor,
:func:`_cleared`.  A wedge power has one block form, the sparse columns
of :func:`wedge_columns`: each column the (row index, nonzero minor)
pairs.  Its cache, keyed by the content of the matrix (a
:class:`ZMatrix` hashes its rows, cols and entries) and p, is the one
store of minors: both differentials, the smoothness test and the volume
elements of cells read it, and a matrix that many cone pairs share is
expanded once.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction


def _cleared(values):
    """(the values times m as ints, m), m the positive lcm of their denominators."""
    m = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (m // x.denominator) for x in values], m


def _primitive(row):
    """A {column: entry} row as a primitive integer row.

    The entries are cleared of their denominators and divided by their
    content, both positive factors.  Zero entries are dropped, so a row
    with no nonzero entry comes back empty.
    """
    ints, _ = _cleared(row.values())
    g = math.gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return {j: x for j, x in zip(row, ints) if x}


def _combine(row, c, pivot_row):
    """row := (a * row - b * pivot_row) / content, in place.

    With g = gcd(pivot_row[c], row[c]), a = pivot_row[c] / g and
    b = row[c] / g are the smallest integers that cancel the entries at
    column c; entries that cancel are dropped.
    """
    v, x = pivot_row[c], row[c]
    g = math.gcd(v, x)
    a, b = v // g, x // g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, y in pivot_row.items():
        z = row.get(j)
        if z is None:
            row[j] = -b * y
        else:
            z -= b * y
            if z:
                row[j] = z
            else:
                del row[j]
    g = math.gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def _gauss_jordan(rows):
    """The one exact elimination: a sparse fraction-free forward pass.

    ``rows`` is a sequence of {column: entry} dicts, the entries ints or
    Fractions; it is not modified.  Each row is first scaled to a
    primitive integer row (:func:`_primitive`).  Rows are taken shortest
    first.  Each is cleared at its leftmost column c against the pivot row
    P found there so far, as a * row - b * P with a = P[c] / g, b = row[c]
    / g and g = gcd(P[c], row[c]), then divided by its content
    (:func:`_combine`), until it vanishes or opens a new pivot at c.  So
    every working row is a nonzero multiple of the row that elimination
    over Q with unit pivots would hold, and the pivots are the greedy
    leftmost columns, which are those of the reduced row echelon form.

    Returns {pivot column: primitive integer row}, in echelon form.  No
    Fraction is made here.
    """
    pivots = {}
    for i in sorted(range(len(rows)), key=lambda i: len(rows[i])):
        row = _primitive(rows[i])
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = row
                break
            _combine(row, c, pivots[c])
    return pivots


def _over_pivot(row):
    """A dense integer row divided by its pivot, its first nonzero entry,
    as a tuple of Fraction: the one place the elimination makes them."""
    v = next(x for x in row if x)
    zero = Fraction(0)
    return tuple(Fraction(x, v) if x else zero for x in row)


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
        basis = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in v) for v in basis
        )
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
        """The span of dense vectors of length ``ambient_dim``: the kernel
        of its annihilator, both from :func:`_kernel_rows`."""
        if any(len(v) != ambient_dim for v in vectors):
            raise ValueError("vector length mismatch")
        perp = sparse_rows(_kernel_rows(sparse_rows(vectors), ambient_dim))
        return cls.kernel(perp, ambient_dim)

    @classmethod
    def kernel(cls, rows, ncols):
        """The right null space of {column: entry} rows over ``ncols`` columns.

        Its basis is the RREF rows of :func:`_kernel_rows`, each divided by
        its pivot entry; with no rows it is the whole of Q^ncols.
        """
        return cls(ncols, [_over_pivot(row) for row in _kernel_rows(rows, ncols)])

    @classmethod
    @functools.lru_cache(maxsize=None)
    def full(cls, ambient_dim):
        """The whole of Q^n, with the identity basis; one shared copy per n."""
        n = ambient_dim
        return cls(n, [[int(i == j) for j in range(n)] for i in range(n)])

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


def sparse_rows(vectors):
    """Dense vectors as {column: entry} rows, their zero entries dropped."""
    return [{j: x for j, x in enumerate(v) if x} for v in vectors]


def sparse_rank(rows) -> int:
    """Exact rank of a sparse rational matrix.

    ``rows`` is a list of {column: entry} dicts, the entries ints or
    Fractions; zero entries and empty rows are skipped.  This is the
    forward pass of :func:`_gauss_jordan` alone, without
    back-substitution, so on integer rows it makes no Fraction.
    """
    return len(_gauss_jordan(rows))


def homology_quotient(out_rows, ncols, in_rows):
    """Echelon basis of ker d_out modulo im d_in, from sparse rows.

    ``out_rows`` are the {column: entry} rows of d_out, whose source has
    ``ncols`` coordinates; ``in_rows`` are the rows of d_in, which maps
    into that source (one row per coordinate), or None for no incoming
    map.  The caller guarantees ``d_out @ d_in = 0``, as for delta_q and
    delta_{q-1} of one cochain complex; this is not checked.  The image is
    read off ``in_rows`` by a sparse transpose; empty rows and zero
    entries are skipped.  The result is the reduced basis of the vectors
    of ker d_out that vanish at the pivot columns of im: the RREF rows of
    the kernel (:func:`_kernel_rows`) at the other columns, the only ones
    back-solved, as dense tuples of Fraction, one per dimension of the
    homology at the middle space.
    """
    columns = {}
    for i, row in enumerate(in_rows or ()):
        for j, x in row.items():
            if x:
                columns.setdefault(j, {})[i] = x
    image_pivots = _gauss_jordan([columns[j] for j in sorted(columns)])
    return tuple(
        _over_pivot(row) for row in _kernel_rows(out_rows, ncols, skip=image_pivots)
    )


def _kernel_rows(rows, ncols, skip=()):
    """The RREF of the right null space of sparse rows, as integer rows.

    ``rows`` are {column: entry} dicts over ``ncols`` columns.  They are
    eliminated once, by the forward pass of :func:`_gauss_jordan` with
    their columns reversed, so that its pivots are the rightmost ones.  A
    column f is free there iff column f of the rows is a combination of
    the columns right of it, that is iff some kernel vector has its first
    nonzero entry at f: the free columns are exactly the pivots of the
    RREF of the kernel.  The RREF row at a free column f is the one kernel
    vector that is 1 at f and 0 at the other free columns; it is
    back-solved from the echelon rows (:func:`_solve_free`) for each free
    column not in ``skip``, only when the caller asks for it: the rows are
    yielded one at a time, in pivot order, so a caller that stops early
    back-solves no further.  Each is a dense tuple of ints, the RREF row
    times the positive lcm of its denominators: primitive, with a positive
    pivot.  No Fraction is made.
    """
    last = ncols - 1
    echelon = _gauss_jordan([{last - j: x for j, x in row.items()} for row in rows])
    order = sorted(echelon, reverse=True)
    for f in range(ncols):
        if last - f in echelon or f in skip:
            continue
        y = _solve_free(echelon, order, last - f)
        g = math.gcd(*y.values())
        yield tuple(y.get(last - j, 0) // g for j in range(ncols))


def _solve_free(echelon, order, f):
    """The kernel vector that is 1 at the free column f and 0 at the other
    free columns, as an integer vector y over the denominator y[f] > 0.

    ``echelon`` is the forward pass of :func:`_gauss_jordan` on rows with
    their columns reversed, ``order`` its pivot columns in decreasing
    order, and f a free column in the same reversed order; y is a
    {column: entry} dict in that order.  The pivots right of f stay 0;
    each pivot c < f, from the right, is solved from its row, whose other
    entries lie right of c.  y[f] grows only where a pivot entry does not
    divide.
    """
    y = {f: 1}
    for c in order:
        if c >= f:
            continue
        row = echelon[c]
        s = sum(x * y[j] for j, x in row.items() if j in y)
        if not s:
            continue
        v = row[c]
        g = math.gcd(s, v)
        a = abs(v) // g
        if a != 1:
            for j in y:
                y[j] *= a
        y[c] = -(a * s) // v
    return y


def block_offsets(layout):
    """({key: first coordinate of its block}, total dim) of a (key, dim) layout."""
    offs = {}
    off = 0
    for key, d in layout:
        offs[key] = off
        off += d
    return offs, off


class ZMatrix:
    """Immutable dense integer matrix, hashed and compared by its content."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry shape does not match rows x cols")
        if any(type(x) is not int for row in entries for x in row):
            raise TypeError("ZMatrix entries must be integers")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _of_ints(cls, rows, cols, entries):
        """Unchecked: for rows of ints by construction, as in products."""
        m = object.__new__(cls)
        for name, value in zip(cls.__slots__, (rows, cols, tuple(map(tuple, entries)))):
            object.__setattr__(m, name, value)
        return m

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
    @functools.lru_cache(maxsize=None)
    def identity(cls, n):
        """The n x n identity; one shared copy per n."""
        return cls._of_ints(n, n, [[int(i == j) for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, ZMatrix)
            and (self.rows, self.cols, self.entries)
            == (other.rows, other.cols, other.entries)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"ZMatrix({self.rows}x{self.cols})"

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.entries)) if other.rows else [()] * other.cols
        out = [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.entries]
        return ZMatrix._of_ints(self.rows, other.cols, out)


def unimodular_echelon(m: ZMatrix):
    """(U, U^-1), U unimodular with U @ m in row echelon form up to a
    column permutation: the rows of U past the rank of m span the integer
    vectors that vanish on its columns (Cohen, A Course in Computational
    Algebraic Number Theory, 1993, 2.4).

    Row operations on m beside the identity, each mirrored on U^-1 as its
    inverse column operation.  Step t swaps to (t, t) the smallest nonzero
    |entry| of the rows and columns >= t, first in row-major order (the
    column swap in the working copy only), clears column t below it by row
    Euclid steps and makes it positive.  That is the pivot rule of the
    Smith normal form, so where every pivot is 1, as on the rays of a
    smooth cone (the pivots multiply to the gcd of the maximal minors), U
    is the Smith form's: its column steps then only clear row t.
    """
    R, C = m.rows, m.cols
    W = [list(row) + [int(i == j) for j in range(R)] for i, row in enumerate(m.entries)]
    T = [[int(i == j) for j in range(R)] for i in range(R)]  # U^-1 transposed
    for t in range(min(R, C)):
        block = [(abs(W[i][j]), i, j) for i in range(t, R) for j in range(t, C) if W[i][j]]
        if not block:
            break
        _, i, j = min(block)
        W[t], W[i], T[t], T[i] = W[i], W[t], T[i], T[t]
        for row in W:
            row[t], row[j] = row[j], row[t]
        i = t + 1
        while i < R:
            if W[i][t]:
                k = W[i][t] // W[t][t]
                W[i] = [a - k * b for a, b in zip(W[i], W[t])]
                T[t] = [a + k * b for a, b in zip(T[t], T[i])]
                if W[i][t]:
                    W[t], W[i], T[t], T[i] = W[i], W[t], T[i], T[t]
                    i = t
            i += 1
        if W[t][t] < 0:
            W[t] = [-a for a in W[t]]
            T[t] = [-a for a in T[t]]
    return ZMatrix._of_ints(R, R, [row[C:] for row in W]), ZMatrix._of_ints(R, R, zip(*T))


def lex_subsets(n, p):
    """Lexicographically sorted p-subsets of range(n)."""
    return list(itertools.combinations(range(n), p))


def _bareiss(a):
    """Determinant of a square integer matrix (a list of lists it overwrites).

    Fraction-free Bareiss elimination (Bareiss, "Sylvester's identity and
    multistep integer-preserving Gaussian elimination", Math. Comp. 1968):
    every update (a_ij a_kk - a_ik a_kj) / a_{k-1,k-1} divides exactly.  A
    zero pivot is swapped with the first row below it that is nonzero
    there, flipping the sign.
    """
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i] = a[i], a[k]
            sign = -sign
        pivot_row = a[k]
        pivot = pivot_row[k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1] if n else 1


@functools.lru_cache(maxsize=None)
def wedge_columns(m: ZMatrix, p: int) -> tuple:
    """wedge^p(m) as a tuple of sparse integer columns, in lex p-subset bases.

    Column s lists the (row-subset index, minor) pairs of its nonzero p x p
    minors, from :func:`_bareiss`, in increasing index order: the one block
    form of every wedge power in the package.  The shape comes from m.rows
    and m.cols, so a map with no rows still has its columns.  The cache is
    the one store of minors: a ZMatrix hashes and compares by its content,
    so each (rows, cols, entries, p) is computed once, and equal matrices
    share one tuple, whichever caller built them.
    """
    a = m.entries
    row_subs = lex_subsets(m.rows, p)
    minors = (
        enumerate(_bareiss([[a[i][j] for j in cs] for i in rs]) for rs in row_subs)
        for cs in lex_subsets(m.cols, p)
    )
    return tuple(tuple((i, x) for i, x in col if x) for col in minors)
