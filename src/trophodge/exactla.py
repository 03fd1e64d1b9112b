"""Exact linear algebra over the rationals and the integers.

Every cohomology dimension computed by this package is the rank of a
matrix over Q, and every lattice question (saturation, quotient
coordinates and their integer section) is one Smith normal form, with
U^-1, or, for smoothness, a gcd of minors.  No floating point anywhere.

Every rank, reduced row echelon form and kernel comes out of one sparse
fraction-free Gauss-Jordan elimination, :func:`_gauss_jordan`, on rows
stored as {column: entry} dicts, the one matrix form of the package.
Each input row, with int or Fraction entries, is scaled once to a
primitive integer row; a row is cleared at a pivot row P as
a * row - b * P with the smallest integers a and b that cancel the
entry, then divided by its content.  Fractions are made only where an
integer row is divided by one of its entries: a reduced row by its
pivot, for unit pivots (:func:`_rref`, so an RREF or a kernel,
:meth:`QSubspace.kernel`), and a cohomology representative by its entry
at its free column (:func:`_solve_free`).  A rank makes none, and
neither does :func:`integer_rref`, the same RREF as primitive integer
rows.  :func:`homology_quotient` needs d_out @ d_in = 0, as for two
consecutive differentials of one complex: it reads the RREF of ker + im
off one forward elimination of d_out with rightmost pivots and
back-solves only the rows it returns.  The differentials of the
package, delta of the cochain complex and d_1 of the weight spectral
sequence, are written as such integer rows and reach
:func:`sparse_rank` and, for delta, :func:`homology_quotient` directly.
:class:`QMatrix` is only a dense view of such rows, for the benchmark's
counts.  Every determinant (an entry of a wedge power, an orientation
sign) comes out of :func:`_bareiss`: fraction-free Bareiss elimination
on integer rows.  Both cores clear the denominators
of a row by the same positive factor, :func:`_cleared`.  A wedge power
has one block form, the sparse columns of :func:`wedge_columns`: each
column the (row index, nonzero minor) pairs.  Its cache, keyed by the
content of the matrix (a :class:`ZMatrix` hashes its rows, cols and
entries) and p, is the one store of minors: both differentials, the
smoothness test and the volume elements of cells read it, and a matrix
that many cone pairs share is expanded once.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction


def _as_fraction_rows(rows):
    return tuple(
        tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows
    )


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


def _gauss_jordan(rows, reduce):
    """The one exact elimination: sparse fraction-free Gauss-Jordan.

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

    Returns {pivot column: primitive integer row}.  With ``reduce`` each
    row is also cleared, the same way, at the pivot columns of the rows
    below it, so the rows are those of the reduced row echelon form up to
    a nonzero factor each; without it they stay echelon.  No Fraction is
    made here.
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
    if reduce:
        for c in sorted(pivots, reverse=True):
            row = pivots[c]
            for j in [j for j in row if j != c and j in pivots]:
                _combine(row, j, pivots[j])
    return pivots


def _rref(rows, ncols):
    """Reduced row echelon form over Q of sparse rows (as for sparse_rank).

    Returns (pivots, reduced_rows) with unit pivots; rows are dense tuples
    of Fraction.  Each integer row of :func:`_gauss_jordan` is divided by
    its pivot entry here, the one place the elimination makes Fractions.
    """
    pivots = _gauss_jordan(rows, reduce=True)
    cols = sorted(pivots)
    zero, one = Fraction(0), Fraction(1)
    red = []
    for c in cols:
        row = pivots[c]
        v = row[c]
        dense = [zero] * ncols
        for j, x in row.items():
            dense[j] = Fraction(x, v)
        dense[c] = one
        red.append(tuple(dense))
    return cols, red


def integer_rref(rows, ncols):
    """The reduced row echelon form of sparse rows, as integer rows.

    Each dense tuple is the unit-pivot row of :func:`_rref` times the
    positive lcm of its denominators: the primitive row of
    :func:`_gauss_jordan` with its pivot entry made positive.  No Fraction
    is made.
    """
    out = []
    for c, row in sorted(_gauss_jordan(rows, reduce=True).items()):
        s = 1 if row[c] > 0 else -1
        out.append(tuple(s * row.get(j, 0) for j in range(ncols)))
    return out


def null_rows(rows, ncols):
    """The canonical basis of the right null space of sparse rows.

    ``rows`` are {column: entry} dicts over ``ncols`` columns, which
    :func:`_gauss_jordan` reduces.  For each free column f the vector is
    e_f minus the entries at column f of the unit-pivot rows, as a sparse
    integer row scaled by the lcm of their pivot entries; the basis is
    not itself reduced.
    """
    pivots = _gauss_jordan(rows, reduce=True)
    at = {}
    for c, row in pivots.items():
        for j, x in row.items():
            if j != c:
                at.setdefault(j, []).append((c, x, row[c]))
    rows = []
    for f in range(ncols):
        if f in pivots:
            continue
        terms = at.get(f, ())
        m = math.lcm(*(v for _, _, v in terms))
        row = {f: m}
        for c, x, v in terms:
            row[c] = -x * (m // v)
        rows.append(row)
    return rows


class QMatrix:
    """Immutable dense matrix over Q (row-major).

    The one dense rational matrix of the package: a view of sparse rows,
    which ``CochainComplex.deltas`` gives the benchmark's counts.  All
    rational algebra runs on the sparse rows themselves.
    """

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
    def from_sparse(cls, rows, cols):
        """The dense matrix of {column: entry} rows with ``cols`` columns."""
        zero = Fraction(0)
        ent = [[zero] * cols for _ in rows]
        for out, row in zip(ent, rows):
            for j, v in row.items():
                out[j] = v
        return cls(len(rows), cols, ent)

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
        return cls(ambient_dim, _rref(sparse_rows(vectors), ambient_dim)[1])

    @classmethod
    def kernel(cls, rows, ncols):
        """The right null space of {column: entry} rows over ``ncols`` columns.

        Its basis is the RREF of the canonical null vectors
        (:func:`null_rows`); with no rows it is the whole of Q^ncols.
        """
        return cls(ncols, _rref(null_rows(rows, ncols), ncols)[1])

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
    return len(_gauss_jordan(rows, reduce=False))


def homology_quotient(out_rows, ncols, in_rows):
    """Echelon basis of ker d_out modulo im d_in, from sparse rows.

    ``out_rows`` are the {column: entry} rows of d_out, whose source has
    ``ncols`` coordinates; ``in_rows`` are the rows of d_in, which maps
    into that source (one row per coordinate), or None for no incoming
    map.  The caller guarantees ``d_out @ d_in = 0``, as for delta_q and
    delta_{q-1} of one cochain complex; this is not checked.  The image is
    read off ``in_rows`` by a sparse transpose; empty rows and zero
    entries are skipped.  The result is the reduced basis of the vectors
    of ker d_out that vanish at the pivot columns of im: the rows of its
    RREF at the other pivots, as dense tuples of Fraction, one per
    dimension of the homology at the middle space.

    Those rows come from one forward elimination of d_out with its columns
    reversed, so that its pivots are the rightmost ones.  A column f is
    free there iff column f of d_out is a combination of the columns right
    of it, that is iff some vector of the kernel has its first nonzero
    entry at f: the free columns are exactly the pivots of the RREF of the
    kernel.  The RREF row at a free column f is the one kernel vector that
    is 1 at f and 0 at the other free columns; it is back-solved from the
    echelon rows (:func:`_solve_free`) only for the f that are not pivots
    of im.  The image pivots come from the forward pass over the columns
    of d_in alone.
    """
    columns = {}
    for i, row in enumerate(in_rows or ()):
        for j, x in row.items():
            if x:
                columns.setdefault(j, {})[i] = x
    image_pivots = _gauss_jordan([columns[j] for j in sorted(columns)], reduce=False)
    last = ncols - 1
    echelon = _gauss_jordan(
        [{last - j: x for j, x in row.items()} for row in out_rows], reduce=False
    )
    order = sorted(echelon, reverse=True)
    return tuple(
        _solve_free(echelon, order, last - f, ncols)
        for f in range(ncols)
        if last - f not in echelon and f not in image_pivots
    )


def _solve_free(echelon, order, f, ncols):
    """The vector of ker d_out that is 1 at the free column f and 0 at the
    other free columns, as a dense tuple of Fraction over the original
    columns.

    ``echelon`` is the forward pass of :func:`_gauss_jordan` on the rows
    of d_out with columns reversed, ``order`` its pivot columns in
    decreasing order, and f a free column in the same reversed order.  The pivots
    right of f stay 0; each pivot c < f, from the right, is solved from
    its row, whose other entries lie right of c.  The solution is kept as
    an integer vector y over the positive denominator y[f], which grows
    only where a pivot entry does not divide; the Fractions of the result
    are made here, where y is divided by y[f].
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
    last, denom = ncols - 1, y[f]
    dense = [Fraction(0)] * ncols
    for j, x in y.items():
        dense[last - j] = Fraction(x, denom)
    return tuple(dense)


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
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

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
        return ZMatrix(self.rows, other.cols, out)


def smith_normal_form(m: ZMatrix):
    """(U, D, V, U^-1) with U @ m @ V = D diagonal, U, V unimodular,
    d_i | d_{i+1}; each row operation on U takes its inverse column
    operation on U^-1.

    Deterministic: the pivot is always the smallest-magnitude nonzero
    entry of the working block, first occurrence in row-major order.
    """
    A = [list(row) for row in m.entries]
    R, C = m.rows, m.cols
    U = [[1 if i == j else 0 for j in range(R)] for i in range(R)]
    U_inv = [row[:] for row in U]
    V = [[1 if i == j else 0 for j in range(C)] for i in range(C)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for row in U_inv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, k):
        A[dst] = [a + k * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + k * b for a, b in zip(U[dst], U[src])]
        for row in U_inv:
            row[src] -= k * row[dst]

    def add_col(dst, src, k):
        for row in A:
            row[dst] += k * row[src]
        for row in V:
            row[dst] += k * row[src]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]
        for row in U_inv:
            row[i] = -row[i]

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
    return ZMatrix(R, R, U), ZMatrix(R, C, A), ZMatrix(C, C, V), ZMatrix(R, R, U_inv)


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
