"""Exact integer linear algebra over lattices.

Matrices are tuples of row tuples of Python ints, so all arithmetic is
exact at any size.  The central object is :class:`LatticeEmbedding`: a
cofinite sublattice of Z^n given by a basis matrix with positive
determinant, held in a canonical column-style `Hermite normal form
<https://en.wikipedia.org/wiki/Hermite_normal_form>`_.
"""

from __future__ import annotations

import operator
from itertools import product

from .errors import SingularMatrixError

Vec = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


class _Record:
    """Base of the package's read-only records, compared by identity.

    A subclass names its fields in ``_fields``; the constructor takes
    them positionally or by keyword, and afterwards no attribute can be
    assigned or deleted.  Fields named in ``_hidden`` stay out of the
    ``repr``.  The fields live in the instance ``__dict__``, so ``vars``,
    ``copy`` and ``pickle`` see them as on any plain object.
    """

    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        args += tuple(kwargs.pop(f) for f in fields[len(args) :] if f in kwargs)
        if len(args) != len(fields) or kwargs:
            raise TypeError(
                f"{type(self).__name__}() takes the fields {', '.join(fields)}"
            )
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in self._fields
            if name not in self._hidden
        )
        return f"{type(self).__qualname__}({shown})"


class _Value(_Record):
    """A record equal to one of its own class with equal ``_compare`` fields."""

    _compare: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compare)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def as_matrix(rows) -> Matrix:
    """Freeze a nested iterable of ints into a Matrix, validating shape.

    Entries must be integers; a float raises ``TypeError`` rather than
    being truncated.
    """
    mat = tuple(tuple(operator.index(x) for x in row) for row in rows)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("ragged rows in matrix input")
    return mat


def identity_matrix(k: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b or len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch")
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def det(m: Matrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _columns(m: Matrix) -> list[list[int]]:
    return [list(col) for col in zip(*m)]


def _from_columns(cols: list[list[int]]) -> Matrix:
    return tuple(tuple(row) for row in zip(*cols))


def hnf(m: Matrix) -> tuple[Matrix, Matrix]:
    """Column-style Hermite normal form of a nonsingular square matrix.

    Returns ``(H, U)`` with ``m @ U == H`` and ``U`` unimodular.  The
    convention is fixed as: ``H`` upper triangular, positive diagonal,
    and every entry to the right of a diagonal entry reduced into
    ``[0, diagonal)``.  This form is unique, so it canonically
    represents the column span of ``m``.
    """
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ValueError("hnf requires a square matrix")
    cols = _columns(m)
    ucols = _columns(identity_matrix(n))

    def combine(dst: int, src: int, q: int) -> None:
        for vec in (cols, ucols):
            vec[dst] = [a - q * b for a, b in zip(vec[dst], vec[src])]

    def swap(i: int, j: int) -> None:
        cols[i], cols[j] = cols[j], cols[i]
        ucols[i], ucols[j] = ucols[j], ucols[i]

    def negate(i: int) -> None:
        cols[i] = [-a for a in cols[i]]
        ucols[i] = [-a for a in ucols[i]]

    for row in range(n - 1, -1, -1):
        # Gather the gcd of row entries over columns 0..row into column `row`.
        while True:
            nonzero = [j for j in range(row + 1) if cols[j][row] != 0]
            if not nonzero:
                raise SingularMatrixError("matrix has no Hermite normal form")
            if nonzero == [row]:
                break
            j0 = min(nonzero, key=lambda j: abs(cols[j][row]))
            if cols[j0][row] < 0:
                negate(j0)
            for j in nonzero:
                if j != j0:
                    combine(j, j0, cols[j][row] // cols[j0][row])
            if all(cols[j][row] == 0 for j in range(row + 1) if j != j0):
                if j0 != row:
                    swap(j0, row)
        if cols[row][row] < 0:
            negate(row)
        for j in range(row + 1, n):
            combine(j, row, cols[j][row] // cols[row][row])
    return _from_columns(cols), _from_columns(ucols)


def snf(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form: ``(S, U, V)`` with ``U @ m @ V == S``.

    ``S`` is diagonal with nonnegative entries forming a divisibility
    chain; ``U`` and ``V`` are unimodular.  ``m`` may be any shape.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(row) for row in m]
    u = [list(row) for row in identity_matrix(rows)]
    v_cols = _columns(identity_matrix(cols)) if cols else []

    def row_sub(i: int, j: int, q: int) -> None:
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def row_negate(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def col_sub(i: int, j: int, q: int) -> None:
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        v_cols[i] = [x - q * y for x, y in zip(v_cols[i], v_cols[j])]

    def col_swap(i: int, j: int) -> None:
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        v_cols[i], v_cols[j] = v_cols[j], v_cols[i]

    t = 0
    while t < min(rows, cols):
        pivots = [
            (i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j] != 0
        ]
        if not pivots:
            break
        i0, j0 = min(pivots, key=lambda ij: abs(a[ij[0]][ij[1]]))
        if i0 != t:
            row_swap(i0, t)
        if j0 != t:
            col_swap(j0, t)
        while True:
            # Clear column t with row operations.
            for i in range(t + 1, rows):
                while a[i][t] != 0:
                    if abs(a[i][t]) < abs(a[t][t]):
                        row_swap(i, t)
                    row_sub(i, t, a[i][t] // a[t][t])
            # Clear row t with column operations; may disturb the column.
            for j in range(t + 1, cols):
                while a[t][j] != 0:
                    if abs(a[t][j]) < abs(a[t][t]):
                        col_swap(j, t)
                    col_sub(j, t, a[t][j] // a[t][t])
            if all(a[i][t] == 0 for i in range(t + 1, rows)):
                bad = next(
                    (
                        (i, j)
                        for i in range(t + 1, rows)
                        for j in range(t + 1, cols)
                        if a[i][j] % a[t][t] != 0
                    ),
                    None,
                )
                if bad is None:
                    break
                # Pull a non-divisible entry into row t to shrink the pivot.
                row_sub(t, bad[0], -1)
        if a[t][t] < 0:
            row_negate(t)
        t += 1
    s = tuple(tuple(row) for row in a)
    return s, tuple(tuple(row) for row in u), _from_columns(v_cols) if cols else ()


def kernel_basis(m: Matrix) -> list[Vec]:
    """Basis of the integer kernel ``{v : m @ v == 0}`` as column vectors."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if cols == 0:
        return []
    s, _, v = snf(m)
    basis = []
    for j in range(cols):
        if j >= rows or s[j][j] == 0:
            basis.append(tuple(v[i][j] for i in range(cols)))
    return basis


def _solve_upper(h: Matrix, y: Vec) -> Vec | None:
    """Solve ``h @ v == y`` over Z for upper triangular h, or None."""
    n = len(h)
    rem = list(y)
    v = [0] * n
    for i in range(n - 1, -1, -1):
        if rem[i] % h[i][i] != 0:
            return None
        q = rem[i] // h[i][i]
        v[i] = q
        for r in range(i + 1):
            rem[r] -= q * h[r][i]
    return tuple(v)


class LatticeEmbedding(_Value):
    """A cofinite sublattice L1 of L0 = Z^n with ``[L0 : L1] = m``.

    ``bprime`` holds the basis the embedding was built from (columns are
    basis vectors, determinant ``m > 0``); ``hnf`` caches its canonical
    Hermite normal form, which is what all coset arithmetic uses.
    Vector arguments must hold integers; a float raises ``TypeError``
    rather than being truncated.
    """

    n: int
    bprime: Matrix
    hnf: Matrix
    m: int
    _fields = _compare = ("n", "bprime", "hnf", "m")

    @classmethod
    def from_basis(cls, rows) -> "LatticeEmbedding":
        mat = as_matrix(rows)
        n = len(mat)
        if n < 1 or any(len(row) != n for row in mat):
            raise ValueError("basis must be a square matrix of rank >= 1")
        d = det(mat)
        if d == 0:
            raise SingularMatrixError("basis matrix is singular")
        if d < 0:
            raise ValueError(
                "basis determinant must be positive; negate one column"
            )
        h, _ = hnf(mat)
        return cls(n=n, bprime=mat, hnf=h, m=d)

    @classmethod
    def identity(cls, n: int) -> "LatticeEmbedding":
        return cls.from_basis(identity_matrix(n))

    @property
    def diagonal(self) -> Vec:
        return tuple(self.hnf[i][i] for i in range(self.n))

    def basis_columns(self) -> tuple[Vec, ...]:
        """Columns of the canonical HNF basis of L1."""
        return tuple(zip(*self.hnf))

    def _check_dim(self, x: Vec) -> None:
        if len(x) != self.n:
            raise ValueError(f"expected a vector of length {self.n}, got {len(x)}")

    def reduce(self, x) -> Vec:
        """Canonical representative of ``x + L1``.

        Back-substitution against the HNF basis from the last coordinate
        upward; the result lies in the box ``prod_i [0, hnf[i][i])``, so
        two vectors reduce equal exactly when they differ by L1.
        """
        x = tuple(map(operator.index, x))
        self._check_dim(x)
        rem = list(x)
        for i in range(self.n - 1, -1, -1):
            q = rem[i] // self.hnf[i][i]
            if q:
                for r in range(i + 1):
                    rem[r] -= q * self.hnf[r][i]
        return tuple(rem)

    def fundamental_domain(self) -> tuple[Vec, ...]:
        """All m canonical representatives, in lexicographic order."""
        return tuple(product(*(range(d) for d in self.diagonal)))

    def vertex(self, x) -> int:
        """Position of ``x + L1`` in ``fundamental_domain()``.

        The domain is the box of the HNF diagonal in lexicographic order,
        so a coset's position is the mixed-radix value of its canonical
        representative.  This is the one map from cosets to vertex
        numbers of the McKay quiver.
        """
        vertex = 0
        for i, c in enumerate(self.reduce(x)):
            vertex = vertex * self.hnf[i][i] + c
        return vertex

    def l1_coefficients(self, y) -> Vec | None:
        """Coefficients of ``y`` in the HNF basis, or None if ``y`` is not in L1."""
        y = tuple(map(operator.index, y))
        self._check_dim(y)
        return _solve_upper(self.hnf, y)

    def in_sublattice(self, x) -> bool:
        return self.l1_coefficients(x) is not None

    def element_order(self, x) -> int:
        """Order of ``x + L1`` in L0/L1; always a divisor of m."""
        x = tuple(map(operator.index, x))
        self._check_dim(x)
        for order in sorted(
            d for d in range(1, self.m + 1) if self.m % d == 0
        ):
            if self.in_sublattice(tuple(order * c for c in x)):
                return order
        raise AssertionError("order must divide the lattice index")
