"""Exact integer linear algebra over lattices.

Matrices are tuples of row tuples of Python ints, so all arithmetic is
exact at any size.  The central object is :class:`LatticeEmbedding`: a
cofinite sublattice of Z^n given by a basis matrix with positive
determinant, held in a canonical column-style `Hermite normal form
<https://en.wikipedia.org/wiki/Hermite_normal_form>`_.  Every path of
the package runs on ``hnf`` alone: an embedding is an HNF, a group's
lattice is cut out by one HNF per generator (see
:func:`mckaycuts.groups.embedding_from_spec`), and coset arithmetic is
one division by the HNF basis, ``LatticeEmbedding._divide``, whose
remainder is ``reduce`` and whose quotient is ``l1_coefficients``.
``snf`` is kept for callers of ``mckaycuts.snf``.

Both normal forms are sequences of one unimodular 2 x 2 Euclid step on
two rows or two columns, which turns the pair (a, b) in one coordinate
into (gcd(a, b), 0) and moves the transform with the matrix.  ``hnf``
gathers each row's gcd into its diagonal column and then reduces the
columns to its right; ``snf`` clears row t and column t in turn until
the pivot divides the rest.  Euclid runs from (b, a), so a positive
pivot that already divides its partner stays where it is: run from
(a, b), the step swaps two equal entries, and ``snf`` would trade the
same pivot back and forth forever.  Determinants stay with Bareiss
elimination, which bounds entry growth where Euclid steps do not.
"""

from __future__ import annotations

import operator
from itertools import product
from math import gcd

from .errors import SingularMatrixError

Vec = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


class _Record:
    """Base of the package's read-only records, compared by identity.

    A subclass declares its fields as class annotations, in order; names
    starting with ``_`` are not fields.  The constructor takes them
    positionally or by keyword, and afterwards no attribute can be
    assigned or deleted.  Fields named in ``_hidden`` stay out of the
    ``repr``.  The fields live in the instance ``__dict__``, so ``vars``,
    ``copy`` and ``pickle`` see them as on any plain object.
    """

    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls):
        own = cls.__dict__.get("__annotations__", {})  # not the bases'
        cls._fields = tuple(name for name in own if not name.startswith("_"))

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
    """A record equal to one of its own class with equal ``_compare`` fields,
    or with all fields equal when the class names none."""

    _compare: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compare or self._fields)

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


def _euclid_step(vecs, i: int, j: int, k: int) -> None:
    """Turn coordinate k of vectors i and j, (a, b) with b != 0, into (g, 0).

    With g = gcd(a, b) = x a + y b, vector i becomes x v_i + y v_j and
    vector j becomes (b/g) v_i - (a/g) v_j, a step of determinant -1,
    applied alike in every list of ``vecs``.  Euclid runs from (b, a),
    so when a > 0 divides b, x = 1, y = 0 and v_i is left as it is.
    """
    a, b = vecs[0][i][k], vecs[0][j][k]
    r0, x0, y0, r1, x1, y1 = b, 0, 1, a, 1, 0
    while r1:
        q = r0 // r1
        r0, x0, y0, r1, x1, y1 = r1, x1, y1, r0 - q * r1, x0 - q * x1, y0 - q * y1
    g, x, y = (r0, x0, y0) if r0 > 0 else (-r0, -x0, -y0)
    for vec in vecs:
        vi, vj = vec[i], vec[j]
        vec[i] = [x * s + y * t for s, t in zip(vi, vj)]
        vec[j] = [(b * s - a * t) // g for s, t in zip(vi, vj)]


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
    vecs = cols, ucols = _columns(m), _columns(identity_matrix(n))
    for row in range(n - 1, -1, -1):
        # Gather the gcd of row entries over columns 0..row into column `row`.
        for j in range(row):
            if cols[j][row]:
                _euclid_step(vecs, row, j, row)
        d = cols[row][row]
        if d == 0:
            raise SingularMatrixError("matrix has no Hermite normal form")
        if d < 0:
            for vec in vecs:
                vec[row] = [-x for x in vec[row]]
        for j in range(row + 1, n):
            q = cols[j][row] // cols[row][row]
            for vec in vecs:
                vec[j] = [x - q * y for x, y in zip(vec[j], vec[row])]
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
    v_cols = _columns(identity_matrix(cols))
    for t in range(min(rows, cols)):
        while True:
            # Clear row t with column steps, then column t with row steps,
            # which may disturb the row again.
            a_cols = _columns(a)
            for j in range(t + 1, cols):
                if a_cols[j][t]:
                    _euclid_step((a_cols, v_cols), t, j, t)
            a = _columns(a_cols)
            for i in range(t + 1, rows):
                if a[i][t]:
                    _euclid_step((a, u), t, i, t)
            if any(a[t][t + 1 :]):
                continue
            p = a[t][t]
            for i in range(t + 1, rows):
                # p divides x exactly when gcd(p, x) == |p|, also for p == 0.
                if any(gcd(p, x) != abs(p) for x in a[i][t + 1 :]):
                    break
            else:
                break
            # Pull a non-divisible entry into row t to shrink the pivot.
            for vec in (a, u):
                vec[t] = [x + y for x, y in zip(vec[t], vec[i])]
        if a[t][t] < 0:
            for vec in (a, u):
                vec[t] = [-x for x in vec[t]]
    s = tuple(tuple(row) for row in a)
    return s, tuple(tuple(row) for row in u), _from_columns(v_cols)


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

    def _divide(self, x) -> tuple[Vec, Vec]:
        """``(q, rep)`` with ``x = hnf @ q + rep`` and rep in the HNF box.

        Back-substitution against the HNF basis from the last coordinate
        upward: each q_i is the floor quotient of what is left in
        coordinate i by ``hnf[i][i]``, so rep lies in the box ``prod_i
        [0, hnf[i][i])``, one point per coset of L1.
        """
        rem = list(map(operator.index, x))
        self._check_dim(rem)
        q = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            q[i] = step = rem[i] // self.hnf[i][i]
            if step:
                for r in range(i + 1):
                    rem[r] -= step * self.hnf[r][i]
        return tuple(q), tuple(rem)

    def reduce(self, x) -> Vec:
        """Canonical representative of ``x + L1``, the remainder of ``_divide``.

        Two vectors reduce equal exactly when they differ by L1.
        """
        return self._divide(x)[1]

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
        """Coefficients of ``y`` in the HNF basis, or None if ``y`` is not in L1.

        They are the quotient of ``_divide``, whose remainder is zero
        exactly when ``y`` lies in L1.
        """
        q, rep = self._divide(y)
        return None if any(rep) else q

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
